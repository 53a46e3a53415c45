"""Dense float tensors with reverse-mode automatic differentiation.

Every differentiable operation records its inputs and a local
vector-Jacobian product on the output tensor; ``backward`` on a scalar
replays the recorded graph in reverse topological order, accumulating
gradients additively across fan-out.  The graph is consumed by the
backward pass: reusing an already-backpropagated intermediate raises.

Every kernel lives in this module, once, on numpy alone, and puts its
arithmetic on BLAS or on strided slices.  The windowed ops, ``conv2d``,
``depthwise_conv2d`` and ``max_pool2d``, share one padded-input layout:
``_phase_grid`` writes the input once into the stride's padded phase
grids (``_phase_layout``), and kernel tap t reads one contiguous window
of a flattened grid, ``windows[t]``, in place; ``_phase_gather`` moves a
gradient on those grids back into the input's shape (a rule in
`test_dependencies` keeps this the only padding path).  ``conv2d`` is an
implicit GEMM: each tap is one batched GEMM on its window, and so are
its gradients, so no column buffer is built.  ``depthwise_conv2d`` uses
the stride-1 grid.  Its forward and input gradient cut the output width
into tiles and run k banded GEMMs, with the tiles as one more batch axis
(``_depthwise_correlate``); its weight gradient is one dot product per
tap, on the tap's window.  ``max_pool2d`` keeps a running maximum over
the windows of a -inf-filled grid.  ``masked_avg_pool`` is batched
GEMMs on the flattened maps.  All math uses a fixed reduction order, so
identical inputs give bit-identical outputs run to run.

The other kernels count numpy passes.  Two primitives are slow out of
proportion on numpy 2.x.  On a [2,7,64,64] float32 array, ``np.where``
on a data-dependent mask takes 0.40 ms, against 0.07 ms for the same
select as arithmetic and 0.05 ms on a predictable mask: the cost is
branch misprediction.  ``argmax`` over axis 1 takes 0.35 ms, against
0.01 ms for ``max`` over that axis: numpy first copies the array into
last-axis order, and ``argmax`` over a short last axis still pays per
row.  So no kernel here calls ``np.where``, ``argmax`` never moves an
axis (a test in `test_dependencies` keeps both rules), and per-pixel
selections over channels or window taps are elementwise passes.
``sigmoid_values`` selects its branch with ``min(x, 0)``,
``batch_norm2d`` reuses one centred copy and its own parameter
gradients, `losses.diversity_loss` tracks the top two channels in one
loop, and ``max_pool2d`` the winning tap in one loop over the taps.

`PRIMITIVES` names the ops the model is built from.  The loss terms are
single ops of their own in `losses`, built on the same `apply_op` seam.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Sequence

import numpy as np

from .errors import AutogradError, NumericError, ShapeError

DEFAULT_DTYPE = np.float64

# Differentiable primitives the gradient-check harness must cover.
PRIMITIVES = (
    "add",
    "mul",
    "relu",
    "sigmoid",
    "sum",
    "mean",
    "softmax",
    "reshape",
    "linear",
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "batch_norm2d",
    "masked_avg_pool",
)

_grad_enabled = True
_checked = False


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / logging)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def set_checked(flag: bool) -> None:
    """Toggle NaN/Inf detection on every op output."""
    global _checked
    _checked = bool(flag)


def checked_enabled() -> bool:
    return _checked


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None
        self._consumed = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every reachable requires-grad leaf.

        Requires a scalar; consumes the recorded graph, so a second call
        (or building new ops on consumed intermediates) raises.
        """
        if self.data.size != 1:
            raise AutogradError(f"backward requires a scalar, got shape {self.shape}")
        if self._consumed:
            raise AutogradError("backward already ran on this graph; re-run the forward pass")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._vjp is not None and id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._vjp is None:
                continue
            grads = node._vjp(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
            # Every consumer of `node` ran before it, so its gradient is
            # final: consume it now, freeing its closure, inputs and
            # gradient; grads stay only on leaves.
            node._vjp = None
            node._parents = ()
            node._consumed = True
            node.grad = None
        if self._vjp is None and not self._consumed:
            self._consumed = True


def _lift(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _assert_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite value produced in checked mode")


def apply_op(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result, recording `vjp` when gradients are needed.

    `vjp(grad_out)` must return one gradient array (or None) per parent.
    """
    if _checked:
        _assert_finite(data)
    for p in parents:
        if p._consumed:
            raise AutogradError("input tensor belongs to an already-consumed graph")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from exc

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return apply_op(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from exc

    def vjp(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return apply_op(data, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def vjp(g):
        return (g * mask,)

    return apply_op(a.data * mask, (a,), vjp)


def sigmoid_values(arr: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw array (exp arguments always <= 0).

    The two-branch formula 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) for x < 0
    as arithmetic: the numerator exp(min(x, 0)) is 1 on the first branch,
    so the result is bit-identical to selecting between the branches,
    without a data-dependent ``np.where`` (see the module docstring).
    """
    return np.exp(np.minimum(arr, 0.0)) / (1.0 + np.exp(-np.abs(arr)))


def sigmoid(a: Tensor) -> Tensor:
    data = sigmoid_values(a.data)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return apply_op(data, (a,), vjp)


# -- reductions --------------------------------------------------------------


def _norm_axes(axis, ndim) -> tuple[int, ...] | None:
    if axis is None:
        return None
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    axes = tuple(sorted(a % ndim for a in axis))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axis}")
    return axes


def _expand_reduced(g: np.ndarray, shape, axes, keepdims) -> np.ndarray:
    if axes is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        return (_expand_reduced(g, a.shape, axes, keepdims).copy(),)

    return apply_op(np.asarray(data), (a,), vjp)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    data = a.data.mean(axis=axes, keepdims=keepdims)
    count = a.size if axes is None else int(np.prod([a.shape[i] for i in axes]))

    def vjp(g):
        return (_expand_reduced(g, a.shape, axes, keepdims) / count,)

    return apply_op(np.asarray(data), (a,), vjp)


def softmax(a: Tensor, axis: int) -> Tensor:
    axis = int(axis) % a.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return apply_op(data, (a,), vjp)


# -- shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return apply_op(data, (a,), vjp)


# -- dense / convolutional ---------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map x @ weight.T + bias for x[B,Din], weight[Dout,Din]."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: x{x.shape} incompatible with weight{weight.shape}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias{bias.shape} incompatible with weight{weight.shape}")
    data = x.data @ weight.data.T
    if bias is not None:
        data = data + bias.data

    def vjp(g):
        gx = g @ weight.data if x.requires_grad else None
        gw = g.T @ x.data if weight.requires_grad else None
        gb = g.sum(axis=0) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(data, parents, vjp)


def _phase_axis(size: int, padding: int, stride: int, phase: int, count: int) -> tuple[slice, slice]:
    """Along one spatial axis, the slice of x and the slice of a phase grid
    that hold the same pixels.  Grid index r holds padded index
    phase + stride*r, that is x index phase - padding + stride*r, for
    r < count; grid indices in the padding or past x hold the fill."""
    first = max(0, -((phase - padding) // stride))
    stop = max(first, min(count, -((phase - padding - size) // stride)))
    start = phase - padding + stride * first
    return slice(start, start + stride * (stop - first), stride), slice(first, stop)


@functools.lru_cache(maxsize=256)
def _phase_layout(h: int, wd: int, k: int, stride: int, padding: int) -> tuple:
    """Geometry of a k-by-k window op on the polyphase padded grid, for an
    [.., h, wd] input: ``(ho, wo, grid, scatter, windows)``.  ``conv2d``,
    ``depthwise_conv2d`` (stride 1) and ``max_pool2d`` all read it.

    ``grid`` is the [m*m, rows, Wq] shape of the phase grids, m = min(k,
    stride); ``scatter`` pairs each phase's x slice with its grid slice
    (phase (a, c) is grid a*m + c); ``windows[t]`` indexes the flat
    window of length Ho*Wq that tap t = i*k + j reads.  Pure in its
    integer arguments, so the model's few window shapes are computed once.
    """
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    e, m = (k - 1) // stride, min(k, stride)
    # Tap (k-1, k-1)'s window runs e elements past Ho+e rows: one more
    # row of fill holds them.
    rows, wq = ho + e + (e > 0), wo + e
    rows_at = [_phase_axis(h, padding, stride, a, rows) for a in range(m)]
    cols_at = [_phase_axis(wd, padding, stride, c, wq) for c in range(m)]
    scatter = tuple(((..., xr, xc), (a * m + c, ..., gr, gc))
                    for a, (xr, gr) in enumerate(rows_at) for c, (xc, gc) in enumerate(cols_at))
    n = ho * wq
    windows = []
    for i in range(k):
        for j in range(k):
            start = (i // stride) * wq + j // stride
            windows.append(((i % stride) * m + j % stride, ..., slice(start, start + n)))
    return ho, wo, (m * m, rows, wq), scatter, tuple(windows)


def _phase_grid(op: str, x: np.ndarray, k: int, stride: int, padding: int, fill: float = 0.0) -> tuple:
    """x[B,C,h,wd] written once into the phase grids of ``_phase_layout``,
    every other grid cell `fill`: ``(flat, layout)``, flat the
    [m*m, B, C, rows*Wq] grids with each phase's rows flattened.  The one
    padded-input layout of the module."""
    # Every output pixel must meet at least one pixel of x, which holds
    # for 0 <= padding <= k-1; the depthwise input gradient also
    # re-grids its output gradient with padding k-1-padding, which must
    # not be negative.
    if not 0 <= padding <= k - 1:
        raise ShapeError(f"{op}: padding {padding} outside [0, {k - 1}] for kernel {k}")
    b, c, h, wd = x.shape
    if h + 2 * padding < k or wd + 2 * padding < k:
        raise ShapeError(f"{op}: kernel {k} larger than padded input {x.shape}")
    layout = _phase_layout(h, wd, k, stride, padding)
    phases, rows, wq = layout[2]
    shape = (phases, b, c, rows, wq)
    grid = np.full(shape, fill, dtype=x.dtype) if fill else np.zeros(shape, dtype=x.dtype)
    for at_x, at_grid in layout[3]:
        grid[at_grid] = x[at_x]
    return grid.reshape(phases, b, c, rows * wq), layout


def _phase_gather(gflat: np.ndarray, layout: tuple, shape: tuple) -> np.ndarray:
    """A gradient on flat phase grids (``_phase_grid``) moved back into
    x's shape; pixels of x that no grid holds get zero."""
    phases, rows, wq = layout[2]
    ggrid = gflat.reshape(phases, *shape[:2], rows, wq)
    gx = np.zeros(shape, dtype=gflat.dtype)
    for at_x, at_grid in layout[3]:
        gx[at_x] = ggrid[at_grid]
    return gx


def _grid_rows(g: np.ndarray, wq: int) -> np.ndarray:
    """An output gradient g[B,C,Ho,Wo] on the [B,C,Ho*Wq] rows that the
    taps' windows cover; the wrapped columns from Wo on are zero."""
    b, c, ho, wo = g.shape
    gq = np.zeros((b, c, ho, wq), dtype=g.dtype)
    gq[..., :wo] = g
    return gq.reshape(b, c, ho * wq)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Cross-correlation of x[B,Cin,H,W] with weight[Cout,Cin,k,k].

    Requires 0 <= padding <= k-1.  One pass over the k*k kernel taps, one
    batched GEMM each, serves every stride, kernel size and padding, with
    no column buffer (implicit GEMM).  x is written once into the
    m = min(k, stride)**2 phase grids that the taps read (``_phase_grid``):
    phase (a, c) holds padded pixel (a + stride*r, c + stride*q) at (r, q),
    on a [B, Cin, Ho+e (+1 zero row when e > 0), Wq] grid, e = (k-1)//stride
    and Wq = Wo+e; stride 1 is the one-phase case.  Output pixel (r, q)
    meets padded pixel (i + stride*r, j + stride*q) through tap (i, j),
    so on the flattened grid the tap reads one contiguous window of phase
    (i % stride, j % stride), starting at (i//stride)*Wq + j//stride, of
    length Ho*Wq, which BLAS reads in place (``_phase_layout``).  The
    output is the sum over taps of weight[:, :, i, j] times the tap's
    window, on a [B, Cout, Ho*Wq] grid whose columns from Wo on wrap into
    the next row and are cropped.  Backward, the output gradient is
    zero-extended onto the same grid; a tap's weight gradient is that
    gradient times its window, and the input gradient slice-adds
    weight[:, :, i, j].T times that gradient onto the tap's window of a
    phase-shaped buffer, which is gathered back into x's shape
    (``_phase_gather``).  The vjp keeps only the phase grids, about one
    copy of x.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input/weight, got {x.shape} / {weight.shape}")
    b, cin = x.shape[:2]
    cout, cin_w, k, k2 = weight.shape
    if cin != cin_w or k != k2:
        raise ShapeError(f"conv2d: weight{weight.shape} incompatible with input{x.shape}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias{bias.shape} must be ({cout},)")

    flat, layout = _phase_grid("conv2d", x.data, k, stride, padding)
    ho, wo, (_, _, wq), _, windows = layout
    views = [flat[at] for at in windows]
    # Tap-major weight: wt[t] = weight[:, :, i, j], a [Cout, Cin] matrix.
    wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(k * k, cout, cin)
    out = np.matmul(wt[0], views[0])
    for t in range(1, k * k):
        out += np.matmul(wt[t], views[t])
    data = out.reshape(b, cout, ho, wq)[..., :wo]
    data = data + bias.data[:, None, None] if bias is not None else np.ascontiguousarray(data)

    def vjp(g):
        gq = _grid_rows(g, wq)
        gw = None
        if weight.requires_grad:
            gw = np.empty((cout, cin, k, k), dtype=np.result_type(g, flat))
            for t, view in enumerate(views):
                gw[:, :, t // k, t % k] = np.matmul(gq, view.transpose(0, 2, 1)).sum(axis=0)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gflat = np.zeros(flat.shape, dtype=np.result_type(g, wt))
            for w_t, at in zip(wt, windows):
                gflat[at] += np.matmul(w_t.T, gq)
            gx = _phase_gather(gflat, layout, x.shape)
        ret = (gx, gw)
        return ret + (gb,) if bias is not None else ret

    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(data, parents, vjp)


def _window_view(flat: np.ndarray, shape: tuple, steps: tuple) -> np.ndarray:
    """Read-only view of the contiguous array `flat`, `steps` in elements.
    numpy refuses a view that would reach past `flat`'s buffer."""
    strides = tuple(step * flat.itemsize for step in steps)
    view = np.ndarray(shape, flat.dtype, flat, 0, strides)
    view.flags.writeable = False
    return view


def _depthwise_correlate(flat: np.ndarray, layout: tuple, w: np.ndarray) -> np.ndarray:
    """Valid per-channel correlation of a flat stride-1 grid
    (``_phase_grid``, [1,B,N,rows*Wq]) with w[N,k,k]: the [B,N,ho,wo]
    output.

    The output width is cut into tiles of equal width, at most 16.
    Kernel row i becomes one banded [tile+k-1, tile] matrix per channel,
    band[i, n, q + j, q] = w[n, i, j], shared by every tile, so the output
    is the sum over i of k batched GEMMs whose batch axes are (B, N, tile):
    tile t of kernel row i reads grid rows i..i+ho-1, columns t*tile on, a
    view BLAS reads in place.  A band does (tile+k-1)/k times the needed
    multiply-adds.  The last tile's columns past wo wrap into the next row,
    or into the grid's zero row, and are cropped.
    """
    _, b, n, size = flat.shape
    ho, wo, (_, _, wq), _, _ = layout
    k = w.shape[1]
    # A 1x1 kernel's grid has no zero row to hold a wrapped tile: one tile.
    tiles = -(-wo // 16) if k > 1 else 1
    tile = -(-wo // tiles)
    view = _window_view(flat, (b, n, tiles, ho + k - 1, tile + k - 1), (n * size, size, tile, wq, 1))
    # band[i, n] flattened: entry (q + j, q) sits at j*tile + q*(tile+1).
    band = np.zeros((k, n, (tile + k - 1) * tile), dtype=np.result_type(flat, w))
    band[:, :, np.arange(k)[:, None] * tile + np.arange(tile) * (tile + 1)] = w.transpose(1, 0, 2)[..., None]
    band = band.reshape(k, n, 1, tile + k - 1, tile)
    out = np.matmul(view[..., :ho, :], band[0])
    for i in range(1, k):
        out += np.matmul(view[..., i : i + ho, :], band[i])
    return out.transpose(0, 1, 3, 2, 4).reshape(b, n, ho, tiles * tile)[..., :wo]


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """Per-channel k-by-k correlation: channel n of x convolved with weight[n].

    Stride is fixed at 1; with padding k//2 the spatial size is preserved.
    Requires 0 <= padding <= k-1.  x is written once into its padded grid
    (``_phase_grid``), the stride-1 grid ``conv2d`` uses.  The forward
    pass and the input gradient share one width-tiled banded-GEMM helper,
    ``_depthwise_correlate``: dx is the correlation of the output
    gradient, in its grid padded by k-1-padding, with the flipped kernel.
    The weight gradient is k*k dot products on the flat grid, as in
    ``conv2d``: tap (i, j) reads the window of length Ho*Wq that starts
    at i*Wq + j, and dots it with the output gradient zero-extended to
    [B,N,Ho,Wq], summed over the batch.  The vjp keeps only the grid.
    """
    if x.ndim != 4 or weight.ndim != 3 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"depthwise_conv2d: x{x.shape} incompatible with weight{weight.shape}")
    n, k, k2 = weight.shape
    if k != k2:
        raise ShapeError("depthwise_conv2d: kernel must be square")
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"depthwise_conv2d: bias{bias.shape} must be ({n},)")

    flat, layout = _phase_grid("depthwise_conv2d", x.data, k, 1, padding)
    ho, _, (_, _, wq), _, _ = layout
    data = _depthwise_correlate(flat, layout, weight.data)
    data = data + bias.data[:, None, None] if bias is not None else np.ascontiguousarray(data)

    def vjp(g):
        gw = None
        if weight.requires_grad:
            b, size = g.shape[0], flat.shape[3]
            gq = _grid_rows(g, wq)[:, :, None, None, :, None]
            # windows[b, n, i, j, 0, :] is tap (i, j)'s window.
            windows = _window_view(flat, (b, n, k, k, 1, ho * wq), (n * size, size, wq, 1, 0, 1))
            gw = np.matmul(windows, gq).reshape(b, n, k, k).sum(axis=0)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gflat, glayout = _phase_grid("depthwise_conv2d", g, k, 1, k - 1 - padding)
            gx = _depthwise_correlate(gflat, glayout, weight.data[:, ::-1, ::-1])
        ret = (gx, gw)
        return ret + (gb,) if bias is not None else ret

    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(data, parents, vjp)


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Max over each kernel-by-kernel window of x[B,C,H,W], padded with -inf.

    Requires 0 <= padding <= kernel-1, so every window meets a pixel of x.
    x is written once into its phase grids, filled with -inf
    (``_phase_grid``), and tap t = i*kernel + j reads the same flat window
    as in ``conv2d``.  One pass over the taps keeps the running
    ``np.maximum`` and the winning tap, updated branch-free with a strict
    ``>``, so ties go to the lowest offset, as ``argmax`` would put them.
    The vjp slice-adds the output gradient where tap t won onto tap t's
    window of a zeroed grid, and gathers that back into x's shape.  It
    keeps only the winning taps, one byte per pixel of the [Ho, Wq] grid.
    """
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d: need 4-d input, got {x.shape}")
    b, c = x.shape[:2]
    flat, layout = _phase_grid("max_pool2d", x.data, kernel, stride, padding, -np.inf)
    ho, wo, (_, _, wq), _, windows = layout
    grid_shape = flat.shape  # the vjp keeps this, not the -inf grid
    best = flat[windows[0]].copy()
    arg = np.zeros(best.shape, dtype=np.min_scalar_type(kernel * kernel - 1))
    for t in range(1, kernel * kernel):
        window = flat[windows[t]]
        arg += (window > best) * (t - arg)
        np.maximum(best, window, out=best)
    data = np.ascontiguousarray(best.reshape(b, c, ho, wq)[..., :wo])

    def vjp(g):
        gq = _grid_rows(g, wq)
        gflat = np.zeros(grid_shape, dtype=x.dtype)
        for t, at in enumerate(windows):
            gflat[at] += gq * (arg == t)
        return (_phase_gather(gflat, layout, x.shape),)

    return apply_op(data, (x,), vjp)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization with affine transform.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running buffers in place (unbiased variance, torch
    convention); eval mode normalizes with the running buffers.

    The training forward takes one mean and one centred copy x - mean.
    That copy gives the variance as sum((x - mean)^2) / m, bit for bit
    what ``np.var`` returns without its second mean, and is then scaled
    in place into xhat.  The gradient reuses the beta and gamma
    gradients sum(g) and sum(g*xhat):
    gx = gamma*invstd * (g - sum(g)/m - xhat*sum(g*xhat)/m).  Eval mode
    folds the running statistics into one per-channel x*scale + shift.
    """
    if x.ndim != 4 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(f"batch_norm2d: bad shapes x{x.shape} gamma{gamma.shape}")
    b, c, h, wd = x.shape
    m = b * h * wd
    axes = (0, 2, 3)
    if training:
        mu = x.data.mean(axis=axes)
        xhat = x.data - mu[:, None, None]
        var = (xhat * xhat).sum(axis=axes) / m
        invstd = 1.0 / np.sqrt(var + eps)
        xhat *= invstd[:, None, None]
        data = xhat * gamma.data[:, None, None]
        data += beta.data[:, None, None]
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mu = running_mean.copy()  # the vjp must see the mean this forward used
        invstd = 1.0 / np.sqrt(running_var + eps)
        scale = gamma.data * invstd
        data = x.data * scale[:, None, None]
        data += (beta.data - mu * scale)[:, None, None]

    def vjp(g):
        k = (gamma.data * invstd)[:, None, None]
        sg = g.sum(axis=axes)
        if not training:
            return g * k, (g * (x.data - mu[:, None, None])).sum(axis=axes) * invstd, sg
        sgx = (g * xhat).sum(axis=axes)
        gx = xhat * (-sgx / m)[:, None, None]
        gx += g
        gx -= (sg / m)[:, None, None]
        gx *= k
        return gx, sgx, sg

    return apply_op(data, (x, gamma, beta), vjp)


def masked_avg_pool(feature: Tensor, masks: Tensor) -> Tensor:
    """Spatial mean of feature[B,C,H,W] gated by each mask in masks[B,N,H,W].

    Entry (b, n, c) is the mean over (h, w) of feature[b, c] * masks[b, n]:
    the pooled attended feature of every mask channel, all at once.  On
    the [B,N,HW] and [B,C,HW] reshapes the output and both gradients are
    batched GEMMs.
    """
    if feature.ndim != 4 or masks.ndim != 4 or feature.shape[0] != masks.shape[0] \
            or feature.shape[2:] != masks.shape[2:]:
        raise ShapeError(
            f"masked_avg_pool: feature {feature.shape} incompatible with masks {masks.shape}"
        )
    b, c, h, wd = feature.shape
    area = h * wd
    f = feature.data.reshape(b, c, area)
    m = masks.data.reshape(b, -1, area)
    data = np.matmul(m, f.transpose(0, 2, 1)) / area

    def vjp(g):
        gf = gm = None
        if feature.requires_grad:
            gf = (np.matmul(g.transpose(0, 2, 1), m) / area).reshape(feature.shape)
        if masks.requires_grad:
            gm = (np.matmul(g, f) / area).reshape(masks.shape)
        return gf, gm

    return apply_op(data, (feature, masks), vjp)
