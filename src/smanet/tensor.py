"""Dense float tensors with reverse-mode automatic differentiation.

Every differentiable operation records its inputs and a local
vector-Jacobian product on the output tensor; ``backward`` on a scalar
replays the recorded graph in reverse topological order, accumulating
gradients additively across fan-out.  The graph is consumed by the
backward pass: reusing an already-backpropagated intermediate raises.

Every kernel lives in this module, once, on numpy alone, and puts its
arithmetic on BLAS or on strided slices.  ``conv2d`` is an implicit
GEMM: it writes its input once into the stride's padded phase grids
(``_phase_layout``), and each kernel tap is one batched GEMM on a
contiguous window of a flattened grid, which BLAS reads in place; its
gradients run one GEMM per tap against the same windows, so no column
buffer is built.  ``depthwise_conv2d`` writes its input once into the
same stride-1 grid.  Its forward and input gradient cut the output width
into tiles and run k banded GEMMs, with the tiles as one more batch axis
(``_depthwise_correlate``); its weight gradient is one dot product per
tap, on the tap's window of the flattened grid.  ``masked_avg_pool`` is
batched GEMMs on the flattened maps.  All math uses a fixed reduction
order, so identical inputs give bit-identical outputs run to run.

`PRIMITIVES` names the ops the model is built from.  The loss terms are
single ops of their own in `losses`, built on the same `apply_op` seam.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """Numerically stable logistic on a raw array (exp argument always <= 0)."""
    z = np.exp(-np.abs(arr))
    return np.where(arr >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


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


def _pad_hw(x: np.ndarray, padding: int, fill: float = 0.0) -> np.ndarray:
    """Pad the two spatial axes of an [B,C,H,W] array with `fill`."""
    if not padding:
        return x
    b, c, h, w = x.shape
    out = np.full((b, c, h + 2 * padding, w + 2 * padding), fill, dtype=x.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


def _check_padding(op: str, k: int, padding: int) -> None:
    # The depthwise input gradient correlates with the flipped kernel on
    # the gradient's grid padded by k-1-padding, which must not be
    # negative.  conv2d's phase grids would hold any padding; it keeps the
    # same bound, under which every output pixel still meets at least one
    # pixel of x.
    if not 0 <= padding <= k - 1:
        raise ShapeError(f"{op}: padding {padding} outside [0, {k - 1}] for kernel {k}")


def _taps(k: int, stride: int, ho: int, wo: int) -> list[tuple]:
    """Index of the [..., Ho, Wo] strided slice of the padded input that
    each window offset meets, t = i*k + j first to last: output pixel
    (r, q) reads padded pixel (i + stride*r, j + stride*q) through offset
    (i, j).  Only the ``max_pool2d`` vjp uses it; ``conv2d`` reads
    contiguous windows of its phase grids instead (``_phase_layout``)."""
    return [(..., slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))
            for i in range(k) for j in range(k)]


def _phase_axis(size: int, padding: int, stride: int, phase: int, count: int) -> tuple[slice, slice]:
    """Along one spatial axis, the slice of x and the slice of a phase grid
    that hold the same pixels.  Grid index r holds padded index
    phase + stride*r, that is x index phase - padding + stride*r, for
    r < count; grid indices in the padding or past x stay zero."""
    first = max(0, -((phase - padding) // stride))
    stop = max(first, min(count, -((phase - padding - size) // stride)))
    start = phase - padding + stride * first
    return slice(start, start + stride * (stop - first), stride), slice(first, stop)


@functools.lru_cache(maxsize=256)
def _phase_layout(h: int, wd: int, k: int, stride: int, padding: int) -> tuple:
    """Geometry of ``conv2d`` on the polyphase padded grid, for an
    [.., h, wd] input: ``(ho, wo, grid, scatter, windows)``.

    ``grid`` is the [m*m, rows, Wq] shape of the phase grids, m = min(k,
    stride); ``scatter`` pairs each phase's x slice with its grid slice
    (phase (a, c) is grid a*m + c); ``windows[t]`` indexes the flat
    window of length Ho*Wq that tap t = i*k + j reads.  Pure in its
    integer arguments, so the model's few conv shapes are computed once.
    """
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    e, m = (k - 1) // stride, min(k, stride)
    # Tap (k-1, k-1)'s window runs e elements past Ho+e rows: one more
    # zero row holds them.
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
    m = min(k, stride)**2 phase grids that the taps read: phase (a, c)
    holds padded pixel (a + stride*r, c + stride*q) at (r, q), on a
    [B, Cin, Ho+e (+1 zero row when e > 0), Wq] grid, e = (k-1)//stride
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
    phase-shaped buffer, whose phases are then scattered back into x's
    shape.  The vjp keeps only the phase grids, about one copy of x.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input/weight, got {x.shape} / {weight.shape}")
    b, cin, h, wd = x.shape
    cout, cin_w, k, k2 = weight.shape
    if cin != cin_w or k != k2:
        raise ShapeError(f"conv2d: weight{weight.shape} incompatible with input{x.shape}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias{bias.shape} must be ({cout},)")
    _check_padding("conv2d", k, padding)
    if h + 2 * padding < k or wd + 2 * padding < k:
        raise ShapeError(f"conv2d: kernel {k} larger than padded input {x.shape}")

    ho, wo, (phases, rows, wq), scatter, windows = _phase_layout(h, wd, k, stride, padding)
    grid = np.zeros((phases, b, cin, rows, wq), dtype=x.dtype)
    for at_x, at_grid in scatter:
        grid[at_grid] = x.data[at_x]
    flat = grid.reshape(phases, b, cin, rows * wq)
    views = [flat[at] for at in windows]
    # Tap-major weight: wt[t] = weight[:, :, i, j], a [Cout, Cin] matrix.
    wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(k * k, cout, cin)
    out = np.matmul(wt[0], views[0])
    for t in range(1, k * k):
        out += np.matmul(wt[t], views[t])
    data = out.reshape(b, cout, ho, wq)[..., :wo]
    data = data + bias.data[:, None, None] if bias is not None else np.ascontiguousarray(data)

    def vjp(g):
        gq = np.zeros((b, cout, ho, wq), dtype=g.dtype)
        gq[..., :wo] = g
        gq = gq.reshape(b, cout, ho * wq)
        gw = None
        if weight.requires_grad:
            gw = np.empty((cout, cin, k, k), dtype=np.result_type(g, grid))
            for t, view in enumerate(views):
                gw[:, :, t // k, t % k] = np.matmul(gq, view.transpose(0, 2, 1)).sum(axis=0)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gflat = np.zeros(flat.shape, dtype=np.result_type(g, wt))
            for w_t, at in zip(wt, windows):
                gflat[at] += np.matmul(w_t.T, gq)
            ggrid = gflat.reshape(grid.shape)
            gx = np.zeros(x.shape, dtype=gflat.dtype)
            for at_x, at_grid in scatter:
                gx[at_x] = ggrid[at_grid]
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


def _depthwise_grid(x: np.ndarray, k: int, padding: int) -> tuple:
    """x[B,N,h,wd] written once into the stride-1 padded grid of
    ``_phase_layout``: ``(flat, ho, wo, wq)``, flat the [B,N,Hp+1,Wp]
    grid as [B,N,(Hp+1)*Wp], Wq = Wp.  Its last row is zero (k > 1); the
    windows that run past the padded rows read it."""
    ho, wo, (_, rows, wq), scatter, _ = _phase_layout(x.shape[2], x.shape[3], k, 1, padding)
    grid = np.zeros((1, *x.shape[:2], rows, wq), dtype=x.dtype)
    for at_x, at_grid in scatter:
        grid[at_grid] = x[at_x]
    return grid.reshape(*x.shape[:2], rows * wq), ho, wo, wq


def _depthwise_correlate(flat: np.ndarray, ho: int, wo: int, wq: int, w: np.ndarray) -> np.ndarray:
    """Valid per-channel correlation of a flat padded grid (``_depthwise_grid``)
    with w[N,k,k]: the [B,N,ho,wo] output.

    The output width is cut into tiles of equal width, at most 16.
    Kernel row i becomes one banded [tile+k-1, tile] matrix per channel,
    band[i, n, q + j, q] = w[n, i, j], shared by every tile, so the output
    is the sum over i of k batched GEMMs whose batch axes are (B, N, tile):
    tile t of kernel row i reads grid rows i..i+ho-1, columns t*tile on, a
    view BLAS reads in place.  A band does (tile+k-1)/k times the needed
    multiply-adds.  The last tile's columns past wo wrap into the next row,
    or into the grid's zero row, and are cropped.
    """
    b, n, size = flat.shape
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
    (``_depthwise_grid``), the stride-1 grid ``conv2d`` uses.  The forward
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
    _check_padding("depthwise_conv2d", k, padding)
    if x.shape[2] + 2 * padding < k or x.shape[3] + 2 * padding < k:
        raise ShapeError("depthwise_conv2d: kernel larger than padded input")

    flat, ho, wo, wq = _depthwise_grid(x.data, k, padding)
    data = _depthwise_correlate(flat, ho, wo, wq, weight.data)
    data = data + bias.data[:, None, None] if bias is not None else np.ascontiguousarray(data)

    def vjp(g):
        gw = None
        if weight.requires_grad:
            b, size = g.shape[0], flat.shape[2]
            gq = np.zeros((b, n, ho, wq), dtype=g.dtype)
            gq[..., :wo] = g
            # windows[b, n, i, j, 0, :] is tap (i, j)'s window.
            windows = _window_view(flat, (b, n, k, k, 1, ho * wq), (n * size, size, wq, 1, 0, 1))
            gw = np.matmul(windows, gq.reshape(b, n, 1, 1, ho * wq, 1)).reshape(b, n, k, k).sum(axis=0)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gflat, h, wd, gwq = _depthwise_grid(g, k, k - 1 - padding)
            gx = _depthwise_correlate(gflat, h, wd, gwq, weight.data[:, ::-1, ::-1])
        ret = (gx, gw)
        return ret + (gb,) if bias is not None else ret

    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(data, parents, vjp)


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d: need 4-d input, got {x.shape}")
    b, c, h, wd = x.shape
    xp = _pad_hw(x.data, padding, -np.inf)
    view = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = view.shape[2:4]
    windows = view.reshape(b, c, ho, wo, kernel * kernel)
    data = windows.max(axis=-1)
    # argmax picks the lowest index on ties, which fixes the subgradient.
    arg = windows.argmax(axis=-1)
    padded_shape = xp.shape

    def vjp(g):
        # One strided slice-add per window offset, each carrying the
        # gradient of the windows whose max sits at that offset.
        acc = np.zeros(padded_shape, dtype=x.dtype)
        for t, at in enumerate(_taps(kernel, stride, ho, wo)):
            acc[at] += g * (arg == t)
        return (acc[:, :, padding : padding + h, padding : padding + wd],)

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
    """
    if x.ndim != 4 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(f"batch_norm2d: bad shapes x{x.shape} gamma{gamma.shape}")
    b, c, h, wd = x.shape
    m = b * h * wd
    gsh = gamma.data[None, :, None, None]
    if training:
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        invstd = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu[None, :, None, None]) * invstd[None, :, None, None]
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        invstd = 1.0 / np.sqrt(running_var + eps)
        xhat = (x.data - running_mean[None, :, None, None]) * invstd[None, :, None, None]
    data = gsh * xhat + beta.data[None, :, None, None]

    def vjp(g):
        gg = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        gb = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            inv = invstd[None, :, None, None]
            gxhat = g * gsh
            if training:
                s1 = gxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                gx = inv * (gxhat - s1 / m - xhat * s2 / m)
            else:
                gx = gxhat * inv
        return gx, gg, gb

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
