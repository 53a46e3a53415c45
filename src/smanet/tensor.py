"""Dense float tensors with reverse-mode automatic differentiation.

Every differentiable operation records a small graph node on its output
tensor: the local vector-Jacobian product, its parents' graph entries, a
gradient slot and a depth, but never tensor data.  A parent's entry is
its node if it has one, the leaf tensor itself if it is a leaf that
requires a gradient, and None otherwise.  So the graph keeps an op
output alive only where a vjp reads it.  The capture rule: each vjp
closes over arrays, shapes and flags, never over a ``Tensor``, and keeps
an input's data only where a gradient reads it.  Where a gradient reads
an array that is alive anyway (an input's or a parameter's data, or the
op's own output), the vjp keeps a reference to it, never a copy derived
from it, and rebuilds what it derives in the backward: a transposed
weight, a windowed op's padded phase grid, relu's mask, and L_div's top
channel.  So the graph keeps each activation once: a relu output that
feeds a conv is kept by both vjps, as one array.  ``mul``, ``linear``,
``conv2d``, ``depthwise_conv2d``, eval-mode ``batch_norm2d`` and
`losses.bypass_logits` keep one input for another's gradient
(`losses.bypass_logits` keeps the feature for the masks', the masks for
the feature's, its pooled features for its heads', and the heads' weight
array itself, read through an [N,K,C] view), and the task losses their
logits; ``relu``, ``sigmoid`` and ``softmax`` keep their outputs;
``add``, ``reshape``, ``sum`` and ``mean`` keep shapes.  ``backward`` on a scalar
replays the nodes in decreasing depth (a node's depth is 1 + its deepest
parent node's), accumulating gradients additively across fan-out, and
writes ``.grad`` only on leaves.  Every consumer is deeper than its
parents, so that order is topological; and a side branch, such as an
attention block's loss terms, runs when the backward reaches the depth
it left the trunk at, so its gradients are not made early and held while
the rest of the graph is still alive.  A node takes its first gradient
as it is and adds later ones into a new array; a leaf always adds in
place into the array its ``.grad`` holds, made zero on the first
arrival, so it never aliases an array a vjp returned.  A leaf's
``.grad`` may be a view of a larger buffer: `backbone.SGD` binds each
parameter's gradient to its slice of one flat array.  The graph is
consumed by the backward pass: reusing an already-backpropagated
intermediate raises.

Every kernel lives in this module, once, on numpy alone, and puts its
arithmetic on BLAS or on strided slices.  The windowed ops, ``conv2d``,
``depthwise_conv2d`` and ``max_pool2d``, share one padded-input layout:
``_phase_grid`` writes the input once into the stride's padded phase
grids (``_phase_layout``), and kernel tap t reads one contiguous window
of a flattened grid, ``windows[t]``, in place; ``_phase_gather`` moves a
gradient on those grids back into the input's shape (rules in
`test_dependencies` keep this the only padding path, and keep every vjp
from capturing a grid).  ``conv2d`` is an implicit GEMM: each tap is one
batched GEMM on its window, and so is each tap's input gradient, so no
column buffer is built; its weight gradient is one GEMM per phase and
image, over all of the phase's taps.  ``depthwise_conv2d`` uses the
stride-1 grid.  Its forward and input gradient cut the output width into
tiles and run k banded GEMMs, with the tiles as one more batch axis
(``_depthwise_correlate``); its weight gradient is one dot product per
tap and image, on the tap's window, in one call.  ``max_pool2d`` keeps a
running maximum over the windows of a -inf-filled grid.
`losses.bypass_logits` pools with batched GEMMs on the flattened maps.
All math uses a fixed reduction order, so identical inputs give
bit-identical outputs run to run.

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
``sigmoid_values`` takes one exp and selects its branch with a maximum,
``batch_norm2d`` reuses one centred copy and its own parameter
gradients, `losses.diversity_loss` tracks the top two channels in one
loop, and ``max_pool2d`` the winning tap in one loop over the taps.

numpy also copies a ufunc call through its buffer whenever the operands'
unbuffered rows are shorter than the buffer: a [C,1,1] or [B,1,H,W]
operand broadcast over a map, or a window of a phase grid.  At numpy's
default of 8,192 elements, ``x * v[:, None, None]`` on a float32
[2,8,64,64] array took 31.4 us, against 17.9 us for a same-shape
``x * x``; at 1,024 elements it took 10.2 us (at [16,8,64,64], 357
against 202 us), and one window add of ``conv2d``'s input gradient (32
rows of 1,088) 7.7 against 21.1 us (numpy 2.4.6, one core of a 2-core
Xeon, one BLAS thread).  A smaller buffer costs rows of 64 a little
([2,64,8,8], 5.4 to 5.7 us) and a batch-16 float-times-bool pass more
(relu's vjp, 340 to 563 us).  A toy training step at 1,024 was as fast
as at the fastest size tried, within its spread, at batch 2 and at batch
16 (`cli.UFUNC_BUFSIZE`), so every verb runs at that size, which
`cli.main` sets.  The size changes no bit while every float reduction
reads a contiguous array of its own dtype: an elementwise loop computes
each element on its own, and such a reduction is never buffered.  A
reduction over a strided view is: ``np.add.reduce`` over (0, 2, 3) of a
cropped ``[..., :wo]`` view gave other bits at buffers of 8,192, 1,024
and 256 in 24 of 60 shapes tried (float32 and float64, batch 2 and 16, 8
to 32 channels, 4 to 64 px), its contiguous copy in none.  So ``conv2d``
copies its cropped output, and a test in `test_cli` compares a training
step's bits at three buffer sizes.

Every op, forward and vjp, calls numpy's C entry points, not the numpy
functions written in Python around them.  ``ndarray.mean`` counts the
reduced items in Python before its sum and division, and ``np.stack``,
``np.broadcast_to``, ``np.expand_dims``, ``np.full`` and the ``*_like``
makers normalise their arguments in Python first.  On the small arrays
of the gradient checks' 32 px model that fixed cost is a large share of
the call (numpy 2.4, one core of a 2-core Xeon): ``mean`` over (0, 2, 3)
of a [2,16,8,8] float64 array takes 4.3 us against 2.8 us for
``np.add.reduce`` and a division, ``np.stack`` of three such arrays
4.7 us against 2.2 us for ``np.array``, and ``zeros_like`` 1.8 us against
0.5 us for ``np.zeros``; with all of them replaced, that model's no-grad
objective forward went from 7.5 to 6.8 ms.  So reductions call a ufunc's
``reduce`` (a mean divides the sum by its count, with the bits
``ndarray.mean`` returns; see ``tensor_mean``), arrays are made by
``empty``, ``zeros`` or ``array``, and the shape-only set-up of a
reduction and of the depthwise band is memoised; a test in
`test_dependencies` keeps the rule.  ``ndarray.sum`` stays: its wrapper
is one Python call, 0.1 us.

Work that only a vjp reads is done only when the op records a graph:
``recording(*parents)`` is true when grad mode is on and some parent
requires a gradient, and it is the one place that reads grad mode
(``apply_op`` asks it too).  One op asks it before its forward work:
`losses.diversity_loss` tracks its top-two channel indices only when
recording, and its output is bit-identical either way.  So a forward
under ``no_grad`` (eval, logging, the gradient checks' probes) does
not pay for them.

The ops are the functions here and in `losses` that record a vjp
through `apply_op`; the loss terms are single ops of their own.  The
tests find them by that call, and the gradient-check suite has one check
named after each.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import AutogradError, NumericError, ShapeError

DEFAULT_DTYPE = np.float64
# Dtypes, not scalar types, so `in` does not convert a type per test; a
# non-native byte order still fails it, as ``dtype.char`` would not.
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

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


def recording(*parents: Tensor) -> bool:
    """Whether an op on `parents` records a graph: grad mode is on and
    some parent requires a gradient.  Forward work that only a vjp reads
    is done only when this holds."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def set_checked(flag: bool) -> None:
    """Toggle NaN/Inf detection on every op output."""
    global _checked
    _checked = bool(flag)


def checked_enabled() -> bool:
    return _checked


class _Node:
    """The graph state of one recorded op, apart from its output's data:
    the vjp, the parents' graph entries (a node, a leaf `Tensor` that
    requires a gradient, or None), the gradient slot and the depth.  The
    depth is 1 + the largest depth among the parents that are nodes,
    leaves counting 0, so every consumer of a node is deeper than it.  A
    node whose vjp is None is consumed."""

    __slots__ = ("vjp", "parents", "grad", "depth")

    def __init__(self, vjp: Callable | None, parents: tuple):
        self.vjp = vjp
        self.parents = parents
        self.grad: np.ndarray | None = None
        self.depth = 1 + max((e.depth for e in parents if type(e) is _Node), default=0)


class Tensor:
    """An array, and for a recorded op's output its graph node.

    A leaf holds its gradient in ``grad``, an array that ``backward``
    adds into in place; a recorded output's gradient lives on its node
    (``_node``) only while ``backward`` runs.  The node
    never points back to this tensor, so the graph does not keep ``data``
    alive: once the caller drops an output that no vjp reads, it is
    freed."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

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

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every reachable requires-grad leaf.

        Requires a scalar.  Walks the graph nodes, not tensors: it
        collects the unconsumed nodes reachable from this one, then runs
        their vjps in decreasing depth, one stable sort keeping ties in
        discovery order.  Each consumer of a node is deeper than it, so a
        node runs after all of them; which node of a fan-in adds first
        is set by that order, so gradients are deterministic.  A node's
        gradient sits in its slot until its vjp runs, and ``.grad`` is
        written only on leaves (on this tensor only if it is itself a
        leaf or an unrecorded result).  A leaf's gradient accumulates in
        place into the array ``.grad`` holds, a zero array made on the
        first arrival if it holds none; so a leaf bound to a view of an
        optimizer's buffer fills that buffer.  Consumes the recorded
        graph, so a second call (or building new ops on consumed
        intermediates) raises.
        """
        if self.data.size != 1:
            raise AutogradError(f"backward requires a scalar, got shape {self.shape}")
        root = self._node
        seed = np.empty_like(self.data)
        seed.fill(1.0)
        if root is None:
            _accumulate_leaf(self, seed)
            self._node = _Node(None, ())  # consumed like any graph
            return
        if root.vjp is None:
            raise AutogradError("backward already ran on this graph; re-run the forward pass")

        order = [root]
        seen = {root}
        for node in order:
            for entry in node.parents:
                if type(entry) is _Node and entry.vjp is not None and entry not in seen:
                    seen.add(entry)
                    order.append(entry)
        # Stable: nodes of equal depth keep their discovery order.
        order.sort(key=operator.attrgetter("depth"), reverse=True)

        root.grad = seed
        for node in order:
            grads = node.vjp(node.grad)
            for entry, g in zip(node.parents, grads):
                if g is None or entry is None:
                    continue
                if type(entry) is _Node:
                    entry.grad = g if entry.grad is None else entry.grad + g
                else:
                    _accumulate_leaf(entry, g)
            # Every consumer of `node` ran before it, so its gradient is
            # final: consume it now, freeing its closure and gradient.
            node.vjp = None
            node.parents = ()
            node.grad = None


def _accumulate_leaf(leaf: Tensor, g: np.ndarray) -> None:
    """Add `g` in place into the array `leaf.grad` holds, made zero on
    the first arrival if it holds none; never aliases `g`, which a vjp
    may also have handed to a node."""
    if leaf.grad is None:
        leaf.grad = np.zeros(leaf.data.shape, leaf.data.dtype)
    leaf.grad += g


def _lift(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _assert_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite value produced in checked mode")


def _graph_entry(t: Tensor):
    """`t` as a parent in a node: its node if it has one, itself if it is
    a leaf that requires a gradient, else None."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def apply_op(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result, recording `vjp` when gradients are needed.

    `vjp(grad_out)` must return one gradient array (or None) per parent,
    and must close over arrays, shapes and flags only: a `Tensor` in its
    closure would keep that tensor's data alive until backward.
    """
    if _checked:
        _assert_finite(data)
    for p in parents:
        if p._node is not None and p._node.vjp is None:
            raise AutogradError("input tensor belongs to an already-consumed graph")
    out = Tensor(data)
    if recording(*parents):
        out.requires_grad = True
        out._node = _Node(vjp, tuple(_graph_entry(p) for p in parents))
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
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return apply_op(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from exc
    # Each factor's data is kept only for the other factor's gradient.
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        ga = _unbroadcast(g * bd, sa) if bd is not None else None
        gb = _unbroadcast(g * ad, sb) if ad is not None else None
        return ga, gb

    return apply_op(data, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    """max(x, 0) in one pass.  The vjp keeps the output, which the next
    op usually keeps anyway, and takes the mask out > 0 from it in the
    backward.  A negative input gives +0.0 (not -0.0), and NaN gives NaN
    with a zero gradient."""
    data = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (data > 0.0),)

    return apply_op(data, (a,), vjp)


def sigmoid_values(arr: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw array, with one exp whose
    argument is always <= 0.

    The two-branch formula 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) for x < 0
    as arithmetic on e = exp(-|x|): the numerator max(e, x >= 0) is 1 on
    the first branch and e on the second, so the result is bit-identical
    to selecting between the branches, without a data-dependent
    ``np.where`` (see the module docstring).  -|x| is taken as
    min(x, -x), which keeps a NaN's sign bit, as the branches do.
    """
    e = np.exp(np.minimum(arr, -arr))
    return np.maximum(e, arr >= 0) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    data = sigmoid_values(a.data)

    def vjp(g):
        out = g * data
        out *= 1.0 - data
        return (out,)

    return apply_op(data, (a,), vjp)


# -- reductions --------------------------------------------------------------


def _reduction(shape: tuple, axis) -> tuple:
    """``(axes, kept, count)`` of a reduction over `axis` (None, an int or
    a sequence of ints) of an array of `shape`: the sorted non-negative
    axes (None for all), `shape` with each reduced axis set to 1, and how
    many elements each output reduces.  The axes are made sorted
    non-negative ints before the memoised lookup, so a list, a numpy
    integer or a negative axis finds the entry of the same reduction."""
    if axis is not None:
        if isinstance(axis, (int, np.integer)):
            axis = (axis,)
        ndim = len(shape)
        axis = tuple(sorted(a + ndim if a < 0 else a for a in map(operator.index, axis)))
    return _reduction_layout(shape, axis)


@functools.lru_cache(maxsize=256)
def _reduction_layout(shape: tuple, axes: tuple | None) -> tuple:
    if axes is None:
        return None, (1,) * len(shape), math.prod(shape)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    if axes and not 0 <= axes[0] <= axes[-1] < len(shape):
        raise ShapeError(f"reduction axes {axes} out of range for shape {shape}")
    kept = tuple(1 if i in axes else n for i, n in enumerate(shape))
    return axes, kept, math.prod(shape[i] for i in axes)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.shape
    axes, kept, _ = _reduction(shape, axis)
    data = np.add.reduce(a.data, axes, keepdims=keepdims)

    def vjp(g):
        gx = np.empty(shape, g.dtype)
        gx[...] = g.reshape(kept)
        return (gx,)

    return apply_op(np.asarray(data), (a,), vjp)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The sum over `axis` divided by the element count.  The count is a
    Python int, so a float32 sum is divided in float32; ``ndarray.mean``
    divides by an intp in float64 and rounds once, which gives the same
    bits for any count float32 holds exactly (every count up to 2**24)."""
    shape = a.shape
    axes, kept, count = _reduction(shape, axis)
    data = np.add.reduce(a.data, axes, keepdims=keepdims) / count

    def vjp(g):
        return (np.divide(g.reshape(kept), count, out=np.empty(shape, g.dtype)),)

    return apply_op(np.asarray(data), (a,), vjp)


def softmax(a: Tensor, axis: int) -> Tensor:
    axis = int(axis) % a.ndim
    shifted = a.data - np.maximum.reduce(a.data, axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return apply_op(data, (a,), vjp)


# -- shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    shape_in = a.shape

    def vjp(g):
        return (g.reshape(shape_in),)

    return apply_op(data, (a,), vjp)


# -- dense / convolutional ---------------------------------------------------


def _same_dtype(op: str, x: Tensor, *params: Tensor | None) -> None:
    """Refuse a parameter of another float dtype than the input's: numpy
    would promote the output, and with it the rest of the graph."""
    for p in params:
        if p is not None and p.dtype != x.dtype:
            raise ShapeError(f"{op}: {p.dtype} parameter for a {x.dtype} input")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight.T + bias for x[B,Din], weight[Dout,Din]."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: x{x.shape} incompatible with weight{weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias{bias.shape} incompatible with weight{weight.shape}")
    _same_dtype("linear", x, weight, bias)
    data = x.data @ weight.data.T + bias.data
    wd = weight.data if x.requires_grad else None
    xd = x.data if weight.requires_grad else None
    bias_grad = bias.requires_grad

    def vjp(g):
        gx = g @ wd if wd is not None else None
        gw = g.T @ xd if xd is not None else None
        gb = g.sum(axis=0) if bias_grad else None
        return (gx, gw, gb)

    return apply_op(data, (x, weight, bias), vjp)


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
    padded-input layout of the module.

    On the identity layout (one phase with rows = h and Wq = wd, as for
    k = 1, stride 1, padding 0) the grid is x itself: flat is a view of x
    (of a contiguous copy, if x is not contiguous), and nothing is
    filled or written.  A grid is a padded copy of x, so no vjp keeps
    one: a vjp that reads the grid keeps x's data and calls this again
    in the backward."""
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
    if phases == 1 and (rows, wq) == (h, wd):
        return np.ascontiguousarray(x).reshape(1, b, c, h * wd), layout
    shape = (phases, b, c, rows, wq)
    if fill:
        grid = np.empty(shape, dtype=x.dtype)
        grid.fill(fill)
    else:
        grid = np.zeros(shape, dtype=x.dtype)
    for at_x, at_grid in layout[3]:
        grid[at_grid] = x[at_x]
    return grid.reshape(phases, b, c, rows * wq), layout


def _phase_gather(gflat: np.ndarray, layout: tuple, shape: tuple) -> np.ndarray:
    """A gradient on flat phase grids (``_phase_grid``) moved back into
    x's shape; pixels of x that no grid holds get zero.  On the identity
    layout that is `gflat` reshaped, no copy."""
    phases, rows, wq = layout[2]
    if phases == 1 and (rows, wq) == shape[2:]:
        return gflat.reshape(shape)
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


def _tap_major(w: np.ndarray) -> np.ndarray:
    """w[Cout,Cin,k,k] as k*k contiguous [Cout,Cin] matrices, tap
    t = i*k + j holding w[:, :, i, j]."""
    cout, cin, k, _ = w.shape
    # One copy per call: a strided w[:, :, i, j] gives the same bits, but
    # matmul copies it inside every call (one 64->64 tap at 4 px, float64:
    # 16.6 against 9.5 us; this whole copy takes 24.6 us).
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(k * k, cout, cin)


def _window_view(flat: np.ndarray, shape: tuple, steps: tuple) -> np.ndarray:
    """Read-only view of the contiguous array `flat`, `steps` in elements.
    numpy refuses a view that would reach past `flat`'s buffer."""
    strides = tuple(step * flat.itemsize for step in steps)
    view = np.ndarray(shape, flat.dtype, flat, 0, strides)
    view.flags.writeable = False
    return view


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
    zero-extended onto the same grid.  The input gradient slice-adds
    weight[:, :, i, j].T times that gradient onto the tap's window of a
    phase-shaped buffer, which is gathered back into x's shape
    (``_phase_gather``).  A tap's weight gradient is that gradient times
    its window, summed over the batch: per phase and image, one GEMM of
    the image's gradient with a read-only view of all of the phase's tap
    windows (``_window_view``), and the images added in order into a
    tap-major [k, k, Cout, Cin] buffer, returned as a [Cout, Cin, k, k]
    view.  Those are the per-(tap, image) GEMMs and batch sums of one
    GEMM per tap, so the result is the same bit for bit; one GEMM per
    phase over the whole batch would hold B weight-sized products per
    tap at once.

    The vjp keeps x's own data, only when the weight needs a gradient,
    and writes the phase grids again from it; and the weight's own data,
    only when x needs a gradient, from which it builds the tap-major
    [k*k, Cout, Cin] copy again.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input/weight, got {x.shape} / {weight.shape}")
    b, cin = x.shape[:2]
    cout, cin_w, k, k2 = weight.shape
    if cin != cin_w or k != k2:
        raise ShapeError(f"conv2d: weight{weight.shape} incompatible with input{x.shape}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias{bias.shape} must be ({cout},)")
    _same_dtype("conv2d", x, weight, bias)

    flat, layout = _phase_grid("conv2d", x.data, k, stride, padding)
    ho, wo, (phases, rows, wq), _, windows = layout
    wt = _tap_major(weight.data)
    out = np.matmul(wt[0], flat[windows[0]])
    for t in range(1, k * k):
        out += np.matmul(wt[t], flat[windows[t]])
    del flat, wt  # the vjp rebuilds each, and only for the gradient that reads it
    data = out.reshape(b, cout, ho, wq)[..., :wo]
    # Without a bias, copy the crop: the batch norm after it reduces over
    # (0, 2, 3), and over the strided crop its bits would depend on numpy's
    # ufunc buffer size (see the module docstring).
    data = data + bias.data[:, None, None] if bias is not None else np.ascontiguousarray(data)
    x_shape, x_grad = x.shape, x.requires_grad
    xd = x.data if weight.requires_grad else None
    wd = weight.data if x_grad else None
    has_bias = bias is not None
    b_grad = has_bias and bias.requires_grad

    def vjp(g):
        gq = _grid_rows(g, wq)
        gw = None
        if xd is not None:
            grid, _ = _phase_grid("conv2d", xd, k, stride, padding)
            size, n, m = grid.shape[3], ho * wq, min(k, stride)
            gw = np.empty((k, k, cout, cin), dtype=np.result_type(g, xd))
            for p in range(phases):
                a, c = divmod(p, m)
                ci, cj = len(range(a, k, stride)), len(range(c, k, stride))
                # taps[im, ii, jj] is tap (a + stride*ii, c + stride*jj)'s
                # window of image im, transposed to [Ho*Wq, Cin].
                taps = _window_view(grid[p], (b, ci, cj, n, cin), (cin * size, wq, 1, 1, size))
                at = gw[a::stride, c::stride]
                np.matmul(gq[0], taps[0], out=at)
                for im in range(1, b):
                    at += np.matmul(gq[im], taps[im])
            gw = gw.transpose(2, 3, 0, 1)
        gb = g.sum(axis=(0, 2, 3)) if b_grad else None
        gx = None
        if x_grad:
            gflat = np.zeros((phases, b, cin, rows * wq), dtype=np.result_type(g, wd))
            for w_t, at in zip(_tap_major(wd), windows):
                gflat[at] += np.matmul(w_t.T, gq)
            gx = _phase_gather(gflat, layout, x_shape)
        ret = (gx, gw)
        return ret + (gb,) if has_bias else ret

    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(data, parents, vjp)


@functools.lru_cache(maxsize=64)
def _band_index(k: int, tile: int) -> np.ndarray:
    """Where a flattened [tile+k-1, tile] band of ``_depthwise_correlate``
    holds kernel tap j for output column q: entry (q + j, q), at
    j*tile + q*(tile+1); a read-only [k, tile] index."""
    index = np.arange(k)[:, None] * tile + np.arange(tile) * (tile + 1)
    index.flags.writeable = False
    return index


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
    band = np.zeros((k, n, (tile + k - 1) * tile), dtype=np.result_type(flat, w))
    band[:, :, _band_index(k, tile)] = w.transpose(1, 0, 2)[..., None]
    band = band.reshape(k, n, 1, tile + k - 1, tile)
    out = np.matmul(view[..., :ho, :], band[0])
    for i in range(1, k):
        out += np.matmul(view[..., i : i + ho, :], band[i])
    return out.transpose(0, 1, 3, 2, 4).reshape(b, n, ho, tiles * tile)[..., :wo]


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Per-channel k-by-k correlation: channel n of x convolved with
    weight[n], plus bias[n].

    Stride is fixed at 1; with padding k//2 the spatial size is preserved.
    Requires 0 <= padding <= k-1.  x is written once into its padded grid
    (``_phase_grid``), the stride-1 grid ``conv2d`` uses.  The forward
    pass and the input gradient share one width-tiled banded-GEMM helper,
    ``_depthwise_correlate``: dx is the correlation of the output
    gradient, in its grid padded by k-1-padding, with the flipped kernel.
    The weight gradient is k*k dot products on the flat grid, as in
    ``conv2d``: tap (i, j) reads the window of length Ho*Wq that starts
    at i*Wq + j, and dots it with the output gradient zero-extended to
    [B,N,Ho,Wq], summed over the batch.  The vjp keeps x's own data,
    only when the weight needs a gradient, and writes the grid again
    from it for dw; and the weight's data, for dx.
    """
    if x.ndim != 4 or weight.ndim != 3 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"depthwise_conv2d: x{x.shape} incompatible with weight{weight.shape}")
    n, k, k2 = weight.shape
    if k != k2:
        raise ShapeError("depthwise_conv2d: kernel must be square")
    if bias.shape != (n,):
        raise ShapeError(f"depthwise_conv2d: bias{bias.shape} must be ({n},)")
    _same_dtype("depthwise_conv2d", x, weight, bias)

    flat, layout = _phase_grid("depthwise_conv2d", x.data, k, 1, padding)
    ho, _, (_, _, wq), _, _ = layout
    data = _depthwise_correlate(flat, layout, weight.data)
    data = data + bias.data[:, None, None]
    del flat  # the vjp rebuilds it, and only for dw
    x_grad, b_grad = x.requires_grad, bias.requires_grad
    xd = x.data if weight.requires_grad else None
    wd = weight.data

    def vjp(g):
        gw = None
        if xd is not None:
            flat, _ = _phase_grid("depthwise_conv2d", xd, k, 1, padding)
            b, size = g.shape[0], flat.shape[3]
            gq = _grid_rows(g, wq)[:, :, None, None, :, None]
            # windows[b, n, i, j, 0, :] is tap (i, j)'s window.
            windows = _window_view(flat, (b, n, k, k, 1, ho * wq), (n * size, size, wq, 1, 0, 1))
            gw = np.matmul(windows, gq).reshape(b, n, k, k).sum(axis=0)
        gb = g.sum(axis=(0, 2, 3)) if b_grad else None
        gx = None
        if x_grad:
            gflat, glayout = _phase_grid("depthwise_conv2d", g, k, 1, k - 1 - padding)
            gx = _depthwise_correlate(gflat, glayout, wd[:, ::-1, ::-1])
        return (gx, gw, gb)

    return apply_op(data, (x, weight, bias), vjp)


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
    x_shape, dtype = x.shape, x.dtype
    best = flat[windows[0]].copy()
    arg = np.zeros(best.shape, dtype=np.min_scalar_type(kernel * kernel - 1))
    for t in range(1, kernel * kernel):
        window = flat[windows[t]]
        arg += (window > best) * (t - arg)
        np.maximum(best, window, out=best)
    data = np.ascontiguousarray(best.reshape(b, c, ho, wq)[..., :wo])

    def vjp(g):
        gq = _grid_rows(g, wq)
        gflat = np.zeros(grid_shape, dtype=dtype)
        for t, at in enumerate(windows):
            gflat[at] += gq * (arg == t)
        del gq  # not alive beside the gathered gradient
        return (_phase_gather(gflat, layout, x_shape),)

    return apply_op(data, (x,), vjp)


# `batch_norm2d`'s running-statistics momentum and variance epsilon.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization with affine transform.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running buffers in place (unbiased variance, torch
    convention); eval mode normalizes with the running buffers.

    The training forward takes one mean, each channel's sum divided by m
    as in ``tensor_mean``, and one centred copy x - mean.  That copy
    gives the variance as sum((x - mean)^2) / m, bit for bit what
    ``np.var`` returns without its second mean, and is then scaled in
    place into xhat.  The gradient reuses the beta and gamma
    gradients sum(g) and sum(g*xhat):
    gx = gamma*invstd * (g - sum(g)/m - xhat*sum(g*xhat)/m).  Eval mode
    folds the running statistics into one per-channel x*scale + shift.
    """
    if x.ndim != 4 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(f"batch_norm2d: bad shapes x{x.shape} gamma{gamma.shape}")
    _same_dtype("batch_norm2d", x, gamma, beta)
    b, c, h, wd = x.shape
    m = b * h * wd
    axes = (0, 2, 3)
    if training:
        mu = np.add.reduce(x.data, axes) / m
        xhat = x.data - mu[:, None, None]
        var = (xhat * xhat).sum(axis=axes) / m
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= invstd[:, None, None]
        data = xhat * gamma.data[:, None, None]
        data += beta.data[:, None, None]
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        mu = running_mean.copy()  # the vjp must see the mean this forward used
        invstd = 1.0 / np.sqrt(running_var + BN_EPS)
        scale = gamma.data * invstd
        data = x.data * scale[:, None, None]
        data += (beta.data - mu * scale)[:, None, None]
    gd = gamma.data
    xd = None if training else x.data  # the eval gamma gradient reads x

    def vjp(g):
        k = (gd * invstd)[:, None, None]
        sg = g.sum(axis=axes)
        if not training:
            return g * k, (g * (xd - mu[:, None, None])).sum(axis=axes) * invstd, sg
        sgx = (g * xhat).sum(axis=axes)
        gx = xhat * (-sgx / m)[:, None, None]
        gx += g
        gx -= (sg / m)[:, None, None]
        gx *= k
        return gx, sgx, sg

    return apply_op(data, (x, gamma, beta), vjp)
