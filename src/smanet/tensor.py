"""Dense float tensors with reverse-mode automatic differentiation.

Every differentiable operation records its inputs and a local
vector-Jacobian product on the output tensor; ``backward`` on a scalar
replays the recorded graph in reverse topological order, accumulating
gradients additively across fan-out.  The graph is consumed by the
backward pass: reusing an already-backpropagated intermediate raises.

Every kernel lives in this module, once, on numpy alone, and puts its
arithmetic on BLAS or on strided slices: ``conv2d`` copies the strided
slice of the padded input that each of its k*k kernel taps meets
(``_taps``) into one column buffer for a single GEMM, and its input
gradient slice-adds one GEMM per tap back onto the same slices;
``depthwise_conv2d`` runs its forward and input gradient as k banded
GEMMs over row-shifted views (``_depthwise_correlate``) and its weight
gradient as one einsum over the window view.  All math uses a fixed
reduction order, so identical inputs give bit-identical outputs run to
run.

`PRIMITIVES` names the ops the model is built from.  The loss terms are
single ops of their own in `losses`, built on the same `apply_op` seam.
"""

from __future__ import annotations

import contextlib
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
    # The depthwise input gradient correlates with the flipped kernel on a
    # gradient padded by k-1-padding, which must not be negative; conv2d
    # keeps the same bound.
    if not 0 <= padding <= k - 1:
        raise ShapeError(f"{op}: padding {padding} outside [0, {k - 1}] for kernel {k}")


def _taps(k: int, stride: int, ho: int, wo: int) -> list[tuple]:
    """Index of the [..., Ho, Wo] strided slice of the padded input that
    each kernel tap meets, tap t = i*k + j first to last: output pixel
    (r, q) reads padded pixel (i + stride*r, j + stride*q) through tap
    (i, j)."""
    return [(..., slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))
            for i in range(k) for j in range(k)]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Cross-correlation of x[B,Cin,H,W] with weight[Cout,Cin,k,k].

    Requires 0 <= padding <= k-1.  One pass over the k*k kernel taps
    serves every stride, kernel size and padding.  Tap (i, j) copies its
    strided slice of the padded input into its [B, Cin, Ho*Wo] block of
    one column buffer, and the output, the sum over taps of
    weight[:, :, i, j] times the tap's block, is one GEMM over the whole
    buffer.  Backward, a tap's weight gradient is the output gradient
    times its block, and the input gradient slice-adds
    weight[:, :, i, j].T times the output gradient onto the tap's slice,
    then crops the padding.
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

    xp = _pad_hw(x.data, padding)
    # The vjp needs only the padded shape: holding xp would keep a padded
    # copy of every conv input alive until backward.
    padded_shape = xp.shape
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    taps = _taps(k, stride, ho, wo)
    cols = np.empty((b, k * k, cin, ho, wo), dtype=xp.dtype)
    for t, at in enumerate(taps):
        cols[:, t] = xp[at]
    cols = cols.reshape(b, k * k, cin, ho * wo)
    # Tap-major weight: wt[t] = weight[:, :, i, j], a [Cout, Cin] matrix.
    wmat = weight.data.transpose(0, 2, 3, 1).reshape(cout, k * k * cin)
    wt = wmat.reshape(cout, k * k, cin).transpose(1, 0, 2)
    data = np.matmul(wmat, cols.reshape(b, k * k * cin, ho * wo)).reshape(b, cout, ho, wo)
    if bias is not None:
        data = data + bias.data[:, None, None]

    def vjp(g):
        gflat = g.reshape(b, cout, ho * wo)
        gw = None
        if weight.requires_grad:
            gw = np.stack([np.matmul(gflat, cols[:, t].transpose(0, 2, 1)).sum(axis=0)
                           for t in range(k * k)], axis=-1).reshape(weight.shape)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gxp = np.zeros(padded_shape, dtype=np.result_type(g, wt))
            for w_t, at in zip(wt, taps):
                gxp[at] += np.matmul(w_t.T, gflat).reshape(b, cin, ho, wo)
            gx = gxp[:, :, padding : padding + h, padding : padding + wd]
        ret = (gx, gw)
        return ret + (gb,) if bias is not None else ret

    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(data, parents, vjp)


def _depthwise_correlate(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid per-channel correlation of xp[B,N,Hp,Wp] with w[N,k,k].

    Kernel row i becomes a banded [Wp, Wo] matrix per channel,
    band[i, n, q + j, q] = w[n, i, j], so the output is the sum over i of
    the row-shifted views xp[:, :, i:i+Ho, :] times band[i]: k batched
    GEMMs on views BLAS reads in place.
    """
    n, k, _ = w.shape
    ho, wo = xp.shape[2] - k + 1, xp.shape[3] - k + 1
    band = np.zeros((k, n, xp.shape[3], wo), dtype=np.result_type(xp, w))
    q = np.arange(wo)
    for j in range(k):
        band[:, :, q + j, q] = w[:, :, j].T[:, :, None]
    out = np.matmul(xp[:, :, :ho], band[0])
    for i in range(1, k):
        out += np.matmul(xp[:, :, i : i + ho], band[i])
    return out


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """Per-channel k-by-k correlation: channel n of x convolved with weight[n].

    Stride is fixed at 1; with padding k//2 the spatial size is preserved.
    Requires 0 <= padding <= k-1.  The forward pass and the input gradient
    share one banded-GEMM helper, ``_depthwise_correlate``: dx is the
    correlation of the output gradient, padded by k-1-padding, with the
    flipped kernel.  The weight gradient is one einsum contracting the
    [B,N,Ho,Wo,k,k] window view of the padded input with the output
    gradient.
    """
    if x.ndim != 4 or weight.ndim != 3 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"depthwise_conv2d: x{x.shape} incompatible with weight{weight.shape}")
    n, k, k2 = weight.shape
    if k != k2:
        raise ShapeError("depthwise_conv2d: kernel must be square")
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"depthwise_conv2d: bias{bias.shape} must be ({n},)")
    _check_padding("depthwise_conv2d", k, padding)
    ho, wo = x.shape[2] + 2 * padding - k + 1, x.shape[3] + 2 * padding - k + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError("depthwise_conv2d: kernel larger than padded input")

    xp = _pad_hw(x.data, padding)
    data = _depthwise_correlate(xp, weight.data)
    if bias is not None:
        data = data + bias.data[:, None, None]

    def vjp(g):
        gw = None
        if weight.requires_grad:
            windows = sliding_window_view(xp, (k, k), axis=(2, 3))
            gw = np.einsum("bnhwij,bnhw->nij", windows, g)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gx = _depthwise_correlate(_pad_hw(g, k - 1 - padding), weight.data[:, ::-1, ::-1])
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
    the pooled attended feature of every mask channel, all at once.
    """
    if feature.ndim != 4 or masks.ndim != 4 or feature.shape[0] != masks.shape[0] \
            or feature.shape[2:] != masks.shape[2:]:
        raise ShapeError(
            f"masked_avg_pool: feature {feature.shape} incompatible with masks {masks.shape}"
        )
    area = feature.shape[2] * feature.shape[3]
    data = np.einsum("bchw,bnhw->bnc", feature.data, masks.data, optimize=True) / area

    def vjp(g):
        gf = gm = None
        if feature.requires_grad:
            gf = np.einsum("bnc,bnhw->bchw", g, masks.data, optimize=True) / area
        if masks.requires_grad:
            gm = np.einsum("bnc,bchw->bnhw", g, feature.data, optimize=True) / area
        return gf, gm

    return apply_op(data, (feature, masks), vjp)
