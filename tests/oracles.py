"""Independent brute-force oracles: straightforward scalar loops and
textbook formulas, deliberately sharing no code with the package."""

import math

import numpy as np


def conv2d_loop(x, w, b=None, stride=1, padding=0):
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((bsz, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    for bi in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                acc += x_val(xp, bi, c, i * stride + ki, j * stride + kj) * w[o, c, ki, kj]
                    out[bi, o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def conv2d_vjp_loop(x, w, g, stride=1, padding=0):
    """Input and weight gradients of conv2d_loop for output gradient g."""
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((bsz, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape)
    for bi in range(bsz):
        for o in range(cout):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    for c in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                r, q = i * stride + ki, j * stride + kj
                                gxp[bi, c, r, q] += g[bi, o, i, j] * w[o, c, ki, kj]
                                gw[o, c, ki, kj] += g[bi, o, i, j] * xp[bi, c, r, q]
    return gxp[:, :, padding : padding + h, padding : padding + wd], gw


def conv2d_weight_grad_per_tap(x, g, k, stride, padding):
    """conv2d's weight gradient as one batched GEMM per tap: x written
    into zero-filled polyphase grids, phase (a, c) holding padded pixel
    (a + stride*r, c + stride*q) on a [rows, Wq] grid; each tap one
    batched GEMM of the output gradient, zero-extended to Wq columns,
    with its flat window of length Ho*Wq, then summed over the batch.
    The package runs the same per-(tap, image) GEMMs, grouped per phase
    and image, and adds the images in the same order, so the two agree
    bit for bit."""
    bsz, cin, h, wd = x.shape
    cout, ho, wo = g.shape[1:]
    e, m = (k - 1) // stride, min(k, stride)
    rows, wq = ho + e + (e > 0), wo + e
    xp = np.zeros((bsz, cin, padding + h + stride * rows, padding + wd + stride * wq), x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    grid = np.zeros((m * m, bsz, cin, rows, wq), x.dtype)
    for a in range(m):
        for c in range(m):
            grid[a * m + c] = xp[:, :, a : a + stride * rows : stride, c : c + stride * wq : stride]
    flat = grid.reshape(m * m, bsz, cin, rows * wq)
    gq = np.zeros((bsz, cout, ho, wq), g.dtype)
    gq[..., :wo] = g
    gq = gq.reshape(bsz, cout, ho * wq)
    gw = np.empty((cout, cin, k, k), np.result_type(g, x))
    for i in range(k):
        for j in range(k):
            start = (i // stride) * wq + j // stride
            window = flat[(i % stride) * m + j % stride, :, :, start : start + ho * wq]
            gw[:, :, i, j] = np.matmul(gq, window.transpose(0, 2, 1)).sum(axis=0)
    return gw


def x_val(xp, bi, c, i, j):
    return xp[bi, c, i, j]


def depthwise_loop(x, w, b=None, padding=0):
    bsz, n, h, wd = x.shape
    k = w.shape[1]
    xp = np.zeros((bsz, n, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    ho, wo = h + 2 * padding - k + 1, wd + 2 * padding - k + 1
    out = np.zeros((bsz, n, ho, wo))
    for bi in range(bsz):
        for ni in range(n):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            acc += xp[bi, ni, i + ki, j + kj] * w[ni, ki, kj]
                    out[bi, ni, i, j] = acc + (b[ni] if b is not None else 0.0)
    return out


def depthwise_vjp_loop(x, w, g, padding=0):
    """Input and weight gradients of depthwise_loop for output gradient g."""
    bsz, n, h, wd = x.shape
    k = w.shape[1]
    xp = np.zeros((bsz, n, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros((n, k, k))
    for bi in range(bsz):
        for ni in range(n):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    for ki in range(k):
                        for kj in range(k):
                            gxp[bi, ni, i + ki, j + kj] += g[bi, ni, i, j] * w[ni, ki, kj]
                            gw[ni, ki, kj] += g[bi, ni, i, j] * xp[bi, ni, i + ki, j + kj]
    return gxp[:, :, padding : padding + h, padding : padding + wd], gw


def depthwise_shifted(x, w, g, padding=0):
    """Output, input gradient and weight gradient of depthwise_loop for
    output gradient g, in float64: the same sums, vectorised over pixels
    as one shifted whole-array product per kernel tap, for model-sized
    inputs the scalar loops would take seconds on."""
    bsz, n, h, wd = x.shape
    k = w.shape[1]
    xp = np.zeros((bsz, n, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    ho, wo = h + 2 * padding - k + 1, wd + 2 * padding - k + 1
    out = np.zeros((bsz, n, ho, wo))
    gxp = np.zeros_like(xp)
    gw = np.zeros((n, k, k))
    for ki in range(k):
        for kj in range(k):
            window = xp[:, :, ki : ki + ho, kj : kj + wo]
            tap = w[:, ki, kj][:, None, None]
            out += window * tap
            gxp[:, :, ki : ki + ho, kj : kj + wo] += g * tap
            gw[:, ki, kj] = (window * g).sum(axis=(0, 2, 3))
    return out, gxp[:, :, padding : padding + h, padding : padding + wd], gw


def avg_pool_loop(x, axes):
    axes = tuple(sorted(axes))
    out_shape = tuple(1 if i in axes else s for i, s in enumerate(x.shape))
    out = np.zeros(out_shape)
    count = 1
    for a in axes:
        count *= x.shape[a]
    for idx in np.ndindex(x.shape):
        tgt = tuple(0 if i in axes else v for i, v in enumerate(idx))
        out[tgt] += x[idx]
    return out / count


def _max_pool_windows(x, k, stride, padding):
    """Yield (bi, c, i, j, (r, q)) for each output cell, where (r, q) is the
    first in-bounds position holding the window's maximum."""
    bsz, cin, h, wd = x.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    for bi in range(bsz):
        for c in range(cin):
            for i in range(ho):
                for j in range(wo):
                    best = None
                    for ki in range(k):
                        for kj in range(k):
                            r, q = i * stride + ki - padding, j * stride + kj - padding
                            if 0 <= r < h and 0 <= q < wd and (
                                    best is None or x[bi, c, r, q] > x[bi, c][best]):
                                best = (r, q)
                    yield bi, c, i, j, best


def max_pool_loop(x, k, stride, padding=0):
    """Max over each k x k window; padded positions never win."""
    ho = (x.shape[2] + 2 * padding - k) // stride + 1
    wo = (x.shape[3] + 2 * padding - k) // stride + 1
    out = np.zeros((x.shape[0], x.shape[1], ho, wo))
    for bi, c, i, j, (r, q) in _max_pool_windows(x, k, stride, padding):
        out[bi, c, i, j] = x[bi, c, r, q]
    return out


def max_pool_vjp_loop(x, g, k, stride, padding=0):
    """Input gradient of max_pool_loop: each window's output gradient goes
    to the first position holding its maximum."""
    gx = np.zeros(x.shape)
    for bi, c, i, j, (r, q) in _max_pool_windows(x, k, stride, padding):
        gx[bi, c, r, q] += g[bi, c, i, j]
    return gx


def linear_loop(x, w, b=None):
    bsz, din = x.shape
    dout = w.shape[0]
    out = np.zeros((bsz, dout))
    for i in range(bsz):
        for o in range(dout):
            acc = 0.0
            for j in range(din):
                acc += x[i, j] * w[o, j]
            out[i, o] = acc + (b[o] if b is not None else 0.0)
    return out


def sigmoid_scalar(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def sigmoid_branches(x):
    """The two-branch logistic as an array select: 1/(1+e^-x) for x >= 0,
    e^x/(1+e^x) below, with e^-|x| computed once, as exp(min(x, -x)) so
    that a NaN keeps its sign bit."""
    z = np.exp(np.minimum(x, -x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def combine_loop(maps, weights):
    """Per-pixel weighted channel sum, then scalar sigmoid."""
    bsz, n, h, w = maps.shape
    out = np.zeros((bsz, 1, h, w))
    for bi in range(bsz):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for ni in range(n):
                    acc += weights[bi, ni] * maps[bi, ni, i, j]
                out[bi, 0, i, j] = sigmoid_scalar(acc)
    return out


def refine_loop(fused, feature):
    bsz, c, h, w = feature.shape
    out = np.zeros_like(feature)
    for bi in range(bsz):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    out[bi, ci, i, j] = fused[bi, 0, i, j] * feature[bi, ci, i, j]
    return out


def diversity_loop(masks, delta):
    bsz, n, h, w = masks.shape
    total = 0.0
    for bi in range(bsz):
        for ni in range(n):
            for i in range(h):
                for j in range(w):
                    others = [masks[bi, k, i, j] for k in range(n) if k != ni]
                    total += masks[bi, ni, i, j] * max(0.0, max(others) - delta)
    return total / (bsz * n * h * w)


def diversity_vjp_loop(masks, delta):
    """Gradient of diversity_loop with respect to the masks.  The max over
    the other channels is taken by the lowest channel index attaining it."""
    bsz, n, h, w = masks.shape
    grad = np.zeros(masks.shape)
    scale = 1.0 / masks.size
    for bi in range(bsz):
        for i in range(h):
            for j in range(w):
                for ni in range(n):
                    src = None
                    for k in range(n):
                        if k != ni and (src is None or masks[bi, k, i, j] > masks[bi, src, i, j]):
                            src = k
                    excess = masks[bi, src, i, j] - delta
                    grad[bi, ni, i, j] += scale * max(0.0, excess)
                    if excess > 0.0:
                        grad[bi, src, i, j] += scale * masks[bi, ni, i, j]
    return grad


def sgd_loop(params, grads, lr, momentum, weight_decay):
    """Momentum SGD one parameter at a time: v <- m*v + g + wd*p; p -= lr*v.
    `grads` holds one list of per-parameter gradients per step."""
    params = [p.copy() for p in params]
    velocity = [np.zeros_like(p) for p in params]
    for step in grads:
        for i, g in enumerate(step):
            velocity[i] *= momentum
            velocity[i] += g
            velocity[i] += weight_decay * params[i]
            params[i] = params[i] - lr * velocity[i]
    return params


def cross_entropy_loop(logits, classes):
    total = 0.0
    for i in range(logits.shape[0]):
        exps = np.exp(logits[i])
        total += -math.log(exps[classes[i]] / exps.sum())
    return total / logits.shape[0]


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def same_bits(got, want):
    """Same dtype, shape and bits: compared as unsigned integers, so a
    changed rounding or the sign of a zero or a NaN counts."""
    got, want = np.asarray(got), np.asarray(want)
    bits = f"u{got.itemsize}"
    return got.dtype == want.dtype and got.shape == want.shape \
        and np.array_equal(got.view(bits), want.view(bits))
