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


def exclusive_max_loop(x):
    bsz, n, h, w = x.shape
    out = np.zeros_like(x)
    for bi in range(bsz):
        for ni in range(n):
            for i in range(h):
                for j in range(w):
                    out[bi, ni, i, j] = max(x[bi, k, i, j] for k in range(n) if k != ni)
    return out


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
