"""Training objectives: mask-diversity penalty, per-channel bypass
classification, weighted binary cross-entropy, cross-entropy, and the
combined objective.

Each loss term is one graph op per attention block: L_div is the single
op `diversity_loss`; L_ma is `masked_avg_pool`, then `bypass_logits`
(every bypass head at once), then one task loss.  `diversity_loss`,
`bypass_logits`, `weighted_bce_logits` and `cross_entropy` record their
own vjp through `tensor.apply_op`.
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .attention import channel_masks
from .errors import ShapeError
from .tensor import Tensor, apply_op, sigmoid_values


@dataclass
class LossConfig:
    """The objective's settings; `config.loss_config` builds it.  au runs
    carry one positive weight per label, fer runs none."""

    alpha: float
    lam: float
    delta: float
    pos_weights: np.ndarray | None


def diversity_loss(masks: Tensor, delta: float) -> Tensor:
    """Hinge-penalized overlap between each mask and the strongest other mask.

    Per pixel and channel: mask * max(0, max_over_other_channels - delta),
    averaged over batch, channels, and pixels.  Zero when channel supports
    are disjoint (the hinge never activates) or when there is one channel.

    One op: the max over the other channels is the top value m1 for
    every channel but the top one, which sees the runner-up m2 (ties go
    to the lowest index).  With S the channel sum and h1, h2 the hinges
    of m1 and m2, a pixel's penalty is (S - m1)*h1 + m1*h2.  One loop over
    the channels keeps m1 and m2 on [B,1,H,W] arrays with max/min, and,
    when recording (`tensor.recording`), their indices with integer
    arithmetic: on numpy 2.x, ``argmax`` over the channel axis and a
    data-dependent ``np.where`` cost several times that (see `tensor`).
    The value needs no index, so it is bit-identical either way.  The vjp
    gives each mask its hinge as the direct term, and routes each active
    hinge's mask value to the channel its max came from: the top channel,
    or the runner-up for the top channel.  It keeps the masks' data,
    which the graph keeps anyway (the sigmoid's vjp and
    `tensor.masked_avg_pool` read it), m2 and the two indices.  It
    rebuilds m1 as the channel max of the masks, and S - m1 and the
    hinges with the forward's expressions, all bit for bit.
    """
    if masks.ndim != 4 or masks.shape[1] == 0:
        raise ShapeError(f"diversity_loss: need [B,N>=1,H,W], got {masks.shape}")
    if masks.shape[1] == 1:
        return Tensor(np.zeros((), dtype=masks.dtype))
    d = masks.data
    m1, m2 = d[:, :1].copy(), np.empty_like(d[:, :1])
    m2.fill(-np.inf)
    track = T.recording(masks)
    if track:
        # The smallest signed type that holds the indices (int8 passes cost
        # a fraction of intp ones).  Each `i += mask * (new - i)` is a
        # branch-free select, and the strict `>` keeps ties on the lower
        # index.
        i1 = np.zeros(m1.shape, dtype=np.min_scalar_type(-d.shape[1]))
        i2 = i1.copy()
    for c in range(1, d.shape[1]):
        v = d[:, c : c + 1]
        if track:
            above1, above2 = v > m1, v > m2
            i2 += above2 * (c - i2)
            i2 += above1 * (i1 - i2)
            i1 += above1 * (c - i1)
        np.maximum(m2, np.minimum(v, m1), out=m2)
        np.maximum(m1, v, out=m1)

    def rest_and_hinges(m1):
        rest = d.sum(axis=1, keepdims=True) - m1
        return rest, np.maximum(m1 - delta, 0.0), np.maximum(m2 - delta, 0.0)

    rest, h1, h2 = rest_and_hinges(m1)
    data = np.asarray((rest * h1 + m1 * h2).sum() / d.size)
    size, n = d.size, d.shape[1]

    def vjp(g):
        m1 = np.maximum.reduce(d, 1, keepdims=True)
        rest, h1, h2 = rest_and_hinges(m1)
        s = g / size
        ch = np.arange(n, dtype=i1.dtype)[:, None, None]
        # Per pixel: the top channel's extra term, and what its mask sends
        # to the runner-up.
        grad = (ch == i1) * ((h2 - h1 + rest * (m1 > delta)) * s)
        grad += (ch == i2) * (m1 * (m2 > delta) * s)
        grad += h1 * s
        return (grad,)

    return apply_op(data, (masks,), vjp)


def weighted_bce_logits(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean of -w_l [y log s(x) + (1-y) log(1-s(x))] in a form that never
    evaluates the sigmoid inside a log: w * (max(x,0) - x*y + log1p(e^-|x|))."""
    y = np.asarray(targets, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ShapeError(f"bce: targets {y.shape} do not match logits {logits.shape}")
    w = np.asarray(weights, dtype=logits.dtype)
    if w.shape != (logits.shape[-1],):
        raise ShapeError(f"bce: weights {w.shape} must be ({logits.shape[-1]},)")
    x = logits.data
    terms = w * (np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x))))
    data = np.asarray(np.add.reduce(terms, None) / terms.size)

    def vjp(g):
        return (g * w * (sigmoid_values(x) - y) / x.size,)

    return apply_op(data, (logits,), vjp)


def cross_entropy(logits: Tensor, classes: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class, computed via a shifted
    log-sum-exp so large logits stay finite."""
    cls = np.asarray(classes)
    if logits.ndim != 2 or cls.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs classes {cls.shape}")
    x = logits.data
    m = np.maximum.reduce(x, 1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    picked = x[np.arange(x.shape[0]), cls]
    data = np.asarray(np.add.reduce(lse - picked, None) / x.shape[0])

    def vjp(g):
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(x.shape[0]), cls] -= 1.0
        return (g * p / x.shape[0],)

    return apply_op(data, (logits,), vjp)


def task_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """Weighted BCE for [B,L] 0/1 labels (au), cross-entropy for [B]
    class ids (fer): the two label kinds of `data.Dataset`."""
    if np.ndim(labels) == 2:
        return weighted_bce_logits(logits, labels, cfg.pos_weights)
    return cross_entropy(logits, labels)


def bypass_logits(pooled: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Every bypass head applied to its own channel's pooled feature.

    pooled[B,N,C] holds the attended feature of channel n in row n.  The
    N heads are one layer, weight [N*K,C] and bias [N*K]: row block n of
    it is head n, an affine map C -> K.  Row b*N + n of the [B*N, K]
    result is head n's logits for sample b.  Both passes read the weight
    through an [N,K,C] view, so the vjp keeps the weight array itself,
    and the op has three parents whatever N is.
    """
    b, n, c = pooled.shape if pooled.ndim == 3 else (0, 0, 0)
    if not n or weight.shape[0] % n or weight.shape[1:] != (c,) or bias.shape != weight.shape[:1]:
        raise ShapeError(f"bypass_logits: heads {weight.shape}, {bias.shape} for {pooled.shape}")
    k = weight.shape[0] // n
    w = weight.data.reshape(n, k, c)
    data = np.einsum("bnc,nkc->bnk", pooled.data, w) + bias.data.reshape(n, k)
    pd, pooled_grad = pooled.data, pooled.requires_grad  # the heads' gradient reads pd

    def vjp(g):
        g3 = g.reshape(b, n, k)
        gp = np.einsum("bnk,nkc->bnc", g3, w) if pooled_grad else None
        gw = np.einsum("bnk,bnc->nkc", g3, pd).reshape(n * k, c)
        return gp, gw, g3.sum(axis=0).reshape(n * k)

    return apply_op(data.reshape(b * n, k), (pooled, weight, bias), vjp)


def multi_attention_loss(
    masks: Tensor,
    feature: Tensor,
    labels: np.ndarray,
    heads,
    cfg: LossConfig,
) -> Tensor:
    """Average bypass-classification loss over the attention channels.

    Each channel gates the feature block with its own mask (masks
    [B,N,H,W], see `attention.channel_masks`), pools it globally, and
    must predict the labels through its own affine head: row block n of
    `heads`, one `nn.Linear` with N*K outputs (see `bypass_logits`).
    With the labels repeated once per channel, one task loss over all
    B*N rows is the mean of the N per-head losses.
    """
    pooled = T.masked_avg_pool(feature, masks)
    logits = bypass_logits(pooled, heads.weight, heads.bias)
    return task_loss(logits, labels.repeat(masks.shape[1], axis=0), cfg)


def total_loss(l_cla: Tensor, l_div: Tensor, l_ma: Tensor, cfg: LossConfig) -> Tensor:
    """Classification plus the two balance-weighted regularizers."""
    return l_cla + cfg.alpha * l_div + cfg.lam * l_ma


def objective(logits: Tensor, inters, labels: np.ndarray, heads_by_block,
              cfg: LossConfig) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The training objective L_cla + alpha * L_div + lambda * L_ma.

    Returns (l_cla, l_div, l_ma, l_all).  L_div and L_ma are means over the
    attention blocks in `inters` (L_ma only when bypass heads exist) and
    read 0 without them.  A term whose weight is 0 is still computed for
    the log, but under no_grad, so it adds nothing to the graph and skips
    the forward work only a vjp reads (for L_div of `f2a_aaa`, the
    top-two index tracking).

    Each block's masks (`attention.channel_masks`) are taken once, in the
    caller's grad mode, before either term, and both terms read that
    tensor: a training step records one sigmoid per block, even where a
    weight-0 term reads them under no_grad, and under combine_on='masks'
    it reuses the ones `forward` built.
    """
    l_cla = task_loss(logits, labels, cfg)
    l_div = l_ma = Tensor(np.zeros((), dtype=logits.dtype))
    if inters:
        scale = 1.0 / len(inters)
        masks = [channel_masks(it) for it in inters]
        with contextlib.nullcontext() if cfg.alpha > 0 else T.no_grad():
            terms = (diversity_loss(m, cfg.delta) for m in masks)
            l_div = reduce(operator.add, terms) * scale
        if heads_by_block:
            with contextlib.nullcontext() if cfg.lam > 0 else T.no_grad():
                terms = (multi_attention_loss(m, it.feature, labels, heads, cfg)
                         for m, it, heads in zip(masks, inters, heads_by_block))
                l_ma = reduce(operator.add, terms) * scale
    return l_cla, l_div, l_ma, total_loss(l_cla, l_div, l_ma, cfg)


# The range `compute_pos_weights` clamps each label's weight to.
POS_WEIGHT_MIN, POS_WEIGHT_MAX = 1.0, 10.0


def compute_pos_weights(labels: np.ndarray) -> np.ndarray:
    """Per-label negative/positive count ratio, clamped to
    [`POS_WEIGHT_MIN`, `POS_WEIGHT_MAX`].

    The clamp keeps rare labels from blowing up the objective; labels with
    no positives at all land on the upper clamp.
    """
    labels = np.asarray(labels, dtype=np.float64)
    pos = labels.sum(axis=0)
    neg = labels.shape[0] - pos
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pos > 0, neg / np.maximum(pos, 1e-12), POS_WEIGHT_MAX)
    return np.clip(ratio, POS_WEIGHT_MIN, POS_WEIGHT_MAX)
