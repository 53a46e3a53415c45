"""Training objectives: mask-diversity penalty, per-channel bypass
classification, weighted binary cross-entropy, cross-entropy, and the
combined objective."""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .attention import AttentionStack
from .errors import DataError, ShapeError
from .tensor import Tensor, apply_op, sigmoid_values


@dataclass
class LossConfig:
    alpha: float = 0.1
    lam: float = 0.1
    delta: float = 0.5
    task: str = "multi_label"
    pos_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("balance factors must be >= 0")
        if self.task not in ("multi_label", "multi_class"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.pos_weights is not None:
            self.pos_weights = np.asarray(self.pos_weights, dtype=np.float64)
            if np.any(self.pos_weights <= 0):
                raise ValueError("pos_weights entries must be > 0")


def diversity_loss(masks: Tensor, delta: float) -> Tensor:
    """Hinge-penalized overlap between each mask and the strongest other mask.

    Per pixel and channel: mask * max(0, max_over_other_channels - delta),
    averaged over batch, channels, and pixels.  Zero when channel supports
    are disjoint (the hinge never activates) or when there is one channel.
    """
    if masks.ndim != 4 or masks.shape[1] == 0:
        raise ShapeError(f"diversity_loss: need [B,N>=1,H,W], got {masks.shape}")
    if masks.shape[1] == 1:
        return Tensor(np.zeros((), dtype=masks.dtype))
    others = T.exclusive_channel_max(masks)
    return T.mul(masks, T.hinge_sub(others, delta)).mean()


def weighted_bce_logits(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean of -w_l [y log s(x) + (1-y) log(1-s(x))] in a form that never
    evaluates the sigmoid inside a log: w * (max(x,0) - x*y + log1p(e^-|x|))."""
    y = np.asarray(targets, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ShapeError(f"bce: targets {y.shape} do not match logits {logits.shape}")
    w = np.asarray(weights, dtype=logits.dtype)
    if w.shape != (logits.shape[-1],):
        raise ShapeError(f"bce: weights {w.shape} must be ({logits.shape[-1]},)")
    if T.checked_enabled() and not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("bce targets must be binary")
    x = logits.data
    terms = w * (np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x))))
    data = np.asarray(terms.mean())

    def vjp(g):
        return (g * w * (sigmoid_values(x) - y) / x.size,)

    return apply_op(data, (logits,), vjp)


def cross_entropy(logits: Tensor, classes: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class, computed via a shifted
    log-sum-exp so large logits stay finite."""
    cls = np.asarray(classes)
    if logits.ndim != 2 or cls.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs classes {cls.shape}")
    k = logits.shape[1]
    if cls.min() < 0 or cls.max() >= k:
        raise DataError(f"class index out of range [0,{k})")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    picked = x[np.arange(x.shape[0]), cls]
    data = np.asarray((lse - picked).mean())

    def vjp(g):
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(x.shape[0]), cls] -= 1.0
        return (g * p / x.shape[0],)

    return apply_op(data, (logits,), vjp)


def task_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    if cfg.task == "multi_label":
        w = cfg.pos_weights
        if w is None:
            w = np.ones(logits.shape[-1])
        return weighted_bce_logits(logits, labels, w)
    return cross_entropy(logits, labels)


def multi_attention_loss(
    stack: AttentionStack,
    feature: Tensor,
    labels: np.ndarray,
    heads,
    cfg: LossConfig,
) -> Tensor:
    """Average bypass-classification loss over the attention channels.

    Each channel gates the feature block with its own mask, pools it
    globally, and must predict the labels through its own affine head.
    """
    n = stack.masks.shape[1]
    if len(heads) != n:
        raise ShapeError(f"multi_attention_loss: {len(heads)} heads for {n} channels")
    b, c = feature.shape[0], feature.shape[1]
    pooled_all = T.masked_avg_pool(feature, stack.masks)
    total = None
    for i, head in enumerate(heads):
        pooled = T.reshape(T.narrow(pooled_all, 1, i, 1), (b, c))
        li = task_loss(head(pooled), labels, cfg)
        total = li if total is None else total + li
    return total * (1.0 / n)


def total_loss(l_cla: Tensor, l_div: Tensor, l_ma: Tensor, cfg: LossConfig) -> Tensor:
    """Classification plus the two balance-weighted regularizers."""
    return l_cla + cfg.alpha * l_div + cfg.lam * l_ma


def objective(logits: Tensor, inters, labels: np.ndarray, heads_by_block,
              cfg: LossConfig) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The training objective L_cla + alpha * L_div + lambda * L_ma.

    Returns (l_cla, l_div, l_ma, l_all).  L_div and L_ma are means over the
    attention blocks in `inters` (L_ma only when bypass heads exist) and
    read 0 without them.  A term whose weight is 0 is still computed for
    the log, but under no_grad, so it adds nothing to the graph.
    """
    l_cla = task_loss(logits, labels, cfg)
    l_div = l_ma = Tensor(np.zeros((), dtype=logits.dtype))
    if inters:
        scale = 1.0 / len(inters)
        with contextlib.nullcontext() if cfg.alpha > 0 else T.no_grad():
            terms = (diversity_loss(it.stack.masks, cfg.delta) for it in inters)
            l_div = reduce(operator.add, terms) * scale
        if heads_by_block:
            with contextlib.nullcontext() if cfg.lam > 0 else T.no_grad():
                terms = (multi_attention_loss(it.stack, it.feature, labels, heads, cfg)
                         for it, heads in zip(inters, heads_by_block))
                l_ma = reduce(operator.add, terms) * scale
    return l_cla, l_div, l_ma, total_loss(l_cla, l_div, l_ma, cfg)


def compute_pos_weights(labels: np.ndarray, clamp_lo: float = 1.0, clamp_hi: float = 10.0) -> np.ndarray:
    """Per-label negative/positive count ratio, clamped to [1, 10].

    The clamp keeps rare labels from blowing up the objective; labels with
    no positives at all land on the upper clamp.
    """
    labels = np.asarray(labels, dtype=np.float64)
    pos = labels.sum(axis=0)
    neg = labels.shape[0] - pos
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pos > 0, neg / np.maximum(pos, 1e-12), clamp_hi)
    return np.clip(ratio, clamp_lo, clamp_hi)
