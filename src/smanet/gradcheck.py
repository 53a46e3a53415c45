"""Central-difference gradient verification.

`grad_check_many` follows the classic recipe: two forward passes must
agree bit-for-bit (otherwise the function is rejected as
non-deterministic), analytic gradients come from one backward pass,
whose recorded forward must give those bits too (so an op that does more
work when recording, such as `tensor.max_pool2d`, cannot change its
value), and each probe compares a directional derivative with the
central difference (f(x+eps*u) - f(x-eps*u)) / 2eps under the relative
error |a - n| / max(1, |a|, |n|).

`build_suite` names one check for every op, each function of `tensor`
and `losses` that records its vjp through `apply_op`, plus the attention
block pieces, the composed L_ma, and the training objective.  Each op
check is named after its op (`sum` and `mean` for `tensor_sum` and
`tensor_mean`).  A check's builder draws its inputs and returns a
(forward, leaves) pair; the check's thunk hands that pair to
`grad_check_many` (conv2d checks three stride/padding cases and keeps the
worst).  The CLI gradcheck command runs every thunk and fails on any error
at or above `SUITE_TOLERANCE`.  Primitives, blocks and losses are checked
coordinate by coordinate; the composed objective, with 143 leaves on the
toy model, is checked along one random direction per leaf.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import MultiChannelAttention, combine, refine
from .config import RunConfig, backbone_config, loss_config
from .errors import NumericError, ShapeError
from .losses import (bypass_logits, compute_pos_weights, cross_entropy,
                     diversity_loss, multi_attention_loss, objective, weighted_bce_logits)
from .nn import Linear
from .tensor import Tensor, no_grad
from .train import TrainState

DEFAULT_EPS = 1e-5
SUITE_TOLERANCE = 1e-4


def grad_check_many(forward, leaves: dict[str, Tensor],
                    rng: np.random.Generator | None = None) -> float:
    """Check d(forward())/d(leaf) for every leaf; returns the worst
    relative error over all probes.

    Without `rng` every coordinate of every leaf is probed (u = e_c), two
    forwards each.  With `rng` each leaf is probed once, along a random
    unit direction u drawn from it: <grad, u> against the central
    difference along u, two forwards per leaf, with every coordinate
    contributing.
    """
    with no_grad():
        y1 = forward()
        y2 = forward()
    if y1.size != 1:
        raise ShapeError(f"grad_check_many needs a scalar function, got shape {y1.shape}")
    if not np.array_equal(y1.data, y2.data):
        raise NumericError("non-determinism detected: two forward passes disagree")

    for leaf in leaves.values():
        leaf.grad = np.zeros_like(leaf.data)
    loss = forward()
    if not np.array_equal(loss.data, y1.data):
        raise NumericError("the recorded forward pass disagrees with the no-grad ones")
    if loss.requires_grad:
        loss.backward()

    worst = 0.0
    for leaf in leaves.values():
        analytic = leaf.grad.reshape(-1)
        flat = leaf.data.reshape(-1)
        base = flat.copy()
        if rng is None:
            probes = [(c, 1.0, float(analytic[c])) for c in range(flat.size)]
        else:
            u = rng.normal(size=flat.size)
            u /= np.linalg.norm(u)
            probes = [(slice(None), u, float(analytic @ u))]
        for at, step, a in probes:
            flat[at] = base[at] + DEFAULT_EPS * step
            with no_grad():
                fp = forward().item()
            flat[at] = base[at] - DEFAULT_EPS * step
            with no_grad():
                fm = forward().item()
            flat[at] = base[at]
            numeric = (fp - fm) / (2.0 * DEFAULT_EPS)
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
        leaf.grad = None
    return worst


# -- suite ----------------------------------------------------------------


def spaced_uniform(rng: np.random.Generator, shape, lo=0.05, hi=0.95) -> np.ndarray:
    """Random values with a guaranteed pairwise gap, away from 0.5: keeps
    max/hinge subgradients stable under the finite-difference step."""
    n = int(np.prod(shape))
    base = (np.arange(n) + rng.uniform(0.25, 0.75, n)) / n
    rng.shuffle(base)
    vals = lo + (hi - lo) * base
    vals = np.where(np.abs(vals - 0.5) < 2e-3, vals + 4e-3, vals)
    return vals.reshape(shape)


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _weighted(out: Tensor, seed: int = 0) -> Tensor:
    """Random fixed projection to a scalar; catches transposed gradients
    that a plain sum would miss."""
    r = np.random.default_rng((seed, 137)).normal(size=out.shape)
    return T.mul(out, Tensor(r)).sum()


def _op(fn, proj_seed: int = 0, /, **leaves: Tensor):
    """(forward, leaves) of one check: forward applies `fn` to the leaves,
    in order, and projects a non-scalar output with `_weighted(out,
    proj_seed)`.  Every leaf is made to require a gradient."""
    for t in leaves.values():
        t.requires_grad = True

    def forward():
        out = fn(*leaves.values())
        return out if out.size == 1 else _weighted(out, proj_seed)

    return forward, leaves


def _linear(rng):
    return _op(T.linear, x=_rand(rng, 5, 4), w=_rand(rng, 3, 4), b=_rand(rng, 3))


def _conv2d(rng, stride, pad):
    return _op(lambda x, w, b: T.conv2d(x, w, b, stride, pad), 23,
               x=_rand(rng, 2, 3, 7, 7), w=_rand(rng, 4, 3, 3, 3), b=_rand(rng, 4))


def _depthwise(rng):
    return _op(lambda x, w, b: T.depthwise_conv2d(x, w, b, padding=2), 24,
               x=_rand(rng, 2, 3, 6, 6), w=_rand(rng, 3, 5, 5), b=_rand(rng, 3))


def _batch_norm(rng):
    rm, rv = np.zeros(4), np.ones(4)
    return _op(lambda x, g, b: T.batch_norm2d(x, g, b, rm, rv, training=True), 26,
               x=_rand(rng, 3, 4, 5, 5), g=_rand(rng, 4), b=_rand(rng, 4))


def _bce(rng):
    y = (rng.random((4, 5)) > 0.5).astype(float)
    w = rng.uniform(0.5, 3.0, 5)
    return _op(lambda x: weighted_bce_logits(x, y, w), x=_rand(rng, 4, 5))


def _cross_entropy(rng):
    cls = rng.integers(0, 5, size=6)
    return _op(lambda x: cross_entropy(x, cls), x=_rand(rng, 6, 5))


def _bypass(rng):
    return _op(bypass_logits, 41, f=_rand(rng, 2, 4, 4, 4),
               m=Tensor(rng.uniform(0.1, 0.9, (2, 3, 4, 4))), w=_rand(rng, 9, 4), b=_rand(rng, 9))


def _sma(n_channels):
    """The attention variant a default config builds, at `n_channels`."""
    return backbone_config(RunConfig(n_channels=n_channels)).sma


def _sma_block(rng):
    block = MultiChannelAttention(_sma(3), 4, rng)
    return _op(lambda x, *_: block(x)[0], 33,
               input=_rand(rng, 2, 4, 6, 6), **dict(block.named_parameters()))


def _aaa(rng):
    block = MultiChannelAttention(_sma(3), 4, rng)
    fc = {n: p for n, p in block.named_parameters() if "fc" in n}
    return _op(lambda x, *_: block.channel_weights(x), 35, input=_rand(rng, 2, 4, 5, 5), **fc)


def _combine(rng):
    block = MultiChannelAttention(_sma(4), 3, rng)
    return _op(lambda x: combine(block.f2a(x), block.channel_weights(x)), 37,
               input=_rand(rng, 2, 3, 5, 5))


def _refine(rng):
    return _op(refine, 39, a=Tensor(rng.uniform(0.1, 0.9, (2, 1, 5, 5))), x=_rand(rng, 2, 3, 5, 5))


def _multi_attention(rng):
    block = MultiChannelAttention(_sma(2), 4, rng)
    heads = Linear(4, 2 * 3, rng, 0.5)
    lcfg = loss_config(RunConfig())
    labels = rng.integers(0, 3, size=2)
    return _op(lambda x, *_: multi_attention_loss(T.sigmoid(block.f2a(x)), x, labels, heads, lcfg),
               input=_rand(rng, 2, 4, 5, 5), **dict(heads.named_parameters()))


def _objective(seed, rng):
    """The training objective of a float64 toy-profile model, at 32 px."""
    cfg = RunConfig(task="au", profile="toy", dtype="float64", seed=seed,
                    n_channels=4, num_labels=6)
    state = TrainState(cfg)
    labels = (rng.random((2, 6)) > 0.6).astype(float)
    lcfg = loss_config(cfg, compute_pos_weights(labels))
    heads = list(state.heads)

    def fn(x, *_):
        logits, inters = state.model(x)
        return objective(logits, inters, labels, heads, lcfg)[-1]

    return _op(fn, input=Tensor(rng.uniform(0.0, 1.0, (2, 3, 32, 32))),
               **{f"p.{n}": p for n, p in state.named_parameters()})


def build_suite(seed: int) -> list[tuple[str, object]]:
    """Named (check name, thunk -> max relative error) pairs covering every
    primitive, the attention block pieces, the losses, and the composed
    objective on the toy-profile model.  Nothing is built until a thunk
    runs, and each thunk looks `grad_check_many` up when it runs."""

    def rng(stream):
        return np.random.default_rng((seed, stream))

    def check(build):
        return lambda: grad_check_many(*build())

    def conv2d():
        r = rng(23)  # the three cases draw in turn from one stream
        return max(grad_check_many(*_conv2d(r, stride, pad))
                   for stride, pad in ((1, 1), (2, 1), (1, 0)))

    return [
        ("add", check(lambda: _op(lambda x: T.add(x, _rand(rng(1), 3, 1, 4)),
                                  x=_rand(rng(2), 3, 5, 4)))),
        ("mul", check(lambda: _op(lambda x: T.mul(x, _rand(rng(3), 5, 4)),
                                  x=_rand(rng(4), 3, 5, 4)))),
        ("relu", check(lambda: _op(T.relu, x=Tensor(
            np.sign(rng(6).normal(size=(4, 6))) * rng(7).uniform(0.1, 1.0, (4, 6)))))),
        ("sigmoid", check(lambda: _op(T.sigmoid, x=_rand(rng(8), 4, 6)))),
        ("sum", check(lambda: _op(lambda x: x.sum(axis=(0, 2), keepdims=True),
                                  x=_rand(rng(11), 3, 4, 5)))),
        ("mean", check(lambda: _op(lambda x: x.mean(axis=1), x=_rand(rng(12), 3, 4, 5)))),
        ("softmax", check(lambda: _op(lambda x: T.softmax(x, axis=1), x=_rand(rng(15), 4, 6)))),
        ("reshape", check(lambda: _op(lambda x: T.reshape(x, (6, 4)), x=_rand(rng(16), 4, 6)))),
        ("linear", check(lambda: _linear(rng(22)))),
        ("conv2d", conv2d),
        ("depthwise_conv2d", check(lambda: _depthwise(rng(24)))),
        ("max_pool2d", check(lambda: _op(lambda x: T.max_pool2d(x, 3, 2, 1), x=Tensor(
            spaced_uniform(rng(25), (2, 2, 7, 7), lo=-1.0, hi=1.0))))),
        ("batch_norm2d", check(lambda: _batch_norm(rng(26)))),
        ("weighted_bce_logits", check(lambda: _bce(rng(30)))),
        ("cross_entropy", check(lambda: _cross_entropy(rng(31)))),
        ("diversity_loss", check(lambda: _op(lambda m: diversity_loss(m, 0.5),
                                             m=Tensor(spaced_uniform(rng(32), (2, 3, 3, 3)))))),
        ("bypass_logits", check(lambda: _bypass(rng(41)))),
        ("sma_block", check(lambda: _sma_block(rng(33)))),
        ("aaa_weights", check(lambda: _aaa(rng(35)))),
        ("combine", check(lambda: _combine(rng(37)))),
        ("refine", check(lambda: _refine(rng(39)))),
        ("multi_attention_loss", check(lambda: _multi_attention(rng(40)))),
        ("total_objective", lambda: grad_check_many(*_objective(seed, rng(50)), rng=rng(51))),
    ]
