"""Central-difference gradient verification.

`grad_check_many` follows the classic recipe: two forward passes must
agree bit-for-bit (otherwise the function is rejected as
non-deterministic), analytic gradients come from one backward pass, and
each probe compares a directional derivative with the central difference
(f(x+eps*u) - f(x-eps*u)) / 2eps under the relative error
|a - n| / max(1, |a|, |n|).

`build_suite` assembles named checks for every primitive in
`tensor.PRIMITIVES`, the attention block pieces, every loss op in
`losses` (`weighted_bce_logits`, `cross_entropy`, `diversity_loss`,
`bypass_logits`), the composed L_ma, and the training objective; the CLI
gradcheck command runs it and fails on any error above threshold.  Each
op check is named after its op.  Primitives, blocks and losses are
checked coordinate by coordinate; the composed objective, with about 190
leaves on the toy model, is checked along one random direction per leaf.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import MultiChannelAttention, SmaConfig, combine, refine
from .config import RunConfig, loss_config
from .errors import NumericError, ShapeError
from .losses import (LossConfig, bypass_logits, compute_pos_weights, cross_entropy,
                     diversity_loss, multi_attention_loss, objective, weighted_bce_logits)
from .nn import Linear
from .tensor import Tensor, no_grad
from .train import TrainState

DEFAULT_EPS = 1e-5
SUITE_TOLERANCE = 1e-4


def grad_check_many(forward, leaves: dict[str, Tensor], eps: float = DEFAULT_EPS,
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
        raise ShapeError(f"grad_check needs a scalar function, got shape {y1.shape}")
    if not np.array_equal(y1.data, y2.data):
        raise NumericError("non-determinism detected: two forward passes disagree")

    for leaf in leaves.values():
        leaf.grad = None
    loss = forward()
    if loss.requires_grad:
        loss.backward()

    worst = 0.0
    for leaf in leaves.values():
        analytic = (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)).reshape(-1)
        flat = leaf.data.reshape(-1)
        base = flat.copy()
        if rng is None:
            probes = [(c, 1.0, float(analytic[c])) for c in range(flat.size)]
        else:
            u = rng.normal(size=flat.size)
            u /= np.linalg.norm(u)
            probes = [(slice(None), u, float(analytic @ u))]
        for at, step, a in probes:
            flat[at] = base[at] + eps * step
            with no_grad():
                fp = forward().item()
            flat[at] = base[at] - eps * step
            with no_grad():
                fm = forward().item()
            flat[at] = base[at]
            numeric = (fp - fm) / (2.0 * eps)
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
        leaf.grad = None
    return worst


def grad_check(f, x: Tensor, eps: float = DEFAULT_EPS) -> float:
    """Max relative error of the analytic gradient of scalar f at x."""
    leaf = Tensor(np.array(x.data, dtype=np.float64, copy=True), requires_grad=True)
    return grad_check_many(lambda: f(leaf), {"x": leaf}, eps=eps)


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


def _leaves(**tensors: Tensor) -> dict[str, Tensor]:
    """The named inputs of one check, each made a requires-grad leaf."""
    for t in tensors.values():
        t.requires_grad = True
    return tensors


def _weighted(out: Tensor, seed: int = 0) -> Tensor:
    """Random fixed projection to a scalar; catches transposed gradients
    that a plain sum would miss."""
    r = np.random.default_rng((seed, 137)).normal(size=out.shape)
    return T.mul(out, Tensor(r)).sum()


def build_suite(seed: int = 0) -> list[tuple[str, object]]:
    """Named (check name, thunk -> max-rel-error) pairs covering every
    primitive, the attention block pieces, the losses, and the composed
    objective on the compact-profile model.  Nothing is built until a
    thunk runs."""

    def rng_for(i):
        return np.random.default_rng((seed, i))

    checks: list[tuple[str, object]] = []

    def primitive(name, builder):
        checks.append((name, builder))

    primitive("add", lambda: grad_check(
        lambda x: _weighted(T.add(x, _rand(rng_for(1), 3, 1, 4))), _rand(rng_for(2), 3, 5, 4)))
    primitive("mul", lambda: grad_check(
        lambda x: _weighted(T.mul(x, _rand(rng_for(3), 5, 4))), _rand(rng_for(4), 3, 5, 4)))
    primitive("relu", lambda: grad_check(
        lambda x: _weighted(T.relu(x)),
        Tensor(np.sign(rng_for(6).normal(size=(4, 6))) * rng_for(7).uniform(0.1, 1.0, (4, 6)))))
    primitive("sigmoid", lambda: grad_check(
        lambda x: _weighted(T.sigmoid(x)), _rand(rng_for(8), 4, 6)))
    primitive("sum", lambda: grad_check(
        lambda x: _weighted(x.sum(axis=(0, 2), keepdims=True)), _rand(rng_for(11), 3, 4, 5)))
    primitive("mean", lambda: grad_check(
        lambda x: _weighted(x.mean(axis=1)), _rand(rng_for(12), 3, 4, 5)))
    primitive("softmax", lambda: grad_check(
        lambda x: _weighted(T.softmax(x, axis=1)), _rand(rng_for(15), 4, 6)))
    primitive("reshape", lambda: grad_check(
        lambda x: _weighted(T.reshape(x, (6, 4))), _rand(rng_for(16), 4, 6)))

    def linear_check():
        rng = rng_for(22)
        p = _leaves(x=_rand(rng, 5, 4), w=_rand(rng, 3, 4), b=_rand(rng, 3))
        return grad_check_many(lambda: _weighted(T.linear(p["x"], p["w"], p["b"])), p)

    primitive("linear", linear_check)

    def conv_check():
        rng = rng_for(23)
        worst = 0.0
        for stride, pad in ((1, 1), (2, 1), (1, 0)):
            p = _leaves(x=_rand(rng, 2, 3, 7, 7), w=_rand(rng, 4, 3, 3, 3), b=_rand(rng, 4))
            worst = max(worst, grad_check_many(
                lambda: _weighted(T.conv2d(p["x"], p["w"], p["b"], stride, pad), 23), p))
        return worst

    primitive("conv2d", conv_check)

    def depthwise_check():
        rng = rng_for(24)
        p = _leaves(x=_rand(rng, 2, 3, 6, 6), w=_rand(rng, 3, 5, 5), b=_rand(rng, 3))
        return grad_check_many(
            lambda: _weighted(T.depthwise_conv2d(p["x"], p["w"], p["b"], padding=2), 24), p)

    primitive("depthwise_conv2d", depthwise_check)
    primitive("max_pool2d", lambda: grad_check(
        lambda x: _weighted(T.max_pool2d(x, 3, 2, 1)),
        Tensor(spaced_uniform(rng_for(25), (2, 2, 7, 7), lo=-1.0, hi=1.0))))

    def bn_check():
        rng = rng_for(26)
        p = _leaves(x=_rand(rng, 3, 4, 5, 5), g=_rand(rng, 4), b=_rand(rng, 4))
        rm, rv = np.zeros(4), np.ones(4)
        return grad_check_many(lambda: _weighted(
            T.batch_norm2d(p["x"], p["g"], p["b"], rm, rv, training=True), 26), p)

    primitive("batch_norm2d", bn_check)

    def masked_pool_check():
        rng = rng_for(28)
        p = _leaves(f=_rand(rng, 2, 3, 4, 4), m=Tensor(rng.uniform(0.1, 0.9, (2, 2, 4, 4))))
        return grad_check_many(lambda: _weighted(T.masked_avg_pool(p["f"], p["m"]), 28), p)

    primitive("masked_avg_pool", masked_pool_check)

    # losses
    def bce_check():
        rng = rng_for(30)
        y = (rng.random((4, 5)) > 0.5).astype(float)
        w = rng.uniform(0.5, 3.0, 5)
        return grad_check(lambda x: weighted_bce_logits(x, y, w), _rand(rng, 4, 5))

    checks.append(("weighted_bce_logits", bce_check))

    def ce_check():
        rng = rng_for(31)
        cls = rng.integers(0, 5, size=6)
        return grad_check(lambda x: cross_entropy(x, cls), _rand(rng, 6, 5))

    checks.append(("cross_entropy", ce_check))
    checks.append(("diversity_loss", lambda: grad_check(
        lambda m: diversity_loss(m, 0.5),
        Tensor(spaced_uniform(rng_for(32), (2, 3, 3, 3))))))

    def bypass_check():
        rng = rng_for(41)
        heads = [Linear(4, 3, rng, init=("uniform", 0.5)) for _ in range(3)]
        leaves = _leaves(pooled=_rand(rng, 2, 3, 4))
        for i, h in enumerate(heads):
            leaves.update({f"head{i}.{n}": p for n, p in h.named_parameters()})
        return grad_check_many(
            lambda: _weighted(bypass_logits(leaves["pooled"], heads), 41), leaves)

    checks.append(("bypass_logits", bypass_check))

    def sma_checks():
        rng = rng_for(33)
        block = MultiChannelAttention(SmaConfig(n_channels=3, in_channels=4), rng)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)

        def forward():
            out, _ = block(x)
            return _weighted(out, 33)

        return grad_check_many(forward, {"input": x, **dict(block.named_parameters())})

    checks.append(("sma_block", sma_checks))

    def aaa_check():
        rng = rng_for(35)
        block = MultiChannelAttention(SmaConfig(n_channels=3, in_channels=4), rng)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        leaves = {"input": x}
        leaves.update({n: p for n, p in block.named_parameters() if "fc" in n})
        return grad_check_many(lambda: _weighted(block.channel_weights(x), 35), leaves)

    checks.append(("aaa_weights", aaa_check))

    def combine_check():
        rng = rng_for(37)
        cfg = SmaConfig(n_channels=4, in_channels=3)
        block = MultiChannelAttention(cfg, rng)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)

        def forward():
            return _weighted(combine(block.f2a(x), block.channel_weights(x), cfg), 37)

        return grad_check_many(forward, {"input": x})

    checks.append(("combine", combine_check))

    def refine_check():
        rng = rng_for(39)
        p = _leaves(a=Tensor(rng.uniform(0.1, 0.9, (2, 1, 5, 5))), x=_rand(rng, 2, 3, 5, 5))
        return grad_check_many(lambda: _weighted(refine(p["a"], p["x"]), 39), p)

    checks.append(("refine", refine_check))

    def ma_check():
        rng = rng_for(40)
        block = MultiChannelAttention(SmaConfig(n_channels=2, in_channels=4), rng)
        heads = [Linear(4, 3, rng, init=("uniform", 0.5)) for _ in range(2)]
        lcfg = LossConfig(task="multi_class")
        labels = rng.integers(0, 3, size=2)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        leaves = {"input": x}
        for i, h in enumerate(heads):
            leaves.update({f"head{i}.{n}": p for n, p in h.named_parameters()})

        def forward():
            return multi_attention_loss(block.f2a(x), x, labels, heads, lcfg)

        return grad_check_many(forward, leaves)

    checks.append(("multi_attention_loss", ma_check))

    def objective_check():
        rng = np.random.default_rng((seed, 50))
        cfg = RunConfig(task="au", profile="toy", dtype="float64", seed=seed,
                        n_channels=4, num_labels=6)
        state = TrainState(cfg)
        labels = (rng.random((2, 6)) > 0.6).astype(float)
        lcfg = loss_config(cfg, compute_pos_weights(labels))
        x = Tensor(rng.uniform(0.0, 1.0, (2, 3, 32, 32)), requires_grad=True)
        leaves = {"input": x}
        leaves.update({f"p.{n}": p for n, p in state.named_parameters()})
        heads = list(state.heads)

        def forward():
            logits, inters = state.model(x)
            return objective(logits, inters, labels, heads, lcfg)[-1]

        return grad_check_many(forward, leaves, rng=np.random.default_rng((seed, 51)))

    checks.append(("total_objective", objective_check))
    return checks


def run_suite(seed: int = 0, tolerance: float = SUITE_TOLERANCE):
    """Run every check; returns (results, failures) as name/error lists."""
    results = []
    failures = []
    for name, thunk in build_suite(seed):
        err = float(thunk())
        results.append((name, err))
        if not (err < tolerance):
            failures.append((name, err))
    return results, failures
