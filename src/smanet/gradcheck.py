"""Central-difference gradient verification.

`grad_check` follows the classic recipe: two forward passes must agree
bit-for-bit (otherwise the function is rejected as non-deterministic),
analytic gradients come from one backward pass, and every probed
coordinate is compared against (f(x+eps) - f(x-eps)) / 2eps with the
relative error |a - n| / max(1, |a|, |n|).

`build_suite` assembles named checks for every registered primitive, the
attention block, every loss, and the composed training objective; the
CLI gradcheck command runs it and fails on any error above threshold.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import MultiChannelAttention, SmaConfig, combine, refine
from .config import RunConfig
from .errors import NumericError, ShapeError
from .losses import (LossConfig, cross_entropy, diversity_loss, multi_attention_loss,
                     task_loss, weighted_bce_logits)
from .tensor import Tensor, no_grad

DEFAULT_EPS = 1e-5
SUITE_TOLERANCE = 1e-4


def grad_check_many(forward, leaves: dict[str, Tensor], eps: float = DEFAULT_EPS,
                    max_coords: int | None = None, rng: np.random.Generator | None = None) -> float:
    """Check d(forward())/d(leaf) for every leaf; returns the worst
    relative error over all probed coordinates."""
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
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        n_items = leaf.data.size
        if max_coords is not None and n_items > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n_items, size=max_coords, replace=False)
        else:
            coords = range(n_items)
        flat = leaf.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            with no_grad():
                fp = forward().item()
            flat[c] = orig - eps
            with no_grad():
                fm = forward().item()
            flat[c] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = float(analytic.reshape(-1)[c])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
        leaf.grad = None
    return worst


def grad_check(f, x: Tensor, eps: float = DEFAULT_EPS,
               max_coords: int | None = None, rng=None) -> float:
    """Max relative error of the analytic gradient of scalar f at x."""
    leaf = Tensor(np.array(x.data, dtype=np.float64, copy=True), requires_grad=True)
    return grad_check_many(lambda: f(leaf), {"x": leaf}, eps=eps, max_coords=max_coords, rng=rng)


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


def build_suite(seed: int = 0) -> list[tuple[str, object]]:
    """Named (check name, thunk -> max-rel-error) pairs covering every
    primitive, the attention block pieces, the losses, and the composed
    objective on the compact-profile model."""

    def rng_for(i):
        return np.random.default_rng((seed, i))

    checks: list[tuple[str, object]] = []

    def primitive(name, builder):
        checks.append((name, builder))

    primitive("add", lambda: grad_check(
        lambda x: _weighted(T.add(x, _rand(rng_for(1), 3, 1, 4))), _rand(rng_for(2), 3, 5, 4)))
    primitive("mul", lambda: grad_check(
        lambda x: _weighted(T.mul(x, _rand(rng_for(3), 5, 4))), _rand(rng_for(4), 3, 5, 4)))
    primitive("hinge_sub", lambda: grad_check(
        lambda x: _weighted(T.hinge_sub(x, 0.5)), Tensor(spaced_uniform(rng_for(5), (4, 6)))))
    primitive("relu", lambda: grad_check(
        lambda x: _weighted(T.relu(x)),
        Tensor(np.sign(rng_for(6).normal(size=(4, 6))) * rng_for(7).uniform(0.1, 1.0, (4, 6)))))
    primitive("sigmoid", lambda: grad_check(
        lambda x: _weighted(T.sigmoid(x)), _rand(rng_for(8), 4, 6)))
    primitive("exp", lambda: grad_check(
        lambda x: _weighted(T.exp(x)), _rand(rng_for(9), 4, 6)))
    primitive("log", lambda: grad_check(
        lambda x: _weighted(T.log(x)), Tensor(rng_for(10).uniform(0.2, 3.0, (4, 6)))))
    primitive("sum", lambda: grad_check(
        lambda x: _weighted(x.sum(axis=(0, 2), keepdims=True)), _rand(rng_for(11), 3, 4, 5)))
    primitive("mean", lambda: grad_check(
        lambda x: _weighted(x.mean(axis=1)), _rand(rng_for(12), 3, 4, 5)))
    primitive("avg_pool", lambda: grad_check(
        lambda x: _weighted(T.avg_pool(x, axes=(2, 3))), _rand(rng_for(13), 2, 3, 4, 4)))
    primitive("reduce_max", lambda: grad_check(
        lambda x: _weighted(T.reduce_max(x, axis=1)),
        Tensor(spaced_uniform(rng_for(14), (3, 5, 4)))))
    primitive("softmax", lambda: grad_check(
        lambda x: _weighted(T.softmax(x, axis=1)), _rand(rng_for(15), 4, 6)))
    primitive("reshape", lambda: grad_check(
        lambda x: _weighted(T.reshape(x, (6, 4))), _rand(rng_for(16), 4, 6)))
    primitive("narrow", lambda: grad_check(
        lambda x: _weighted(T.narrow(x, 1, 1, 2)), _rand(rng_for(17), 3, 5, 2)))

    def linear_check():
        rng = rng_for(22)
        x, w, b = _rand(rng, 5, 4), _rand(rng, 3, 4), _rand(rng, 3)
        e1 = grad_check(lambda t: _weighted(T.linear(t, w, b)), x)
        e2 = grad_check(lambda t: _weighted(T.linear(x, t, b)), w)
        e3 = grad_check(lambda t: _weighted(T.linear(x, w, t)), b)
        return max(e1, e2, e3)

    primitive("linear", linear_check)

    def conv_check():
        rng = rng_for(23)
        worst = 0.0
        for stride, pad in ((1, 1), (2, 1), (1, 0)):
            x, w, b = _rand(rng, 2, 3, 7, 7), _rand(rng, 4, 3, 3, 3), _rand(rng, 4)
            worst = max(
                worst,
                grad_check(lambda t: _weighted(T.conv2d(t, w, b, stride, pad), 23), x),
                grad_check(lambda t: _weighted(T.conv2d(x, t, b, stride, pad), 23), w),
                grad_check(lambda t: _weighted(T.conv2d(x, w, t, stride, pad), 23), b),
            )
        return worst

    primitive("conv2d", conv_check)

    def depthwise_check():
        rng = rng_for(24)
        x, w, b = _rand(rng, 2, 3, 6, 6), _rand(rng, 3, 5, 5), _rand(rng, 3)
        return max(
            grad_check(lambda t: _weighted(T.depthwise_conv2d(t, w, b, padding=2), 24), x),
            grad_check(lambda t: _weighted(T.depthwise_conv2d(x, t, b, padding=2), 24), w),
            grad_check(lambda t: _weighted(T.depthwise_conv2d(x, w, t, padding=2), 24), b),
        )

    primitive("depthwise_conv2d", depthwise_check)
    primitive("max_pool2d", lambda: grad_check(
        lambda x: _weighted(T.max_pool2d(x, 3, 2, 1)),
        Tensor(spaced_uniform(rng_for(25), (2, 2, 7, 7), lo=-1.0, hi=1.0))))

    def bn_check():
        rng = rng_for(26)
        x, g, b = _rand(rng, 3, 4, 5, 5), _rand(rng, 4), _rand(rng, 4)
        rm, rv = np.zeros(4), np.ones(4)

        def run(t, gg, bb):
            return _weighted(T.batch_norm2d(t, gg, bb, rm, rv, training=True), 26)

        return max(
            grad_check(lambda t: run(t, g, b), x),
            grad_check(lambda t: run(x, t, b), g),
            grad_check(lambda t: run(x, g, t), b),
        )

    primitive("batch_norm2d", bn_check)
    primitive("exclusive_channel_max", lambda: grad_check(
        lambda x: _weighted(T.exclusive_channel_max(x)),
        Tensor(spaced_uniform(rng_for(27), (2, 4, 3, 3)))))

    def masked_pool_check():
        rng = rng_for(28)
        f, m = _rand(rng, 2, 3, 4, 4), Tensor(rng.uniform(0.1, 0.9, (2, 2, 4, 4)))
        return max(
            grad_check(lambda t: _weighted(T.masked_avg_pool(t, m), 28), f),
            grad_check(lambda t: _weighted(T.masked_avg_pool(f, t), 28), m),
        )

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
        Tensor(spaced_uniform(rng_for(32), (2, 3, 5, 5))))))

    def sma_checks():
        rng = rng_for(33)
        cfg = SmaConfig(n_channels=3, in_channels=4)
        block = MultiChannelAttention(cfg, rng)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
        leaves = {"input": x}
        leaves.update({n: p for n, p in block.named_parameters()})

        def forward():
            out, _ = block(x)
            return _weighted(out, 33)

        return grad_check_many(forward, leaves, rng=np.random.default_rng((seed, 34)))

    checks.append(("sma_block", sma_checks))

    def aaa_check():
        rng = rng_for(35)
        cfg = SmaConfig(n_channels=3, in_channels=4)
        block = MultiChannelAttention(cfg, rng)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        leaves = {"input": x}
        leaves.update({n: p for n, p in block.named_parameters() if "fc" in n})
        return grad_check_many(
            lambda: _weighted(block.channel_weights(x), 35), leaves,
            rng=np.random.default_rng((seed, 36)),
        )

    checks.append(("aaa_weights", aaa_check))

    def combine_check():
        rng = rng_for(37)
        cfg = SmaConfig(n_channels=4, in_channels=3)
        block = MultiChannelAttention(cfg, rng)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)

        def forward():
            stack = block.f2a(x)
            weights = block.channel_weights(x)
            return _weighted(combine(stack, weights, cfg), 37)

        return grad_check_many(forward, {"input": x}, rng=np.random.default_rng((seed, 38)))

    checks.append(("combine", combine_check))

    def refine_check():
        rng = rng_for(39)
        a = Tensor(rng.uniform(0.1, 0.9, (2, 1, 5, 5)))
        x = _rand(rng, 2, 3, 5, 5)
        return max(
            grad_check(lambda t: _weighted(refine(a, t), 39), x),
            grad_check(lambda t: _weighted(refine(t, x), 39), a),
        )

    checks.append(("refine", refine_check))

    def ma_check():
        rng = rng_for(40)
        from .nn import Linear

        cfg = SmaConfig(n_channels=2, in_channels=4)
        block = MultiChannelAttention(cfg, rng)
        heads = [Linear(4, 3, rng, init=("uniform", 0.5)) for _ in range(2)]
        lcfg = LossConfig(task="multi_class")
        labels = rng.integers(0, 3, size=2)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        leaves = {"input": x}
        for i, h in enumerate(heads):
            leaves.update({f"head{i}.{n}": p for n, p in h.named_parameters()})

        def forward():
            stack = block.f2a(x)
            return multi_attention_loss(stack, x, labels, heads, lcfg)

        return grad_check_many(forward, leaves, rng=np.random.default_rng((seed, 41)))

    checks.append(("multi_attention_loss", ma_check))

    def objective_check():
        from .losses import compute_pos_weights
        from .train import TrainState

        rng = np.random.default_rng((seed, 50))
        cfg = RunConfig(task="au", profile="toy", dtype="float64", seed=seed,
                        n_channels=4, num_labels=6)
        state = TrainState(cfg)
        labels = (rng.random((2, 6)) > 0.6).astype(float)
        lcfg = LossConfig(task="multi_label", pos_weights=compute_pos_weights(labels))
        x = Tensor(rng.uniform(0.0, 1.0, (2, 3, 32, 32)), requires_grad=True)
        leaves = {"input": x}
        leaves.update({f"p.{n}": p for n, p in state.named_parameters()})
        heads = list(state.heads)

        def forward():
            logits, inters = state.model(x)
            l_cla = task_loss(logits, labels, lcfg)
            l_div = l_ma = None
            for it, hs in zip(inters, heads):
                d = diversity_loss(it.stack.masks, 0.5)
                m = multi_attention_loss(it.stack, it.feature, labels, hs, lcfg)
                l_div = d if l_div is None else l_div + d
                l_ma = m if l_ma is None else l_ma + m
            scale = 1.0 / len(inters)
            return l_cla + lcfg.alpha * (l_div * scale) + lcfg.lam * (l_ma * scale)

        return grad_check_many(forward, leaves, max_coords=3,
                               rng=np.random.default_rng((seed, 51)))

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
