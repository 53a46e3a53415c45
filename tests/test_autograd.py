import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from plans import sma_config
from test_dependencies import op_functions
from smanet import gradcheck as G
from smanet import losses as L
from smanet import tensor as T
from smanet.attention import MultiChannelAttention
from smanet.backbone import SGD
from smanet.config import RunConfig, loss_config
from smanet.errors import AutogradError, NumericError
from smanet.gradcheck import SUITE_TOLERANCE, build_suite, grad_check_many
from smanet.tensor import Tensor
from smanet.train import TrainState, batch_tensor, build_split, build_splits, run_training


def test_sum_gradient_is_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_square_gradient_is_two_x():
    x = Tensor(np.random.default_rng(1).normal(size=(5,)), requires_grad=True)
    T.mul(x, x).sum().backward()
    assert np.allclose(x.grad, 2 * x.data, atol=1e-15)


def test_fanout_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x + x
    T.mul(y, y).sum().backward()  # d/dx (2x)^2 = 8x
    assert np.allclose(x.grad, [16.0])


def test_leaf_accumulates_in_place_without_aliasing_a_node_gradient():
    """`add`'s vjp hands one array to leaf `a` and to node `b`; `a`'s
    second arrival (from `a * b`) lands before `b`'s vjp runs, so a leaf
    that kept that array and added into it would corrupt `b`'s gradient.
    f = sum((a + b) * (a * b)) with b = 3c."""
    rng = np.random.default_rng(30)
    a0, c0 = rng.normal(size=4), rng.normal(size=4)
    a, c = Tensor(a0.copy(), requires_grad=True), Tensor(c0.copy(), requires_grad=True)
    b = c * 3.0
    ((a + b) * (a * b)).sum().backward()
    b0 = 3.0 * c0
    assert np.allclose(a.grad, b0 * (2 * a0 + b0), atol=1e-12)
    assert np.allclose(c.grad, 3.0 * a0 * (a0 + 2 * b0), atol=1e-12)


def test_leaf_gradient_adds_into_the_array_it_holds():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    buffer = x.grad = np.array([10.0, 20.0])
    (x * x).sum().backward()
    assert x.grad is buffer and np.array_equal(buffer, [12.0, 24.0])


def test_fan_in_with_consumers_at_different_depths():
    """a = 2x feeds b = a*a (depth 2), c = b*a (depth 3) and, created
    last, the short branch s = sum(a) (depth 2).  Every consumer of a is
    deeper than it, so a runs after all three have added into it:
    f = sum(a^3) + sum(a), df/dx = 2 * (3a^2 + 1)."""
    x0 = np.random.default_rng(31).normal(size=5)
    x = Tensor(x0.copy(), requires_grad=True)
    a = x * 2.0
    b = a * a
    c = b * a
    long_branch = c.sum()
    short_branch = a.sum()
    loss = long_branch + short_branch
    depths = [t._node.depth for t in (a, b, c, long_branch, short_branch, loss)]
    assert depths == [1, 2, 3, 4, 2, 5]
    loss.backward()
    a0 = 2.0 * x0
    assert np.allclose(x.grad, 2.0 * (3.0 * a0 * a0 + 1.0), rtol=1e-13, atol=0)


def test_nonscalar_backward_rejected():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(AutogradError):
        (x + x).backward()


def test_second_backward_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = x.sum()
    loss.backward()
    with pytest.raises(AutogradError):
        loss.backward()


def test_consumed_intermediate_cannot_be_reused():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x + x
    y.sum().backward()
    with pytest.raises(AutogradError):
        (y + y).sum()


def test_broadcast_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(3, 1, 4))
    b0 = rng.normal(size=(2, 4))

    def f_np(a):
        return float((a * b0).sum() * 2.0)

    a = Tensor(a0.copy(), requires_grad=True)
    (2.0 * T.mul(a, Tensor(b0))).sum().backward()
    assert np.allclose(a.grad, oracles.fd_grad(f_np, a0), atol=1e-8)


def test_grad_check_sigmoid_sum():
    x = Tensor(np.random.default_rng(3).normal(size=(4, 4)), requires_grad=True)
    assert grad_check_many(lambda: T.sigmoid(x).sum(), {"x": x}) < 1e-6


def test_grad_check_conv_sum():
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(2, 3, 3, 3)))
    x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    assert grad_check_many(lambda: T.conv2d(x, w, padding=1).sum(), {"x": x}) < 1e-5


def test_composed_attention_block_matches_manual_finite_differences():
    # Independent oracle: plain numpy central differences around the full
    # block, not the packaged grad_check_many checker.
    rng = np.random.default_rng(5)
    block = MultiChannelAttention(sma_config(2), 3, rng)
    x0 = rng.normal(size=(1, 3, 5, 5))

    def loss_np(arr):
        out, _ = block(Tensor(arr))
        return out.sum().item()

    x = Tensor(x0.copy(), requires_grad=True)
    out, _ = block(x)
    out.sum().backward()
    numeric = oracles.fd_grad(loss_np, x0, eps=1e-5)
    denom = np.maximum(1.0, np.maximum(np.abs(x.grad), np.abs(numeric)))
    assert (np.abs(x.grad - numeric) / denom).max() < 1e-4


def test_grad_check_rejects_nondeterminism():
    state = {"n": 0}
    x = Tensor(np.ones(3), requires_grad=True)

    def f():
        state["n"] += 1
        return (x * float(state["n"])).sum()

    with pytest.raises(NumericError):
        grad_check_many(f, {"x": x})


def test_grad_check_many_covers_multiple_leaves():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    err = grad_check_many(lambda: T.mul(a, T.sigmoid(b)).sum(), {"a": a, "b": b})
    assert err < 1e-6


def _scaled_vjp(out: Tensor) -> Tensor:
    """`out` with its recorded vjp scaled by 1.01: a slightly wrong rule."""
    node = out._node
    if node is not None:
        vjp = node.vjp
        node.vjp = lambda g: tuple(None if r is None else r * 1.01 for r in vjp(g))
    return out


def test_grad_check_many_directional_probe_flags_scaled_gradient():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    leaves = {"a": a, "b": b}
    err = grad_check_many(lambda: T.mul(a, T.sigmoid(b)).sum(), leaves,
                          rng=np.random.default_rng(7))
    assert err < 1e-6
    err = grad_check_many(lambda: T.mul(a, _scaled_vjp(T.sigmoid(b))).sum(), leaves,
                          rng=np.random.default_rng(7))
    assert err >= SUITE_TOLERANCE


_MUTATED_OPS = op_functions()


@pytest.mark.parametrize("name", list(_MUTATED_OPS))
def test_suite_check_flags_scaled_vjp(name, monkeypatch):
    owner, attr = _MUTATED_OPS[name]
    orig = getattr(owner, attr)
    # Rebind every module-level name of the op: `gradcheck` imports the
    # loss ops by name.
    for module in (T, L, G):
        if getattr(module, attr, None) is orig:
            monkeypatch.setattr(module, attr,
                                lambda *args, **kwargs: _scaled_vjp(orig(*args, **kwargs)))
    check = dict(build_suite(0))[name]
    assert check() >= SUITE_TOLERANCE


def test_every_suite_thunk_looks_up_the_checker_when_it_runs(monkeypatch):
    """The benchmark's probe rebinds `gradcheck.grad_check_many` and times
    the forwards it is handed; a thunk that bound the checker before it ran
    would leave the probe nothing to time."""
    class Reached(Exception):
        pass

    def stub(forward, leaves, rng=None):
        raise Reached

    suite = build_suite(0)
    monkeypatch.setattr(G, "grad_check_many", stub)
    missed = []
    for name, thunk in suite:
        try:
            thunk()
        except Reached:
            continue
        missed.append(name)
    assert not missed


def test_every_op_is_mutation_tested():
    """Each function of `tensor` and `losses` that records a vjp through
    `apply_op` has a suite check, named after it, that the scaled-vjp test
    above mutates."""
    assert _MUTATED_OPS
    assert not _MUTATED_OPS.keys() - {name for name, _ in build_suite(0)}


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = x + x
    assert y._node is None and not y.requires_grad


def test_gradients_not_tracked_for_plain_tensors():
    x = Tensor(np.ones(3))
    y = x + x
    assert y._node is None


def _record_vjps(monkeypatch) -> list:
    """Every vjp `tensor.apply_op` records from now on, under each module
    name bound to it (`losses` imports it by name)."""
    vjps, orig = [], T.apply_op

    def apply_op(data, parents, vjp):
        out = orig(data, parents, vjp)
        if out.requires_grad:
            vjps.append(vjp)
        return out

    for module in (T, L):
        monkeypatch.setattr(module, "apply_op", apply_op)
    return vjps


def _tensors_in_closures(vjps) -> list[str]:
    """`op.name` for each closure cell of `vjps` that holds a Tensor, or
    a tuple or list holding one."""
    found = []
    for vjp in vjps:
        for name, cell in zip(vjp.__code__.co_freevars, vjp.__closure__ or ()):
            try:
                value = cell.cell_contents
            except ValueError:   # a cell the op never bound
                continue
            items = list(value) if isinstance(value, (tuple, list)) else [value]
            if any(isinstance(item, Tensor) for item in items):
                found.append(f"{vjp.__qualname__.split('.')[0]}.{name}")
    return sorted(set(found))


def test_no_vjp_of_a_training_step_holds_a_tensor(monkeypatch, tmp_path):
    cfg = RunConfig(task="au", profile="toy", seed=3, epochs=1, batch_size=8, n_train=8,
                    n_val=8, n_subjects=10, n_channels=2, num_labels=4,
                    output_dir=str(tmp_path)).validate()
    splits = build_splits(cfg)
    vjps = _record_vjps(monkeypatch)
    run_training(cfg, splits)
    assert len(vjps) > 100
    assert _tensors_in_closures(vjps) == []


def test_no_vjp_of_the_objective_check_holds_a_tensor(monkeypatch):
    forward, _ = G._objective(0, np.random.default_rng(50))
    vjps = _record_vjps(monkeypatch)
    forward().backward()
    assert len(vjps) > 100
    assert _tensors_in_closures(vjps) == []


def _toy_step_memory() -> tuple[int, int, int]:
    """One toy float32 batch-2 training step, logits and block outputs
    kept alive as in `run_training`, under tracemalloc: the memory held
    after the objective, the backward's peak above that, and block 0's
    feature-map bytes."""
    cfg = RunConfig(task="au", profile="toy", seed=7, epochs=1, batch_size=2, n_train=8,
                    n_val=8, n_subjects=10, n_channels=7, dtype="float32").validate()
    train = build_split(cfg, "train")
    state = TrainState(cfg)
    # binds each .grad, as a step does
    SGD([p for _, p in state.named_parameters()], cfg.momentum, cfg.weight_decay)
    lcfg = loss_config(cfg, L.compute_pos_weights(train.labels))
    x = batch_tensor(train.images[:2], np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logits, inters = state.model(x)
        l_all = L.objective(logits, inters, train.labels[:2], list(state.heads), lcfg)[3]
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        l_all.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return start - before, peak, inters[0].feature.data.nbytes


def test_backward_holds_each_blocks_loss_gradients_only_for_its_block():
    """Each attention block's L_div and L_ma nodes hang off the trunk at
    that block's depth, so a backward in decreasing depth makes their
    mask, logit and feature gradients only when it reaches the block.
    On one toy step the backward peaks at most 3x block 0's feature map
    above the memory held at its start.  A post-order walk, which runs
    all 8 blocks' loss vjps before any backbone vjp, peaked at about
    7x."""
    _, peak, feature = _toy_step_memory()
    assert peak <= 3 * feature, (peak, feature)


def test_graph_after_the_objective_fits_the_toy_budget():
    """The graph of one toy step holds each activation once: a conv
    keeps its input's own array, not its padded phase grid, and so does
    a depthwise conv; a relu keeps its output, which the next conv keeps
    anyway, not a mask beside it; and L_div rebuilds m1 and the channel
    sum from the masks.  Held after the objective: at most 32x block 0's
    feature map (8 MiB), against about 36x when each of those kept its
    own copy."""
    held, _, feature = _toy_step_memory()
    assert held <= 32 * feature, held / feature


def test_relu_conv_chain_keeps_one_copy_of_the_activation():
    """relu then a 3x3 conv, as in every BasicBlock: beyond the conv
    output the two vjps keep the relu output once, shared, and nothing
    the size of it beside it.  With a relu mask and the conv's phase
    grid they kept about 1.46x the relu output at 32 px."""
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 8, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = T.relu(x)
        out = T.conv2d(h, w, padding=1)
        relu_bytes = h.data.nbytes
        del h
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert kept <= 1.1 * relu_bytes, kept / relu_bytes


def test_max_pool_vjp_keeps_no_output_gradient_rows_to_the_end():
    """The max-pool vjp (the imagenet stem's 3x3 stride-2 pool) drops the
    output gradient's [Ho, Wq] rows once they are added onto the grid, so
    its peak above the memory held when it starts is the zeroed grid, the
    gathered gradient and one tap's temporaries: at most 2.2x its input,
    against 2.36x while the rows lived until the gather."""
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 8, 64, 64)).astype(np.float32), requires_grad=True)
    out = T.max_pool2d(x, 3, 2, 1)
    g = rng.normal(size=out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (gx,) = out._node.vjp(g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape
    assert peak <= 2.2 * x.data.nbytes, peak / x.data.nbytes


def test_graph_releases_outputs_no_vjp_reads():
    """relu(bn(conv(x))): neither the conv output (the batch norm keeps
    its own centred copy) nor the batch-norm output (relu keeps its own
    output) is read by a vjp, so dropping them frees them, with the
    gradients unchanged bit for bit."""
    def run(keep: bool):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=4), requires_grad=True)
        beta = Tensor(rng.normal(size=4), requires_grad=True)
        conv = T.conv2d(x, w, padding=1)
        bn = T.batch_norm2d(conv, gamma, beta, np.zeros(4), np.ones(4), training=True)
        h = T.relu(bn)
        refs = [weakref.ref(conv.data), weakref.ref(bn.data)]
        kept = [conv, bn] if keep else []
        del conv, bn
        alive = [ref() is not None for ref in refs]
        T.mul(h, Tensor(rng.normal(size=h.shape))).sum().backward()
        del kept
        return alive, [t.grad for t in (x, w, gamma, beta)]

    alive, grads = run(keep=False)
    assert alive == [False, False]
    alive_kept, grads_kept = run(keep=True)
    assert alive_kept == [True, True]
    for got, want in zip(grads, grads_kept):
        assert got.dtype == want.dtype and np.array_equal(got, want)
