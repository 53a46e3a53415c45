import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plans import loss_plan, sma_config, synth_spec
from smanet import tensor as T
from smanet.attention import MultiChannelAttention
from smanet.data import generate_synthetic, load_dataset, write_dataset
from smanet.errors import DataError, ShapeError
from smanet.losses import (bypass_logits, compute_pos_weights, cross_entropy,
                           diversity_loss, multi_attention_loss, task_loss,
                           total_loss, weighted_bce_logits)
from smanet.nn import Linear
from smanet.tensor import Tensor


def tie_masks(n):
    """[2, n, 3, 3] masks on four levels, with the ties L_div must break by
    the lowest channel index (those that fit in n channels)."""
    m = np.random.default_rng(11).choice([0.1, 0.3, 0.6, 0.8], size=(2, n, 3, 3))
    m[0, :, 0, 0] = 0.8                                   # all channels tie at the top
    m[0, :, 0, 1] = 0.3
    m[0, :4, 0, 1] = [0.6, 0.8, 0.8, 0.3][:n]             # two-way tie at the top
    m[1, :, 1, 1] = 0.6
    m[1, 1, 1, 1] = 0.9                                   # runner-up tie among the rest
    m[1, :, 2, 2] = np.resize([0.3, 0.1], n)              # no hinge active
    return m


class TestDiversityLoss:
    def test_full_overlap_constant_masks(self):
        masks = Tensor(np.ones((1, 2, 4, 4)))
        assert abs(diversity_loss(masks, 0.5).item() - 0.5) < 1e-12

    def test_disjoint_supports_cost_nothing(self):
        masks = np.zeros((1, 2, 4, 4))
        masks[0, 0, :2] = 0.9
        masks[0, 1, 2:] = 0.9
        assert diversity_loss(Tensor(masks), 0.5).item() == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        m = rng.random((2, 3, 4, 4))
        got = diversity_loss(Tensor(m), 0.5).item()
        assert abs(got - oracles.diversity_loop(m, 0.5)) < 1e-12

    def test_single_channel_is_zero(self):
        assert diversity_loss(Tensor(np.random.rand(2, 1, 3, 3)), 0.3).item() == 0.0

    def test_empty_channel_axis_rejected(self):
        with pytest.raises(ShapeError):
            diversity_loss(Tensor(np.zeros((1, 0, 3, 3))), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 0.95))
    def test_nonnegative(self, seed, delta):
        m = np.random.default_rng(seed).random((1, 3, 3, 3))
        assert diversity_loss(Tensor(m), delta).item() >= 0.0

    @pytest.mark.parametrize("n", [2, 4, 7])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_loop_oracle_with_ties(self, dtype, n):
        m = tie_masks(n)
        got = diversity_loss(Tensor(m.astype(dtype)), 0.5)
        want = oracles.diversity_loop(m.astype(dtype).astype(np.float64), 0.5)
        assert got.dtype == dtype
        assert got.item() == pytest.approx(want, rel=1e-12 if dtype == np.float64 else 1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_vjp_matches_loop_oracle(self, dtype):
        m = tie_masks(4)  # the three-way runner-up tie needs four channels
        x = Tensor(m.astype(dtype), requires_grad=True)
        diversity_loss(x, 0.5).backward()
        want = oracles.diversity_vjp_loop(x.data.astype(np.float64), 0.5)
        assert x.grad.dtype == dtype
        rtol = 1e-12 if dtype == np.float64 else 1e-6
        assert np.allclose(x.grad, want, rtol=rtol, atol=rtol * np.abs(want).max())

    @pytest.mark.parametrize("n", [2, 4, 7])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_grad_value_matches_the_recording_value(self, dtype, n):
        # Under no_grad the top-two indices are not tracked; the value
        # never read them.
        x = Tensor(tie_masks(n).astype(dtype), requires_grad=True)
        recorded = diversity_loss(x, 0.5)
        with T.no_grad():
            plain = diversity_loss(x, 0.5)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.dtype == recorded.dtype == dtype
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        m = rng.random((2, 4, 5, 5))
        perm = rng.permutation(4)
        a = diversity_loss(Tensor(m), 0.5).item()
        b = diversity_loss(Tensor(m[:, perm]), 0.5).item()
        assert abs(a - b) < 1e-12


class TestWeightedBce:
    def test_zero_logit_positive_label(self):
        got = weighted_bce_logits(Tensor(np.zeros((1, 1))), np.ones((1, 1)), np.ones(1))
        assert abs(got.item() - math.log(2)) < 1e-12

    def test_zero_logit_negative_label(self):
        got = weighted_bce_logits(Tensor(np.zeros((1, 1))), np.zeros((1, 1)), np.ones(1))
        assert abs(got.item() - math.log(2)) < 1e-12

    def test_linear_in_weights(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 4)))
        y = (rng.random((3, 4)) > 0.5).astype(float)
        w = rng.uniform(0.5, 2.0, 4)
        assert abs(weighted_bce_logits(x, y, 2 * w).item()
                   - 2 * weighted_bce_logits(x, y, w).item()) < 1e-12

    def test_finite_at_700(self):
        x = Tensor(np.array([[700.0, -700.0]]))
        y = np.array([[0.0, 1.0]])
        assert np.isfinite(weighted_bce_logits(x, y, np.ones(2)).item())

    def test_checked_mode_rejects_nonbinary(self, tmp_path):
        # The loss takes its targets unchecked; a soft label is refused by
        # the manifest reader before any loss sees it.
        write_dataset(tmp_path, generate_synthetic(18, 1, synth_spec()), "abc123")
        rel, _, subject = (tmp_path / "manifest.tsv").read_text().splitlines()[1].split("\t")
        soft = ",".join(["0.5"] + ["0"] * 11)
        (tmp_path / "manifest.tsv").write_text(f"{rel}\t{soft}\t{subject}\n")
        with pytest.raises(DataError, match=r"manifest\.tsv:1: non-integer field"):
            load_dataset(tmp_path, "au", 12, 64)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        y = (rng.random((4, 3)) > 0.5).astype(float)
        w = rng.uniform(0.5, 3.0, 3)
        sig = 1 / (1 + np.exp(-x))
        want = (-w * (y * np.log(sig) + (1 - y) * np.log(1 - sig))).mean()
        assert abs(weighted_bce_logits(Tensor(x), y, w).item() - want) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_matches_the_mean_method(self, dtype):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=4.0, size=(6, 7)).astype(dtype)
        y = (rng.random((6, 7)) > 0.5).astype(dtype)
        w = rng.uniform(0.5, 3.0, 7).astype(dtype)
        out = weighted_bce_logits(Tensor(x), y, w)
        terms = w * (np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x))))
        assert oracles.same_bits(out.data, np.asarray(terms.mean()))


class TestCrossEntropy:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_and_vjp_match_the_max_and_mean_methods(self, dtype):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=4.0, size=(10, 7)).astype(dtype)
        cls = rng.integers(0, 7, 10)
        out = cross_entropy(Tensor(x, requires_grad=True), cls)
        m = x.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
        rows = np.arange(10)
        assert oracles.same_bits(out.data, np.asarray((lse - x[rows, cls]).mean()))
        g = np.asarray(-0.75, dtype=dtype)
        (grad,) = out._node.vjp(g)
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, cls] -= 1.0
        assert oracles.same_bits(grad, g * p / 10)

    def test_uniform_logits(self):
        got = cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 3]))
        assert abs(got.item() - math.log(4)) < 1e-12

    def test_confident_correct_class(self):
        x = np.zeros((1, 3))
        x[0, 1] = 50.0
        assert cross_entropy(Tensor(x), np.array([1])).item() < 1e-20

    def test_matches_explicit_softmax_log(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        cls = rng.integers(0, 6, 5)
        got = cross_entropy(Tensor(x), cls).item()
        assert abs(got - oracles.cross_entropy_loop(x, cls)) < 1e-10

    def test_finite_at_700(self):
        x = np.array([[700.0, -700.0]])
        assert np.isfinite(cross_entropy(Tensor(x), np.array([1])).item())

    def test_out_of_range_class(self, tmp_path):
        # The loss takes class ids unchecked; data written for more classes
        # than the run has is refused by the manifest reader.
        data = generate_synthetic(19, 8, synth_spec(task="fer"))
        assert data.labels.max() >= 3
        write_dataset(tmp_path, data, "abc123")
        with pytest.raises(DataError, match=r"want one class id in \[0,3\)"):
            load_dataset(tmp_path, "fer", 3, 64)


def head_slice(heads: Linear, n: int, k: int) -> tuple[Tensor, Tensor]:
    """Head n of a stacked bypass layer: its row block as a weight and bias."""
    rows = slice(n * k, (n + 1) * k)
    return Tensor(heads.weight.data[rows]), Tensor(heads.bias.data[rows])


class TestMultiAttentionLoss:
    def test_degenerate_single_channel_equals_main_loss(self):
        rng = np.random.default_rng(5)
        feature = Tensor(rng.normal(size=(2, 4, 5, 5)))
        # sigmoid(40) is exactly 1.0 in float64: all-ones masks.
        masks = T.sigmoid(Tensor(np.full((2, 1, 5, 5), 40.0)))
        head = Linear(4, 3, rng, 0.5)
        labels = np.array([0, 2])
        cfg = loss_plan()
        got = multi_attention_loss(masks, feature, labels, head, cfg).item()
        pooled = Tensor(feature.data.mean(axis=(2, 3)))
        want = cross_entropy(head(pooled), labels).item()
        assert abs(got - want) < 1e-12

    def test_zero_heads_give_log_k(self):
        rng = np.random.default_rng(6)
        feature = Tensor(rng.normal(size=(2, 4, 5, 5)))
        block = MultiChannelAttention(sma_config(2), 4, rng)
        masks = T.sigmoid(block.f2a(feature))
        heads = Linear(4, 2 * 5, rng, 0.5)
        heads.weight.data[...] = 0.0
        heads.bias.data[...] = 0.0
        cfg = loss_plan()
        got = multi_attention_loss(masks, feature, np.array([1, 4]), heads, cfg).item()
        assert abs(got - math.log(5)) < 1e-12

    def test_matches_hand_composed_pipeline(self):
        rng = np.random.default_rng(7)
        feature = Tensor(rng.normal(size=(2, 3, 4, 4)))
        block = MultiChannelAttention(sma_config(3), 3, rng)
        masks = T.sigmoid(block.f2a(feature))
        heads = Linear(3, 3 * 4, rng, 0.7)
        w = rng.uniform(1.0, 2.0, 4)
        au_labels = (rng.random((2, 4)) > 0.5).astype(float)
        for cfg, labels in ((loss_plan(pos_weights=w), au_labels),
                            (loss_plan(), rng.integers(0, 4, size=2))):
            got = multi_attention_loss(masks, feature, labels, heads, cfg).item()
            acc = 0.0
            for n in range(3):
                gated = masks.data[:, n : n + 1] * feature.data
                pooled = Tensor(gated.mean(axis=(2, 3)))
                acc += task_loss(T.linear(pooled, *head_slice(heads, n, 4)), labels, cfg).item()
            assert abs(got - acc / 3) < 1e-12

    def test_bypass_logits_matches_primitive_composition(self):
        # Row b*N + n is head n on the mean of feature[b] gated by mask n.
        rng = np.random.default_rng(10)
        f = Tensor(rng.normal(size=(2, 3, 4, 4)))
        m = Tensor(rng.random((2, 2, 4, 4)))
        heads = Linear(3, 2 * 5, rng, 0.5)
        fused = bypass_logits(f, m, heads.weight, heads.bias).data.reshape(2, 2, 5)
        for n in range(2):
            pooled = Tensor((f.data * m.data[:, n : n + 1]).mean(axis=(2, 3)))
            composed = T.linear(pooled, *head_slice(heads, n, 5))
            assert np.allclose(fused[:, n], composed.data, atol=1e-12)

    def test_bypass_logits_keeps_float32(self):
        rng = np.random.default_rng(11)
        f, m, w, b, g = (rng.normal(size=s) for s in
                         ((2, 3, 5, 4), (2, 2, 5, 4), (2 * 4, 3), (2 * 4,), (2 * 2, 4)))
        leaves = [Tensor(a.astype(np.float32), requires_grad=True) for a in (f, m, w, b)]
        out = bypass_logits(*leaves)
        T.mul(out, Tensor(g.astype(np.float32))).sum().backward()
        for got in (out.data, *(t.grad for t in leaves)):
            assert got.dtype == np.float32
        # The oracle: mean-pooled masked features through the heads.
        w3, g3 = w.reshape(2, 4, 3), g.reshape(2, 2, 4)
        pooled = np.einsum("bchw,bnhw->bnc", f, m) / 20
        gp = np.einsum("bnk,nkc->bnc", g3, w3)
        want = ((np.einsum("bnc,nkc->bnk", pooled, w3) + b.reshape(2, 4)).reshape(4, 4),
                np.einsum("bnc,bnhw->bchw", gp, m) / 20, np.einsum("bnc,bchw->bnhw", gp, f) / 20,
                np.einsum("bnk,bnc->nkc", g3, pooled).reshape(8, 3), g3.sum(axis=0).reshape(8))
        for got, expected in zip((out.data, *(t.grad for t in leaves)), want):
            assert np.allclose(got, expected, atol=1e-5)

    @pytest.mark.parametrize("n", [1, 7])
    def test_bypass_vjp_keeps_the_weight_itself(self, n):
        # Both passes read the heads' weight through a view: the vjp keeps
        # no copy of it, and the op has four parents whatever N is.
        rng = np.random.default_rng(9)
        heads = Linear(256, n * 12, rng, 0.5)
        feature = Tensor(rng.normal(size=(2, 256, 2, 2)), requires_grad=True)
        masks = Tensor(rng.random((2, n, 2, 2)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = bypass_logits(feature, masks, heads.weight, heads.bias)
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert kept <= 0.25 * heads.weight.data.nbytes, kept / heads.weight.data.nbytes
        assert out._node.parents == (feature, masks, heads.weight, heads.bias)
        arrays = [c.cell_contents for c in out._node.vjp.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        assert any(a.base is heads.weight.data for a in arrays)
        out.sum().backward()
        gp = np.broadcast_to(heads.weight.data.reshape(n, 12, 256).sum(axis=1), (2, n, 256))
        want = np.einsum("bnc,bnhw->bchw", gp, masks.data) / 4
        assert np.allclose(feature.grad, want, atol=1e-12)

    @pytest.mark.parametrize("din,dout", [(3, 3), (4, 2 * 3)])
    def test_head_shape_mismatch(self, din, dout):
        # 3 rows do not split into 2 heads; 4 inputs do not match C = 3.
        rng = np.random.default_rng(8)
        heads = Linear(din, dout, rng, 0.5)
        with pytest.raises(ShapeError):
            bypass_logits(Tensor(rng.normal(size=(1, 3, 2, 2))), Tensor(rng.random((1, 2, 2, 2))),
                          heads.weight, heads.bias)


class TestTotalLoss:
    def test_zero_factors(self):
        cfg = loss_plan(alpha=0.0, lam=0.0)
        got = total_loss(Tensor(1.25), Tensor(9.0), Tensor(7.0), cfg)
        assert got.item() == 1.25

    def test_arithmetic(self):
        cfg = loss_plan(alpha=0.1, lam=0.1)
        got = total_loss(Tensor(1.0), Tensor(2.0), Tensor(3.0), cfg)
        assert abs(got.item() - 1.5) < 1e-15

    def test_gradient_linearity(self):
        rng = np.random.default_rng(9)
        cfg = loss_plan(alpha=0.3, lam=0.7)
        base = rng.normal(size=(3, 3))

        def parts(x):
            return T.sigmoid(x).sum(), T.mul(x, x).mean(), T.mul(T.sigmoid(x), x).sum()

        x = Tensor(base.copy(), requires_grad=True)
        la, ld, lm = parts(x)
        total_loss(la, ld, lm, cfg).backward()
        combined = x.grad.copy()

        grads = []
        for pick in range(3):
            xi = Tensor(base.copy(), requires_grad=True)
            parts(xi)[pick].backward()
            grads.append(xi.grad.copy())
        want = grads[0] + cfg.alpha * grads[1] + cfg.lam * grads[2]
        assert np.allclose(combined, want, atol=1e-10)


class TestPosWeights:
    def test_ratio_and_clamp(self):
        labels = np.zeros((100, 3))
        labels[:50, 0] = 1   # balanced -> ratio 1
        labels[:2, 1] = 1    # rare -> ratio 49 -> clamped to 10
        # label 2 never positive -> clamped to 10
        w = compute_pos_weights(labels)
        assert np.allclose(w, [1.0, 10.0, 10.0])

    def test_task_loss_dispatch(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 3)))
        y_ml = (rng.random((2, 3)) > 0.5).astype(float)
        cfg = loss_plan(pos_weights=np.ones(3))
        assert abs(task_loss(x, y_ml, cfg).item()
                   - weighted_bce_logits(x, y_ml, np.ones(3)).item()) < 1e-15
