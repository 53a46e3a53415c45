import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smanet import tensor as T
from smanet.errors import AutogradError, NumericError, ShapeError
from smanet.gradcheck import grad_check_many
from smanet.tensor import Tensor


def rnd(seed):
    return np.random.default_rng(seed)


def conv_case(stride, padding, k, hw=(9, 8)):
    """One conv oracle case on a [2, 3, *hw] input, named stride-padding-k."""
    name = f"{stride}-{padding}-{k}" + ("" if hw == (9, 8) else f"-{hw[0]}x{hw[1]}")
    return pytest.param(stride, padding, k, hw, id=name)


# The polyphase layout's edge cases follow the first seven: a stride
# larger than the kernel, stride 3, an even kernel equal to the stride,
# k=5, and an 11x7 input that neither stride 2 nor stride 3 divides.
CONV_CASES = [conv_case(*c) for c in [
    (1, 0, 1), (2, 0, 1), (1, 1, 3), (2, 0, 3), (2, 1, 3), (1, 3, 7), (2, 3, 7),
    (3, 0, 1), (3, 1, 3), (2, 1, 2), (3, 2, 5), (2, 1, 3, (11, 7)), (3, 2, 5, (11, 7)),
]]


class TestConv2d:
    def test_scaling_kernel(self):
        out = T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor([[[[2.0]]]]), Tensor([0.0]))
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 2.0))

    def test_identity_kernel(self):
        x = rnd(0).normal(size=(2, 1, 4, 5))
        out = T.conv2d(Tensor(x), Tensor([[[[1.0]]]]), Tensor([0.0]))
        assert np.array_equal(out.data, x)

    def test_matches_loop_oracle(self):
        rng = rnd(1)
        x = rng.normal(size=(1, 1, 5, 5))
        w = rng.normal(size=(1, 1, 3, 3))
        b = rng.normal(size=1)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
        assert np.allclose(got.data, oracles.conv2d_loop(x, w, b, 1, 1), atol=1e-12)

    @pytest.mark.parametrize("stride,padding,k,hw", CONV_CASES)
    def test_strides_and_padding(self, stride, padding, k, hw):
        rng = rnd(10 * stride + k)
        x = rng.normal(size=(2, 3, *hw))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        for bias in (b, None):
            got = T.conv2d(Tensor(x), Tensor(w), None if bias is None else Tensor(bias),
                           stride=stride, padding=padding)
            assert got.data.flags.c_contiguous
            assert np.allclose(got.data, oracles.conv2d_loop(x, w, bias, stride, padding), atol=1e-12)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    @pytest.mark.parametrize("stride,padding,k,hw", CONV_CASES)
    def test_vjp_matches_loop_oracle(self, stride, padding, k, hw, dtype, atol):
        rng = rnd(20 * stride + k)
        x = rng.normal(size=(2, 3, *hw))
        w = rng.normal(size=(4, 3, k, k))
        xt, wt = Tensor(x.astype(dtype), requires_grad=True), Tensor(w.astype(dtype), requires_grad=True)
        out = T.conv2d(xt, wt, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        T.mul(out, Tensor(g.astype(dtype))).sum().backward()
        gx, gw = oracles.conv2d_vjp_loop(x, w, g, stride, padding)
        assert xt.grad.dtype == dtype and wt.grad.dtype == dtype
        assert np.allclose(xt.grad, gx, atol=atol)
        assert np.allclose(wt.grad, gw, atol=atol)
        # Rows and columns past the last window are never read: their
        # gradient is exactly zero (column 7 for stride 2, padding 0, k 3).
        last_row = stride * (out.shape[2] - 1) + k - padding
        last_col = stride * (out.shape[3] - 1) + k - padding
        assert not xt.grad[:, :, last_row:].any() and not xt.grad[:, :, :, last_col:].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [2, 16])
    def test_weight_gradient_equals_the_per_tap_loop(self, batch, stride, k, dtype):
        # Bit for bit, not to a tolerance: the artifacts' bytes rest on it.
        rng = rnd(100 * k + 10 * stride + batch)
        x = rng.normal(size=(batch, 5, 11, 10)).astype(dtype)
        w = Tensor(rng.normal(size=(6, 5, k, k)).astype(dtype), requires_grad=True)
        out = T.conv2d(Tensor(x), w, stride=stride, padding=k // 2)
        g = rng.normal(size=out.shape).astype(dtype)
        T.mul(out, Tensor(g)).sum().backward()
        want = oracles.conv2d_weight_grad_per_tap(x, g, k, stride, k // 2)
        assert w.grad.dtype == want.dtype == dtype
        assert np.array_equal(w.grad, want)

    def test_vjp_keeps_about_one_copy_of_the_input(self):
        # Beyond its output, a conv keeps x's own array, not its phase
        # grid (the padded input plus one row, about 1.16 x.nbytes here),
        # and rebuilds the grid in the backward: a 3x3 stride-1 padding-1
        # conv on a leaf adds almost nothing, and neither does a 1x1
        # stride-1 conv, whose grid is x itself.  The vjp keeps the
        # weight's own array, so a wide conv on a small map keeps no
        # weight-sized copy either.
        rng = rnd(30)
        for x_shape, w_shape, padding, bound in (
                ((2, 8, 32, 32), (8, 8, 3, 3), 1, lambda x, w: 0.1 * x.nbytes),
                ((2, 8, 32, 32), (8, 8, 1, 1), 0, lambda x, w: 0.1 * x.nbytes),
                ((2, 64, 4, 4), (64, 64, 3, 3), 1, lambda x, w: 0.25 * w.nbytes)):
            x = Tensor(rng.normal(size=x_shape), requires_grad=True)
            w = Tensor(rng.normal(size=w_shape), requires_grad=True)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = T.conv2d(x, w, padding=padding)
                kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
            finally:
                tracemalloc.stop()
            assert kept <= bound(x.data, w.data), (w_shape, kept)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))))
        for padding in (-1, 3):
            with pytest.raises(ShapeError):
                T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), padding=padding)


@functools.lru_cache(maxsize=None)
def depthwise_oracle_case(k, padding, h, wd):
    """Input [2, 3, h, wd], kernel and output gradient of one depthwise
    case, with the loop oracles' output and gradients; cached, because
    both dtypes check against the same scalar loops."""
    rng = rnd(k * 1000 + padding * 100 + wd)
    x, w = rng.normal(size=(2, 3, h, wd)), rng.normal(size=(3, k, k))
    g = rng.normal(size=(2, 3, h + 2 * padding - k + 1, wd + 2 * padding - k + 1))
    return x, w, g, (oracles.depthwise_loop(x, w, None, padding),
                     *oracles.depthwise_vjp_loop(x, w, g, padding))


class TestDepthwise:
    def test_equals_per_channel_conv2d_composition(self):
        rng = rnd(2)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(3, 5, 5))
        b = rng.normal(size=3)
        got = T.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), padding=2)
        for n in range(3):
            single = T.conv2d(
                Tensor(x[:, n : n + 1]), Tensor(w[n][None, None]), Tensor(b[n : n + 1]), padding=2
            )
            assert np.allclose(got.data[:, n], single.data[:, 0], atol=1e-10)

    def test_matches_loop_oracle(self):
        rng = rnd(3)
        for k in (3, 7):
            x = rng.normal(size=(1, 2, k + 2, k + 2))
            w = rng.normal(size=(2, k, k))
            b = rng.normal(size=2)
            for padding in (0, k // 2, k - 1):
                got = T.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding)
                assert np.allclose(got.data, oracles.depthwise_loop(x, w, b, padding), atol=1e-12)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    @pytest.mark.parametrize("pad_case", [0, 1, 2])
    def test_vjp_matches_loop_oracle(self, dtype, atol, pad_case):
        # pad_case picks padding 0, k//2 or k-1 (for k=3: 0, 1, 2; k=1,
        # whose grid is x itself, has only padding 0).  The input widths
        # put the output (forward) and the input gradient below, at and
        # across the 16-wide tiles of the banded GEMMs, 19 and 37 with a
        # narrower last tile; the height differs from each.
        for k in (1, 3, 7):
            padding = (0, k // 2, k - 1)[pad_case]
            for wd in (5, 8, 16, 19, 37):
                if wd + 2 * padding < k:
                    continue
                x, w, g, want = depthwise_oracle_case(k, padding, k + 3, wd)
                xt = Tensor(x.astype(dtype), requires_grad=True)
                wt = Tensor(w.astype(dtype), requires_grad=True)
                bt = Tensor(np.zeros(w.shape[0], dtype))
                out = T.depthwise_conv2d(xt, wt, bt, padding=padding)
                T.mul(out, Tensor(g.astype(dtype))).sum().backward()
                for got in (out.data, xt.grad, wt.grad):
                    assert got.dtype == dtype
                for got, ref in zip((out.data, xt.grad, wt.grad), want):
                    assert got.shape == ref.shape
                    assert np.allclose(got, ref, atol=atol), (k, padding, wd)

    def test_model_shape_matches_oracle_and_repeats_bit_for_bit(self):
        # The largest attention-mask shape of the toy model, in its dtype:
        # four 16-wide tiles, two batch items and seven channels, and a
        # weight gradient summing 8,192 products.
        rng = rnd(17)
        x, w, g = (rng.normal(size=s).astype(np.float32)
                   for s in ((2, 7, 64, 64), (7, 7, 7), (2, 7, 64, 64)))
        runs = []
        for _ in range(2):
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            out = T.depthwise_conv2d(xt, wt, Tensor(np.zeros(7, np.float32)), padding=3)
            T.mul(out, Tensor(g)).sum().backward()
            runs.append((out.data, xt.grad, wt.grad))
        want = oracles.depthwise_shifted(x.astype(np.float64), w.astype(np.float64),
                                         g.astype(np.float64), padding=3)
        for got, ref in zip(runs[0], want):
            assert got.dtype == np.float32 and got.shape == ref.shape
            assert np.allclose(got, ref, atol=1e-4)
        for first, second in zip(*runs):
            assert np.array_equal(first, second)

    def test_vjp_keeps_no_padded_grid(self):
        # Beyond its output, a 7x7 padding-3 depthwise conv on a leaf keeps
        # x's own array and rebuilds its stride-1 grid (about 1.45 x.nbytes
        # at 32 px) for the weight gradient.
        rng = rnd(32)
        x = Tensor(rng.normal(size=(2, 7, 32, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(7, 7, 7)), requires_grad=True)
        b = Tensor(np.zeros(7), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.depthwise_conv2d(x, w, b, padding=3)
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert kept <= 0.1 * x.data.nbytes, kept / x.data.nbytes

    def test_padding_bound(self):
        x, w, b = Tensor(np.ones((1, 2, 6, 6))), Tensor(np.ones((2, 3, 3))), Tensor(np.zeros(2))
        assert T.depthwise_conv2d(x, w, b, padding=2).shape == (1, 2, 8, 8)
        for padding in (-1, 3):
            with pytest.raises(ShapeError):
                T.depthwise_conv2d(x, w, b, padding=padding)


class TestSigmoid:
    def test_symmetry_point(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation(self):
        assert abs(T.sigmoid(Tensor(100.0)).item() - 1.0) < 1e-12

    def test_gradient_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        T.sigmoid(x).backward()
        assert abs(float(x.grad) - 0.25) < 1e-12

    def test_strictly_inside_unit_interval_up_to_36(self):
        x = np.array([-36.0, -10.0, 0.0, 10.0, 36.0])
        y = T.sigmoid(Tensor(x)).data
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_stable_at_extremes(self):
        y = T.sigmoid(Tensor(np.array([-1e3, 1e3]))).data
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_two_branch_formula(self, dtype):
        # The float32 and float64 exp under- and overflow edges, and beyond;
        # compared as integers, so the sign of a zero or a NaN counts too.
        edges = [0.0, -0.0, 88.7, -88.7, -104.0, 710.0, -710.0, -746.0, 1e4, -1e4,
                 np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)]
        x = np.concatenate([rnd(16).normal(scale=30.0, size=20_000), edges]).astype(dtype)
        got = T.sigmoid(Tensor(x)).data
        bits = np.dtype(f"u{got.itemsize}")
        assert got.dtype == dtype
        assert np.array_equal(got.view(bits), oracles.sigmoid_branches(x).view(bits))

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_one_exp_values_and_vjp_match_two_exp_branches_bit_for_bit(self, dtype, bits):
        """The values against 1/(1+e^-x) and e^x/(1+e^x), each branch with
        its own exp, and the vjp against g*s*(1-s), compared as integers,
        so that the sign of a zero or a NaN counts too."""
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                 100.5, -100.5, 1e4, -1e4]
        x = np.concatenate([rnd(17).normal(scale=30.0, size=5_000), edges]).astype(dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        out = T.sigmoid(Tensor(x, requires_grad=True))
        assert out.dtype == dtype and np.array_equal(out.data.view(bits), want.view(bits))
        g = rnd(18).normal(size=x.shape).astype(dtype)
        (grad,) = out._node.vjp(g)
        assert np.array_equal(grad.view(bits), (g * want * (1.0 - want)).view(bits))


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([3.7, 3.7, 3.7]), axis=0)
        assert np.allclose(out.data, 1 / 3, atol=1e-12)

    def test_log2_case(self):
        out = T.softmax(Tensor([0.0, np.log(2.0)]), axis=0)
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-500, 500), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_shift_invariance_and_normalization(self, xs, c):
        x = np.array(xs)
        a = T.softmax(Tensor(x), axis=0).data
        b = T.softmax(Tensor(x + c), axis=0).data
        assert np.allclose(a, b, atol=1e-12)
        assert abs(a.sum() - 1.0) < 1e-9


# Axis arguments as callers pass them, with the tuple numpy takes.
AXES = [(None, None), (1, 1), (-1, -1), ((0, 2), (0, 2)), ((-1, 0), (0, 2)),
        ([0, -1], (0, 2)), (np.int64(1), 1)]


class TestReductionBits:
    """The reductions call numpy's ufunc reduce directly; each result is
    the same bits as the ``ndarray`` method or broadcast it replaced."""

    @staticmethod
    def case(dtype):
        rng = rnd(19)
        x = (rng.normal(scale=1e3, size=(3, 5, 7)) + 0.1).astype(dtype)
        g = rng.normal(size=(3, 5, 7)).astype(dtype)
        g[0, 0, 0] = -0.0
        return x, g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis, np_axis", AXES)
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_and_mean_match_the_numpy_methods(self, dtype, axis, np_axis, keepdims):
        x, g_full = self.case(dtype)
        axes = range(3) if np_axis is None else np.atleast_1d(np_axis) % 3
        count = int(np.prod([x.shape[i] for i in axes]))
        for op, want, scale in ((T.tensor_sum, x.sum, 1), (T.tensor_mean, x.mean, count)):
            out = op(Tensor(x, requires_grad=True), axis=axis, keepdims=keepdims)
            assert oracles.same_bits(out.data, want(axis=np_axis, keepdims=keepdims))
            g = np.asarray(g_full.sum(axis=np_axis, keepdims=keepdims))
            g.flat[0] = -0.0
            expanded = g if keepdims or np_axis is None else np.expand_dims(g, np_axis)
            (grad,) = out._node.vjp(g)
            assert oracles.same_bits(grad, np.broadcast_to(expanded, x.shape) / scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax_matches_the_max_method(self, dtype, axis):
        x = rnd(20).normal(scale=30.0, size=(4, 6)).astype(dtype)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        assert oracles.same_bits(T.softmax(Tensor(x), axis).data, e / e.sum(axis=axis, keepdims=True))

    def test_list_numpy_and_negative_axes_share_one_entry(self):
        x = Tensor(rnd(21).normal(size=(2, 3, 4)))
        T._reduction_layout.cache_clear()
        results = [x.sum(axis=a).data for a in ((0, 2), [0, -1], (-1, np.int64(0)))]
        results += [x.mean(axis=a).data for a in (1, np.int64(1), [-2])]
        assert T._reduction_layout.cache_info().currsize == 2
        for got in results[1:3]:
            assert oracles.same_bits(got, results[0])
        for got in results[4:]:
            assert oracles.same_bits(got, results[3])

    @pytest.mark.parametrize("axis", [(1, -2), [0, 0], 3, (-4,)])
    def test_duplicate_or_out_of_range_axes_raise(self, axis):
        for op in (T.tensor_sum, T.tensor_mean):
            with pytest.raises(ShapeError):
                op(Tensor(np.ones((2, 3, 4))), axis=axis)


class TestAvgPool:
    def test_constant(self):
        out = Tensor(np.full((2, 3, 4, 4), 2.5)).mean(axis=(2, 3))
        assert np.allclose(out.data, 2.5, atol=0)

    def test_two_by_two(self):
        out = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])).mean(axis=(0, 1))
        assert out.item() == 2.5

    def test_matches_loop_oracle(self):
        x = rnd(4).normal(size=(2, 3, 4, 5))
        got = Tensor(x).mean(axis=(2, 3), keepdims=True)
        assert np.allclose(got.data, oracles.avg_pool_loop(x, (2, 3)), atol=1e-12)


class TestLinear:
    def test_identity(self):
        x = rnd(5).normal(size=(3, 4))
        out = T.linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x)

    def test_zero_weight_bias_rows(self):
        v = np.array([1.0, -2.0])
        out = T.linear(Tensor(np.ones((3, 4))), Tensor(np.zeros((2, 4))), Tensor(v))
        assert np.array_equal(out.data, np.tile(v, (3, 1)))

    def test_matches_loop_oracle(self):
        rng = rnd(6)
        x, w, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=3)
        got = T.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(got.data, oracles.linear_loop(x, w, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(4)))


class TestElementwise:
    def test_mul_identity(self):
        x = rnd(7).normal(size=(3, 4))
        assert np.array_equal(T.mul(Tensor(x), Tensor(np.ones((3, 4)))).data, x)

    def test_broadcast_mask_halves_channels(self):
        x = rnd(8).normal(size=(3, 2, 2))
        out = T.mul(Tensor(np.full((1, 2, 2), 0.5)), Tensor(x))
        assert np.allclose(out.data, 0.5 * x, atol=0)

    def test_non_broadcastable(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


class TestReductionsAndShapes:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_max_pool_vjp_routes_ties_to_lowest_index(self, dtype):
        # Every window of a constant input is one tie; the padded -inf
        # border never wins, and the 3x3 stride-2 windows overlap.
        x = Tensor(np.zeros((1, 1, 4, 4), dtype), requires_grad=True)
        out = T.max_pool2d(x, 3, 2, 1)
        g = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        T.mul(out, Tensor(g.astype(dtype))).sum().backward()
        want = np.zeros((1, 1, 4, 4))
        want[0, 0, :2, :2] = g[0, 0]
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, want)
        x = Tensor(np.ones((1, 1, 4, 4), dtype), requires_grad=True)
        T.max_pool2d(x, 2, 2).sum().backward()
        want = np.zeros((1, 1, 4, 4))
        want[0, 0, ::2, ::2] = 1.0
        assert np.array_equal(x.grad, want)

    def test_max_pool_matches_naive(self):
        x = rnd(12).normal(size=(1, 2, 6, 6))
        got = T.max_pool2d(Tensor(x), 2, 2, 0).data
        want = x.reshape(1, 2, 3, 2, 3, 2).max(axis=(3, 5))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k,stride,padding", [(3, 2, 1), (2, 2, 0), (3, 1, 1), (5, 3, 2)])
    def test_max_pool_ties_match_loop_oracle(self, k, stride, padding, dtype):
        # Rounded normals: most windows hold a tie, which goes to the
        # lowest offset.  Integer gradients make every sum exact.
        rng = rnd(40 + k + stride)
        x = np.round(rng.normal(size=(2, 3, 9, 8)))
        xt = Tensor(x.astype(dtype), requires_grad=True)
        out = T.max_pool2d(xt, k, stride, padding)
        assert out.data.dtype == dtype and out.data.flags.c_contiguous
        assert np.array_equal(out.data, oracles.max_pool_loop(x, k, stride, padding))
        g = np.round(rng.normal(size=out.shape) * 4)
        T.mul(out, Tensor(g.astype(dtype))).sum().backward()
        assert np.array_equal(xt.grad, oracles.max_pool_vjp_loop(x, g, k, stride, padding))

    def test_max_pool_padding_bound(self):
        x = Tensor(np.ones((1, 2, 6, 6)))
        assert T.max_pool2d(x, 3, 2, padding=2).shape == (1, 2, 4, 4)
        for padding in (-1, 3):
            with pytest.raises(ShapeError):
                T.max_pool2d(x, 3, 2, padding=padding)
        with pytest.raises(ShapeError):
            T.max_pool2d(Tensor(np.ones((1, 1, 2, 2))), 5, 1)

    def test_max_pool_vjp_keeps_only_the_winning_taps(self):
        # Beyond its output, the stem's 3x3 stride-2 padding-1 pool keeps
        # one byte per grid pixel, not the -inf grid (about 10x the
        # output) nor an intp argmax (1x).
        x = Tensor(rnd(31).normal(size=(2, 8, 32, 32)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.max_pool2d(x, 3, 2, 1)
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert kept <= 0.25 * out.data.nbytes, kept / out.data.nbytes

    # The stem's 3x3 stride-2 padding-1 pool first; odd and non-square inputs.
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    @pytest.mark.parametrize("hw", [(7, 7), (8, 9)], ids=["7x7", "8x9"])
    @pytest.mark.parametrize("k,stride,padding", [(3, 2, 1), (2, 2, 0), (3, 1, 1), (3, 2, 0)])
    def test_max_pool_matches_loop_oracle(self, k, stride, padding, hw, dtype, atol):
        rng = rnd(30 + 3 * k + stride)
        shape = (2, 3, *hw)
        # Distinct values, exact in float32, so every window has one argmax.
        x = rng.permutation(np.prod(shape)).reshape(shape) / 8.0 - 20.0
        xt = Tensor(x.astype(dtype), requires_grad=True)
        out = T.max_pool2d(xt, k, stride, padding)
        assert np.allclose(out.data, oracles.max_pool_loop(x, k, stride, padding), atol=atol)
        g = rng.normal(size=out.shape)
        T.mul(out, Tensor(g.astype(dtype))).sum().backward()
        assert xt.grad.dtype == dtype
        assert np.allclose(xt.grad, oracles.max_pool_vjp_loop(x, g, k, stride, padding), atol=atol)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = rnd(13)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        rm, rv = np.zeros(4), np.ones(4)
        out = T.batch_norm2d(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), rm, rv, training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)
        assert not np.allclose(rm, 0.0)

    def test_eval_uses_running_stats(self, monkeypatch):
        monkeypatch.setattr(T, "BN_EPS", 0.0)
        x = rnd(14).normal(size=(2, 3, 4, 4))
        rm, rv = np.full(3, 1.5), np.full(3, 4.0)
        out = T.batch_norm2d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv,
                             training=False)
        assert np.allclose(out.data, (x - 1.5) / 2.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_mode_matches_numpy_statistics_bit_for_bit(self, dtype):
        rng = rnd(17)
        x = rng.normal(loc=2.0, scale=3.0, size=(2, 6, 9, 7)).astype(dtype)
        gamma, beta = rng.normal(size=6).astype(dtype), rng.normal(size=6).astype(dtype)
        rm0, rv0 = rng.normal(size=6).astype(dtype), rng.uniform(0.5, 2.0, 6).astype(dtype)
        rm, rv = rm0.copy(), rv0.copy()
        out = T.batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=True)
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        m = x.size // 6
        c = (slice(None), None, None)
        xhat = (x - mean[c]) * (1.0 / np.sqrt(var + 1e-5))[c]
        assert oracles.same_bits(out.data, gamma[c] * xhat + beta[c])
        assert oracles.same_bits(rm, rm0 * (1.0 - 0.1) + 0.1 * mean)
        assert oracles.same_bits(rv, rv0 * (1.0 - 0.1) + 0.1 * (var * (m / (m - 1))))

    @staticmethod
    def eval_inputs():
        rng = rnd(18)
        rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, 4)
        x, gamma, beta = (Tensor(rng.normal(size=s), requires_grad=True)
                          for s in ((3, 4, 5, 5), (4,), (4,)))
        return x, gamma, beta, rm, rv

    def test_eval_mode_gradient_refused(self):
        # Every eval runs under no_grad; a backward through eval mode is
        # a misuse, named by the op.
        out = T.batch_norm2d(*self.eval_inputs(), training=False)
        with pytest.raises(AutogradError, match="batch_norm2d"):
            out.sum().backward()

    def test_eval_forward_leaves_running_stats(self):
        x, gamma, beta, rm, rv = self.eval_inputs()
        before = rm.tobytes(), rv.tobytes()
        T.batch_norm2d(x, gamma, beta, rm, rv, training=False)
        with T.no_grad():
            T.batch_norm2d(x, gamma, beta, rm, rv, training=False)
        assert (rm.tobytes(), rv.tobytes()) == before


class TestRelu:
    def test_negative_input_gives_positive_zero(self):
        out = T.relu(Tensor([-2.0, -0.0, 0.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 0.0, 3.0])
        assert not np.signbit(out.data).any()

    def test_nan_passes_with_zero_gradient(self):
        x = Tensor([np.nan, -1.0, 2.0], requires_grad=True)
        out = T.relu(x)
        assert np.isnan(out.data[0])
        T.mul(out, Tensor([0.0, 1.0, 1.0])).sum().backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


class TestNoGradForwards:
    """An op under ``no_grad`` gives the recording forward's output bit
    for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_output_matches_the_recording_forward(self, dtype):
        data = rnd(40).normal(size=(2, 3, 5, 5)).astype(dtype)
        data.flat[::7] = 0.0
        x = Tensor(data, requires_grad=True)
        recorded = T.relu(x)
        with T.no_grad():
            plain = T.relu(x)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.dtype == recorded.dtype == dtype
        assert plain.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_pool2d_output_matches_the_recording_forward(self, dtype):
        # The winning taps are tracked only when recording; ties included.
        data = np.round(rnd(41).normal(size=(2, 3, 9, 8)), 1).astype(dtype)
        x = Tensor(data, requires_grad=True)
        recorded = T.max_pool2d(x, 3, 2, 1)
        with T.no_grad():
            plain = T.max_pool2d(x, 3, 2, 1)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.dtype == recorded.dtype == dtype
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_recording_needs_grad_mode_and_a_parent_that_requires_grad(self):
        a, b = Tensor([1.0]), Tensor([2.0], requires_grad=True)
        assert T.recording(a, b) and not T.recording(a) and not T.recording()
        with T.no_grad():
            assert not T.recording(a, b)


# op -> (call on (x, *params), x shape, parameter shapes)
LAYER_OPS = {
    "conv2d": (lambda x, w, b: T.conv2d(x, w, b, padding=1), (2, 3, 5, 5), [(4, 3, 3, 3), (4,)]),
    "depthwise_conv2d": (lambda x, w, b: T.depthwise_conv2d(x, w, b, padding=1),
                         (2, 2, 5, 5), [(2, 3, 3), (2,)]),
    "linear": (T.linear, (3, 4), [(2, 4), (2,)]),
    "batch_norm2d": (lambda x, g, b: T.batch_norm2d(x, g, b, np.zeros(2), np.ones(2), True),
                     (2, 2, 3, 3), [(2,), (2,)]),
}


class TestMixedDtypes:
    def test_float64_bias_does_not_promote_a_float32_depthwise(self):
        x32 = Tensor(rnd(41).normal(size=(1, 2, 4, 4)).astype(np.float32))
        w32 = Tensor(rnd(42).normal(size=(2, 3, 3)).astype(np.float32))
        with pytest.raises(ShapeError, match="float64.*float32"):
            T.depthwise_conv2d(x32, w32, Tensor(np.zeros(2)), padding=1)

    @pytest.mark.parametrize("op", sorted(LAYER_OPS))
    def test_parameter_of_another_float_dtype_refused(self, op):
        fn, x_shape, shapes = LAYER_OPS[op]
        rng = rnd(43)
        for x_dtype, odd_dtype in ((np.float32, np.float64), (np.float64, np.float32)):
            x = Tensor(rng.normal(size=x_shape).astype(x_dtype))
            for odd in range(len(shapes)):
                params = [Tensor(rng.normal(size=s).astype(odd_dtype if i == odd else x_dtype))
                          for i, s in enumerate(shapes)]
                name, x_name = np.dtype(odd_dtype).name, np.dtype(x_dtype).name
                with pytest.raises(ShapeError, match=f"{op}: {name} .*{x_name}"):
                    fn(x, *params)
            params = [Tensor(rng.normal(size=s).astype(x_dtype)) for s in shapes]
            assert fn(x, *params).dtype == x_dtype

    def test_tensor_keeps_native_floats_and_converts_the_rest(self):
        for dtype in (np.float32, np.float64):
            arr = np.arange(3, dtype=dtype)
            assert Tensor(arr).data is arr
        for dtype in (np.int64, np.float16, ">f8", ">f4"):
            data = Tensor(np.arange(3, dtype=dtype)).data
            assert data.dtype == np.dtype(np.float64) and data.dtype.isnative


class TestDeterminismAndChecks:
    def test_forward_bit_identical(self):
        rng = rnd(15)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        a = T.conv2d(Tensor(x), Tensor(w), padding=1).data
        b = T.conv2d(Tensor(x), Tensor(w), padding=1).data
        assert np.array_equal(a, b)

    def test_checked_mode_flags_nonfinite(self):
        T.set_checked(True)
        try:
            with pytest.raises(NumericError):
                with np.errstate(invalid="ignore"):
                    T.mul(Tensor([np.inf]), Tensor([0.0]))
        finally:
            T.set_checked(False)
