import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plans import sma_config
from smanet import tensor as T
from smanet.attention import (ChannelGate, MultiChannelAttention, SmaIntermediates,
                              channel_masks, combine, param_count, refine)
from smanet.errors import ConfigError, ShapeError
from smanet.tensor import Tensor


def make_block(n=3, c=4, seed=0, **kwargs):
    return MultiChannelAttention(sma_config(n, **kwargs), c,
                                 np.random.default_rng(seed))


def zero_params(module):
    for _, p in module.named_parameters():
        p.data[...] = 0.0


class TestConfig:
    def test_rejects_even_kernel(self):
        with pytest.raises(ConfigError):
            sma_config(2, attn_kernel=6)

    def test_rejects_zero_channels(self):
        with pytest.raises(ConfigError):
            sma_config(0)

    def test_rejects_bad_combine(self):
        with pytest.raises(ConfigError):
            sma_config(2, combine_on="both")

    @pytest.mark.parametrize("kernels", [dict(attn_kernel=-1), dict(mapping_kernel=-3)])
    def test_rejects_negative_kernel(self, kernels):
        with pytest.raises(ConfigError, match="positive odd"):
            sma_config(2, **kernels)

    def test_rejects_unknown_mapping_mode(self):
        with pytest.raises(ConfigError):
            sma_config(2, mapping_mode="channel_max")


class TestF2a:
    def test_zero_params_give_half_masks(self):
        block = make_block()
        zero_params(block)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 5, 5)))
        _, inter = block(x)
        assert np.array_equal(inter.logits.data, np.zeros((2, 3, 5, 5)))
        assert np.array_equal(channel_masks(inter).data, np.full((2, 3, 5, 5), 0.5))

    def test_saturated_bias_gives_unit_masks(self):
        block = make_block()
        zero_params(block)
        block.attn_convs.bias.data[...] = 36.0
        x = Tensor(np.random.default_rng(2).normal(size=(1, 4, 6, 6)))
        masks = channel_masks(block(x)[1]).data
        assert np.all(masks < 1.0)
        assert np.allclose(masks, 1.0, atol=1e-12)

    def test_matches_primitive_composition(self):
        block = make_block(n=3, c=5, seed=3)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 5, 6, 6)))
        logits = block.f2a(x)
        mapped = T.conv2d(x, block.mapping.weight, block.mapping.bias)
        want = T.depthwise_conv2d(mapped, block.attn_convs.weight,
                                  block.attn_convs.bias, padding=3)
        assert np.allclose(logits.data, want.data, atol=1e-14)

    def test_intermediates_keep_no_mapped_features(self):
        # Nothing reads the mapping conv's output after f2a, so the
        # intermediates do not keep it alive.
        from dataclasses import fields

        assert ([f.name for f in fields(SmaIntermediates)]
                == ["feature", "logits", "weights", "fused", "masks"])

    @pytest.mark.parametrize("combine_on", ["logits", "masks"])
    def test_forward_builds_masks_only_to_fuse_them(self, combine_on):
        block = make_block(n=3, c=4, seed=7, combine_on=combine_on)
        _, inter = block(Tensor(np.random.default_rng(8).normal(size=(2, 4, 5, 5))))
        masks = channel_masks(inter)
        assert (inter.masks is None) == (combine_on == "logits")
        assert (masks is inter.masks) == (combine_on == "masks")
        assert np.array_equal(masks.data, T.sigmoid(inter.logits).data)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            make_block(c=4).f2a(Tensor(np.ones((1, 5, 4, 4))))

    def test_channel_mean_mapping_replicates(self):
        block = make_block(n=3, c=4, seed=5, mapping_mode="channel_mean")
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 5, 5)))
        mapped = Tensor(np.repeat(x.data.mean(axis=1, keepdims=True), 3, axis=1))
        logits = T.depthwise_conv2d(mapped, block.attn_convs.weight,
                                    block.attn_convs.bias, padding=3)
        assert np.allclose(block.f2a(x).data, logits.data, atol=1e-14)

    def test_channel_mean_block_keeps_float32(self):
        block = make_block(n=3, c=4, seed=5, mapping_mode="channel_mean").cast(np.float32)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 5, 5)).astype(np.float32))
        out, inter = block(x)
        maps = (inter.logits, channel_masks(inter), inter.fused, out)
        assert [m.dtype for m in maps] == [np.float32] * len(maps)


class TestChannelWeights:
    def test_zero_mlp_gives_uniform(self):
        block = make_block(n=4)
        zero_params(block)
        x = Tensor(np.random.default_rng(7).normal(size=(3, 4, 5, 5)))
        w = block.channel_weights(x)
        assert np.allclose(w.data, 0.25, atol=0)

    def test_constant_input_closed_form(self):
        c_val = 1.7
        block = make_block(n=3, c=4, seed=8)
        zero_params(block)
        rng = np.random.default_rng(9)
        w2 = rng.normal(size=(3, 4))
        block.reduce_fc.weight.data[...] = w2
        block.mix_fc.weight.data[...] = np.eye(3)
        x = Tensor(np.full((2, 4, 6, 6), c_val))
        got = block.channel_weights(x).data
        z = c_val * w2.sum(axis=1)
        want = np.exp(z - z.max())
        want /= want.sum()
        assert np.allclose(got, want[None, :], atol=1e-12)

    def test_rows_sum_to_one(self):
        block = make_block(n=5, c=6, seed=10)
        x = Tensor(np.random.default_rng(11).normal(size=(4, 6, 3, 3)) * 50)
        w = block.channel_weights(x)
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    def test_uniform_when_aaa_disabled(self):
        block = make_block(n=4, c=3, use_aaa=False)
        w = block.channel_weights(Tensor(np.random.default_rng(1).normal(size=(2, 3, 4, 4))))
        assert np.allclose(w.data, 0.25, atol=0)


class TestCombineRefine:
    def test_single_channel_degenerates(self):
        cfg = sma_config(1)
        block = MultiChannelAttention(cfg, 2, np.random.default_rng(12))
        x = Tensor(np.random.default_rng(13).normal(size=(2, 2, 5, 5)))
        logits = block.f2a(x)
        weights = block.channel_weights(x)
        assert np.array_equal(weights.data, np.ones((2, 1)))
        fused = combine(logits, weights)
        assert np.array_equal(fused.data, T.sigmoid(logits).data)

    def test_identical_logits_ignore_weights(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=(2, 1, 4, 4))
        w = T.softmax(Tensor(rng.normal(size=(2, 3))), axis=1)
        fused = combine(Tensor(np.repeat(z, 3, axis=1)), w)
        assert np.allclose(fused.data, 1.0 / (1.0 + np.exp(-z)), atol=1e-12)

    def test_combine_matches_pixel_loop(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=(2, 4, 3, 3))
        w = T.softmax(Tensor(rng.normal(size=(2, 4))), axis=1)
        fused = combine(Tensor(z), w)
        assert np.allclose(fused.data, oracles.combine_loop(z, w.data), atol=1e-12)

    def test_combine_on_masks_variant(self):
        block = make_block(n=2, c=3, seed=16, combine_on="masks")
        x = Tensor(np.random.default_rng(16).normal(size=(1, 3, 3, 3)))
        _, inter = block(x)
        masks = 1.0 / (1.0 + np.exp(-inter.logits.data))
        want = oracles.combine_loop(masks, inter.weights.data)
        assert np.allclose(inter.fused.data, want, atol=1e-12)

    def test_refine_half_map(self):
        x = Tensor(np.random.default_rng(17).normal(size=(2, 3, 4, 4)))
        fused = Tensor(np.full((2, 1, 4, 4), 0.5))
        assert np.allclose(refine(fused, x).data, 0.5 * x.data, atol=0)

    def test_refine_zero_map(self):
        x = Tensor(np.ones((1, 2, 3, 3)))
        assert np.array_equal(refine(Tensor(np.zeros((1, 1, 3, 3))), x).data, np.zeros((1, 2, 3, 3)))

    def test_refine_matches_broadcast_loop(self):
        rng = np.random.default_rng(18)
        fused = rng.random((2, 1, 4, 4))
        x = rng.normal(size=(2, 8, 4, 4))
        got = refine(Tensor(fused), Tensor(x))
        assert np.allclose(got.data, oracles.refine_loop(fused, x), atol=1e-12)


class TestBlockForward:
    def test_zero_attention_halves_input(self):
        block = make_block(n=3, c=4)
        zero_params(block)
        x = Tensor(np.random.default_rng(19).normal(size=(2, 4, 6, 6)))
        out, inter = block(x)
        assert np.allclose(out.data, 0.5 * x.data, atol=0)
        assert np.allclose(inter.fused.data, 0.5, atol=0)

    def test_invariants_on_random_input(self):
        block = make_block(n=4, c=5, seed=20)
        x = Tensor(np.random.default_rng(21).normal(size=(3, 5, 6, 6)) * 3)
        out, inter = block(x)
        masks = channel_masks(inter).data
        assert np.all((masks > 0) & (masks < 1))
        assert np.all((inter.fused.data > 0) & (inter.fused.data < 1))
        assert np.allclose(inter.weights.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(out.data, inter.fused.data * x.data, atol=0)

    def test_channel_permutation_leaves_fused_map_unchanged(self):
        cfg = sma_config(4)
        block = MultiChannelAttention(cfg, 3, np.random.default_rng(22))
        x = Tensor(np.random.default_rng(23).normal(size=(2, 3, 5, 5)))
        logits = block.f2a(x)
        weights = block.channel_weights(x)
        fused = combine(logits, weights)
        perm = np.array([2, 0, 3, 1])
        fused_p = combine(Tensor(logits.data[:, perm]), Tensor(weights.data[:, perm]))
        assert np.allclose(fused.data, fused_p.data, atol=1e-12)


class TestParamCount:
    def test_single_attention_conv_costs_fifty(self):
        # one 7x7 filter plus its bias
        cfg = sma_config(1)
        per_channel = cfg.n_channels * (cfg.attn_kernel ** 2 + 1)
        assert per_channel == 50
        assert param_count(cfg, 1) == 2 + 50 + 2 + 2  # mapping + conv + two 1-d fcs

    def test_mapping_params_example(self):
        cfg = sma_config(7)
        mapping = 64 * 7 * 1 + 7
        assert mapping == 455
        assert param_count(cfg, 64) == mapping + 7 * 50 + (64 * 7 + 7) + (7 * 7 + 7)

    def test_matches_registry_walk(self):
        cfg = sma_config(7)
        block = MultiChannelAttention(cfg, 64, np.random.default_rng(24))
        assert block.param_total() == param_count(cfg, 64)

    @pytest.mark.parametrize("width", [1, 12])
    @pytest.mark.parametrize("mapping_kernel", [1, 3])
    @pytest.mark.parametrize("use_aaa", [True, False])
    @pytest.mark.parametrize("mapping_mode", ["conv", "channel_mean"])
    def test_closed_form_on_every_variant(self, mapping_mode, use_aaa, mapping_kernel, width):
        cfg = sma_config(3, mapping_kernel=mapping_kernel,
                        mapping_mode=mapping_mode, use_aaa=use_aaa)
        block = MultiChannelAttention(cfg, width, np.random.default_rng(27))
        assert param_count(cfg, width) == block.param_total()


class TestChannelGate:
    def test_gates_scale_channels(self):
        gate = ChannelGate(4, 2, np.random.default_rng(25))
        x = Tensor(np.random.default_rng(26).normal(size=(2, 4, 3, 3)))
        out, inter = gate(x)
        assert inter is None
        ratio = out.data / x.data
        per_channel = ratio.reshape(2, 4, -1)
        assert np.allclose(per_channel, per_channel[:, :, :1], atol=1e-12)
        assert np.all((per_channel > 0) & (per_channel < 1))
