import numpy as np
import pytest

from smanet import tensor as T
from smanet.backbone import (SGD, Backbone, BackboneConfig, BasicBlock,
                             backbone_param_count, lr_schedule)
from smanet.checkpoint import load_checkpoint, save_checkpoint
from smanet.errors import ConfigError, DataError, ShapeError
from smanet.gradcheck import grad_check_many
from smanet.losses import cross_entropy
from smanet.tensor import Tensor

TOY = dict(stage_widths=(8, 16, 32, 64), stem="compact")


def toy_config(**kwargs):
    base = dict(num_outputs=6, n_channels=3, **TOY)
    base.update(kwargs)
    return BackboneConfig(**base)


class TestConfig:
    def test_rejects_decreasing_widths(self):
        with pytest.raises(ConfigError):
            BackboneConfig(num_outputs=2, stage_widths=(8, 4, 16, 32))

    def test_rejects_unknown_placement(self):
        with pytest.raises(ConfigError):
            BackboneConfig(num_outputs=2, sma_placement="everywhere")

    def test_block_positions_strides(self):
        cfg = toy_config()
        strides = [p[4] for p in cfg.block_positions()]
        assert strides == [1, 1, 2, 1, 2, 1, 2, 1]

    def test_first_two_blocks_placement(self):
        cfg = toy_config(sma_placement="first_two_blocks")
        placed = [cfg.attention_at(s, b) for s, b, *_ in cfg.block_positions()]
        assert placed == [True, True, False, False, False, False, False, False]


class TestBasicBlock:
    def test_zero_convs_identity_bn_gives_relu(self):
        cfg = toy_config(sma_placement="none")
        block = BasicBlock(8, 8, 1, cfg, False, np.random.default_rng(0))
        for _, p in block.named_parameters():
            if p.ndim == 4:
                p.data[...] = 0.0
        block.eval()  # running stats: mean 0, var 1 -> bn is identity on zeros
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 6, 6)))
        y, inter = block(x)
        assert inter is None
        assert np.allclose(y.data, np.maximum(x.data, 0.0), atol=1e-12)

    def test_zero_attention_halves_branch(self):
        cfg = toy_config(sma_placement="all_blocks")
        rng = np.random.default_rng(2)
        with_sma = BasicBlock(8, 8, 1, cfg, True, rng)
        for name, p in with_sma.attention.named_parameters():
            p.data[...] = 0.0
        twin = BasicBlock(8, 8, 1, cfg, False, np.random.default_rng(3))
        for (_, a), (_, b) in zip(twin.named_parameters(), [
            (n, p) for n, p in with_sma.named_parameters() if not n.startswith("attention.")
        ]):
            a.data = b.data.copy()
        x = Tensor(np.random.default_rng(4).normal(size=(2, 8, 5, 5)))
        with_sma.eval()
        twin.eval()
        y_sma, inter = with_sma(x)
        assert np.allclose(inter.fused.data, 0.5, atol=0)
        # fused map 0.5 halves the residual branch before the addition
        h = twin.bn2(twin.conv2(T.relu(twin.bn1(twin.conv1(x)))))
        manual = T.relu(T.mul(Tensor(np.full((1,), 0.5)), h) + x)
        assert np.allclose(y_sma.data, manual.data, atol=1e-12)

    def test_gradcheck_through_block_with_attention(self):
        cfg = toy_config()
        block = BasicBlock(4, 4, 1, toy_config(n_channels=2), True, np.random.default_rng(5))
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 5, 5)), requires_grad=True)
        leaves = {"x": x}
        leaves.update(dict(block.named_parameters()))
        r = np.random.default_rng(7).normal(size=(2, 4, 5, 5))

        def forward():
            y, _ = block(x)
            return T.mul(y, Tensor(r)).sum()

        err = grad_check_many(forward, leaves, max_coords=4, rng=np.random.default_rng(8))
        assert err < 1e-4

    def test_residual_shape_mismatch(self):
        cfg = toy_config()
        block = BasicBlock(8, 8, 1, cfg, False, np.random.default_rng(9))
        with pytest.raises(ShapeError):
            block(Tensor(np.ones((1, 4, 6, 6))))


class TestModelForward:
    def test_toy_profile_shapes_and_finiteness(self):
        cfg = toy_config()
        model = Backbone(cfg, np.random.default_rng(10))
        x = Tensor(np.random.default_rng(11).random((2, 3, 64, 64)))
        logits, inters = model(x)
        assert logits.shape == (2, 6)
        assert np.all(np.isfinite(logits.data))
        assert len(inters) == 8
        assert inters[0].stack.masks.shape[1] == 3

    def test_batch_permutation_equivariance_in_eval(self):
        cfg = toy_config(sma_placement="none")
        model = Backbone(cfg, np.random.default_rng(12)).eval()
        x = np.random.default_rng(13).random((4, 3, 32, 32))
        with T.no_grad():
            base, _ = model(Tensor(x))
            perm = np.array([2, 0, 3, 1])
            swapped, _ = model(Tensor(x[perm]))
        assert np.array_equal(base.data[perm], swapped.data)

    def test_imagenet_stem_downsamples(self):
        cfg = BackboneConfig(num_outputs=4, stage_widths=(8, 16, 32, 64),
                             stem="imagenet", sma_placement="none")
        model = Backbone(cfg, np.random.default_rng(14)).eval()
        with T.no_grad():
            logits, _ = model(Tensor(np.random.default_rng(15).random((1, 3, 64, 64))))
        assert logits.shape == (1, 4)


class TestParamCounts:
    @pytest.mark.parametrize("placement", ["none", "first_two_blocks", "all_blocks"])
    def test_closed_form_matches_enumeration(self, placement):
        cfg = toy_config(sma_placement=placement, n_channels=5)
        model = Backbone(cfg, np.random.default_rng(16))
        assert model.param_total() == backbone_param_count(cfg)

    def test_plain_twin_has_no_attention_params(self):
        with_sma = toy_config(sma_placement="all_blocks")
        without = toy_config(sma_placement="none")
        diff = backbone_param_count(with_sma) - backbone_param_count(without)
        from smanet.attention import param_count as sma_count
        from smanet.attention import SmaConfig

        want = sum(
            sma_count(SmaConfig(n_channels=3, in_channels=c))
            for _, _, _, c, _ in with_sma.block_positions()
        )
        assert diff == want

    def test_paper_profile_overhead_under_five_percent(self):
        full = BackboneConfig(num_outputs=12, n_channels=7, sma_placement="all_blocks",
                              stem="imagenet")
        plain = BackboneConfig(num_outputs=12, n_channels=7, sma_placement="none",
                               stem="imagenet")
        ratio = backbone_param_count(full) / backbone_param_count(plain)
        assert ratio <= 1.05


class TestSGD:
    def test_plain_step(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.5])
        SGD([p], momentum=0.0, weight_decay=0.0).step(0.1)
        assert np.allclose(p.data, [0.95, 2.05], atol=1e-15)

    def test_momentum_recurrence(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD([p], momentum=0.9, weight_decay=0.0)
        deltas = []
        for _ in range(2):
            before = p.data.copy()
            p.grad = np.array([1.0])
            opt.step(0.1)
            deltas.append(before - p.data)
        assert np.allclose(deltas[0], [0.1], atol=1e-15)
        assert np.allclose(deltas[1], [0.19], atol=1e-15)

    def test_matches_scalar_recurrence_oracle(self):
        rng = np.random.default_rng(17)
        grads = rng.normal(size=8)
        momentum, wd, lr = 0.9, 1e-4, 0.05
        p = Tensor(np.array([0.7]), requires_grad=True)
        opt = SGD([p], momentum=momentum, weight_decay=wd)
        v, x = 0.0, 0.7
        for g in grads:
            p.grad = np.array([g])
            opt.step(lr)
            v = momentum * v + g + wd * x
            x = x - lr * v
            assert abs(p.data[0] - x) < 1e-12

    def test_missing_grad_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ConfigError):
            SGD([p]).step(0.1)


class TestSchedule:
    def test_au_steps(self):
        assert lr_schedule(0, "au") == 0.01
        assert lr_schedule(1, "au") == 0.01
        assert lr_schedule(2, "au") == 0.001
        assert lr_schedule(30, "au") == 0.001

    def test_fer_decay(self):
        assert lr_schedule(25, "fer") == pytest.approx(0.009801, abs=1e-12)
        assert lr_schedule(0, "fer") == 0.01
        assert lr_schedule(99, "fer") == pytest.approx(0.01 * 0.99 ** 9, abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            lr_schedule(-1, "au")
        with pytest.raises(ConfigError):
            lr_schedule(0, "imagenet")


class TestDescentSanity:
    def test_single_sample_loss_decreases(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cfg = toy_config(num_outputs=4, n_channels=2)
            model = Backbone(cfg, rng)
            x = Tensor(rng.random((1, 3, 16, 16)))
            label = np.array([seed % 4])
            params = [p for _, p in model.named_parameters()]
            opt = SGD(params, momentum=0.0, weight_decay=0.0)

            logits, _ = model(x)
            before = cross_entropy(logits, label)
            before_val = before.item()
            before.backward()
            opt.step(1e-4)
            with T.no_grad():
                logits2, _ = model(x)
                after_val = cross_entropy(logits2, label).item()
            wins += after_val < before_val
        assert wins == 20


class TestCheckpoint:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        cfg = toy_config(n_channels=2)
        model = Backbone(cfg, np.random.default_rng(18))
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(p1, "d" * 64, model.state_arrays())
        digest, arrays = load_checkpoint(p1)
        assert digest == "d" * 64
        model.load_state_arrays(arrays)
        save_checkpoint(p2, digest, model.state_arrays())
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_roundtrip_exact(self, tmp_path):
        cfg = toy_config(n_channels=2)
        model = Backbone(cfg, np.random.default_rng(19), dtype=np.float32)
        path = tmp_path / "c.bin"
        save_checkpoint(path, "0" * 64, model.state_arrays())
        _, arrays = load_checkpoint(path)
        twin = Backbone(cfg, np.random.default_rng(20), dtype=np.float32)
        twin.load_state_arrays(arrays)
        for (_, a), (_, b) in zip(model.named_parameters(), twin.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        class Exploding:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("disk full")

        cfg = toy_config(n_channels=2)
        model = Backbone(cfg, np.random.default_rng(22))
        path = tmp_path / "best.bin"
        save_checkpoint(path, "a" * 64, model.state_arrays())
        blob = path.read_bytes()
        records = list(model.state_arrays())
        with pytest.raises(RuntimeError, match="disk full"):
            save_checkpoint(path, "b" * 64, records[:3] + [("boom", Exploding())] + records[3:])
        assert path.read_bytes() == blob
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        cfg = toy_config(n_channels=2)
        model = Backbone(cfg, np.random.default_rng(21))
        path = tmp_path / "t.bin"
        save_checkpoint(path, "f" * 64, model.state_arrays())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(DataError):
            load_checkpoint(path)
