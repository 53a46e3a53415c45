"""ResNet-18-style backbone with attention blocks inserted inside the
basic blocks, plus the SGD optimizer and the two learning-rate schedules.

Attention sits on the residual branch, after the second batch norm and
before the summation with the identity path.  A width-scaled compact
profile (stage widths divided by 8, 3x3 stride-1 stem) keeps desk-scale
runs fast; the full-width profile uses the standard 7x7 stride-2 stem
with max-pooling.  Every stage has two blocks and the input is RGB.

Each conv is He-initialised without a bias, since a batch norm follows
it; the head is uniform in +-`nn.INIT_SCALE` with a zero bias.  The
network is built in float64; `train.TrainState` casts it to the compute
dtype.

`BackboneConfig` checks nothing itself.  `config.backbone_config` builds
it from a validated `RunConfig`: the profile's widths and stem, the
checked placement, and the ablation row's attention kind; `SmaConfig`
checks the attention settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor as T
from .attention import ChannelGate, MultiChannelAttention, SmaConfig, SmaIntermediates, param_count
from .errors import ConfigError, ShapeError
from .nn import INIT_SCALE, BatchNorm2d, Conv2d, Linear, Module, ModuleList
from .tensor import Tensor

IN_CHANNELS = 3  # RGB input
PLACEMENTS = ("all_blocks", "first_two_blocks", "none")


@dataclass(frozen=True)
class BackboneConfig:
    num_outputs: int
    stage_widths: tuple
    blocks_per_stage: ClassVar[int] = 2
    sma_placement: str
    stem: str  # compact: 3x3 stride 1; imagenet: 7x7 stride 2 + maxpool
    attention_kind: str
    sma: SmaConfig  # channel_gate reads n_channels only

    def block_positions(self):
        """(stage, block, cin, cout, stride) for every basic block in order."""
        out = []
        cin = self.stage_widths[0]
        for s, width in enumerate(self.stage_widths):
            for b in range(self.blocks_per_stage):
                stride = 2 if (s > 0 and b == 0) else 1
                out.append((s, b, cin, width, stride))
                cin = width
        return out

    def attention_at(self, stage: int, block: int) -> bool:
        if self.sma_placement == "none":
            return False
        if self.sma_placement == "all_blocks":
            return True
        return stage == 0 and block < 2


class BasicBlock(Module):
    def __init__(self, cin, cout, stride, cfg: BackboneConfig, with_attention: bool,
                 rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv2d(cin, cout, 3, rng, stride=stride, padding=1)
        self.bn1 = BatchNorm2d(cout)
        self.conv2 = Conv2d(cout, cout, 3, rng, stride=1, padding=1)
        self.bn2 = BatchNorm2d(cout)
        if stride != 1 or cin != cout:
            self.down_conv = Conv2d(cin, cout, 1, rng, stride=stride)
            self.down_bn = BatchNorm2d(cout)
        else:
            self.down_conv = None
        self.attention = None
        if with_attention:
            if cfg.attention_kind == "sma":
                self.attention = MultiChannelAttention(cfg.sma, cout, rng)
            else:
                self.attention = ChannelGate(cout, cfg.sma.n_channels, rng)

    def forward(self, x: Tensor):
        h = T.relu(self.bn1(self.conv1(x)))
        h = self.bn2(self.conv2(h))
        inter = None
        if self.attention is not None:
            h, inter = self.attention(h)
        identity = self.down_bn(self.down_conv(x)) if self.down_conv is not None else x
        return T.relu(h + identity), inter


class Backbone(Module):
    """Stem, four two-block stages, global average pool, affine head."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        w0 = cfg.stage_widths[0]
        if cfg.stem == "compact":
            self.stem_conv = Conv2d(IN_CHANNELS, w0, 3, rng, stride=1, padding=1)
        else:
            self.stem_conv = Conv2d(IN_CHANNELS, w0, 7, rng, stride=2, padding=3)
        self.stem_bn = BatchNorm2d(w0)
        self.blocks = ModuleList()
        for stage, block, cin, cout, stride in cfg.block_positions():
            self.blocks.append(BasicBlock(cin, cout, stride, cfg, cfg.attention_at(stage, block), rng))
        self.head = Linear(cfg.stage_widths[-1], cfg.num_outputs, rng, INIT_SCALE, zero_bias=True)

    def forward(self, x: Tensor):
        """Return (logits, attention intermediates of every carrying block)."""
        if x.ndim != 4 or x.shape[1] != IN_CHANNELS:
            raise ShapeError(f"expected [B,{IN_CHANNELS},H,W] input, got {x.shape}")
        h = T.relu(self.stem_bn(self.stem_conv(x)))
        if self.cfg.stem == "imagenet":
            h = T.max_pool2d(h, 3, 2, 1)
        inters: list[SmaIntermediates] = []
        for block in self.blocks:
            h, inter = block(h)
            if inter is not None:
                inters.append(inter)
        return self.head(h.mean(axis=(2, 3))), inters


def attention_param_count(cfg: BackboneConfig, width: int) -> int:
    """Closed-form trainable-parameter count of one attention insert."""
    if cfg.attention_kind == "channel_gate":
        n = cfg.sma.n_channels
        return width * n + n + n * width + width
    return param_count(cfg.sma, width)


def backbone_param_count(cfg: BackboneConfig) -> int:
    """Closed-form trainable-parameter count of the whole network."""
    w0 = cfg.stage_widths[0]
    stem_k = 3 if cfg.stem == "compact" else 7
    total = IN_CHANNELS * w0 * stem_k ** 2 + 2 * w0
    for stage, block, cin, cout, stride in cfg.block_positions():
        total += cin * cout * 9 + 2 * cout          # conv1 + bn1
        total += cout * cout * 9 + 2 * cout         # conv2 + bn2
        if stride != 1 or cin != cout:
            total += cin * cout + 2 * cout          # 1x1 downsample + bn
        if cfg.attention_at(stage, block):
            total += attention_param_count(cfg, cout)
    total += cfg.stage_widths[-1] * cfg.num_outputs + cfg.num_outputs
    return total


class SGD:
    """Momentum SGD with L2 weight decay coupled into the gradient (not
    decoupled, AdamW-style, decay): v <- m*v + g + wd*p; p -= lr*v.

    The state is three aligned arrays in parameter order: `flat` (the
    parameters), `grad` and `velocity`.  Construction copies the
    parameters into `flat` and rebinds each `p.data` to its view of it,
    and binds each `p.grad` to its zeroed view of `grad`, into which
    `Tensor.backward` accumulates in place.  So each pass of a step runs
    once over the whole buffer instead of once per parameter, with the
    same elementwise arithmetic, and a parameter group's gradient is a
    slice of `grad`.  Code that replaces a parameter's values or gradient
    afterwards must write into `p.data` or `p.grad` in place: a step
    refuses a gradient rebound away from its view.  The parameters must
    share one dtype.
    """

    def __init__(self, params: list[Tensor], momentum: float, weight_decay: float):
        self.params = list(params)
        if len({p.dtype for p in self.params}) != 1:
            raise ConfigError("sgd needs a non-empty parameter list of one dtype")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.flat = np.concatenate([p.data for p in self.params], axis=None)
        self.grad = np.zeros_like(self.flat)
        self.velocity = np.zeros_like(self.flat)
        cuts = np.cumsum([p.size for p in self.params])[:-1]
        for p, data, grad in zip(self.params, np.split(self.flat, cuts), np.split(self.grad, cuts)):
            p.data, p.grad = data.reshape(p.shape), grad.reshape(p.shape)
        self._grad_views = [p.grad for p in self.params]

    def step(self, lr: float) -> None:
        if any(p.grad is not g for p, g in zip(self.params, self._grad_views)):
            raise ConfigError("sgd step with a parameter gradient that is not its buffer view")
        v = self.velocity
        v *= self.momentum
        v += self.grad
        if self.weight_decay:
            v += self.weight_decay * self.flat
        self.flat -= lr * v

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def lr_schedule(epoch: int, task: str, base: float) -> float:
    """AU runs: base for two epochs, then base/10.  Expression runs (any
    other task; `RunConfig.validate` admits only au and fer):
    multiplicative 0.99 decay every 10 epochs over a 100-epoch budget.
    The epoch counts from 0."""
    if task == "au":
        return base if epoch < 2 else base * 0.1
    return base * 0.99 ** (epoch // 10)
