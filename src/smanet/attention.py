"""Multi-channel spatial attention with learned channel weighting.

A feature block is mapped down to N attention channels; each channel
runs a 7x7 conv to produce a spatial mask logit, and its sigmoid is that
channel's mask.  A squeeze-style two-layer MLP (no hidden nonlinearity)
scores the channels with a softmax weight vector, the weighted channel
combination is squashed to a single fused map, and the fused map gates
the input feature block.

The fused map is built from the logits, so only the training losses
(L_div and L_ma), the combine_on='masks' fusion and `export-attention`
read the N masks.  `forward` builds them only for that fusion, and
`channel_masks` hands a reader those, or else a sigmoid of the logits
run in the reader's grad mode.  So an eval forward that fuses the
logits never builds them, and no read can change what a step trains.

Every attention layer (mapping conv, mask convs, MLPs) starts uniform in
+-`nn.INIT_SCALE`, weights and biases alike, and is built in float64 like
every layer; the owner of the model casts it to the compute dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import INIT_SCALE, Conv2d, DepthwiseConv2d, Linear, Module
from .tensor import Tensor


@dataclass(frozen=True)
class SmaConfig:
    """One attention variant: the settings every SMA block of a backbone
    shares.  The width a block attends over is its own `in_channels`.

    mapping_mode 'conv' learns the C->N reduction; 'channel_mean' replaces
    it with the channel average replicated N times (the non-diversified
    multi-branch baseline).  use_aaa=False fixes uniform channel weights.
    """

    n_channels: int
    mapping_kernel: int
    attn_kernel: int
    combine_on: str
    mapping_mode: str
    use_aaa: bool

    def __post_init__(self):
        if self.n_channels < 1:
            raise ConfigError(f"n_channels must be positive, got {self.n_channels}")
        for name in ("mapping_kernel", "attn_kernel"):
            k = getattr(self, name)
            if k < 1 or k % 2 == 0:
                raise ConfigError(f"{name} must be a positive odd number, got {k}")
        if self.combine_on not in ("logits", "masks"):
            raise ConfigError(f"combine_on must be logits or masks, got {self.combine_on!r}")
        if self.mapping_mode not in ("conv", "channel_mean"):
            raise ConfigError(f"unknown mapping_mode {self.mapping_mode!r}")


@dataclass
class SmaIntermediates:
    """What one attention block's forward leaves for the losses and the
    export.  The mapped features the logits are built from are not kept:
    nothing reads them after `f2a`, and only the mask conv's vjp keeps
    them alive, inside the graph."""

    feature: Tensor          # block input the attention was computed from
    logits: Tensor           # [B,N,H,W] pre-sigmoid channel masks
    weights: Tensor          # [B,N] softmax channel weights
    fused: Tensor            # [B,1,H,W] fused attention map
    masks: Tensor | None = None  # [B,N,H,W], built only for combine_on='masks'


def channel_masks(inter: SmaIntermediates) -> Tensor:
    """The N channel masks in (0,1): those `forward` built, or else the
    sigmoid of the logits, run in the caller's grad mode."""
    return inter.masks if inter.masks is not None else T.sigmoid(inter.logits)


def combine(maps: Tensor, weights: Tensor) -> Tensor:
    """Fuse the N channel maps under the channel weights into one map.

    `forward` passes the pre-sigmoid logits by default, so the final
    sigmoid spans (0,1), and the masks under combine_on='masks'
    (ablation).
    """
    b, n = weights.shape
    if maps.shape[:2] != (b, n):
        raise ShapeError(f"combine: weights {weights.shape} do not match maps {maps.shape}")
    w4 = T.reshape(weights, (b, n, 1, 1))
    return T.sigmoid(T.mul(maps, w4).sum(axis=1, keepdims=True))


def refine(fused: Tensor, feature: Tensor) -> Tensor:
    """Gate every channel of the feature block by the fused map."""
    if fused.shape[0] != feature.shape[0] or fused.shape[2:] != feature.shape[2:]:
        raise ShapeError(f"refine: fused {fused.shape} does not match feature {feature.shape}")
    return T.mul(fused, feature)


def param_count(cfg: SmaConfig, in_channels: int) -> int:
    """Trainable scalars in one attention block over `in_channels`
    (closed form)."""
    c, n = in_channels, cfg.n_channels
    total = n * (cfg.attn_kernel ** 2 + 1)            # per-channel masks
    if cfg.mapping_mode == "conv":
        total += c * n * cfg.mapping_kernel ** 2 + n  # mapping conv
    if cfg.use_aaa:
        total += (c * n + n) + (n * n + n)            # reduce and mix fcs
    return total


class MultiChannelAttention(Module):
    """The full attention block: channel mapping, per-channel masks,
    channel weighting, combination, and feature refinement, in the
    variant `cfg` spells."""

    def __init__(self, cfg: SmaConfig, in_channels: int, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.in_channels = in_channels
        n = cfg.n_channels
        if cfg.mapping_mode == "conv":
            self.mapping = Conv2d(in_channels, n, cfg.mapping_kernel, rng,
                                  padding=cfg.mapping_kernel // 2, scale=INIT_SCALE)
        self.attn_convs = DepthwiseConv2d(n, cfg.attn_kernel, rng)
        if cfg.use_aaa:
            self.reduce_fc = Linear(in_channels, n, rng, INIT_SCALE)
            self.mix_fc = Linear(n, n, rng, INIT_SCALE)

    def f2a(self, feature: Tensor) -> Tensor:
        """Map the feature block to N channels and build the [B,N,H,W] mask
        logits; the mapped features are dropped once the logits are built."""
        if feature.ndim != 4 or feature.shape[1] != self.in_channels:
            raise ShapeError(f"f2a: expected [B,{self.in_channels},H,W], got {feature.shape}")
        if self.cfg.mapping_mode == "conv":
            mapped = self.mapping(feature)
        else:
            ones = Tensor(np.ones((1, self.cfg.n_channels, 1, 1), dtype=feature.dtype))
            mapped = T.mul(feature.mean(axis=1, keepdims=True), ones)
        return self.attn_convs(mapped)

    def channel_weights(self, feature: Tensor) -> Tensor:
        """Softmax channel scores from spatially pooled features."""
        b = feature.shape[0]
        if not self.cfg.use_aaa:
            n = self.cfg.n_channels
            return Tensor(np.full((b, n), 1.0 / n, dtype=feature.dtype))
        pooled = feature.mean(axis=(2, 3))
        # Two stacked affine maps, deliberately no nonlinearity in between.
        return T.softmax(self.mix_fc(self.reduce_fc(pooled)), axis=1)

    def forward(self, feature: Tensor) -> tuple[Tensor, SmaIntermediates]:
        logits = self.f2a(feature)
        weights = self.channel_weights(feature)
        masks = T.sigmoid(logits) if self.cfg.combine_on == "masks" else None
        fused = combine(logits if masks is None else masks, weights)
        refined = refine(fused, feature)
        return refined, SmaIntermediates(feature, logits, weights, fused, masks)


class ChannelGate(Module):
    """Plain channel-wise gating (squeeze/excite style): pooled features
    through a bottleneck MLP to per-channel sigmoid gates.  Stands in for
    the channel-attention-only ablation; produces no spatial masks.
    """

    def __init__(self, in_channels: int, bottleneck: int, rng: np.random.Generator):
        super().__init__()
        self.in_channels = in_channels
        self.reduce_fc = Linear(in_channels, bottleneck, rng, INIT_SCALE)
        self.expand_fc = Linear(bottleneck, in_channels, rng, INIT_SCALE)

    def forward(self, feature: Tensor) -> tuple[Tensor, None]:
        b, c = feature.shape[0], feature.shape[1]
        pooled = feature.mean(axis=(2, 3))
        gates = T.sigmoid(self.expand_fc(self.reduce_fc(pooled)))
        return T.mul(T.reshape(gates, (b, c, 1, 1)), feature), None
