"""Self-diversified multi-channel spatial attention on a compact ResNet
backbone, built on an in-package reverse-mode autodiff engine."""

from .attention import MultiChannelAttention, SmaConfig, combine, param_count, refine
from .backbone import Backbone, BackboneConfig, SGD, lr_schedule
from .config import RunConfig, config_digest, load_config
from .gradcheck import grad_check_many
from .losses import (LossConfig, cross_entropy, diversity_loss,
                     multi_attention_loss, total_loss, weighted_bce_logits)
from .tensor import Tensor, no_grad, set_checked

__all__ = [
    "Backbone",
    "BackboneConfig",
    "LossConfig",
    "MultiChannelAttention",
    "RunConfig",
    "SGD",
    "SmaConfig",
    "Tensor",
    "combine",
    "config_digest",
    "cross_entropy",
    "diversity_loss",
    "grad_check_many",
    "load_config",
    "lr_schedule",
    "multi_attention_loss",
    "no_grad",
    "param_count",
    "refine",
    "set_checked",
    "total_loss",
    "weighted_bce_logits",
]
