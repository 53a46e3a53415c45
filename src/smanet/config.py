"""Run configuration: a flat, schema-versioned key-value document.

Every command consumes one RunConfig (from file and/or CLI flags); its
canonical serialization is hashed into a digest that is stamped into
every artifact, so evaluation can refuse checkpoints built under a
different configuration.  Unknown keys are errors, not warnings.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig
from .errors import ConfigError
from .losses import LossConfig

SCHEMA_VERSION = 1

ABLATIONS = (
    "baseline",
    "multi_channel",
    "f2a",
    "aaa",
    "multi_channel_aaa",
    "f2a_aaa",
    "f2a_aaa_lma",
    "f2a_aaa_ldiv",
    "full",
)

TOY_WIDTHS = (8, 16, 32, 64)
PAPER_WIDTHS = (64, 128, 256, 512)


@dataclass
class RunConfig:
    task: str = "au"                  # au: multi-label; fer: multi-class
    profile: str = "toy"              # toy: /8 widths, 64px; paper: full widths, 256px
    ablation: str = "full"
    seed: int = 0
    epochs: int = 30
    batch_size: int = 16
    n_channels: int = 7
    mapping_kernel: int = 1
    attn_kernel: int = 7
    delta: float = 0.5
    combine_on: str = "logits"
    alpha: float = 0.1
    lam: float = 0.1                  # config key: lambda
    num_labels: int = 12
    num_classes: int = 6
    n_train: int = 2000
    n_val: int = 500
    n_subjects: int = 30
    resample_p: float = 0.2
    resample_max_duplication: int = 20
    augment: bool = True
    dtype: str = "float32"            # training compute dtype
    sma_placement: str = "auto"
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    data_dir: str = ""
    output_dir: str = "runs/out"

    def validate(self) -> "RunConfig":
        if self.task not in ("au", "fer"):
            raise ConfigError(f"task must be au or fer, got {self.task!r}")
        if self.profile not in ("toy", "paper"):
            raise ConfigError(f"profile must be toy or paper, got {self.profile!r}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.sma_placement not in ("auto", "all_blocks", "first_two_blocks", "none"):
            raise ConfigError(f"bad sma_placement {self.sma_placement!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.combine_on not in ("logits", "masks"):
            raise ConfigError(f"combine_on must be logits or masks, got {self.combine_on!r}")
        for name in ("seed", "epochs", "batch_size", "n_channels", "num_labels",
                     "num_classes", "n_train", "n_val", "n_subjects",
                     "resample_max_duplication"):
            if getattr(self, name) < 0 or (name not in ("seed",) and getattr(self, name) == 0):
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.alpha < 0 or self.lam < 0:
            raise ConfigError("alpha and lambda must be >= 0")
        if not self.lr > 0.0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.resample_p <= 1.0:
            raise ConfigError(f"resample_p must be in [0,1], got {self.resample_p}")
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError(f"delta must be in [0,1), got {self.delta}")
        if self.data_dir and not Path(self.data_dir).exists():
            raise ConfigError(f"data_dir does not exist: {self.data_dir}")
        return self


_KEY_OF_FIELD = {"lam": "lambda"}
_FIELD_OF_KEY = {v: k for k, v in _KEY_OF_FIELD.items()}


def _fields() -> dict[str, type]:
    return {f.name: f.type for f in dataclasses.fields(RunConfig)}


def config_keys() -> list[str]:
    return sorted(_KEY_OF_FIELD.get(name, name) for name in _fields())


def to_text(cfg: RunConfig, skip: tuple = ()) -> str:
    """Canonical serialization: schema line, then sorted key = value lines."""
    lines = [f"schema_version = {SCHEMA_VERSION}"]
    for key in config_keys():
        if key in skip:
            continue
        value = getattr(cfg, _FIELD_OF_KEY.get(key, key))
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: RunConfig) -> str:
    """Digest of the semantic configuration; output_dir is a pure artifact
    destination and deliberately excluded, so a checkpoint can be evaluated
    from anywhere."""
    return hashlib.sha256(to_text(cfg, skip=("output_dir",)).encode("utf-8")).hexdigest()


def _cast(key: str, raw: str):
    field = _FIELD_OF_KEY.get(key, key)
    kind = _fields().get(field)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        if kind in ("bool", bool):
            if raw.lower() in ("true", "1", "yes"):
                return field, True
            if raw.lower() in ("false", "0", "no"):
                return field, False
            raise ValueError(raw)
        if kind in ("int", int):
            return field, int(raw)
        if kind in ("float", float):
            return field, float(raw)
        return field, raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """Parse the flat document; requires a matching schema_version line."""
    values: dict = {}
    saw_schema = False
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key == "schema_version":
            if int(raw) != SCHEMA_VERSION:
                raise ConfigError(f"unsupported schema_version {raw} (want {SCHEMA_VERSION})")
            saw_schema = True
            continue
        field, value = _cast(key, raw)
        values[field] = value
    if not saw_schema:
        raise ConfigError("config file is missing the schema_version line")
    return values


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus override fields."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(p.read_text()))
    if overrides:
        for field, value in overrides.items():
            if field not in _fields():
                raise ConfigError(f"unknown config field {field!r}")
            values[field] = value
    cfg = RunConfig(**values)
    return cfg.validate()


# -- derived build plans -------------------------------------------------


def resolved_placement(cfg: RunConfig) -> str:
    if cfg.ablation == "baseline":
        return "none"
    if cfg.sma_placement != "auto":
        return cfg.sma_placement
    return "all_blocks" if cfg.task == "au" else "first_two_blocks"


def effective_balance(cfg: RunConfig) -> tuple[float, float]:
    """(alpha, lambda) actually applied under the chosen ablation."""
    if cfg.ablation == "full":
        return cfg.alpha, cfg.lam
    if cfg.ablation == "f2a_aaa_ldiv":
        return cfg.alpha, 0.0
    if cfg.ablation == "f2a_aaa_lma":
        return 0.0, cfg.lam
    return 0.0, 0.0


def backbone_config(cfg: RunConfig) -> BackboneConfig:
    ab = cfg.ablation
    attention_kind = "sma"
    mapping_mode = "conv"
    use_aaa = True
    if ab == "baseline":
        attention_kind = "none"
    elif ab == "aaa":
        attention_kind = "channel_gate"
    elif ab == "multi_channel":
        mapping_mode, use_aaa = "channel_mean", False
    elif ab == "f2a":
        use_aaa = False
    elif ab == "multi_channel_aaa":
        mapping_mode = "channel_mean"
    # f2a_aaa, f2a_aaa_lma, f2a_aaa_ldiv, full: learned mapping + weighting
    widths = TOY_WIDTHS if cfg.profile == "toy" else PAPER_WIDTHS
    return BackboneConfig(
        num_outputs=cfg.num_labels if cfg.task == "au" else cfg.num_classes,
        stage_widths=widths,
        sma_placement=resolved_placement(cfg),
        n_channels=cfg.n_channels,
        stem="compact" if cfg.profile == "toy" else "imagenet",
        attention_kind=attention_kind,
        mapping_mode=mapping_mode,
        use_aaa=use_aaa,
        mapping_kernel=cfg.mapping_kernel,
        attn_kernel=cfg.attn_kernel,
        combine_on=cfg.combine_on,
    )


def loss_config(cfg: RunConfig, pos_weights=None) -> LossConfig:
    alpha, lam = effective_balance(cfg)
    return LossConfig(
        alpha=alpha,
        lam=lam,
        delta=cfg.delta,
        task="multi_label" if cfg.task == "au" else "multi_class",
        pos_weights=pos_weights,
    )


def input_size(cfg: RunConfig) -> int:
    return 64 if cfg.profile == "toy" else 256


def np_dtype(cfg: RunConfig):
    return np.float32 if cfg.dtype == "float32" else np.float64
