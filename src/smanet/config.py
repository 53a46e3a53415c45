"""Run configuration: a flat, schema-versioned key-value document.

Every command consumes one RunConfig.  Its values come from a config
file and from CLI flags, and both go through the same parser: a flag
`--key value` is read exactly like a file line `key = value`.  The
canonical serialization is hashed into a digest that is stamped into
every artifact, so evaluation can refuse checkpoints built under a
different configuration.  Unknown keys are errors, not warnings.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .attention import SmaConfig
from .backbone import PLACEMENTS, BackboneConfig
from .errors import ConfigError
from .losses import LossConfig

SCHEMA_VERSION = 1


class Ablation(NamedTuple):
    attention: str | None   # attention kind; None: no attention at all
    mapping_mode: str       # conv: learned F2A mapping; channel_mean: fixed
    use_aaa: bool           # AAA channel weighting
    l_div: bool             # alpha (L_div) applied
    l_ma: bool              # lambda (L_ma) applied


ABLATIONS = {
    "baseline": Ablation(None, "conv", True, False, False),
    "multi_channel": Ablation("sma", "channel_mean", False, False, False),
    "f2a": Ablation("sma", "conv", False, False, False),
    "aaa": Ablation("channel_gate", "conv", True, False, False),
    "multi_channel_aaa": Ablation("sma", "channel_mean", True, False, False),
    "f2a_aaa": Ablation("sma", "conv", True, False, False),
    "f2a_aaa_lma": Ablation("sma", "conv", True, False, True),
    "f2a_aaa_ldiv": Ablation("sma", "conv", True, True, False),
    "full": Ablation("sma", "conv", True, True, True),
}

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
        for name in _fields():
            value = getattr(self, name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{_KEY_OF_FIELD.get(name, name)} must be finite, got {value}")
        if self.task not in ("au", "fer"):
            raise ConfigError(f"task must be au or fer, got {self.task!r}")
        if self.profile not in ("toy", "paper"):
            raise ConfigError(f"profile must be toy or paper, got {self.profile!r}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {list(ABLATIONS)}, got {self.ablation!r}")
        if self.sma_placement not in ("auto",) + PLACEMENTS:
            raise ConfigError(f"bad sma_placement {self.sma_placement!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("epochs", "batch_size", "num_labels", "num_classes", "n_train",
                     "n_val", "n_subjects", "resample_max_duplication"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        backbone_config(self)  # SmaConfig checks the attention settings
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
    """(field, value) of one `key = value` setting, from a file or a flag.
    Only the keys `config_keys` lists are accepted, so `lambda` has one
    spelling."""
    if key not in config_keys():
        raise ConfigError(f"unknown config key {key!r}")
    field = _FIELD_OF_KEY.get(key, key)
    kind = _fields()[field]
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return field, True
            if raw.lower() in ("false", "0", "no"):
                return field, False
            raise ValueError(raw)
        if kind == "int":
            return field, int(raw)
        if kind == "float":
            return field, float(raw)
        return field, raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """Parse the flat document; requires a matching schema_version line,
    and each key at most once."""
    values: dict = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in line_of:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        if key == "schema_version":
            if raw != str(SCHEMA_VERSION):
                raise ConfigError(f"unsupported schema_version {raw} (want {SCHEMA_VERSION})")
            continue
        try:
            field, value = _cast(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        values[field] = value
    if "schema_version" not in line_of:
        raise ConfigError("config file is missing the schema_version line")
    return values


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file, then `{key: raw text}`
    overrides parsed like the file's lines."""
    values: dict = {}
    if path:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {type(exc).__name__}") from None
        values.update(parse_config_text(text))
    for key, raw in (overrides or {}).items():
        field, value = _cast(key, raw)
        values[field] = value
    return RunConfig(**values).validate()


# -- derived build plans -------------------------------------------------


def resolved_placement(cfg: RunConfig) -> str:
    if ABLATIONS[cfg.ablation].attention is None:
        return "none"
    if cfg.sma_placement != "auto":
        return cfg.sma_placement
    return "all_blocks" if cfg.task == "au" else "first_two_blocks"


def backbone_config(cfg: RunConfig) -> BackboneConfig:
    row = ABLATIONS[cfg.ablation]
    widths = TOY_WIDTHS if cfg.profile == "toy" else PAPER_WIDTHS
    # The ablation row picks the attention kind and the SMA variant; the
    # backbone reads neither when the placement is none.
    return BackboneConfig(
        num_outputs=cfg.num_labels if cfg.task == "au" else cfg.num_classes,
        stage_widths=widths,
        sma_placement=resolved_placement(cfg),
        stem="compact" if cfg.profile == "toy" else "imagenet",
        attention_kind=row.attention or "sma",
        sma=SmaConfig(n_channels=cfg.n_channels, mapping_kernel=cfg.mapping_kernel,
                      attn_kernel=cfg.attn_kernel, combine_on=cfg.combine_on,
                      mapping_mode=row.mapping_mode, use_aaa=row.use_aaa),
    )


def loss_config(cfg: RunConfig, pos_weights=None) -> LossConfig:
    row = ABLATIONS[cfg.ablation]
    return LossConfig(
        alpha=cfg.alpha if row.l_div else 0.0,
        lam=cfg.lam if row.l_ma else 0.0,
        delta=cfg.delta,
        pos_weights=pos_weights,
    )


def input_size(cfg: RunConfig) -> int:
    return 64 if cfg.profile == "toy" else 256


def np_dtype(cfg: RunConfig):
    return np.float32 if cfg.dtype == "float32" else np.float64
