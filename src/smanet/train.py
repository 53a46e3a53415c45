"""Training and evaluation loops wired for strict reproducibility.

One master seed feeds separate derived streams (data, init, shuffling,
augmentation), so changing the epoch count never shifts the init draws,
and two runs with the same config produce byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import MultiChannelAttention
from .backbone import SGD, Backbone, lr_schedule
from .checkpoint import replacing, save_checkpoint
from .config import RunConfig, backbone_config, config_digest, input_size, loss_config, np_dtype
from .data import (DEFAULT_LABEL_PAIRS, DEFAULT_LABEL_RATES, Dataset, SyntheticSpec,
                   augment, generate_synthetic, load_dataset, selective_oversample)
from .errors import ConfigError, NumericError
from .losses import compute_pos_weights, objective
from .metrics import accuracy, binarize, count_binary, f1_scores
from .nn import INIT_SCALE, Linear, Module, ModuleList
from .tensor import Tensor

STREAM_DATA_VAL = 12
STREAM_INIT = 21
STREAM_SHUFFLE = 31
STREAM_AUGMENT = 41


def derive_rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


def synthetic_spec(cfg: RunConfig, subject_pool: tuple) -> SyntheticSpec:
    reps = -(-cfg.num_labels // len(DEFAULT_LABEL_RATES))
    rates = (DEFAULT_LABEL_RATES * reps)[: cfg.num_labels]
    pairs = tuple(p for p in DEFAULT_LABEL_PAIRS if p[0] < cfg.num_labels and p[1] < cfg.num_labels)
    return SyntheticSpec(
        task=cfg.task,
        num_labels=cfg.num_labels,
        num_classes=cfg.num_classes,
        image_size=input_size(cfg),
        subject_pool=subject_pool,
        rates=rates,
        pairs=pairs,
    )


def subject_pools(cfg: RunConfig) -> tuple[tuple, tuple]:
    """Subject-disjoint train/val pools: every fifth subject validates."""
    if cfg.n_subjects < 5:
        raise ConfigError(f"n_subjects must be >= 5 so that every fifth subject validates, "
                          f"got {cfg.n_subjects}")
    all_subjects = range(cfg.n_subjects)
    val = tuple(s for s in all_subjects if s % 5 == 4)
    train = tuple(s for s in all_subjects if s % 5 != 4)
    return train, val


def build_split(cfg: RunConfig, split: str) -> Dataset:
    """The "train" or "val" split alone: decoded from `data_dir`/<split>
    when `data_dir` is set, otherwise generated from the split's own seed
    stream and subject pool, so building one never shifts the other."""
    if cfg.data_dir:
        count = cfg.num_labels if cfg.task == "au" else cfg.num_classes
        return load_dataset(Path(cfg.data_dir) / split, cfg.task, count, input_size(cfg))
    train_pool, val_pool = subject_pools(cfg)
    # distinct stream so val never replays train draws
    seed, n, pool = {"train": (cfg.seed, cfg.n_train, train_pool),
                     "val": (cfg.seed * 2 + STREAM_DATA_VAL, cfg.n_val, val_pool)}[split]
    return generate_synthetic(seed, n, synthetic_spec(cfg, pool))


def build_splits(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    return build_split(cfg, "train"), build_split(cfg, "val")


class TrainState(Module):
    """Backbone plus the per-channel bypass heads, checkpointed together.
    Each block whose attention is a MultiChannelAttention gets its N heads
    as one `Linear` with N*K outputs, registered as ``heads.<b>``: row
    block n of it is head n (see `losses.bypass_logits`).  Built in
    float64, then cast once to the configured compute dtype."""

    def __init__(self, cfg: RunConfig):
        super().__init__()
        rng = derive_rng(cfg.seed, STREAM_INIT)
        self.model = Backbone(backbone_config(cfg), rng)
        self.heads = ModuleList()
        for block in self.model.blocks:
            attn = block.attention
            if isinstance(attn, MultiChannelAttention):
                self.heads.append(Linear(attn.in_channels,
                                         attn.cfg.n_channels * self.model.cfg.num_outputs,
                                         rng, INIT_SCALE, zero_bias=True))
        self.cast(np_dtype(cfg))


def make_out_dir(path) -> Path:
    """Create an output directory (and its parents); an unusable path is a
    ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {type(exc).__name__}") from None
    return out


def batch_tensor(images, dtype) -> Tensor:
    """uint8 [H,W,3] images (a sequence, or an [B,H,W,3] array) as one
    [B,3,H,W] tensor of `dtype` in [0,1]: each image is copied once into
    the compute dtype, then the batch is divided by 255 in place.  The
    only conversion from stored images to model input."""
    x = np.empty((len(images), 3) + images[0].shape[:2], dtype=dtype)
    for j, img in enumerate(images):
        x[j] = img.transpose(2, 0, 1)
    x /= 255
    return Tensor(x)


def _split_metric(logits: np.ndarray, labels, task: str) -> float:
    if task == "au":
        _, _, _, macro = f1_scores(count_binary(binarize(logits), labels.astype(bool)))
        return macro["f1"]
    return accuracy(logits.argmax(axis=-1), labels)


def evaluate_model(state: TrainState, data: Dataset, cfg: RunConfig) -> dict:
    """Deterministic eval pass over `data` in batch_size slices; returns
    the logits, the metric, and `data.labels`."""
    dtype = np_dtype(cfg)
    state.model.eval()
    chunks = []
    with T.no_grad():
        for start in range(0, len(data), cfg.batch_size):
            x = batch_tensor(data.images[start : start + cfg.batch_size], dtype)
            logits = state.model(x)[0]  # drop the maps before the next batch
            chunks.append(logits.data.astype(np.float64))
    state.model.train()
    logits = np.concatenate(chunks, axis=0)
    return {
        "logits": logits,
        "labels": data.labels,
        "metric": _split_metric(logits, data.labels, cfg.task),
    }


@dataclass
class TrainResult:
    rows: list[dict]
    best_epoch: int
    best_val: float
    digest: str
    log_path: Path
    checkpoint_path: Path


LOG_HEADER = "epoch,lr,l_cla,l_div,l_ma,l_all,train_metric,val_metric"


def format_log(rows: list[dict], digest: str) -> str:
    lines = [f"# config_digest={digest}", LOG_HEADER]
    for r in rows:
        lines.append(
            f"{r['epoch']},{r['lr']:.6f},{r['l_cla']:.6f},{r['l_div']:.6f},"
            f"{r['l_ma']:.6f},{r['l_all']:.6f},{r['train_metric']:.6f},{r['val_metric']:.6f}"
        )
    return "\n".join(lines) + "\n"


def run_training(cfg: RunConfig, splits: tuple[Dataset, Dataset], log=None) -> TrainResult:
    """Full training run; writes train_log.csv and checkpoint.bin under
    `cfg.output_dir`, keeping the best-validation-metric checkpoint.  Each
    epoch rewrites the whole log through `checkpoint.replacing`, so a run
    that stops early leaves every finished epoch's row on disk.  The
    (train, val) splits are `build_splits(cfg)`, built by the caller
    before the output directory is created.

    An epoch walks `order`, the training indices after oversampling, in a
    seeded permutation; position i of `order` seeds its augmentation."""
    digest = config_digest(cfg)
    dtype = np_dtype(cfg)
    train, val = splits

    order = np.arange(len(train))
    pos_weights = None
    if cfg.task == "au":
        if cfg.resample_p > 0:
            order = selective_oversample(train.labels, cfg.resample_p,
                                         cfg.resample_max_duplication)
        pos_weights = compute_pos_weights(train.labels[order])
    lcfg = loss_config(cfg, pos_weights)

    state = TrainState(cfg)
    trainable = [p for _, p in state.model.named_parameters()]
    if lcfg.lam > 0:
        trainable += [p for _, p in state.heads.named_parameters()]
    opt = SGD(trainable, momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    out_dir = make_out_dir(cfg.output_dir)
    ckpt_path, log_path = out_dir / "checkpoint.bin", out_dir / "train_log.csv"

    n = len(order)
    rows: list[dict] = []
    best_val, best_epoch = -np.inf, -1
    heads_by_block = list(state.heads)

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.task, base=cfg.lr)
        perm = derive_rng(cfg.seed, STREAM_SHUFFLE, epoch).permutation(n)
        sums = {"l_cla": 0.0, "l_div": 0.0, "l_ma": 0.0, "l_all": 0.0}
        seen = 0
        train_logit_chunks, train_label_chunks = [], []
        for start in range(0, n, cfg.batch_size):
            idxs = perm[start : start + cfg.batch_size]
            batch = order[idxs]
            images = [train.images[r] for r in batch]
            if cfg.augment:
                images = [augment(img, (cfg.seed, STREAM_AUGMENT, epoch, int(i)), cfg.task)
                          for img, i in zip(images, idxs)]
            labels = train.labels[batch]
            x = batch_tensor(images, dtype)
            logits, inters = state.model(x)
            l_cla, l_div, l_ma, l_all = objective(logits, inters, labels, heads_by_block, lcfg)
            if not np.isfinite(l_all.item()):
                raise NumericError(
                    f"non-finite loss {l_all.item()} at epoch {epoch} step {start // cfg.batch_size}"
                )
            l_all.backward()
            opt.step(lr)
            opt.zero_grad()

            bs = len(idxs)
            seen += bs
            for key, loss in (("l_cla", l_cla), ("l_div", l_div), ("l_ma", l_ma), ("l_all", l_all)):
                sums[key] += loss.item() * bs
            train_logit_chunks.append(logits.data.astype(np.float64))
            train_label_chunks.append(labels)
            # Free this step's activations (features, masks, fused maps)
            # before the next forward, not when its results rebind them.
            del logits, inters, l_cla, l_div, l_ma, l_all

        train_metric = _split_metric(
            np.concatenate(train_logit_chunks), np.concatenate(train_label_chunks), cfg.task
        )
        val_metric = evaluate_model(state, val, cfg)["metric"]
        row = {
            "epoch": epoch,
            "lr": lr,
            **{k: v / seen for k, v in sums.items()},
            "train_metric": train_metric,
            "val_metric": val_metric,
        }
        rows.append(row)
        if log:
            log(
                f"epoch {epoch:3d} lr {lr:.4f} l_all {row['l_all']:.4f} "
                f"train {train_metric:.4f} val {val_metric:.4f}"
            )
        if val_metric > best_val:
            best_val, best_epoch = val_metric, epoch
            save_checkpoint(ckpt_path, digest, state.state_arrays())
        with replacing(log_path) as f:
            f.write(format_log(rows, digest).encode("ascii"))

    return TrainResult(rows, best_epoch, best_val, digest, log_path, ckpt_path)
