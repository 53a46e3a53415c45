"""Synthetic dataset generation, augmentation, selective oversampling,
subject-disjoint folds, and the on-disk manifest format.

A dataset is one `Dataset` of three aligned arrays (images, labels,
subjects).  Oversampling and folds return sample indices into it, so a
duplicate or a fold shares the arrays' storage instead of copying samples.
Images are uint8 [H,W,3] everywhere, as the P6 files hold them: the
generator and augmentation quantize with `ppm.quantize`, so a dataset
written to disk reads back identical.

Each label owns a fixed image zone and a fixed color; a positive label
renders a Gaussian blob of that color at its zone.  Multi-label draws
include coupled pairs (conditional co-occurrence with the marginal rates
preserved) and rare labels, so the imbalance machinery has something to
chew on at desk scale.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .ppm import decode_image, encode_color, quantize

DEFAULT_LABEL_RATES = (0.30, 0.30, 0.25, 0.20, 0.20, 0.20, 0.15, 0.15, 0.10, 0.10, 0.05, 0.05)
# (first label, second label, P(second | first)); marginals stay as configured.
DEFAULT_LABEL_PAIRS = ((0, 1, 0.8), (4, 5, 0.8))


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as aligned arrays: images [N,H,W,3] uint8 (0-255);
    labels [N,L] int8 0/1 (multi_label) or [N] int64 class ids
    (multi_class); subjects [N] int64 subject ids."""

    images: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, idx) -> "Dataset":
        """The samples at `idx` (a slice, or an index array) in that order."""
        return Dataset(self.images[idx], self.labels[idx], self.subjects[idx])


@dataclass(frozen=True)
class ResampleConfig:
    threshold: float = 0.2
    max_duplication: int = 20

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"resample threshold must be in [0,1], got {self.threshold}")
        if self.max_duplication < 1:
            raise ConfigError("max_duplication must be >= 1")


@dataclass(frozen=True)
class SyntheticSpec:
    mode: str = "multi_label"            # or multi_class
    num_labels: int = 12
    num_classes: int = 6
    image_size: int = 64
    n_subjects: int = 30
    subject_pool: tuple = ()             # empty -> range(n_subjects)
    rates: tuple = DEFAULT_LABEL_RATES
    pairs: tuple = DEFAULT_LABEL_PAIRS
    noise: float = 0.04
    blob_sigma: float = 4.0
    blob_amplitude: float = 0.75
    distractors: int = 2

    def __post_init__(self):
        if self.mode not in ("multi_label", "multi_class"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "multi_label" and len(self.rates) != self.num_labels:
            raise ConfigError("rates length must equal num_labels")
        seen = set()
        for a, b, q in self.pairs:
            if a in seen or b in seen or a == b:
                raise ConfigError("coupled label pairs must be disjoint")
            seen.update((a, b))
            cond = (self.rates[b] - q * self.rates[a]) / (1.0 - self.rates[a])
            if not 0.0 <= cond <= 1.0:
                raise ConfigError(
                    f"pair ({a},{b}) with co-occurrence {q} is infeasible for the marginals"
                )

    def pool(self) -> tuple:
        return self.subject_pool if self.subject_pool else tuple(range(self.n_subjects))


def label_colors(count: int) -> np.ndarray:
    """Evenly spaced saturated hues, one distinct color per label."""
    return np.array(
        [colorsys.hsv_to_rgb(i / count, 0.9, 1.0) for i in range(count)]
    )


def label_centers(count: int, size: int) -> np.ndarray:
    """Zone centers on a ring well inside the frame so +-45 degree
    rotations keep every blob visible."""
    c = (size - 1) / 2.0
    radius = size * 0.3125
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.stack([c + radius * np.sin(angles), c + radius * np.cos(angles)], axis=1)


def sample_labels(rng: np.random.Generator, n: int, spec: SyntheticSpec) -> np.ndarray:
    """Draw [n, L] binary labels honoring marginal rates and coupled pairs."""
    rates = np.asarray(spec.rates)
    u = rng.random((n, spec.num_labels))
    labels = (u < rates[None, :]).astype(np.int8)
    for a, b, q in spec.pairs:
        cond_given_absent = (rates[b] - q * rates[a]) / (1.0 - rates[a])
        thresh = np.where(labels[:, a] == 1, q, cond_given_absent)
        labels[:, b] = (u[:, b] < thresh).astype(np.int8)
    return labels


def _subject_tint(subject_id: int) -> np.ndarray:
    return np.random.default_rng((9001, subject_id)).uniform(-0.05, 0.05, 3)


def _render(rng: np.random.Generator, active: np.ndarray, subject_id: int,
            spec: SyntheticSpec, colors: np.ndarray, centers: np.ndarray) -> np.ndarray:
    size = spec.image_size
    img = np.full((size, size, 3), 0.18) + _subject_tint(subject_id)[None, None, :]
    img += rng.normal(0.0, spec.noise, size=(size, size, 3))
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for _ in range(spec.distractors):
        dy, dx = rng.uniform(8, size - 8, 2)
        dsig = rng.uniform(2.0, 5.0)
        bump = 0.25 * np.exp(-((yy - dy) ** 2 + (xx - dx) ** 2) / (2 * dsig**2))
        img += bump[:, :, None]
    for lab in active:
        cy, cx = centers[lab]
        bump = spec.blob_amplitude * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spec.blob_sigma**2)
        )
        img += bump[:, :, None] * colors[lab][None, None, :]
    return np.clip(img, 0.0, 1.0)


def generate_synthetic(seed: int, n: int, spec: SyntheticSpec | None = None) -> Dataset:
    """Deterministic synthetic dataset: same seed, same bytes.

    Draws the subjects, then the labels (multi_label) or classes, then
    renders each image and quantizes it into one preallocated uint8
    [n,H,W,3] array."""
    if n <= 0:
        raise ConfigError(f"sample count must be positive, got {n}")
    spec = spec or SyntheticSpec()
    rng = np.random.default_rng((seed, 101))
    pool = np.asarray(spec.pool())
    subjects = pool[rng.integers(0, len(pool), size=n)]
    if spec.mode == "multi_label":
        labels, count = sample_labels(rng, n, spec), spec.num_labels
        active = [np.flatnonzero(row) for row in labels]
    else:
        labels, count = rng.integers(0, spec.num_classes, size=n), spec.num_classes
        active = labels[:, None]
    colors = label_colors(count)
    centers = label_centers(count, spec.image_size)
    images = np.empty((n, spec.image_size, spec.image_size, 3), dtype=np.uint8)
    for i in range(n):
        images[i] = quantize(_render(rng, active[i], int(subjects[i]), spec, colors, centers))
    return Dataset(images, labels, subjects)


# -- augmentation --------------------------------------------------------


def rotate_bilinear(img: np.ndarray, theta_deg: float) -> np.ndarray:
    """Rotate about the image center; bilinear sampling, replicated border."""
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    t = math.radians(theta_deg)
    cos_t, sin_t = math.cos(t), math.sin(t)
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    sy = cy + (yy - cy) * cos_t - (xx - cx) * sin_t
    sx = cx + (yy - cy) * sin_t + (xx - cx) * cos_t
    sy = np.clip(sy, 0.0, h - 1.0)
    sx = np.clip(sx, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[..., None]
    wx = (sx - x0)[..., None]
    top = img[y0, x0] * (1 - wx) + img[y0, x1] * wx
    bot = img[y1, x0] * (1 - wx) + img[y1, x1] * wx
    return top * (1 - wy) + bot * wy


def apply_augment(img: np.ndarray, theta_deg: float, flip: bool,
                  brightness: float, contrast: float, saturation: float) -> np.ndarray:
    """Deterministic augmentation core; the identity draw is exact."""
    out = img
    if theta_deg != 0.0:
        out = rotate_bilinear(out, theta_deg)
    if flip:
        out = out[:, ::-1, :]
    if brightness != 1.0:
        out = out * brightness
    if contrast != 1.0:
        mean = out.mean()
        out = mean + (out - mean) * contrast
    if saturation != 1.0:
        gray = out.mean(axis=2, keepdims=True)
        out = gray + (out - gray) * saturation
    if out is img:
        return img.copy()
    return np.clip(out, 0.0, 1.0)


def augment(image: np.ndarray, seed, mode: str) -> np.ndarray:
    """Seeded random rotation, horizontal flip, and +-20% color jitter of
    one uint8 [H,W,3] image; returns a new uint8 image.  The jitter runs
    on floats in [0,1], quantized back like a generated image.

    AU runs rotate within +-45 degrees, expression runs within +-15.
    """
    if mode not in ("au", "fer"):
        raise ConfigError(f"unknown augmentation mode {mode!r}")
    rng = np.random.default_rng(seed)
    limit = 45.0 if mode == "au" else 15.0
    theta = rng.uniform(-limit, limit)
    flip = rng.random() < 0.5
    brightness, contrast, saturation = rng.uniform(0.8, 1.2, 3)
    return quantize(apply_augment(image / 255.0, theta, flip, brightness, contrast, saturation))


# -- selective oversampling ------------------------------------------------


def selective_oversample(labels: np.ndarray, cfg: ResampleConfig) -> np.ndarray:
    """Sample indices that duplicate minority-positive samples of the
    [N,L] 0/1 `labels` until each label's positive frequency reaches the
    threshold (or the per-sample duplication cap).

    Labels are processed in ascending original-frequency order; appended
    duplicates count toward every label they carry.  The input is never
    shrunk: the result is arange(N) followed by the duplicates' indices in
    the order they were appended.
    """
    if len(labels) == 0:
        raise DataError("selective_oversample: empty dataset")
    if labels.ndim != 2:
        raise DataError("selective_oversample requires multi-label data")
    p = cfg.threshold
    n = len(labels)
    dups = []
    counts = labels.sum(axis=0).astype(np.int64)
    total = n
    dup_used = np.zeros(n, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    positives = {int(l): np.flatnonzero(labels[:, l]) for l in order}
    cursor = {int(l): 0 for l in order}

    for _ in range(cfg.max_duplication):
        progressed = False
        for l in order:
            l = int(l)
            pos = positives[l]
            if len(pos) == 0:
                continue
            while counts[l] < p * total - 1e-12:
                need = math.ceil((p * total - counts[l]) / (1.0 - p)) if p < 1.0 else 0
                if need <= 0:
                    break
                appended = 0
                scanned = 0
                while appended < need and scanned < len(pos) * cfg.max_duplication:
                    idx = int(pos[cursor[l] % len(pos)])
                    cursor[l] += 1
                    scanned += 1
                    if dup_used[idx] >= cfg.max_duplication:
                        continue
                    dup_used[idx] += 1
                    dups.append(idx)
                    counts += labels[idx]
                    total += 1
                    appended += 1
                    progressed = True
                if appended < need:
                    break  # every positive is at the duplication cap
        below = [int(l) for l in order if len(positives[int(l)]) and counts[int(l)] < p * total - 1e-12]
        if not below or not progressed:
            break
    return np.concatenate([np.arange(n), np.array(dups, dtype=np.int64)])


# -- folds ------------------------------------------------------------------


def make_folds(subjects: np.ndarray, k: int, seed: int = 0) -> list[np.ndarray]:
    """Deterministic k-way partition of sample indices by the samples'
    subject ids: no subject appears in two folds.  Each fold is an
    ascending index array; a seeded shuffle of the sorted distinct
    subjects deals them round-robin to the folds."""
    if k < 2:
        raise ConfigError(f"need k >= 2 folds, got {k}")
    distinct, which = np.unique(subjects, return_inverse=True)
    if len(distinct) < k:
        raise ConfigError(f"{len(distinct)} subjects cannot fill {k} folds")
    fold_of = np.empty(len(distinct), dtype=np.int64)
    fold_of[np.random.default_rng((seed, 707)).permutation(len(distinct))] = (
        np.arange(len(distinct)) % k)
    return [np.flatnonzero(fold_of[which] == f) for f in range(k)]


# -- manifest ----------------------------------------------------------------


def write_dataset(out_dir, data: Dataset, digest: str = "") -> Path:
    """Write the uint8 images as P6 files plus a tab-separated manifest.

    Manifest fields, in order: image path, labels, subject id.  A label
    row of [N,L] labels is written comma-joined 0/1, a class id of [N]
    labels as one integer.
    """
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    lines = []
    if digest:
        lines.append(f"# config_digest={digest}")
    for i in range(len(data)):
        rel = f"images/sample_{i:05d}.ppm"
        (out_dir / rel).write_bytes(encode_color(data.images[i]))
        lab = ",".join(map(str, np.atleast_1d(data.labels[i]).tolist()))
        lines.append(f"{rel}\t{lab}\t{int(data.subjects[i])}")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_dataset(dataset_dir, mode: str, count: int, size: int) -> Dataset:
    """Read a manifest directory of size x size color images back as a
    `mode` Dataset; the exact inverse of `write_dataset`.

    A multi_label record holds `count` comma-joined 0/1 values (a lone
    value is a 1-label vector); a multi_class record holds one class id in
    [0, count).  A bad field, a record of the wrong length or kind, or a
    missing or wrongly shaped image raises a DataError naming the manifest
    line.
    """
    dataset_dir = Path(dataset_dir)
    manifest = dataset_dir / "manifest.tsv"
    if not manifest.exists():
        raise DataError(f"no manifest.tsv under {dataset_dir}")
    try:
        text = manifest.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{manifest}: cannot read as UTF-8 text ({type(exc).__name__})") from None
    records = [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1)
               if line and not line.startswith("#")]
    if not records:
        raise DataError(f"empty manifest {manifest}")
    images = np.empty((len(records), size, size, 3), dtype=np.uint8)
    labels, subjects = [], []
    for i, (lineno, line) in enumerate(records):
        where = f"{manifest}:{lineno}"
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{where}: malformed manifest record: {line!r}")
        rel, lab, subj = parts
        try:
            values = [int(v) for v in lab.split(",")]
            subjects.append(int(subj))
        except ValueError:
            raise DataError(f"{where}: non-integer field in {line!r}") from None
        if mode == "multi_label":
            if len(values) != count or any(v not in (0, 1) for v in values):
                raise DataError(f"{where}: want {count} comma-joined 0/1 labels, got {lab!r}")
            labels.append(values)
        else:
            if len(values) != 1 or not 0 <= values[0] < count:
                raise DataError(f"{where}: want one class id in [0,{count}), got {lab!r}")
            labels.append(values[0])
        path = dataset_dir / rel
        if not path.is_file():
            raise DataError(f"{where}: image {rel} not found")
        try:
            img = decode_image(path.read_bytes())
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
        if img.shape != (size, size, 3):
            raise DataError(f"{where}: expected {size}x{size} color image {rel}, got {img.shape}")
        images[i] = img
    dtype = np.int8 if mode == "multi_label" else np.int64
    return Dataset(images, np.array(labels, dtype=dtype), np.array(subjects, dtype=np.int64))
