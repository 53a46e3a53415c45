"""Synthetic dataset generation, augmentation, selective oversampling,
subject-disjoint folds, and the on-disk manifest format.

A dataset is one `Dataset` of three aligned arrays (images, labels,
subjects).  Oversampling and folds return sample indices into it, so a
duplicate or a fold shares the arrays' storage instead of copying samples.
Images are uint8 [H,W,3] everywhere, as the P6 files hold them: the
generator and augmentation quantize with `ppm.quantize`, so a dataset
written to disk reads back identical.

The float work of both runs on planar [3,H,W] buffers, one image at a
time, so each pass over a channel is one contiguous plane rather than a
length-3 inner loop.  What is fixed for a whole dataset is built once
per `generate_synthetic` call: each label's colored blob, each
subject's tint, and the grid coordinates.  Only the random draws stay
per image, in a fixed order.  The tests pin the bytes of both, so
neither layout nor arithmetic order may change them.

Each label owns a fixed image zone and a fixed color; a positive label
renders a Gaussian blob of that color at its zone.  AU label draws
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
from .ppm import encode_color, quantize, read_color_image

DEFAULT_LABEL_RATES = (0.30, 0.30, 0.25, 0.20, 0.20, 0.20, 0.15, 0.15, 0.10, 0.10, 0.05, 0.05)
# (first label, second label, P(second | first)); marginals stay as configured.
DEFAULT_LABEL_PAIRS = ((0, 1, 0.8), (4, 5, 0.8))
# How an image is rendered: the std of the per-pixel noise, each label
# blob's width and height, and the number of faint distractor bumps.
NOISE = 0.04
BLOB_SIGMA = 4.0
BLOB_AMPLITUDE = 0.75
DISTRACTORS = 2


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as aligned arrays: images [N,H,W,3] uint8 (0-255);
    labels [N,L] int8 0/1 action units (au) or [N] int64 expression class
    ids (fer); subjects [N] int64 subject ids."""

    images: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, idx) -> "Dataset":
        """The samples at `idx` (a slice, or an index array) in that order."""
        return Dataset(self.images[idx], self.labels[idx], self.subjects[idx])


@dataclass(frozen=True)
class SyntheticSpec:
    """What `generate_synthetic` draws: au samples carry `num_labels`
    coupled 0/1 labels at `rates`, fer samples one of `num_classes`
    class ids.  Nothing here is checked: `RunConfig.validate` checks the
    task, and `train.synthetic_spec` builds `rates` (one per label),
    disjoint `pairs` whose conditional rates lie in [0,1] (see
    `sample_labels`) and a non-empty `subject_pool`.  How an image is
    rendered is fixed by this module's constants, `NOISE` to
    `DISTRACTORS`."""

    task: str
    num_labels: int
    num_classes: int
    image_size: int
    subject_pool: tuple                  # the subject ids samples are drawn from
    rates: tuple
    pairs: tuple


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


def _gaussian(grid: np.ndarray, cy, cx, sigma) -> np.ndarray:
    """exp(-((y-cy)^2 + (x-cx)^2) / (2 sigma^2)) over the [size,size] grid
    of `grid` = arange(size).  The squared distances are 1-D vectors
    summed by broadcasting, which is exact; the exp stays on the full
    grid, because a product of two 1-D exps rounds differently."""
    d = ((grid - cy) ** 2)[:, None] + (grid - cx) ** 2
    d /= -2 * sigma**2  # same bits as negating first: rounding is sign-symmetric
    return np.exp(d, out=d)


def _render(rng: np.random.Generator, active: np.ndarray, base: np.ndarray,
            spec: SyntheticSpec, blobs: list, grid: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """Render one image into the planar float64 [3,H,W] buffer `out`:
    the subject's `base` level per channel, plus noise and distractors
    drawn from `rng` in a fixed order, plus the prebuilt colored blob of
    each `active` label; clipped to [0,1]."""
    size = spec.image_size
    # Drawn in [H,W,3] order, which the pinned bytes fix, and read through
    # a transposed view.
    noise = rng.normal(0.0, NOISE, size=(size, size, 3))
    np.add(noise.transpose(2, 0, 1), base[:, None, None], out=out)
    for _ in range(DISTRACTORS):
        dy, dx = rng.uniform(8, size - 8, 2)
        dsig = rng.uniform(2.0, 5.0)
        bump = _gaussian(grid, dy, dx, dsig)
        bump *= 0.25
        out += bump
    for lab in active:
        out += blobs[lab]
    return np.clip(out, 0.0, 1.0, out=out)


def generate_synthetic(seed: int, n: int, spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset: same seed, same bytes.

    Draws the subjects, then the au labels or fer classes, then renders
    each image and quantizes it into one preallocated uint8 [n,H,W,3]
    array.  Built once per dataset: each label's colored blob as a
    planar [3,H,W] array, each subject's tint, and the grid coordinates.
    Per image, only the draws remain, in a fixed order: the noise, then
    each distractor's center and width.  Images are rendered one at a
    time into one planar float buffer, so the transient memory does not
    grow with `n`."""
    rng = np.random.default_rng((seed, 101))
    pool = np.asarray(spec.subject_pool)
    subjects = pool[rng.integers(0, len(pool), size=n)]
    if spec.task == "au":
        labels, count = sample_labels(rng, n, spec), spec.num_labels
        active = [np.flatnonzero(row) for row in labels]
    else:
        labels, count = rng.integers(0, spec.num_classes, size=n), spec.num_classes
        active = labels[:, None]
    size = spec.image_size
    grid = np.arange(size, dtype=np.float64)
    blobs = [BLOB_AMPLITUDE * _gaussian(grid, cy, cx, BLOB_SIGMA)
             * color[:, None, None]
             for (cy, cx), color in zip(label_centers(count, size), label_colors(count))]
    bases = {s: 0.18 + _subject_tint(s) for s in set(subjects.tolist())}
    plane = np.empty((3, size, size))
    images = np.empty((n, size, size, 3), dtype=np.uint8)
    for i in range(n):
        _render(rng, active[i], bases[int(subjects[i])], spec, blobs, grid, plane)
        quantize(plane.transpose(1, 2, 0), out=images[i])
    return Dataset(images, labels, subjects)


# -- augmentation --------------------------------------------------------


def _rotate(planes: np.ndarray, theta_deg: float, flip: bool) -> np.ndarray:
    """[C,H,W] planes rotated about the center, then mirrored left-right
    if `flip`: bilinear sampling, replicated border; a new float [C,H,W]
    array.  The flip reverses the sample columns instead of the result,
    and each tap gathers whole [C,H*W] rows with one `np.take`."""
    c, h, w = planes.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    t = math.radians(theta_deg)
    cos_t, sin_t = math.cos(t), math.sin(t)
    dy = np.arange(h, dtype=np.float64) - cy
    dx = np.arange(w, dtype=np.float64) - cx
    if flip:
        dx = dx[::-1]
    sy = np.clip((cy + dy * cos_t)[:, None] - dx * sin_t, 0.0, h - 1.0).ravel()
    sx = np.clip((cx + dy * sin_t)[:, None] + dx * cos_t, 0.0, w - 1.0).ravel()
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    wy, wx = sy - y0, sx - x0
    row0, row1 = y0 * w, np.minimum(y0 + 1, h - 1) * w
    x1 = np.minimum(x0 + 1, w - 1)
    flat = np.ascontiguousarray(planes).reshape(c, h * w)
    left = 1 - wx
    top = np.take(flat, row0 + x0, axis=1) * left
    top += np.take(flat, row0 + x1, axis=1) * wx
    bot = np.take(flat, row1 + x0, axis=1) * left
    bot += np.take(flat, row1 + x1, axis=1) * wx
    top *= 1 - wy
    bot *= wy
    top += bot
    return top.reshape(c, h, w)


def apply_augment(img: np.ndarray, theta_deg: float, flip: bool,
                  brightness: float, contrast: float, saturation: float) -> np.ndarray:
    """Deterministic augmentation core on a float [H,W,3] image in [0,1]:
    rotation, flip, then brightness, contrast and saturation, clipped to
    [0,1].  The identity draw is exact (an unclipped copy).

    The work runs on one planar [3,H,W] buffer, made by the rotation
    (which folds the flip in) or by a copy, then updated in place; the
    result is an [H,W,3] view of it.  The contrast mean is summed in
    [H,W,3] element order, the order of the image as stored.  Nothing is
    drawn here or kept between calls: `augment` makes the draws."""
    if (theta_deg, flip, brightness, contrast, saturation) == (0.0, False, 1.0, 1.0, 1.0):
        return img.copy()
    planes = img.transpose(2, 0, 1)
    if theta_deg != 0.0:
        out = _rotate(planes, theta_deg, flip)
    else:
        out = (planes[:, :, ::-1] if flip else planes).copy()
    if brightness != 1.0:
        out *= brightness
    if contrast != 1.0:
        mean = np.ascontiguousarray(out.transpose(1, 2, 0)).mean()
        out -= mean
        out *= contrast
        out += mean
    if saturation != 1.0:
        gray = out[0] + out[1]
        gray += out[2]
        gray /= 3
        out -= gray
        out *= saturation
        out += gray
    return np.clip(out, 0.0, 1.0, out=out).transpose(1, 2, 0)


def augment(image: np.ndarray, seed, task: str) -> np.ndarray:
    """Seeded random rotation, horizontal flip, and +-20% color jitter of
    one uint8 [H,W,3] image; returns a new uint8 image.  The jitter runs
    on floats in [0,1], in a planar [3,H,W] buffer (see `apply_augment`),
    quantized back like a generated image.

    Nothing is built once per dataset here: each call seeds its own
    generator with `seed` and draws in a fixed order, the angle, the
    flip, then brightness, contrast and saturation.  AU runs rotate
    within +-45 degrees, expression runs within +-15.
    """
    rng = np.random.default_rng(seed)
    limit = 45.0 if task == "au" else 15.0
    theta = rng.uniform(-limit, limit)
    flip = rng.random() < 0.5
    brightness, contrast, saturation = rng.uniform(0.8, 1.2, 3)
    planes = np.empty((3,) + image.shape[:2])
    np.divide(image.transpose(2, 0, 1), 255.0, out=planes)
    jittered = apply_augment(planes.transpose(1, 2, 0), theta, flip,
                             brightness, contrast, saturation)
    return quantize(jittered, out=np.empty(image.shape, dtype=np.uint8))


# -- selective oversampling ------------------------------------------------


def selective_oversample(labels: np.ndarray, threshold: float,
                         max_duplication: int) -> np.ndarray:
    """Sample indices that duplicate minority-positive samples of the
    [N,L] 0/1 `labels` until each label's positive frequency reaches
    `threshold` (or each positive sample is duplicated `max_duplication`
    times).  `RunConfig.validate` holds the threshold in [0,1] and the
    cap at >= 1.

    Labels are processed in ascending original-frequency order; appended
    duplicates count toward every label they carry.  The input is never
    shrunk: the result is arange(N) followed by the duplicates' indices in
    the order they were appended.
    """
    p = threshold
    n = len(labels)
    dups = []
    counts = labels.sum(axis=0).astype(np.int64)
    total = n
    dup_used = np.zeros(n, dtype=np.int64)
    order = np.argsort(counts, kind="stable").tolist()
    positives = {l: np.flatnonzero(labels[:, l]) for l in order}
    cursor = dict.fromkeys(order, 0)

    for _ in range(max_duplication):
        progressed = False
        for l in order:
            pos = positives[l]
            if len(pos) == 0:
                continue
            while counts[l] < p * total - 1e-12:
                # At least 1: the loop condition keeps p * total above counts[l].
                need = math.ceil((p * total - counts[l]) / (1.0 - p)) if p < 1.0 else math.inf
                appended = 0
                scanned = 0
                while appended < need and scanned < len(pos) * max_duplication:
                    idx = int(pos[cursor[l] % len(pos)])
                    cursor[l] += 1
                    scanned += 1
                    if dup_used[idx] >= max_duplication:
                        continue
                    dup_used[idx] += 1
                    dups.append(idx)
                    counts += labels[idx]
                    total += 1
                    appended += 1
                    progressed = True
                if appended < need:
                    break  # every positive is at the duplication cap
        # A round that appends nothing leaves every label where it was.
        if not progressed:
            break
    return np.concatenate([np.arange(n), np.array(dups, dtype=np.int64)])


# -- folds ------------------------------------------------------------------


def make_folds(subjects: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
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


def write_dataset(out_dir, data: Dataset, digest: str) -> Path:
    """Write the uint8 images as P6 files plus a tab-separated manifest
    whose first line is the `# config_digest=` comment.

    Manifest fields, in order: image path, labels, subject id.  A label
    row of [N,L] labels is written comma-joined 0/1, a class id of [N]
    labels as one integer.
    """
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    lines = [f"# config_digest={digest}"]
    for i in range(len(data)):
        rel = f"images/sample_{i:05d}.ppm"
        (out_dir / rel).write_bytes(encode_color(data.images[i]))
        lab = ",".join(map(str, np.atleast_1d(data.labels[i]).tolist()))
        lines.append(f"{rel}\t{lab}\t{int(data.subjects[i])}")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_dataset(dataset_dir, task: str, count: int, size: int) -> Dataset:
    """Read a manifest directory of size x size color images back as a
    `task` Dataset; the exact inverse of `write_dataset`.

    An au record holds `count` comma-joined 0/1 values (a lone value is a
    1-label vector); a fer record holds one class id in [0, count).  A bad
    field, a record of the wrong length or kind, or a missing or wrongly
    shaped image raises a DataError naming the manifest line.
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
        if task == "au":
            if len(values) != count or any(v not in (0, 1) for v in values):
                raise DataError(f"{where}: want {count} comma-joined 0/1 labels, got {lab!r}")
            labels.append(values)
        else:
            if len(values) != 1 or not 0 <= values[0] < count:
                raise DataError(f"{where}: want one class id in [0,{count}), got {lab!r}")
            labels.append(values[0])
        try:
            images[i] = read_color_image(dataset_dir / rel, size)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    dtype = np.int8 if task == "au" else np.int64
    return Dataset(images, np.array(labels, dtype=dtype), np.array(subjects, dtype=np.int64))
