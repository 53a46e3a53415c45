import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plans import synth_spec
from smanet import data as D
from smanet.data import (DEFAULT_LABEL_PAIRS, DEFAULT_LABEL_RATES,
                         apply_augment, augment,
                         generate_synthetic, label_centers, load_dataset,
                         make_folds, sample_labels,
                         selective_oversample, write_dataset)
from smanet.config import RunConfig
from smanet.errors import ConfigError, DataError
from smanet.ppm import decode_image, encode_color, encode_heatmap, quantize
from smanet.train import synthetic_spec


def sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestGenerator:
    def test_same_seed_same_bytes(self):
        a = generate_synthetic(7, 12, synth_spec())
        b = generate_synthetic(7, 12, synth_spec())
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.subjects, b.subjects)

    # sha256 of (images, labels, subjects).  The label and subject pins
    # were recorded when samples were still objects, the image pins when
    # images became uint8: the draws and their dtypes must never change.
    PINNED = [
        ((7, 12, synth_spec()), (
            "8d398732db877cd0f99e042cd2f0fbb73075406f64c5ed4838a1da037720b785",
            "84fd50ee25cf492089108d327ba19a3bed52ed619242f619d088f8cf30102deb",
            "f53a073eff3f800bc989378e46230ef28bb906209ce7a6787abece084aa94cf1")),
        ((13, 6, synth_spec(task="fer")), (
            "6c0ae7a8e0539eb57346b2d5d50c5fa0c42a22bf5fb3f8bf741c983f8497232a",
            "8ed4b98f5251e93f36c486f9a21c6e3a2457d2336321d4518d9c3bfe852120b7",
            "8d64cd0f46205b21cc85b1e2ec7525015d9461bd41947c9d8a32e663a02a8add")),
        # Recorded before the renderer moved to planar buffers.
        ((19, 2, synth_spec(image_size=256)), (
            "fc76a2c4226cd3724820c6576be858a4156f22403ed6913ef3c850b8540bd820",
            "4c40d5573dd11ed41983ecfc8904aaaa7658f7aa8b92177fd874a6a1b8f05bf1",
            "493630ab4b4b7f42305ac0ec0a28cc67967dc24e9fba10b1c7b058f028a35b45")),
        ((23, 6, synth_spec(task="fer", image_size=32)), (
            "08c42f896194b30dc7ea7daa4b786539225ea19535bed2c5d76bbe36c4ebf104",
            "5febe92231992a51a7c653c8f53a309679dab2a163981b9f55eb1e3263793620",
            "d360633c719945f10e6b57fb565b65aca6537c23676aa60e134100a353958fd7")),
    ]

    @pytest.mark.parametrize("args,digests", PINNED,
                             ids=["multi_label", "multi_class", "multi_label_256px",
                                  "multi_class_32px"])
    def test_pinned_bytes(self, args, digests):
        data = generate_synthetic(*args)
        assert data.images.dtype == np.uint8 and data.subjects.dtype == np.int64
        assert data.labels.dtype == (np.int8 if data.labels.ndim == 2 else np.int64)
        assert (sha256(data.images), sha256(data.labels), sha256(data.subjects)) == digests

    def test_different_seed_differs(self):
        a = generate_synthetic(1, 4, synth_spec())
        b = generate_synthetic(2, 4, synth_spec())
        assert not all(np.array_equal(x, y) for x, y in zip(a.images, b.images))

    def test_marginals_within_tolerance(self):
        spec = synth_spec()
        rng = np.random.default_rng(0)
        labels = sample_labels(rng, 10_000, spec)
        freq = labels.mean(axis=0)
        assert np.all(np.abs(freq - np.array(DEFAULT_LABEL_RATES)) <= 0.02)

    def test_pair_cooccurrence(self):
        spec = synth_spec()
        labels = sample_labels(np.random.default_rng(1), 20_000, spec)
        for a, b, q in DEFAULT_LABEL_PAIRS:
            got = labels[labels[:, a] == 1, b].mean()
            assert abs(got - q) < 0.03

    def test_infeasible_pair_rejected(self):
        # SyntheticSpec checks nothing: every spec a run builds has one rate
        # per label and disjoint pairs whose conditional rates lie in [0,1].
        for num_labels in range(1, 41):
            spec = synthetic_spec(RunConfig(num_labels=num_labels).validate(), ())
            assert len(spec.rates) == num_labels
            ends = [i for a, b, _ in spec.pairs for i in (a, b)]
            assert len(ends) == len(set(ends))
            for a, b, q in spec.pairs:
                cond = (spec.rates[b] - q * spec.rates[a]) / (1.0 - spec.rates[a])
                assert 0.0 <= q <= 1.0 and 0.0 <= cond <= 1.0

    def test_zero_rates_give_blob_free_backgrounds(self, monkeypatch):
        monkeypatch.setattr(D, "DISTRACTORS", 0)
        monkeypatch.setattr(D, "NOISE", 0.0)
        data = generate_synthetic(3, 5, synth_spec(rates=(0.0,) * 12, pairs=()))
        assert data.images.shape == (5, 64, 64, 3) and data.labels.shape == (5, 12)
        assert np.all(data.labels == 0)
        assert data.images.max() < 0.30 * 255  # base gray + subject tint only

    def test_positive_label_renders_blob(self, monkeypatch):
        monkeypatch.setattr(D, "DISTRACTORS", 0)
        monkeypatch.setattr(D, "NOISE", 0.0)
        spec = synth_spec(rates=(1.0,) + (0.0,) * 11, pairs=())
        image = generate_synthetic(4, 1, spec).images[0]
        cy, cx = label_centers(12, 64)[0]
        assert image[int(round(cy)), int(round(cx))].max() > 0.6 * 255

    def test_multiclass_mode(self):
        spec = synth_spec(task="fer")
        data = generate_synthetic(5, 40, spec)
        assert data.labels.shape == (40,)
        classes = set(data.labels.tolist())
        assert classes <= set(range(6)) and len(classes) > 1

    def test_rejects_nonpositive_count(self):
        for field in ("n_train", "n_val"):
            with pytest.raises(ConfigError, match=field):
                RunConfig(**{field: 0}).validate()

    def test_subject_pool_respected(self):
        spec = synth_spec(subject_pool=(4, 9))
        data = generate_synthetic(6, 30, spec)
        assert len(data) == 30
        assert set(data.subjects.tolist()) <= {4, 9}

    def test_transient_memory_does_not_grow_with_n(self):
        """Images are rendered one at a time: the peak beyond the output
        is the same for 8 images as for 64."""
        def transient(n: int) -> int:
            tracemalloc.start()
            try:
                data = generate_synthetic(5, n, synth_spec())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - data.images.nbytes - data.labels.nbytes - data.subjects.nbytes

        generate_synthetic(5, 1, synth_spec())  # first-call allocations
        small, large = transient(8), transient(64)
        # one 64 px float image is 96 KiB; the per-sample label bookkeeping
        # of 56 more samples is a few KiB
        assert abs(large - small) < 32 * 1024, (small, large)

    def test_take_keeps_the_arrays_aligned(self):
        data = generate_synthetic(17, 5, synth_spec())
        idx = np.array([3, 0, 3])
        part = data.take(idx)
        assert len(part) == 3
        assert np.array_equal(part.images, data.images[idx])
        assert np.array_equal(part.labels, data.labels[idx])
        assert np.array_equal(part.subjects, data.subjects[idx])


class TestAugment:
    def test_identity_draw_is_exact(self):
        img = np.random.default_rng(2).random((16, 16, 3))
        out = apply_augment(img, 0.0, False, 1.0, 1.0, 1.0)
        assert np.array_equal(out, img)

    def test_flip_alone_mirrors_exactly(self):
        img = np.random.default_rng(4).random((8, 10, 3))
        out = apply_augment(img, 0.0, True, 1.0, 1.0, 1.0)
        assert out.tobytes() == img[:, ::-1].tobytes()

    def test_double_flip_restores(self):
        img = np.random.default_rng(3).random((8, 8, 3))
        once = apply_augment(img, 0.0, True, 1.0, 1.0, 1.0)
        twice = apply_augment(once, 0.0, True, 1.0, 1.0, 1.0)
        assert np.array_equal(twice, img)

    def test_rotation_roundtrip_error_small(self, monkeypatch):
        monkeypatch.setattr(D, "DISTRACTORS", 0)
        monkeypatch.setattr(D, "NOISE", 0.0)
        spec = synth_spec(rates=(1.0, 1.0) + (0.0,) * 10, pairs=())
        img = generate_synthetic(8, 1, spec).images[0]
        fwd = apply_augment(img / 255.0, 30.0, False, 1.0, 1.0, 1.0)
        back = apply_augment(fwd, -30.0, False, 1.0, 1.0, 1.0)
        inner = (slice(8, -8), slice(8, -8))
        assert np.abs(back[inner] - img[inner] / 255.0).mean() < 0.02

    def test_range_preserved(self):
        img = generate_synthetic(9, 1, synth_spec()).images[0]
        out = augment(img, 123, "au")
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_uint8_in_uint8_out(self):
        img = np.random.default_rng(6).integers(0, 256, (12, 10, 3), dtype=np.uint8)
        out = augment(img, (4, 5), "fer")
        assert out.dtype == np.uint8 and out.shape == img.shape
        # the identity draw quantizes back to the input exactly
        assert np.array_equal(quantize(apply_augment(img / 255.0, 0.0, False, 1.0, 1.0, 1.0)), img)

    # sha256 of the stacked outputs for 8 images x 4 epochs, recorded
    # before augmentation moved to planar buffers.  Every draw rotates,
    # and 17 (au) and 18 (fer) of the 32 draws flip.
    PINNED = [("au", 31, "85922a8ed09e9bc55f3186085aab51c2a438b2a89c25c4389601b9e4a3635f68"),
              ("fer", 37, "3926bee1e5f7a1fa600e0c4f5876a737343d0edf4a93cf982af29333af433a7b")]

    @pytest.mark.parametrize("task,seed,digest", PINNED, ids=["au", "fer"])
    def test_pinned_bytes(self, task, seed, digest):
        images = generate_synthetic(seed, 8, synth_spec(task=task)).images
        outs = np.stack([augment(img, (seed, epoch, i), task)
                         for epoch in range(4) for i, img in enumerate(images)])
        assert outs.dtype == np.uint8 and outs.shape == (32, 64, 64, 3)
        assert sha256(outs) == digest

    def test_seeded_determinism(self):
        img = generate_synthetic(10, 1, synth_spec()).images[0]
        a = augment(img, (1, 2), "fer")
        b = augment(img, (1, 2), "fer")
        assert np.array_equal(a, b)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="task"):
            RunConfig(task="video").validate()


class TestOversample:
    def _labels(self, n=200, rare_rate=0.05, seed=0):
        rng = np.random.default_rng(seed)
        labels = (rng.random((n, 3)) < np.array([0.5, 0.3, rare_rate])).astype(np.int8)
        labels[0, 2] = 1  # ensure at least one positive
        return labels

    def test_zero_threshold_is_noop(self):
        labels = self._labels()
        out = selective_oversample(labels, 0.0, 20)
        assert np.array_equal(out, np.arange(len(labels)))

    def test_rare_label_reaches_threshold(self):
        labels = self._labels()
        out = selective_oversample(labels, 0.3, 20)
        freq = labels[out].mean(axis=0)
        assert freq[2] >= 0.3

    def test_already_balanced_untouched(self):
        rng = np.random.default_rng(1)
        labels = (rng.random((50, 2)) < 0.6).astype(np.int8)
        labels[:, 1] |= 1 - labels[:, 0]
        freq = labels.mean(axis=0)
        out = selective_oversample(labels, float(freq.min()) - 0.01, 20)
        assert np.array_equal(out, np.arange(50))

    def test_output_starts_with_every_index(self):
        labels = self._labels()
        out = selective_oversample(labels, 0.35, 20)
        assert np.array_equal(out[: len(labels)], np.arange(len(labels)))
        assert len(out) > len(labels)
        assert out.min() >= 0 and out.max() < len(labels)

    def test_duplicate_order_pinned(self):
        # Recorded when the oversampler still copied sample objects.
        out = selective_oversample(self._labels(n=40), 0.3, 20)
        assert out[40:].tolist() == [0, 3, 6, 30, 37, 0, 3, 6, 30, 37, 0, 4, 15, 18, 19,
                                     20, 21, 29, 0, 3]

    def test_majority_absolute_counts_preserved(self):
        labels = self._labels()
        before = labels.sum(axis=0)
        out = selective_oversample(labels, 0.3, 20)
        after = labels[out].sum(axis=0)
        assert np.all(after >= before)

    def test_duplication_cap_respected(self):
        labels = self._labels(n=50, rare_rate=0.02)
        out = selective_oversample(labels, 0.9, 3)
        assert np.bincount(out).max() <= 1 + 3

    @pytest.mark.parametrize("seed", range(3))
    def test_higher_threshold_never_duplicates_less(self, seed):
        labels = self._labels(n=40, seed=seed)
        dups = [len(selective_oversample(labels, p, 3)) - 40 for p in (0.9, 0.99, 1.0)]
        assert dups == sorted(dups) and dups[0] > 0, dups

    def test_full_threshold_duplicates_every_positive_up_to_the_cap(self):
        # No duplicate brings a frequency to 1, so p = 1 stops at the cap.
        labels = np.zeros((10, 2), dtype=np.int8)
        labels[0, 0] = 1
        labels[:5, 1] = 1
        out = selective_oversample(labels, 1.0, 3)
        assert np.bincount(out[10:], minlength=10).tolist() == [3] * 5 + [0] * 5

    def test_deterministic(self):
        labels = self._labels()
        a = selective_oversample(labels, 0.3, 20)
        b = selective_oversample(labels, 0.3, 20)
        assert np.array_equal(a, b)

    # selective_oversample checks nothing: these pin that its inputs are
    # refused where they enter, by the manifest reader and by validate.
    def test_empty_rejected(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("# header\n")
        with pytest.raises(DataError, match="empty manifest"):
            load_dataset(tmp_path, "au", 12, 64)

    def test_class_ids_rejected(self, tmp_path):
        write_dataset(tmp_path, generate_synthetic(17, 4, synth_spec(task="fer")), "abc123")
        with pytest.raises(DataError, match="want 12 comma-joined 0/1 labels"):
            load_dataset(tmp_path, "au", 12, 64)

    @pytest.mark.parametrize("threshold,max_duplication", [(-0.1, 20), (1.5, 20), (0.3, 0)])
    def test_out_of_range_settings_rejected(self, threshold, max_duplication):
        with pytest.raises(ConfigError):
            RunConfig(resample_p=threshold, resample_max_duplication=max_duplication).validate()


class TestPpm:
    def test_white_pixel(self):
        data = b"P6\n1 1\n255\n\xff\xff\xff"
        img = decode_image(data)
        assert img.dtype == np.uint8 and np.array_equal(img, np.full((1, 1, 3), 255))

    def test_comment_in_header(self):
        data = b"P6\n# hello\n1 1\n255\n\x00\x80\xff"
        img = decode_image(data)
        assert img.shape == (1, 1, 3)

    def test_constant_heatmap_encodes_to_zeros(self):
        blob = encode_heatmap(np.full((3, 4), 0.5))
        img = decode_image(blob)
        assert img.dtype == np.uint8 and np.array_equal(img, np.zeros((3, 4)))

    def test_color_roundtrip_quantization_bound(self):
        img = np.random.default_rng(4).random((5, 7, 3))
        back = decode_image(encode_color(quantize(img)))
        assert back.dtype == np.uint8 and np.array_equal(back, quantize(img))
        assert np.abs(back - img * 255.0).max() <= 0.5

    def test_color_refuses_float_images(self):
        with pytest.raises(DataError, match="uint8"):
            encode_color(np.zeros((2, 2, 3)))

    def test_heatmap_roundtrip_minmax(self):
        m = np.random.default_rng(5).random((6, 6))
        back = decode_image(encode_heatmap(m))
        normalized = (m - m.min()) / (m.max() - m.min())
        assert back.dtype == np.uint8 and np.abs(back - normalized * 255.0).max() <= 0.5

    def test_bad_magic(self):
        with pytest.raises(DataError):
            decode_image(b"P3\n1 1\n255\n0 0 0")

    def test_truncated_payload(self):
        with pytest.raises(DataError):
            decode_image(b"P6\n2 2\n255\n\x00\x00\x00")

    def test_wrong_maxval(self):
        with pytest.raises(DataError):
            decode_image(b"P5\n1 1\n65535\n\x00\x00")


class TestFolds:
    def _by_subject(self, n_subjects, per=4):
        return np.repeat(np.arange(n_subjects), per)

    def test_nine_subjects_three_folds(self):
        subjects = self._by_subject(9)
        folds = make_folds(subjects, 3, seed=0)
        subj = [set(subjects[f].tolist()) for f in folds]
        assert all(len(s) == 3 for s in subj)
        assert subj[0] | subj[1] | subj[2] == set(range(9))
        assert not (subj[0] & subj[1] or subj[0] & subj[2] or subj[1] & subj[2])

    def test_union_is_everything(self):
        data = self._by_subject(7)
        folds = make_folds(data, 3, seed=1)
        assert sorted(i for f in folds for i in f) == list(range(len(data)))

    def test_shuffled_input_same_subject_groups(self):
        data = self._by_subject(8)
        rng = np.random.default_rng(2)
        shuffled = data[rng.permutation(len(data))]
        groups_a = [frozenset(data[f].tolist()) for f in make_folds(data, 4, seed=3)]
        groups_b = [frozenset(shuffled[f].tolist()) for f in make_folds(shuffled, 4, seed=3)]
        assert groups_a == groups_b

    def test_too_few_subjects(self):
        with pytest.raises(ConfigError):
            make_folds(self._by_subject(2), 3, seed=0)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        data = generate_synthetic(12, 6, synth_spec())
        write_dataset(tmp_path / "ds", data, digest="abc123")
        loaded = load_dataset(tmp_path / "ds", "au", 12, 64)
        assert len(loaded) == 6
        assert loaded.labels.dtype == np.int8 and loaded.subjects.dtype == np.int64
        assert np.array_equal(data.labels, loaded.labels)
        assert np.array_equal(data.subjects, loaded.subjects)
        assert loaded.images.dtype == np.uint8 and np.array_equal(data.images, loaded.images)

    def test_multiclass_roundtrip(self, tmp_path):
        data = generate_synthetic(13, 4, synth_spec(task="fer"))
        write_dataset(tmp_path / "ds", data, "abc123")
        loaded = load_dataset(tmp_path / "ds", "fer", 6, 64)
        assert loaded.labels.dtype == np.int64
        assert loaded.labels.tolist() == data.labels.tolist()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path, "au", 12, 64)

    def test_malformed_record(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "manifest.tsv").write_text("only-one-field\n")
        with pytest.raises(DataError):
            load_dataset(d, "au", 12, 64)

    def test_one_label_roundtrip(self, tmp_path):
        spec = synth_spec(num_labels=1, rates=(0.5,), pairs=())
        data = generate_synthetic(14, 6, spec)
        write_dataset(tmp_path / "ds", data, "abc123")
        loaded = load_dataset(tmp_path / "ds", "au", 1, 64)
        assert loaded.labels.shape == (6, 1)
        assert np.array_equal(data.labels, loaded.labels)

    # The ids name the label kind of each task's records.
    @pytest.mark.parametrize("task,count,record", [
        ("au", 3, "1,0,1\tx7"),        # non-integer subject
        ("au", 3, "1,a,1\t7"),         # non-integer label
        ("au", 3, "1,0\t7"),           # too few labels
        ("au", 3, "1,0,2\t7"),         # not a 0/1 label
        ("au", 3, "1\t7"),             # a lone class id
        ("fer", 3, "1,0,1\t7"),        # a label vector
        ("fer", 3, "3\t7"),            # class id out of range
        ("fer", 3, "-1\t7"),
    ], ids=lambda v: {"au": "multi_label", "fer": "multi_class"}.get(v) if isinstance(v, str) else None)
    def test_bad_record_names_its_line(self, tmp_path, task, count, record):
        write_dataset(tmp_path, generate_synthetic(15, 1, synth_spec()), "abc123")
        good = (tmp_path / "manifest.tsv").read_text().splitlines()[1]
        rel = good.split("\t")[0]
        (tmp_path / "manifest.tsv").write_text(f"# header\n{rel}\t{record}\n")
        with pytest.raises(DataError, match=r"manifest\.tsv:2: "):
            load_dataset(tmp_path, task, count, 64)

    def test_missing_image_names_its_line(self, tmp_path):
        write_dataset(tmp_path, generate_synthetic(16, 2, synth_spec(task="fer")), "abc123")
        (tmp_path / "images" / "sample_00001.ppm").unlink()
        # line 1 is the digest comment, so sample 1 is on line 3
        with pytest.raises(DataError, match=r"manifest\.tsv:3: image .* not found"):
            load_dataset(tmp_path, "fer", 6, 64)
