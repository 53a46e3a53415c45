import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smanet.data import (DEFAULT_LABEL_PAIRS, DEFAULT_LABEL_RATES, ResampleConfig,
                         Sample, SyntheticSpec, apply_augment, augment,
                         generate_synthetic, label_centers, load_dataset,
                         make_folds, rotate_bilinear, sample_labels,
                         selective_oversample, write_dataset)
from smanet.errors import ConfigError, DataError
from smanet.ppm import decode_image, encode_color, encode_heatmap


class TestGenerator:
    def test_same_seed_same_bytes(self):
        a = generate_synthetic(7, 12)
        b = generate_synthetic(7, 12)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.labels, sb.labels)
            assert sa.subject_id == sb.subject_id

    def test_different_seed_differs(self):
        a = generate_synthetic(1, 4)
        b = generate_synthetic(2, 4)
        assert not all(np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_marginals_within_tolerance(self):
        spec = SyntheticSpec()
        rng = np.random.default_rng(0)
        labels = sample_labels(rng, 10_000, spec)
        freq = labels.mean(axis=0)
        assert np.all(np.abs(freq - np.array(DEFAULT_LABEL_RATES)) <= 0.02)

    def test_pair_cooccurrence(self):
        spec = SyntheticSpec()
        labels = sample_labels(np.random.default_rng(1), 20_000, spec)
        for a, b, q in DEFAULT_LABEL_PAIRS:
            got = labels[labels[:, a] == 1, b].mean()
            assert abs(got - q) < 0.03

    def test_infeasible_pair_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(rates=(0.4, 0.1) + (0.1,) * 10, pairs=((0, 1, 0.9),))

    def test_zero_rates_give_blob_free_backgrounds(self):
        spec = SyntheticSpec(rates=(0.0,) * 12, pairs=(), distractors=0, noise=0.0)
        samples = generate_synthetic(3, 5, spec)
        for s in samples:
            assert np.all(s.labels == 0)
            assert s.image.max() < 0.30  # base gray + subject tint only

    def test_positive_label_renders_blob(self):
        spec = SyntheticSpec(rates=(1.0,) + (0.0,) * 11, pairs=(), distractors=0, noise=0.0)
        s = generate_synthetic(4, 1, spec)[0]
        cy, cx = label_centers(12, 64)[0]
        assert s.image[int(round(cy)), int(round(cx))].max() > 0.6

    def test_multiclass_mode(self):
        spec = SyntheticSpec(mode="multi_class")
        samples = generate_synthetic(5, 40, spec)
        classes = {s.labels for s in samples}
        assert classes <= set(range(6)) and len(classes) > 1

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0, 0)

    def test_subject_pool_respected(self):
        spec = SyntheticSpec(subject_pool=(4, 9))
        samples = generate_synthetic(6, 30, spec)
        assert {s.subject_id for s in samples} <= {4, 9}


class TestAugment:
    def test_identity_draw_is_exact(self):
        img = np.random.default_rng(2).random((16, 16, 3))
        out = apply_augment(img, 0.0, False, 1.0, 1.0, 1.0)
        assert np.array_equal(out, img)

    def test_double_flip_restores(self):
        img = np.random.default_rng(3).random((8, 8, 3))
        once = apply_augment(img, 0.0, True, 1.0, 1.0, 1.0)
        twice = apply_augment(once, 0.0, True, 1.0, 1.0, 1.0)
        assert np.array_equal(twice, img)

    def test_rotation_roundtrip_error_small(self):
        spec = SyntheticSpec(noise=0.0, distractors=0,
                             rates=(1.0, 1.0) + (0.0,) * 10, pairs=())
        img = generate_synthetic(8, 1, spec)[0].image
        fwd = rotate_bilinear(img, 30.0)
        back = rotate_bilinear(fwd, -30.0)
        inner = (slice(8, -8), slice(8, -8))
        assert np.abs(back[inner] - img[inner]).mean() < 0.02

    def test_labels_and_range_preserved(self):
        s = generate_synthetic(9, 1)[0]
        out = augment(s, 123, "au")
        assert out.labels is s.labels and out.subject_id == s.subject_id
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_seeded_determinism(self):
        s = generate_synthetic(10, 1)[0]
        a = augment(s, (1, 2), "fer")
        b = augment(s, (1, 2), "fer")
        assert np.array_equal(a.image, b.image)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            augment(generate_synthetic(11, 1)[0], 0, "video")


def _label_matrix(samples):
    return np.stack([s.labels for s in samples])


class TestOversample:
    def _dataset(self, n=200, rare_rate=0.05, seed=0):
        rng = np.random.default_rng(seed)
        labels = (rng.random((n, 3)) < np.array([0.5, 0.3, rare_rate])).astype(np.int8)
        labels[0, 2] = 1  # ensure at least one positive
        return [Sample(image=np.zeros((2, 2, 3)), labels=labels[i], subject_id=i % 5)
                for i in range(n)]

    def test_zero_threshold_is_noop(self):
        data = self._dataset()
        out = selective_oversample(data, ResampleConfig(0.0, 20))
        assert out == data

    def test_rare_label_reaches_threshold(self):
        data = self._dataset()
        out = selective_oversample(data, ResampleConfig(0.3, 20))
        freq = _label_matrix(out).mean(axis=0)
        assert freq[2] >= 0.3

    def test_already_balanced_untouched(self):
        rng = np.random.default_rng(1)
        labels = (rng.random((50, 2)) < 0.6).astype(np.int8)
        labels[:, 1] |= 1 - labels[:, 0]
        data = [Sample(np.zeros((2, 2, 3)), labels[i], 0) for i in range(50)]
        freq = labels.mean(axis=0)
        out = selective_oversample(data, ResampleConfig(float(freq.min()) - 0.01, 20))
        assert out == data

    def test_output_is_multiset_superset(self):
        data = self._dataset()
        out = selective_oversample(data, ResampleConfig(0.35, 20))
        ids = [id(s) for s in data]
        out_ids = [id(s) for s in out]
        assert out_ids[: len(data)] == ids
        assert len(out) >= len(data)
        for s in out:
            assert id(s) in set(ids)

    def test_majority_absolute_counts_preserved(self):
        data = self._dataset()
        before = _label_matrix(data).sum(axis=0)
        out = selective_oversample(data, ResampleConfig(0.3, 20))
        after = _label_matrix(out).sum(axis=0)
        assert np.all(after >= before)

    def test_duplication_cap_respected(self):
        data = self._dataset(n=50, rare_rate=0.02)
        out = selective_oversample(data, ResampleConfig(0.9, 3))
        from collections import Counter

        copies = Counter(id(s) for s in out)
        assert max(copies.values()) <= 1 + 3

    def test_deterministic(self):
        data = self._dataset()
        a = selective_oversample(data, ResampleConfig(0.3, 20))
        b = selective_oversample(data, ResampleConfig(0.3, 20))
        assert [id(s) for s in a] == [id(s) for s in b]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            selective_oversample([], ResampleConfig(0.3, 20))


class TestPpm:
    def test_white_pixel(self):
        data = b"P6\n1 1\n255\n\xff\xff\xff"
        img = decode_image(data)
        assert np.array_equal(img, np.ones((1, 1, 3)))

    def test_comment_in_header(self):
        data = b"P6\n# hello\n1 1\n255\n\x00\x80\xff"
        img = decode_image(data)
        assert img.shape == (1, 1, 3)

    def test_constant_heatmap_encodes_to_zeros(self):
        blob = encode_heatmap(np.full((3, 4), 0.5))
        img = decode_image(blob)
        assert np.array_equal(img, np.zeros((3, 4)))

    def test_color_roundtrip_quantization_bound(self):
        img = np.random.default_rng(4).random((5, 7, 3))
        back = decode_image(encode_color(img))
        assert np.abs(back - img).max() <= 1.0 / 255.0 + 1e-12

    def test_heatmap_roundtrip_minmax(self):
        m = np.random.default_rng(5).random((6, 6))
        back = decode_image(encode_heatmap(m))
        normalized = (m - m.min()) / (m.max() - m.min())
        assert np.abs(back - normalized).max() <= 1.0 / 255.0 + 1e-12

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
        return [Sample(np.zeros((2, 2, 3)), np.zeros(2, dtype=np.int8), s)
                for s in range(n_subjects) for _ in range(per)]

    def test_nine_subjects_three_folds(self):
        folds = make_folds(self._by_subject(9), 3, seed=0)
        subj = [{self._by_subject(9)[i].subject_id for i in f} for f in folds]
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
        shuffled = [data[i] for i in rng.permutation(len(data))]
        groups_a = [frozenset(data[i].subject_id for i in f)
                    for f in make_folds(data, 4, seed=3)]
        groups_b = [frozenset(shuffled[i].subject_id for i in f)
                    for f in make_folds(shuffled, 4, seed=3)]
        assert groups_a == groups_b

    def test_too_few_subjects(self):
        with pytest.raises(ConfigError):
            make_folds(self._by_subject(2), 3)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        samples = generate_synthetic(12, 6)
        write_dataset(tmp_path / "ds", samples, "multi_label", digest="abc123")
        loaded = load_dataset(tmp_path / "ds", "multi_label", 12, 64)
        assert len(loaded) == 6
        for a, b in zip(samples, loaded):
            assert np.array_equal(a.labels, b.labels)
            assert a.subject_id == b.subject_id
            assert np.abs(a.image - b.image).max() <= 1.0 / 255.0 + 1e-12

    def test_multiclass_roundtrip(self, tmp_path):
        samples = generate_synthetic(13, 4, SyntheticSpec(mode="multi_class"))
        write_dataset(tmp_path / "ds", samples, "multi_class")
        loaded = load_dataset(tmp_path / "ds", "multi_class", 6, 64)
        assert [s.labels for s in loaded] == [s.labels for s in samples]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path, "multi_label", 12, 64)

    def test_malformed_record(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "manifest.tsv").write_text("only-one-field\n")
        with pytest.raises(DataError):
            load_dataset(d, "multi_label", 12, 64)

    def test_one_label_roundtrip(self, tmp_path):
        spec = SyntheticSpec(num_labels=1, rates=(0.5,), pairs=())
        samples = generate_synthetic(14, 6, spec)
        write_dataset(tmp_path / "ds", samples, "multi_label")
        loaded = load_dataset(tmp_path / "ds", "multi_label", 1, 64)
        for a, b in zip(samples, loaded):
            assert b.labels.shape == (1,)
            assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("mode,count,record", [
        ("multi_label", 3, "1,0,1\tx7"),        # non-integer subject
        ("multi_label", 3, "1,a,1\t7"),         # non-integer label
        ("multi_label", 3, "1,0\t7"),           # too few labels
        ("multi_label", 3, "1,0,2\t7"),         # not a 0/1 label
        ("multi_label", 3, "1\t7"),             # a lone class id
        ("multi_class", 3, "1,0,1\t7"),         # a label vector
        ("multi_class", 3, "3\t7"),             # class id out of range
        ("multi_class", 3, "-1\t7"),
    ])
    def test_bad_record_names_its_line(self, tmp_path, mode, count, record):
        write_dataset(tmp_path, generate_synthetic(15, 1), "multi_label")
        good = (tmp_path / "manifest.tsv").read_text().splitlines()[0]
        rel = good.split("\t")[0]
        (tmp_path / "manifest.tsv").write_text(f"# header\n{rel}\t{record}\n")
        with pytest.raises(DataError, match=r"manifest\.tsv:2: "):
            load_dataset(tmp_path, mode, count, 64)

    def test_missing_image_names_its_line(self, tmp_path):
        write_dataset(tmp_path, generate_synthetic(16, 2, SyntheticSpec(mode="multi_class")),
                      "multi_class")
        (tmp_path / "images" / "sample_00001.ppm").unlink()
        with pytest.raises(DataError, match=r"manifest\.tsv:2: image .* not found"):
            load_dataset(tmp_path, "multi_class", 6, 64)
