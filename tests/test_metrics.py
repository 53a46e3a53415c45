import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plans import synth_spec
from smanet.data import generate_synthetic, load_dataset, write_dataset
from smanet.errors import DataError, ShapeError
from smanet.metrics import (LabelCounts, accuracy, binarize, confusion_matrix,
                            confusion_report, count_binary, f1_scores,
                            metrics_report)


def counts(tp, fp, fn, tn):
    return LabelCounts(*(np.array([v]) for v in (tp, fp, fn, tn)))


class TestF1:
    def test_balanced_half(self):
        p, r, f1, macro = f1_scores(counts(1, 1, 1, 0))
        assert p[0] == 0.5 and r[0] == 0.5 and f1[0] == 0.5

    def test_perfect(self):
        _, _, f1, _ = f1_scores(counts(5, 0, 0, 2))
        assert f1[0] == 1.0

    def test_degenerate_zero_rule(self):
        p, r, f1, _ = f1_scores(counts(0, 0, 5, 2))
        assert p[0] == 0.0 and r[0] == 0.0 and f1[0] == 0.0

    def test_macro_is_unweighted_mean(self):
        lc = LabelCounts(np.array([1, 5]), np.array([1, 0]), np.array([1, 0]), np.array([0, 2]))
        _, _, f1, macro = f1_scores(lc)
        assert macro["f1"] == pytest.approx((f1[0] + f1[1]) / 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_harmonic_mean_bounds(self, tp, fp, fn):
        p, r, f1, _ = f1_scores(counts(tp, fp, fn, 1))
        assert 0.0 <= f1[0] <= 1.0
        if tp == 0:
            assert f1[0] == 0.0
        else:
            lo, hi = min(p[0], r[0]), 2 * min(p[0], r[0])
            assert lo - 1e-12 <= f1[0] <= hi + 1e-12


class TestBinarize:
    def test_zero_is_negative(self):
        assert not binarize(np.array([0.0]))[0]

    def test_positive_logit(self):
        assert binarize(np.array([3.2]))[0]


class TestCountsAndConfusion:
    def test_count_binary_balances(self):
        preds = np.array([[True, False], [True, True]])
        truth = np.array([[True, True], [False, False]])
        lc = count_binary(preds, truth)
        assert np.all(lc.tp + lc.fp + lc.fn + lc.tn == 2)

    def test_count_shape_mismatch(self):
        with pytest.raises(ShapeError):
            count_binary(np.ones((2, 2), bool), np.ones((3, 2), bool))

    def test_perfect_predictions_are_diagonal(self):
        truth = np.array([0, 1, 2, 1])
        m = confusion_matrix(truth, truth, 3)
        assert np.array_equal(m, np.diag([1, 2, 1]))

    def test_total_and_trace_accuracy(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 50)
        preds = rng.integers(0, 4, 50)
        m = confusion_matrix(preds, truth, 4)
        assert m.sum() == 50
        assert np.trace(m) / 50 == pytest.approx(accuracy(preds, truth))

    def test_row_sums_are_truth_counts(self):
        truth = np.array([0, 0, 1, 2, 2, 2])
        preds = np.array([1, 0, 1, 0, 2, 2])
        m = confusion_matrix(preds, truth, 3)
        assert np.array_equal(m.sum(axis=1), [2, 1, 3])

    def test_relabeling_permutation_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 4, 40)
        preds = rng.integers(0, 4, 40)
        perm = np.array([2, 0, 3, 1])
        m = confusion_matrix(preds, truth, 4)
        m2 = confusion_matrix(perm[preds], perm[truth], 4)
        inv = np.argsort(perm)
        assert np.array_equal(m2[np.ix_(perm, perm)], m)

    def test_out_of_range_rejected(self, tmp_path):
        # confusion_matrix takes class ids unchecked: predictions come from
        # argmax, and the manifest reader refuses a truth id outside [0,k).
        write_dataset(tmp_path, generate_synthetic(20, 1, synth_spec(task="fer")), "abc123")
        rel, _, subject = (tmp_path / "manifest.tsv").read_text().splitlines()[1].split("\t")
        (tmp_path / "manifest.tsv").write_text(f"{rel}\t4\t{subject}\n")
        with pytest.raises(DataError, match=r"want one class id in \[0,4\)"):
            load_dataset(tmp_path, "fer", 4, 64)


class TestReports:
    def test_metrics_report_golden(self):
        lc = LabelCounts(np.array([1, 5]), np.array([1, 0]), np.array([1, 0]), np.array([7, 5]))
        got = metrics_report(lc)
        want = (
            "label,precision,recall,f1\n"
            "label_00,0.500000,0.500000,0.500000\n"
            "label_01,1.000000,1.000000,1.000000\n"
            "macro,0.750000,0.750000,0.750000\n"
        )
        assert got == want

    def test_confusion_report_golden(self):
        m = np.array([[3, 0], [1, 2]])
        assert confusion_report(m) == "3 0\n1 2\n"
