import numpy as np
import pytest

from anatomesh.evaluate import (
    MANAGEMENT_LABELS,
    ConfusionMatrix,
    EvalError,
    binary_metrics,
    detection_table,
    management_report,
)
from anatomesh.volume import dice


def block(n, on):
    m = np.zeros((n, 1, 1), dtype=bool)
    m.reshape(-1)[:on] = True
    return m


class TestBinaryMetrics:
    def test_hand_counts(self):
        preds = [1, 1, 0, 0, 1, 0]
        truths = [1, 0, 0, 1, 1, 0]
        # tp=2 tn=2 fp=1 fn=1
        acc, sens, spec = binary_metrics(preds, truths, 1)
        assert acc == pytest.approx(4 / 6)
        assert sens == pytest.approx(2 / 3)
        assert spec == pytest.approx(2 / 3)

    def test_no_positives_gives_none_sensitivity(self):
        acc, sens, spec = binary_metrics([0, 0], [0, 0], 1)
        assert acc == 1.0
        assert sens is None
        assert spec == 1.0

    def test_no_negatives_gives_none_specificity(self):
        acc, sens, spec = binary_metrics([1, 0], [1, 1], 1)
        assert sens == 0.5
        assert spec is None

    def test_perfect(self):
        acc, sens, spec = binary_metrics([2, 0, 2], [2, 0, 2], 2)
        assert (acc, sens, spec) == (1.0, 1.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(EvalError, match="mismatch"):
            binary_metrics([1], [1, 0], 1)

    def test_empty_rejected(self):
        with pytest.raises(EvalError, match="empty"):
            binary_metrics([], [], 1)


class TestDetectionTable:
    def _cases(self):
        # class 2: dice 1.0 and 0.5, both detected at cutoff 0.1
        # class 3: dice 0, not detected
        gt = block(8, 4)
        return [
            (gt.copy(), gt.copy(), 2),
            (block(8, 2), gt.copy(), 2),
            (np.zeros((8, 1, 1), dtype=bool), gt.copy(), 3),
        ]

    def test_per_class_hand_counts(self):
        t = detection_table(self._cases(), cutoff=0.1)
        d2, r2, n2 = t.per_class[2]
        assert n2 == 2
        assert d2 == pytest.approx((1.0 + dice(block(8, 2), block(8, 4))) / 2)
        assert r2 == 1.0
        d3, r3, n3 = t.per_class[3]
        assert (d3, r3, n3) == (0.0, 0.0, 1)

    def test_micro_pools_cases(self):
        t = detection_table(self._cases(), cutoff=0.1)
        dices = [dice(p, g) for p, g, _ in self._cases()]
        assert t.micro[0] == pytest.approx(np.mean(dices))
        assert t.micro[1] == pytest.approx(2 / 3)

    def test_macro_unweighted(self):
        t = detection_table(self._cases(), cutoff=0.1)
        d2 = t.per_class[2][0]
        assert t.macro[0] == pytest.approx((d2 + 0.0) / 2)
        assert t.macro[1] == pytest.approx(0.5)

    def test_micro_between_class_extremes(self):
        rng = np.random.default_rng(0)
        cases = []
        for i in range(12):
            gt = rng.random((6, 6, 6)) < 0.3
            gt[0, 0, 0] = True
            pred = gt & (rng.random((6, 6, 6)) < 0.8)
            cases.append((pred, gt, 2 + i % 3))
        t = detection_table(cases)
        per_dice = [v[0] for v in t.per_class.values()]
        assert min(per_dice) - 1e-12 <= t.micro[0] <= max(per_dice) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            detection_table([])

    def test_csv(self, tmp_path):
        t = detection_table(self._cases())
        path = tmp_path / "t.csv"
        t.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "class,mean_dice,detection_rate,n"
        assert lines[-2].startswith("micro,")
        assert lines[-1].startswith("macro,")


class TestManagementReport:
    def test_hand_counts(self):
        preds = ["Surgery", "Surgery", "Monitoring", "Discharge", "Surgery"]
        truths = ["Surgery", "Monitoring", "Monitoring", "Discharge", "Discharge"]
        cm = management_report(preds, truths)
        expect = np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
        assert np.array_equal(cm.counts, expect)
        assert cm.total == 5

    def test_row_percentages_sum_to_100(self):
        preds = ["Surgery", "Monitoring", "Surgery", "Discharge"]
        truths = ["Surgery", "Surgery", "Monitoring", "Discharge"]
        cm = management_report(preds, truths)
        pct = cm.row_percentages()
        sums = np.nansum(pct, axis=1)
        for i in range(3):
            if cm.counts[i].sum():
                assert sums[i] == pytest.approx(100.0)

    def test_empty_row_is_nan_and_na_text(self):
        cm = management_report(["Surgery"], ["Surgery"])
        pct = cm.row_percentages()
        assert np.isnan(pct[1]).all()  # no Monitoring cases
        assert "n/a" in cm.to_text()

    def test_unknown_label_rejected(self):
        with pytest.raises(EvalError, match="unknown"):
            management_report(["Palliative"], ["Surgery"])

    def test_length_mismatch(self):
        with pytest.raises(EvalError, match="mismatch"):
            management_report(["Surgery"], [])

    def test_csv(self, tmp_path):
        cm = management_report(["Surgery"], ["Surgery"])
        path = tmp_path / "cm.csv"
        cm.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "truth," + ",".join(MANAGEMENT_LABELS)
        assert len(lines) == 4

    def test_perfect_diagonal(self):
        labels = list(MANAGEMENT_LABELS) * 3
        cm = management_report(labels, labels)
        assert np.array_equal(cm.counts, np.diag([3, 3, 3]))
        pct = cm.row_percentages()
        np.testing.assert_allclose(np.diag(pct), 100.0)
