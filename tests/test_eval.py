import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anatomesh import evaluate
from anatomesh.config import load_config
from anatomesh.evaluate import (
    DEFAULT_CLASS,
    LABEL_TO_CLASS,
    MANAGEMENT_LABELS,
    MASS_LABELS,
    ConfusionMatrix,
    EvalError,
    binary_metrics,
    classify_pv,
    detection_table,
    management_report,
    mass_counts,
    select_pv_threshold,
    write_csv,
)
from anatomesh.pipeline import stage_eval
from anatomesh.synth import BLOB_LABEL, DEFAULT_CLASSES, TUBE_LABEL
from anatomesh.volume import LabelVolume, detected, dice, save_volume

from conftest import awkward_floats, written_bytes


def block(n, on):
    m = np.zeros((n, 1, 1), dtype=bool)
    m.reshape(-1)[:on] = True
    return m


def scored(cases):
    """Each (predicted mass, true mass, class) case as the (Dice, detected, class)
    row ``detection_table`` takes."""
    return [(dice(pred, gt), detected(pred, gt), cls) for pred, gt, cls in cases]


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
        # class 2: dice 1.0 and 0.5, both detected at the 10% cutoff
        # class 3: dice 0, not detected
        gt = block(8, 4)
        return [
            (gt.copy(), gt.copy(), 2),
            (block(8, 2), gt.copy(), 2),
            (np.zeros((8, 1, 1), dtype=bool), gt.copy(), 3),
        ]

    def test_per_class_hand_counts(self):
        t = detection_table(scored(self._cases()))
        d2, r2, n2 = t.per_class[2]
        assert n2 == 2
        assert d2 == pytest.approx((1.0 + dice(block(8, 2), block(8, 4))) / 2)
        assert r2 == 1.0
        d3, r3, n3 = t.per_class[3]
        assert (d3, r3, n3) == (0.0, 0.0, 1)

    def test_micro_pools_cases(self):
        t = detection_table(scored(self._cases()))
        dices = [dice(p, g) for p, g, _ in self._cases()]
        assert t.micro[0] == pytest.approx(np.mean(dices))
        assert t.micro[1] == pytest.approx(2 / 3)

    def test_macro_unweighted(self):
        t = detection_table(scored(self._cases()))
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
        t = detection_table(scored(cases))
        per_dice = [v[0] for v in t.per_class.values()]
        assert min(per_dice) - 1e-12 <= t.micro[0] <= max(per_dice) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            detection_table([])

    def test_csv(self, tmp_path):
        t = detection_table(scored(self._cases()))
        path = tmp_path / "t.csv"
        t.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "class,mean_dice,detection_rate,n"
        assert lines[1:3] == [f"2,{t.per_class[2][0]:.9g},1,2", "3,0,0,1"]
        assert lines[-2] == f"micro,{t.micro[0]:.9g},{t.micro[1]:.9g},"
        assert lines[-1] == f"macro,{t.macro[0]:.9g},0.5,"


class TestManagementReport:
    def test_hand_counts(self):
        preds = ["Surgery", "Surgery", "Monitoring", "Discharge", "Surgery"]
        truths = ["Surgery", "Monitoring", "Monitoring", "Discharge", "Discharge"]
        cm = management_report(preds, truths)
        expect = np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
        assert np.array_equal(cm.counts, expect)

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
        cm = management_report(["Surgery", "Discharge", "Surgery"],
                               ["Surgery", "Monitoring", "Discharge"])
        path = tmp_path / "cm.csv"
        cm.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "truth," + ",".join(MANAGEMENT_LABELS)
        assert lines[1:] == ["Surgery,1,0,0", "Monitoring,0,0,1", "Discharge,1,0,0"]

    def test_perfect_diagonal(self):
        labels = list(MANAGEMENT_LABELS) * 3
        cm = management_report(labels, labels)
        assert np.array_equal(cm.counts, np.diag([3, 3, 3]))
        pct = cm.row_percentages()
        np.testing.assert_allclose(np.diag(pct), 100.0)


class TestLabelToClass:
    def test_blob_to_head_class_tube_to_diffuse_class(self):
        assert LABEL_TO_CLASS == {BLOB_LABEL: 2, TUBE_LABEL: 4}
        assert MASS_LABELS == (BLOB_LABEL, TUBE_LABEL)
        assert DEFAULT_CLASS == 1

    def test_each_label_goes_to_the_lowest_class_that_carries_it(self):
        carriers = {}
        for class_id, (spec, _) in DEFAULT_CLASSES.items():
            if spec is not None:
                carriers.setdefault(spec.voxel_label, []).append(class_id)
        assert LABEL_TO_CLASS == {label: min(ids) for label, ids in carriers.items()}
        assert DEFAULT_CLASSES[DEFAULT_CLASS][0] is None


def _volume(label, n):
    data = np.zeros(64, dtype=np.uint8)
    data[:n] = label
    return LabelVolume(data.reshape(4, 4, 4), (1.0, 1.0, 1.0))


class TestPvThreshold:
    def test_select_pv_threshold(self):
        # small masses are noise here: only threshold 5 gets every case right;
        # truths are case classes, so blob voxels (2) mean class 2, tube (3) class 4
        vols = [_volume(2, 3), _volume(2, 8), _volume(3, 2), _volume(3, 9)]
        assert select_pv_threshold([mass_counts(v) for v in vols], [1, 2, 1, 4]) == 5

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_once_scores_as_classify_pv_does(self, seed):
        rng = np.random.default_rng(seed)
        vols = []
        for _ in range(6):
            data = rng.choice(4, size=(6, 5, 4), p=[0.6, 0.3, 0.05, 0.05]).astype(np.uint8)
            vols.append(LabelVolume(data.transpose(2, 1, 0), (1.0, 1.0, 1.0)))
        truths = list(rng.integers(1, 5, size=len(vols)))
        candidates = [0, 1, 2, 5, 10, 20, 50, 100, 200]
        accs = [np.mean([classify_pv(v, t) == y for v, y in zip(vols, truths)]) for t in candidates]
        counts = [mass_counts(v) for v in vols]
        assert select_pv_threshold(counts, truths) == candidates[int(np.argmax(accs))]

    def test_each_volume_counted_once(self, monkeypatch):
        # the caller counts each volume once, as it reads it; the search only
        # scores those counts (stage_classify's side: test_cli.py)
        counts = [mass_counts(_volume(2, 3)), mass_counts(_volume(3, 9))]
        monkeypatch.setattr(evaluate, "mass_counts", lambda v: pytest.fail("counted again"))
        assert select_pv_threshold(counts, [1, 4]) == 5


class TestSurgeryVsRest:
    """eval's Surgery-against-the-rest rates, on hand-written predictions."""

    def _eval(self, tmp_path, rows):
        out = tmp_path / "run"
        lines = ["# pv_threshold 5", "case,truth,gc,vv,pv"]
        for k, row in enumerate(rows):
            name = f"test_{k:04d}"
            lines.append(",".join(str(v) for v in (name, *row)))
            case = out / "cases" / name
            case.mkdir(parents=True)
            organ = np.zeros((4, 4, 4), dtype=np.uint8)
            organ[1:3, 1:3, 1:3] = 1
            save_volume(LabelVolume(organ, (1.0, 1.0, 1.0)), str(case / "labels"))
        (out / "predictions.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        stage_eval(load_config(str(cfg)), str(out))
        return out / "report"

    def test_hand_counts(self, tmp_path):
        # (truth, gc, vv, pv); classes 2 and 4 are Surgery
        rows = [(2, 2, 2, 2), (4, 4, 2, 1), (3, 3, 2, 2), (1, 1, 1, 1)]
        report = self._eval(tmp_path, rows)
        # GC: tp 2 tn 2; VV: tp 2 fp 1 tn 1; PV: tp 1 fn 1 fp 1 tn 1
        assert (report / "surgery_vs_rest.csv").read_text() == (
            "strategy,accuracy,sensitivity,specificity\n"
            "gc,1,1,1\n"
            "vv,0.75,1,0.5\n"
            "pv,0.5,0.5,0.5\n"
        )
        text = (report / "report.txt").read_text()
        assert "  VV: accuracy 0.7500  sensitivity 1.0000  specificity 0.5000\n" in text
        assert (report / "accuracy.csv").read_text() == (
            "strategy,accuracy\ngc,1\nvv,0.5\npv,0.5\n"
        )

    def test_undefined_ratio_is_an_empty_field(self, tmp_path):
        # every case is Surgery: no negatives, so no specificity
        report = self._eval(tmp_path, [(2, 2, 1, 4), (4, 4, 4, 2)])
        assert (report / "surgery_vs_rest.csv").read_text() == (
            "strategy,accuracy,sensitivity,specificity\n"
            "gc,1,1,\n"
            "vv,0.5,0.5,\n"
            "pv,1,1,\n"
        )
        assert "  GC: accuracy 1.0000  sensitivity 1.0000  specificity n/a\n" in (
            report / "report.txt"
        ).read_text()


class TestWriteCsv:
    """The one format of the run-level tables: a float as %.9g, None as an empty
    field, anything else as str."""

    def test_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            ("a", None, np.float64(1 / 3), np.int64(12345678901), 0.5),
            (np.float64(2.0), 1e-300, -0.0, 7, None),
        ]
        write_csv(str(path), "# note 1\nname,b,c,d,e", rows)
        assert path.read_text() == (
            "# note 1\nname,b,c,d,e\n"
            "a,,0.333333333,12345678901,0.5\n"
            "2,1e-300,-0,7,\n"
        )

    @given(st.lists(awkward_floats(), min_size=1, max_size=6))
    def test_each_float_is_its_9g(self, values):
        written = written_bytes(lambda rows, path: write_csv(path, "h", rows), [values])
        assert written.decode() == "h\n" + ",".join("%.9g" % v for v in values) + "\n"
