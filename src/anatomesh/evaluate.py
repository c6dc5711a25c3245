"""Evaluation: the PV, VV and GC decision rules, confusion matrices, rates, tables."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .synth import DEFAULT_CLASSES
from .volume import LabelVolume

__all__ = [
    "ConfusionMatrix",
    "EvalError",
    "binary_metrics",
    "classify_gc",
    "classify_pv",
    "classify_vv",
    "detection_table",
    "management_report",
    "mass_counts",
    "select_pv_threshold",
    "write_csv",
    "MANAGEMENT_LABELS",
]

MANAGEMENT_LABELS = ("Surgery", "Monitoring", "Discharge")

# mass voxel label -> the lowest case class whose mass carries it (blob -> 2, tube -> 4)
LABEL_TO_CLASS = {
    spec.voxel_label: class_id
    for class_id, (spec, _) in sorted(DEFAULT_CLASSES.items(), reverse=True)  # lowest last
    if spec is not None
}
MASS_LABELS = tuple(sorted(LABEL_TO_CLASS))  # ascending: PV and VV break ties to the lower
# the class without a mass: PV's and VV's answer when no mass wins the vote
DEFAULT_CLASS = min(c for c, (spec, _) in DEFAULT_CLASSES.items() if spec is None)


class EvalError(ValueError):
    """Inconsistent evaluation inputs."""


def write_csv(path: str, header: str, rows: Iterable[Sequence[object]]) -> None:
    """The one format of the run-level tables: ``header`` (one or more lines), then each
    row's fields joined by commas, a float as ``%.9g``, None as an empty field and
    anything else as ``str``."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            fields = ("" if v is None else f"{v:.9g}" if isinstance(v, float) else str(v)
                      for v in row)
            f.write(",".join(fields) + "\n")


@dataclass
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # rows = truth, columns = prediction

    def row_percentages(self) -> np.ndarray:
        """Per-row percentages; rows with no cases are all-nan."""
        sums = self.counts.sum(axis=1, keepdims=True).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(sums > 0, 100.0 * self.counts / sums, np.nan)

    def to_text(self) -> str:
        width = max(len(l) for l in self.labels) + 2
        head = " " * width + "".join(f"{l:>{width}}" for l in self.labels)
        lines = [head]
        pct = self.row_percentages()
        for i, l in enumerate(self.labels):
            row = "".join(f"{int(c):>{width}}" for c in self.counts[i])
            pcts = "  ".join(
                "n/a" if np.isnan(p) else f"{p:5.1f}%" for p in pct[i]
            )
            lines.append(f"{l:<{width}}{row}    {pcts}")
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        header = "truth," + ",".join(self.labels)
        write_csv(path, header, [(l, *row) for l, row in zip(self.labels, self.counts)])


def binary_metrics(
    preds: list[int] | list[str], truths: list[int] | list[str], positive: int | str
) -> tuple[float | None, float | None, float | None]:
    """(accuracy, sensitivity, specificity) for one positive class.

    Ratios with a zero denominator come back as None, never 0 or 1.
    """
    if len(preds) != len(truths):
        raise EvalError(f"length mismatch: {len(preds)} vs {len(truths)}")
    if not preds:
        raise EvalError("empty input")
    p = np.asarray(preds) == positive
    t = np.asarray(truths) == positive
    tp = int(np.count_nonzero(p & t))
    tn = int(np.count_nonzero(~p & ~t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    acc = (tp + tn) / len(preds)
    sens = tp / (tp + fn) if tp + fn else None
    spec = tn / (tn + fp) if tn + fp else None
    return acc, sens, spec


@dataclass
class DetectionTable:
    per_class: dict[int, tuple[float, float, int]]  # class -> (mean dice, rate, n)
    micro: tuple[float, float]
    macro: tuple[float, float]

    def to_csv(self, path: str) -> None:
        rows = [(c, *self.per_class[c]) for c in sorted(self.per_class)]
        rows += [("micro", *self.micro, None), ("macro", *self.macro, None)]
        write_csv(path, "class,mean_dice,detection_rate,n", rows)


def detection_table(cases: list[tuple[float, bool, int]]) -> DetectionTable:
    """Per-class mean Dice and detection rate, with micro and macro summaries.

    Each case is its mass's (Dice, detected, class). micro pools all
    cases; macro averages the values of the classes that have cases.
    """
    if not cases:
        raise EvalError("empty case list")
    by_class: dict[int, list[tuple[float, bool]]] = {}
    for d, hit, cls in cases:
        by_class.setdefault(cls, []).append((d, hit))
    per_class = {}
    for cls, vals in sorted(by_class.items()):
        dices = [d for d, _ in vals]
        rates = [r for _, r in vals]
        per_class[cls] = (float(np.mean(dices)), float(np.mean(rates)), len(vals))
    all_vals = [v for vals in by_class.values() for v in vals]
    micro = (
        float(np.mean([d for d, _ in all_vals])),
        float(np.mean([r for _, r in all_vals])),
    )
    macro = (
        float(np.mean([per_class[c][0] for c in per_class])),
        float(np.mean([per_class[c][1] for c in per_class])),
    )
    return DetectionTable(per_class, micro, macro)


def management_report(preds: list[str], truths: list[str]) -> ConfusionMatrix:
    """3x3 management confusion matrix with row-normalized percentages."""
    if len(preds) != len(truths):
        raise EvalError(f"length mismatch: {len(preds)} vs {len(truths)}")
    index = {l: i for i, l in enumerate(MANAGEMENT_LABELS)}
    counts = np.zeros((3, 3), dtype=np.int64)
    for p, t in zip(preds, truths):
        if p not in index or t not in index:
            raise EvalError(f"unknown management label: {p if p not in index else t}")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(MANAGEMENT_LABELS, counts)


def mass_counts(labels: LabelVolume) -> np.ndarray:
    """The voxel count of each of ``MASS_LABELS``; "K" order does not copy a transposed view."""
    counts = np.bincount(labels.data.ravel("K"), minlength=MASS_LABELS[-1] + 1)
    return counts[list(MASS_LABELS)]


def _pv_vote(counts: np.ndarray, threshold: int) -> int:
    best = int(counts.argmax())  # the first of equal counts: the lower label
    if counts[best] < max(threshold, 1):
        return DEFAULT_CLASS
    return LABEL_TO_CLASS[MASS_LABELS[best]]


def classify_pv(pred_labels: LabelVolume, threshold: int) -> int:
    """Pixel voting: the class of the mass label with the most voxels (ties to the
    lower label), or ``DEFAULT_CLASS`` if it has fewer than ``threshold``."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return _pv_vote(mass_counts(pred_labels), threshold)


def select_pv_threshold(counts: list[np.ndarray], truths: list[int]) -> int:
    """The PV threshold most accurate on predicted segmentations of case classes ``truths``.

    ``counts`` holds each segmentation's :func:`mass_counts`, so a caller
    can free each volume once it is counted. Ties go to the smaller threshold.
    """
    candidates = [0, 1, 2, 5, 10, 20, 50, 100, 200]
    best_t, best_acc = candidates[0], -1.0
    for t in candidates:
        acc = float(np.mean([_pv_vote(c, t) == y for c, y in zip(counts, truths)]))
        if acc > best_acc:
            best_t, best_acc = t, acc
    return best_t


def classify_vv(vertex_probs: np.ndarray) -> int:
    """Vertex voting: the class of the mass label most vertices vote for (ties to the
    lower label), or ``DEFAULT_CLASS`` without a mass vote."""
    votes = vertex_probs.argmax(axis=1)
    mass_votes = votes[np.isin(votes, MASS_LABELS)]
    if mass_votes.size == 0:
        return DEFAULT_CLASS
    return LABEL_TO_CLASS[int(np.bincount(mass_votes).argmax())]  # argmax: the first on ties


def classify_gc(global_probs: np.ndarray) -> int:
    """Global classification: 1-based argmax, ties to the lower class id."""
    return int(np.asarray(global_probs).argmax()) + 1
