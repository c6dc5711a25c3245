"""Classification and segmentation evaluation: confusion matrices, rates, tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import dice, detected

__all__ = [
    "ConfusionMatrix",
    "EvalError",
    "binary_metrics",
    "detection_table",
    "management_report",
    "MANAGEMENT_LABELS",
]

MANAGEMENT_LABELS = ("Surgery", "Monitoring", "Discharge")


class EvalError(ValueError):
    """Inconsistent evaluation inputs."""


@dataclass
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # rows = truth, columns = prediction

    @property
    def total(self) -> int:
        return int(self.counts.sum())

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
        with open(path, "w") as f:
            f.write("truth," + ",".join(self.labels) + "\n")
            for l, row in zip(self.labels, self.counts):
                f.write(l + "," + ",".join(str(int(c)) for c in row) + "\n")


def binary_metrics(
    preds: list[int], truths: list[int], positive: int
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
        with open(path, "w") as f:
            f.write("class,mean_dice,detection_rate,n\n")
            for c in sorted(self.per_class):
                d, r, n = self.per_class[c]
                f.write(f"{c},{d:.9g},{r:.9g},{n}\n")
            f.write(f"micro,{self.micro[0]:.9g},{self.micro[1]:.9g},\n")
            f.write(f"macro,{self.macro[0]:.9g},{self.macro[1]:.9g},\n")


def detection_table(
    cases: list[tuple[np.ndarray, np.ndarray, int]],
    cutoff: float = 0.1,
) -> DetectionTable:
    """Per-class mean Dice and detection rate, with micro and macro summaries.

    micro pools all cases; macro averages the values of the classes that
    have cases.
    """
    if not cases:
        raise EvalError("empty case list")
    by_class: dict[int, list[tuple[float, bool]]] = {}
    for pred, gt, cls in cases:
        by_class.setdefault(cls, []).append(
            (dice(pred, gt), detected(pred, gt, cutoff))
        )
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
