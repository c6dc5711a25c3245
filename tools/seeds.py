"""Accuracy over seeds: the spread that one run at one seed cannot show.

Usage, with the package installed (or ``PYTHONPATH=src`` in a checkout):

    python3 tools/seeds.py CONFIG

Runs the whole pipeline on CONFIG at seeds 0-4, with ``[synth] seed`` and
``[train] seed`` both set to the seed, each run in its own temporary work
directory. It prints each seed's GC, VV and PV accuracy and the epochs train
ran (the rows of ``train_log.csv``) as it finishes, then the mean, minimum and
maximum over the seeds of those numbers and of each strategy's
Surgery-vs-rest accuracy, sensitivity and specificity. A rate that a seed's
test split cannot define (no Surgery case, or no other case) is left out of
that rate's summary.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import sys
import tempfile

from anatomesh.config import load_config
from anatomesh.pipeline import run_pipeline

SEEDS = range(5)
STRATEGIES = ("gc", "vv", "pv")
RATES = ("accuracy", "sensitivity", "specificity")


def run_seed(cfg, seed: int) -> dict[str, float | None]:
    """One pipeline run at ``seed``: each accuracy, the epochs train ran, and
    each Surgery-vs-rest rate."""
    cfg = dataclasses.replace(
        cfg,
        synth=dataclasses.replace(cfg.synth, seed=seed),
        train=dataclasses.replace(cfg.train, seed=seed),
    )
    with tempfile.TemporaryDirectory(prefix=f"seed{seed}-") as work:
        accs = run_pipeline(cfg, work)
        with open(os.path.join(work, "report", "surgery_vs_rest.csv")) as f:
            surgery = {row["strategy"]: row for row in csv.DictReader(f)}
        with open(os.path.join(work, "train_log.csv")) as f:
            epochs = len(list(csv.DictReader(f)))
    metrics = {f"{k.upper()} accuracy": accs[k] for k in STRATEGIES}
    metrics["epochs run"] = epochs
    for k in STRATEGIES:
        for rate in RATES:
            value = surgery[k][rate]
            metrics[f"{k.upper()} Surgery-vs-rest {rate}"] = float(value) if value else None
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cfg = load_config(argv[0])
    runs = []
    for seed in SEEDS:
        runs.append(run_seed(cfg, seed))
        print(f"seed {seed}: " + "  ".join(
            f"{k.upper()} {runs[-1][f'{k.upper()} accuracy']:.2f}" for k in STRATEGIES
        ) + f"  epochs run {runs[-1]['epochs run']}", flush=True)
    print(f"\nover seeds {SEEDS.start}-{SEEDS.stop - 1}: mean, minimum, maximum")
    for name in runs[0]:
        values = [run[name] for run in runs if run[name] is not None]
        if not values:
            print(f"  {name:<36} n/a")
            continue
        mean = sum(values) / len(values)
        print(f"  {name:<36} {mean:.3f}  {min(values):.3f}  {max(values):.3f}"
              + ("" if len(values) == len(runs) else f"  ({len(values)} seeds)"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
