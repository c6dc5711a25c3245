"""The benchmark workloads: their configs, untimed preparation, timed stages and output checks.

Each workload puts a different layer at the centre:

- ``pipeline``: the whole ``run_pipeline`` into an empty work dir at the
  default grid, epochs, width and fit settings, scaled to 28 + 12 cases. It
  is the user's run: synth-gen takes about 60% of it and train about 20%,
  and it writes about 2 MB of volumes per case.
- ``geometry``: 16 + 8 cases are synthesized untimed on grid 64, where a
  probability volume (4.2 MB) no longer fits a core's L2. The timed part is
  prototype, fit, zones and features, so mesh fitting, zone dilation and
  feature pooling dominate and synth does no work.
- ``learn``: 16 + 8 cases and their pooled features are prepared untimed on
  the default grid. The timed part is train (40 epochs), classify and eval,
  so the graph network's forward and backward passes dominate and almost
  nothing is written.

The sizes keep each run well inside the time a benchmark run may take; the
default config (400 + 100 cases) takes about six minutes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Stage name -> files every case directory holds once the stage has run.
CASE_FILES = {
    "synth": ("labels.hdr", "labels.raw", "probs.hdr", "probs.raw", "case.txt"),
    "fit": ("fitted.obj", "trace.csv"),
    "zones": ("zones.hdr", "zones.raw", "vertex_labels.txt"),
    "features": ("features.csv",),
}
# Stage name -> files the work directory holds once the stage has run.
RUN_FILES = {
    "prototype": ("prototype.obj",),
    "train": ("model.ckpt", "train_log.csv"),
    "classify": ("predictions.csv",),
    "eval": (
        "report/accuracy.csv",
        "report/report.txt",
        "report/management_confusion.csv",
    ),
}
ALL_STAGES = ("synth", "prototype", "fit", "zones", "features", "train", "classify", "eval")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: int
    n_train: int
    n_test: int
    epochs: int
    # Fresh processes that run the timed stages, at least, in one run.
    procs: int
    # Timed passes over fresh copies of the prepared inputs in each process.
    iterations: int
    # Stages run untimed before the repetitions; "synth" runs in PREP_PARTS
    # processes at once, each with its own seed, and the cases are merged.
    prep: tuple[str, ...]
    # Stages run inside the timed region; "pipeline" means run_pipeline.
    timed: tuple[str, ...]

    @property
    def stages_done(self) -> tuple[str, ...]:
        return ALL_STAGES if self.timed == ("pipeline",) else self.prep + self.timed

    def config_text(self, seed: int, n_train: int | None = None,
                    n_test: int | None = None, synth_seed: int | None = None) -> str:
        return (
            "[synth]\n"
            f"n_train = {self.n_train if n_train is None else n_train}\n"
            f"n_test = {self.n_test if n_test is None else n_test}\n"
            f"seed = {seed if synth_seed is None else synth_seed}\n"
            f"grid = {self.grid}\n"
            "[train]\n"
            f"epochs = {self.epochs}\n"
            f"seed = {seed}\n"
        )


PREP_PARTS = 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline",
            "the user's full run at default settings, scaled to 40 cases; synth-gen "
            "and train dominate and it writes about 2 MB per case",
            grid=48, n_train=28, n_test=12, epochs=60, procs=1, iterations=1,
            prep=(), timed=("pipeline",),
        ),
        Workload(
            "geometry",
            "prototype, fit, zones and features on prepared grid-64 cases, whose "
            "volumes exceed a core's L2; synth does no work",
            grid=64, n_train=16, n_test=8, epochs=60, procs=3, iterations=1,
            prep=("synth",), timed=("prototype", "fit", "zones", "features"),
        ),
        Workload(
            "learn",
            "train, classify and eval on prepared features; graph-network forward and "
            "backward dominate and almost nothing is written",
            grid=48, n_train=16, n_test=8, epochs=40, procs=3, iterations=2,
            prep=("synth", "prototype", "fit", "zones", "features"),
            timed=("train", "classify", "eval"),
        ),
    )
}


def case_dirs(work: str, split: str) -> list[str]:
    root = os.path.join(work, "cases")
    if not os.path.isdir(root):
        return []
    return sorted(os.path.join(root, d) for d in os.listdir(root) if d.startswith(split))


def read_accuracies(work: str) -> dict[str, float]:
    """Test-split accuracy per strategy from ``report/accuracy.csv``."""
    accs = {}
    with open(os.path.join(work, "report", "accuracy.csv")) as f:
        if f.readline().strip() != "strategy,accuracy":
            raise ValueError("accuracy.csv: unexpected header")
        for line in f:
            name, value = line.strip().split(",")
            accs[name] = float(value)
    if sorted(accs) != ["gc", "pv", "vv"]:
        raise ValueError(f"accuracy.csv: strategies {sorted(accs)}")
    if not all(0.0 <= v <= 1.0 for v in accs.values()):
        raise ValueError(f"accuracy.csv: value out of [0, 1]: {accs}")
    return accs


def check_outputs(w: Workload, work: str) -> list[str]:
    """Problems with a finished work directory; empty when every check passes."""
    problems = []
    done = w.stages_done
    for split, expect in (("train", w.n_train), ("test", w.n_test)):
        dirs = case_dirs(work, split)
        if len(dirs) != expect:
            problems.append(f"{len(dirs)} {split} cases, config says {expect}")
        for d in dirs:
            for stage, files in CASE_FILES.items():
                if stage in done:
                    problems += [
                        f"missing {os.path.relpath(os.path.join(d, f), work)}"
                        for f in files if not os.path.isfile(os.path.join(d, f))
                    ]
    run_files = [f for stage, files in RUN_FILES.items() if stage in done for f in files]
    if w.timed == ("pipeline",):
        run_files.append("manifest.txt")
    problems += [f"missing {f}" for f in run_files if not os.path.isfile(os.path.join(work, f))]
    if "classify" in done and not problems:
        with open(os.path.join(work, "predictions.csv")) as f:
            rows = [r for r in f if r.strip() and not r.startswith(("#", "case,"))]
        if len(rows) != w.n_test:
            problems.append(f"predictions.csv has {len(rows)} rows, expected {w.n_test}")
    if "eval" in done and not problems:
        try:
            read_accuracies(work)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
    return problems
