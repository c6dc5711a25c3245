"""Pipeline stages over a work directory; each stage reads the previous one's files."""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
from collections.abc import Callable
from typing import TypeVar

import numpy as np

from . import __version__
from .config import RunConfig
from .evaluate import (
    MASS_LABELS,
    EvalError,
    binary_metrics,
    classify_gc,
    classify_pv,
    classify_vv,
    detection_table,
    management_report,
    mass_counts,
    select_pv_threshold,
)
from .features import load_features, pool_features, save_features
from .graphnet import GraphNetError, forward, load_params, save_params, train
from .mesh import AnatomyMesh, MeshError, load_mesh, save_mesh
from .meshfit import FitError, fit_mesh
from .prototype import assign_regions, build_prototype, mean_shape
from .synth import (
    MANAGEMENT_BY_CLASS,
    SynthError,
    case_draws,
    gen_case,
    load_case_info,
    save_case,
)
from .volume import LabelVolume, VolumeError, load_volume, save_volume
from .workers import Channel, cpus, forked, in_worker
from .zones import ZoneError, render_zones, vertex_labels

__all__ = [
    "stage_synth",
    "stage_prototype",
    "stage_fit",
    "stage_zones",
    "stage_features",
    "stage_train",
    "stage_classify",
    "stage_eval",
    "run_pipeline",
    "write_manifest",
]

T = TypeVar("T")


def _case_dirs(out_dir: str, *splits: str) -> list[str]:
    """The case directories of each split in turn, each split's in name order."""
    root = os.path.join(out_dir, "cases")
    names = sorted(os.listdir(root))
    return [os.path.join(root, d) for split in splits for d in names if d.startswith(split)]


def _split_train(cfg: RunConfig, out_dir: str) -> tuple[list[str], list[str]]:
    """Training and validation case dirs; validation is the last ``val_fraction`` of them."""
    dirs = _case_dirs(out_dir, "train")
    n_val = int(round(cfg.train.val_fraction * len(dirs)))
    return dirs[: len(dirs) - n_val], dirs[len(dirs) - n_val :]


# The errors that a stage raises with the failing case's name in front.
_CASE_ERRORS = (FitError, GraphNetError, MeshError, SynthError, VolumeError, ZoneError)


def _per_case(dirs: list[str], work: Callable[[str], T], workers: int = 1) -> list[T]:
    """``work(d)`` for each case directory, and its results in case order.

    With ``workers`` above 1 the calling process and ``workers - 1`` forked
    ones take the cases in name order from one shared counter, so ``work``
    must be safe to run on several cases at once, and a forked worker's
    results must pickle. Once a case has failed no case is started, the
    running ones finish, and the failure of the first case in order is
    raised; a forked worker's failure carries its traceback as a note. A
    synth, fit, mesh, volume, zone or network error gets the case's name in
    front.
    """
    n = len(dirs)
    if workers > 1:
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        next_case, lock = fork.RawValue("q", 0), fork.Lock()
    else:
        next_case, lock = ctypes.c_int64(0), contextlib.nullcontext()

    def run() -> tuple[dict[int, T], tuple[int, BaseException] | None]:
        done: dict[int, T] = {}
        while True:
            with lock:
                i = next_case.value
                next_case.value = i + 1
            if i >= n:
                return done, None
            try:
                done[i] = work(dirs[i])
            except BaseException as exc:  # raised below, once every worker has stopped
                with lock:
                    next_case.value = n
                return done, (i, exc)

    def serve(channel: Channel) -> tuple[dict[int, T], tuple[int, BaseException] | None]:
        done, failure = run()
        return done, failure and (failure[0], in_worker(failure[1]))

    with forked(workers - 1, serve) as team:
        try:
            outcomes = [run()] + [worker.recv() for worker in team]
        finally:
            with lock:
                next_case.value = n
    results: dict[int, T] = {}
    failures: dict[int, BaseException] = {}
    for done, failure in outcomes:
        results.update(done)
        if failure is not None:
            failures[failure[0]] = failure[1]
    if failures:
        first = min(failures)
        exc = failures[first]
        if isinstance(exc, _CASE_ERRORS):
            raise type(exc)(f"{os.path.basename(dirs[first])}: {exc}") from exc
        raise exc
    return [results[i] for i in range(n)]


def _workers(dirs: list[str]) -> int:
    """One worker per CPU this process may run on, capped at the case count."""
    return min(cpus(), len(dirs))


def _load_prototype(out_dir: str) -> AnatomyMesh:
    """The run's prototype mesh, whose topology every fitted mesh shares."""
    return load_mesh(os.path.join(out_dir, "prototype.obj"))


def _load_segmentation(d: str) -> LabelVolume:
    """A case's predicted segmentation: the argmax channel of its probability volume.

    Outside the volume's stored box the segmentation is 0: synth-gen stores
    the box outside which channel 0 wins. Ties go to the lower channel, as
    with ``np.argmax``. The channels are compared one at a time in the
    file's (D, H, W) voxel order, several times faster than ``argmax`` over
    rows of a few values.
    """
    probs = load_volume(os.path.join(d, "probs"))
    channels = np.moveaxis(probs.data, -1, 0).transpose(0, 3, 2, 1)
    best = channels[0].copy()
    grid = np.zeros(probs.dims[::-1], dtype=np.uint8)
    argmax = grid[probs.box[::-1]]
    for k in range(1, len(channels)):
        argmax[channels[k] > best] = k
        np.maximum(best, channels[k], out=best)
    return LabelVolume(grid.transpose(2, 1, 0), probs.spacing)


def stage_synth(cfg: RunConfig, out_dir: str) -> None:
    """Generate and save every case, on one worker process per CPU (capped at the case count).

    Each case's (class id, seed) pair is drawn before any worker starts,
    and a case's bytes depend only on its pair, so the files do not
    depend on the worker count.
    """
    # synth-gen owns cases/: a rerun with fewer cases must not leave old ones behind
    cases = os.path.join(out_dir, "cases")
    if os.path.isdir(cases):
        shutil.rmtree(cases)
    names = [f"train_{k:04d}" for k in range(cfg.synth.n_train)]
    names += [f"test_{k:04d}" for k in range(cfg.synth.n_test)]
    dirs = [os.path.join(cases, name) for name in names]
    draws = dict(zip(dirs, case_draws(cfg.synth)))
    _per_case(dirs, lambda d: save_case(gen_case(*draws[d], cfg.synth), d), _workers(dirs))


def stage_prototype(cfg: RunConfig, out_dir: str) -> None:
    dirs = _case_dirs(out_dir, "train")[: cfg.fit.prototype_cases]
    cases = _per_case(
        dirs, lambda d: (load_volume(os.path.join(d, "labels")), load_case_info(d).head_end)
    )
    mean = mean_shape([labels for labels, _ in cases])
    proto = build_prototype(mean, cfg.fit)
    proto = assign_regions(proto, np.mean([head_end for _, head_end in cases], axis=0))
    save_mesh(proto, os.path.join(out_dir, "prototype.obj"))


def stage_fit(cfg: RunConfig, out_dir: str) -> None:
    proto = _load_prototype(out_dir)

    def fit(d: str) -> None:
        fitted, trace = fit_mesh(proto, load_volume(os.path.join(d, "labels")), cfg.fit)
        save_mesh(fitted, os.path.join(d, "fitted.obj"))
        trace.to_csv(os.path.join(d, "trace.csv"))

    dirs = _case_dirs(out_dir, "train", "test")
    _per_case(dirs, fit, _workers(dirs))


def stage_zones(cfg: RunConfig, out_dir: str) -> None:
    proto = _load_prototype(out_dir)

    def zones(d: str) -> None:
        labels = load_volume(os.path.join(d, "labels"))
        mesh = load_mesh(os.path.join(d, "fitted.obj"), like=proto)
        zvol = render_zones(mesh, labels.organ, labels.spacing)
        vl = vertex_labels(zvol, labels)
        save_volume(zvol, os.path.join(d, "zones"))
        _save_vertex_labels(vl, d)

    dirs = _case_dirs(out_dir, "train", "test")
    _per_case(dirs, zones, _workers(dirs))


def stage_features(cfg: RunConfig, out_dir: str) -> None:
    proto = _load_prototype(out_dir)

    def features(d: str) -> None:
        labels = load_volume(os.path.join(d, "labels"))
        probs = load_volume(os.path.join(d, "probs"))
        mesh = load_mesh(os.path.join(d, "fitted.obj"), like=proto)
        zvol = load_volume(os.path.join(d, "zones"))
        feats = pool_features(mesh, zvol, probs, labels, MASS_LABELS)
        save_features(feats, os.path.join(d, "features.csv"))

    dirs = _case_dirs(out_dir, "train", "test")
    _per_case(dirs, features, _workers(dirs))


def _save_vertex_labels(labels: np.ndarray, d: str) -> None:
    """Write a case's vertex labels, one integer per line."""
    with open(os.path.join(d, "vertex_labels.txt"), "w") as f:
        f.write("%d\n" * len(labels) % tuple(labels.tolist()))


def _load_vertex_labels(d: str, n_rows: int) -> np.ndarray:
    """A case's vertex labels; ZoneError naming the file unless there is one per feature row."""
    path = os.path.join(d, "vertex_labels.txt")
    try:
        labels = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise ZoneError(f"{path}: {exc}") from exc
    if len(labels) != n_rows:
        raise ZoneError(f"{path}: {len(labels)} labels for {n_rows} feature rows")
    return labels


def _load_dataset(dirs: list[str]) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Each case's (features, vertex labels, class index); all features as wide as the first's."""
    widths = []

    def load(d: str) -> tuple[np.ndarray, np.ndarray, int]:
        path = os.path.join(d, "features.csv")
        feats = load_features(path)
        widths.append(feats.shape[1])
        if widths[-1] != widths[0]:
            raise VolumeError(f"{path}: {widths[-1]} columns, the first case has {widths[0]}")
        labels = _load_vertex_labels(d, len(feats))
        return feats, labels, load_case_info(d).class_id - 1

    return _per_case(dirs, load)


def stage_train(cfg: RunConfig, out_dir: str) -> None:
    train_dirs, val_dirs = _split_train(cfg, out_dir)
    cases = _load_dataset(train_dirs + val_dirs)
    dataset, validation = cases[: len(train_dirs)], cases[len(train_dirs) :]
    topo = _load_prototype(out_dir).topology
    params, log = train(dataset, topo, cfg.train, validation)
    save_params(params, os.path.join(out_dir, "model.ckpt"))
    log.to_csv(os.path.join(out_dir, "train_log.csv"))


def stage_classify(cfg: RunConfig, out_dir: str) -> None:
    params = load_params(os.path.join(out_dir, "model.ckpt"))
    topo = _load_prototype(out_dir).topology
    train_dirs, val_dirs = _split_train(cfg, out_dir)
    val_dirs = val_dirs or train_dirs  # no validation split: choose on all train cases

    def count(d: str) -> tuple[np.ndarray, int]:
        # only the mass counts are kept: each segmentation is freed once counted
        return mass_counts(_load_segmentation(d)), load_case_info(d).class_id

    val = _per_case(val_dirs, count)
    pv_threshold = select_pv_threshold([counts for counts, _ in val], [truth for _, truth in val])

    def predict(d: str) -> tuple[str, int, int, int, int]:
        vp, gp = forward(params, load_features(os.path.join(d, "features.csv")), topo)
        pv = classify_pv(_load_segmentation(d), pv_threshold)
        truth = load_case_info(d).class_id
        return os.path.basename(d), truth, classify_gc(gp), classify_vv(vp), pv

    rows = _per_case(_case_dirs(out_dir, "test"), predict)
    with open(os.path.join(out_dir, "predictions.csv"), "w") as f:
        f.write(f"# pv_threshold {pv_threshold}\n")
        f.write("case,truth,gc,vv,pv\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


def _load_predictions(path: str) -> list[tuple[str, int, int, int, int]]:
    """classify's (case, truth, gc, vv, pv) rows; EvalError naming the file and line
    for a row that does not parse or holds a class the class table lacks."""
    rows = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if line.startswith("#") or line.startswith("case,"):
                continue
            name, *fields = line.strip().split(",")
            if len(fields) != 4:
                raise EvalError(
                    f"{path}:{n}: expected the 5 fields case,truth,gc,vv,pv, got {len(fields) + 1}"
                )
            try:
                classes = [int(v) for v in fields]
            except ValueError as exc:
                raise EvalError(f"{path}:{n}: {exc}") from None
            unknown = [c for c in classes if c not in MANAGEMENT_BY_CLASS]
            if unknown:
                raise EvalError(f"{path}:{n}: class {unknown[0]} is not in the class table")
            rows.append((name, *classes))
    return rows


def stage_eval(cfg: RunConfig, out_dir: str) -> dict[str, float]:
    rows = _load_predictions(os.path.join(out_dir, "predictions.csv"))
    truths = [r[1] for r in rows]
    preds = {label: [r[col] for r in rows] for label, col in (("gc", 2), ("vv", 3), ("pv", 4))}
    accs = {k: float(np.mean([p == t for p, t in zip(preds[k], truths)])) for k in preds}
    mgmt_true = [MANAGEMENT_BY_CLASS[t] for t in truths]
    mgmt_pred = {k: [MANAGEMENT_BY_CLASS[p] for p in preds[k]] for k in preds}
    cm = management_report(mgmt_pred["gc"], mgmt_true)
    # Surgery against the rest: the paper's PDAC-vs-nonPDAC split
    surgery = {k: binary_metrics(mgmt_pred[k], mgmt_true, "Surgery") for k in preds}

    def masses(d: str) -> tuple[np.ndarray, np.ndarray] | None:
        gt_mass = np.isin(load_volume(os.path.join(d, "labels")).data, list(MASS_LABELS))
        if not gt_mass.any():
            return None
        return np.isin(_load_segmentation(d).data, list(MASS_LABELS)), gt_mass

    dirs = [os.path.join(out_dir, "cases", row[0]) for row in rows]
    seg_cases = [
        (*pair, row[1]) for row, pair in zip(rows, _per_case(dirs, masses)) if pair is not None
    ]
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    cm.to_csv(os.path.join(report_dir, "management_confusion.csv"))
    if seg_cases:
        dt = detection_table(seg_cases)
        dt.to_csv(os.path.join(report_dir, "detection_table.csv"))
    with open(os.path.join(report_dir, "report.txt"), "w") as f:
        f.write("classification accuracy (test split)\n")
        for k in ("gc", "vv", "pv"):
            f.write(f"  {k.upper()}: {accs[k]:.4f}\n")
        f.write("\nmanagement confusion (rows = truth)\n")
        f.write(cm.to_text() + "\n")
        f.write("\nSurgery vs rest (test split)\n")
        for k in ("gc", "vv", "pv"):
            acc, sens, spec = ("n/a" if v is None else f"{v:.4f}" for v in surgery[k])
            f.write(f"  {k.upper()}: accuracy {acc}  sensitivity {sens}  specificity {spec}\n")
    with open(os.path.join(report_dir, "accuracy.csv"), "w") as f:
        f.write("strategy,accuracy\n")
        for k in ("gc", "vv", "pv"):
            f.write(f"{k},{accs[k]:.9g}\n")
    with open(os.path.join(report_dir, "surgery_vs_rest.csv"), "w") as f:
        f.write("strategy,accuracy,sensitivity,specificity\n")
        for k in ("gc", "vv", "pv"):
            f.write(k + "".join("," if v is None else f",{v:.9g}" for v in surgery[k]) + "\n")
    return accs


STAGES = (
    ("synth-gen", stage_synth),
    ("build-prototype", stage_prototype),
    ("fit-mesh", stage_fit),
    ("render-zones", stage_zones),
    ("pool-features", stage_features),
    ("train", stage_train),
    ("classify", stage_classify),
    ("eval", stage_eval),
)


def write_manifest(cfg: RunConfig, out_dir: str, stages: list[str]) -> None:
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write(f"version {__version__}\n")
        f.write(f"config {os.path.abspath(cfg.path)}\n")
        f.write(f"config_sha256 {cfg.digest}\n")
        for s in stages:
            f.write(f"stage {s}\n")


def run_pipeline(cfg: RunConfig, out_dir: str) -> dict[str, float]:
    os.makedirs(out_dir, exist_ok=True)
    accs = {}
    for name, fn in STAGES:
        result = fn(cfg, out_dir)
        if name == "eval":
            accs = result
    write_manifest(cfg, out_dir, [name for name, _ in STAGES])
    return accs
