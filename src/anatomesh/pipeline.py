"""Pipeline stages over a work directory; each stage reads the previous one's files."""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager

import numpy as np

from . import __version__
from .config import RunConfig
from .evaluate import detection_table, management_report
from .features import load_features, pool_features, save_features
from .graphnet import (
    GraphNetError,
    classify_gc,
    classify_pv,
    classify_vv,
    forward,
    load_params,
    save_params,
    train,
)
from .mesh import AnatomyMesh, MeshError, load_mesh, save_mesh
from .meshfit import FitError, fit_mesh
from .prototype import assign_regions, build_prototype, mean_shape
from .synth import (
    BLOB_LABEL,
    MANAGEMENT_BY_CLASS,
    ORGAN_LABEL,
    TUBE_LABEL,
    SynthError,
    iter_dataset,
    load_case_info,
    save_case,
)
from .volume import LabelVolume, VolumeError, load_volume, save_volume
from .zones import ZoneError, ZoneMap, render_zones, vertex_labels

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

# mass voxel label -> case class for pixel/vertex voting
LABEL_TO_CLASS = {BLOB_LABEL: 2, TUBE_LABEL: 4}
DEFAULT_CLASS = 1
MASS_LABELS = {BLOB_LABEL, TUBE_LABEL}


def _case_dirs(out_dir: str, split: str) -> list[str]:
    root = os.path.join(out_dir, "cases")
    return sorted(
        os.path.join(root, d) for d in os.listdir(root) if d.startswith(split)
    )


def _split_train(cfg: RunConfig, out_dir: str) -> tuple[list[str], list[str]]:
    """Training and validation case dirs; validation is the last ``val_fraction`` of them."""
    fraction = cfg.get("train", "val_fraction")
    dirs = _case_dirs(out_dir, "train")
    n_val = int(round(fraction * len(dirs)))
    return dirs[: len(dirs) - n_val], dirs[len(dirs) - n_val :]


@contextmanager
def _case_errors(d: str):
    """Prefix a synth, fit, mesh, volume, zone or network error raised inside with d's name."""
    try:
        yield
    except (FitError, GraphNetError, MeshError, SynthError, VolumeError, ZoneError) as exc:
        raise type(exc)(f"{os.path.basename(d)}: {exc}") from exc


def _load_prototype(out_dir: str) -> AnatomyMesh:
    """The run's prototype mesh, whose topology every fitted mesh shares."""
    return load_mesh(os.path.join(out_dir, "prototype.obj"))


def _load_organ(d: str) -> LabelVolume:
    """A case's organ mask (organ and mass voxels) from its label volume."""
    labels = load_volume(os.path.join(d, "labels"))
    return LabelVolume((labels.data > 0).astype(np.uint8), labels.spacing)


def _load_segmentation(d: str) -> LabelVolume:
    """A case's predicted segmentation: the argmax channel of its probability volume.

    Ties go to the lower channel, as with ``np.argmax``. The channels are
    compared one at a time in the file's (D, H, W) voxel order, several
    times faster than ``argmax`` over rows of a few values.
    """
    probs = load_volume(os.path.join(d, "probs"))
    channels = np.moveaxis(probs.data, -1, 0).transpose(0, 3, 2, 1)
    best = channels[0].copy()
    argmax = np.zeros(best.shape, dtype=np.uint8)
    for k in range(1, len(channels)):
        argmax[channels[k] > best] = k
        np.maximum(best, channels[k], out=best)
    return LabelVolume(argmax.transpose(2, 1, 0), probs.spacing)


def stage_synth(cfg: RunConfig, out_dir: str) -> None:
    seed = cfg.get("synth", "seed")
    n_train = cfg.get("synth", "n_train")
    n_test = cfg.get("synth", "n_test")
    # synth-gen owns cases/: a rerun with fewer cases must not leave old ones behind
    cases = os.path.join(out_dir, "cases")
    if os.path.isdir(cases):
        shutil.rmtree(cases)
    names = [f"train_{k:04d}" for k in range(n_train)] + [f"test_{k:04d}" for k in range(n_test)]
    dataset = iter_dataset(len(names), seed, cfg.synth)
    for name in names:
        d = os.path.join(cases, name)
        with _case_errors(d):
            save_case(next(dataset), d)


def stage_prototype(cfg: RunConfig, out_dir: str) -> None:
    n_proto = cfg.get("fit", "prototype_cases")
    dirs = _case_dirs(out_dir, "train")[:n_proto]
    masks = [_load_organ(d) for d in dirs]
    head_ends = [load_case_info(d).head_end for d in dirs]
    mean = mean_shape(masks, ORGAN_LABEL)
    proto = build_prototype(mean, cfg.fit)
    proto = assign_regions(proto, np.mean(head_ends, axis=0))
    save_mesh(proto, os.path.join(out_dir, "prototype.obj"))


def stage_fit(cfg: RunConfig, out_dir: str) -> None:
    proto = _load_prototype(out_dir)
    for d in _case_dirs(out_dir, "train") + _case_dirs(out_dir, "test"):
        with _case_errors(d):
            fitted, trace = fit_mesh(proto, _load_organ(d), ORGAN_LABEL, cfg.fit)
        save_mesh(fitted, os.path.join(d, "fitted.obj"))
        trace.to_csv(os.path.join(d, "trace.csv"))


def stage_zones(cfg: RunConfig, out_dir: str) -> None:
    proto = _load_prototype(out_dir)
    for d in _case_dirs(out_dir, "train") + _case_dirs(out_dir, "test"):
        with _case_errors(d):
            labels = load_volume(os.path.join(d, "labels"))
            mesh = load_mesh(os.path.join(d, "fitted.obj"), like=proto)
            zmap = render_zones(mesh, labels.data > 0, labels.spacing)
            zvol = zmap.to_label_volume()
            vl = vertex_labels(zmap, labels)
        save_volume(zvol, os.path.join(d, "zones"))
        _save_vertex_labels(vl, d)


def stage_features(cfg: RunConfig, out_dir: str) -> None:
    proto = _load_prototype(out_dir)
    for d in _case_dirs(out_dir, "train") + _case_dirs(out_dir, "test"):
        with _case_errors(d):
            labels = load_volume(os.path.join(d, "labels"))
            probs = load_volume(os.path.join(d, "probs"))
            mesh = load_mesh(os.path.join(d, "fitted.obj"), like=proto)
            zvol = load_volume(os.path.join(d, "zones"))
            zmap = ZoneMap(zvol.data, zvol.spacing)
            feats = pool_features(mesh, zmap, probs, labels, MASS_LABELS)
        save_features(feats, os.path.join(d, "features.csv"))


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
    out = []
    for d in dirs:
        with _case_errors(d):
            path = os.path.join(d, "features.csv")
            feats = load_features(path)
            width = out[0][0].shape[1] if out else feats.shape[1]
            if feats.shape[1] != width:
                raise VolumeError(f"{path}: {feats.shape[1]} columns, the first case has {width}")
            labels = _load_vertex_labels(d, len(feats))
            out.append((feats, labels, load_case_info(d).class_id - 1))
    return out


def stage_train(cfg: RunConfig, out_dir: str) -> None:
    train_dirs, val_dirs = _split_train(cfg, out_dir)
    cases = _load_dataset(train_dirs + val_dirs)
    dataset, validation = cases[: len(train_dirs)], cases[len(train_dirs) :] or None
    topo = _load_prototype(out_dir).topology
    params, log = train(
        dataset, topo, cfg.train,
        validation=validation, width=cfg.get("train", "width"),
    )
    save_params(params, os.path.join(out_dir, "model.ckpt"))
    log.to_csv(os.path.join(out_dir, "train_log.csv"))


def _pv_predict(labels: LabelVolume, threshold: int) -> int:
    raw = classify_pv(labels, MASS_LABELS, threshold, DEFAULT_CLASS)
    return LABEL_TO_CLASS.get(raw, DEFAULT_CLASS)


def _select_pv_threshold(volumes: list[LabelVolume], truths: list[int]) -> int:
    """The PV voxel-count threshold most accurate on predicted segmentations.

    ``truths`` are case classes, compared with the class PV maps a mass
    label to; ties go to the smaller threshold.
    """
    candidates = [0, 1, 2, 5, 10, 20, 50, 100, 200]
    best_t, best_acc = candidates[0], -1.0
    for t in candidates:
        acc = float(np.mean([_pv_predict(v, t) == y for v, y in zip(volumes, truths)]))
        if acc > best_acc:
            best_t, best_acc = t, acc
    return best_t


def stage_classify(cfg: RunConfig, out_dir: str) -> None:
    params = load_params(os.path.join(out_dir, "model.ckpt"))
    topo = _load_prototype(out_dir).topology
    train_dirs, val_dirs = _split_train(cfg, out_dir)
    val_dirs = val_dirs or train_dirs  # no validation split: choose on all train cases
    segmentations, truths = [], []
    for d in val_dirs:
        with _case_errors(d):
            segmentations.append(_load_segmentation(d))
            truths.append(load_case_info(d).class_id)
    pv_threshold = _select_pv_threshold(segmentations, truths)
    rows = []
    for d in _case_dirs(out_dir, "test"):
        with _case_errors(d):
            vp, gp = forward(params, load_features(os.path.join(d, "features.csv")), topo)
            segmentation = _load_segmentation(d)
            truth = load_case_info(d).class_id
        gc = classify_gc(gp)
        vv_raw = classify_vv(vp, MASS_LABELS, DEFAULT_CLASS)
        vv = LABEL_TO_CLASS.get(vv_raw, DEFAULT_CLASS)
        pv = _pv_predict(segmentation, pv_threshold)
        rows.append((os.path.basename(d), truth, gc, vv, pv))
    with open(os.path.join(out_dir, "predictions.csv"), "w") as f:
        f.write(f"# pv_threshold {pv_threshold}\n")
        f.write("case,truth,gc,vv,pv\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


def stage_eval(cfg: RunConfig, out_dir: str) -> dict[str, float]:
    rows = []
    with open(os.path.join(out_dir, "predictions.csv")) as f:
        for line in f:
            if line.startswith("#") or line.startswith("case,"):
                continue
            name, truth, gc, vv, pv = line.strip().split(",")
            rows.append((name, int(truth), int(gc), int(vv), int(pv)))
    truths = [r[1] for r in rows]
    accs = {}
    for label, col in (("gc", 2), ("vv", 3), ("pv", 4)):
        preds = [r[col] for r in rows]
        accs[label] = float(np.mean([p == t for p, t in zip(preds, truths)]))
    mgmt_pred = [MANAGEMENT_BY_CLASS[r[2]] for r in rows]
    mgmt_true = [MANAGEMENT_BY_CLASS[r[1]] for r in rows]
    cm = management_report(mgmt_pred, mgmt_true)
    seg_cases = []
    for name, truth, *_ in rows:
        d = os.path.join(out_dir, "cases", name)
        with _case_errors(d):
            labels = load_volume(os.path.join(d, "labels"))
            gt_mass = np.isin(labels.data, list(MASS_LABELS))
            if not gt_mass.any():
                continue
            pred_mass = np.isin(_load_segmentation(d).data, list(MASS_LABELS))
        seg_cases.append((pred_mass, gt_mass, truth))
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    cm.to_csv(os.path.join(report_dir, "management_confusion.csv"))
    if seg_cases:
        dt = detection_table(seg_cases, cutoff=0.1)
        dt.to_csv(os.path.join(report_dir, "detection_table.csv"))
    with open(os.path.join(report_dir, "report.txt"), "w") as f:
        f.write("classification accuracy (test split)\n")
        for k in ("gc", "vv", "pv"):
            f.write(f"  {k.upper()}: {accs[k]:.4f}\n")
        f.write("\nmanagement confusion (rows = truth)\n")
        f.write(cm.to_text() + "\n")
    with open(os.path.join(report_dir, "accuracy.csv"), "w") as f:
        f.write("strategy,accuracy\n")
        for k in ("gc", "vv", "pv"):
            f.write(f"{k},{accs[k]:.9g}\n")
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
