"""Per-vertex feature vectors: geometry plus zone- and organ-pooled probabilities."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial import cKDTree

from .evaluate import MASS_LABELS
from .mesh import AnatomyMesh
from .volume import LabelVolume, ProbVolume, VolumeError, organ_box, surface_mask, voxel_indices

__all__ = ["pool_features", "feature_width", "save_features", "load_features", "load_rows"]

NO_MASS_SENTINEL = -1.0


def feature_width(channels: int) -> int:
    """Row width of the feature matrix: x,y,z,e,d plus local+global prob blocks."""
    return 5 + 2 * channels


def pool_features(
    mesh: AnatomyMesh,
    zones: LabelVolume,
    probs: ProbVolume,
    segmentation: LabelVolume,
) -> np.ndarray:
    """Build the (V, 5+2K) per-vertex feature matrix.

    ``zones`` holds each organ voxel's 1-based vertex index, as render-zones
    writes it. Coordinates are organ-centroid-relative, scaled by the organ
    bounding-box diagonal. ``d`` is the world distance to the nearest
    surface voxel of the mass, the voxels of ``MASS_LABELS`` in
    ``segmentation`` (-1 if there are none). The local block averages
    probabilities over each vertex zone, the global block over all organ
    voxels. Every step runs on the box around the zone and non-zero
    segmentation voxels, which holds every organ and mass voxel. ``probs``
    must store that box; VolumeError names both boxes otherwise.
    """
    if zones.dims != probs.dims or zones.dims != segmentation.dims:
        raise VolumeError(
            f"dimension mismatch: zones {zones.dims}, probs {probs.dims}, "
            f"segmentation {segmentation.dims}"
        )
    k = probs.channels
    n = mesh.n_vertices
    spacing = np.asarray(zones.spacing, dtype=np.float64)

    box = organ_box((zones.data > 0) | (segmentation.data > 0))
    crop = zones.data[box]
    organ = crop > 0
    organ_world = voxel_indices(organ, box) * spacing
    centroid = organ_world.mean(axis=0)
    diag = float(np.linalg.norm(organ_world.max(axis=0) - organ_world.min(axis=0)))
    if diag == 0.0:
        diag = 1.0
    coords = (mesh.vertices - centroid) / diag

    e = mesh.mean_incident_edge_lengths()

    mass_mask = np.isin(segmentation.data[box], MASS_LABELS)
    if mass_mask.any():
        surf = surface_mask(mass_mask)
        tree = cKDTree(voxel_indices(surf, box) * spacing)
        d, _ = tree.query(mesh.vertices)
    else:
        d = np.full(n, NO_MASS_SENTINEL)

    z = crop[organ] - 1
    p = probs.crop(box)[organ].astype(np.float64)
    local = np.empty((n, k))
    for c in range(k):  # bincount adds in index order, as a scatter-add would
        local[:, c] = np.bincount(z, weights=p[:, c], minlength=n)
    counts = np.bincount(z, minlength=n).astype(np.float64)
    if (counts == 0).any():
        raise VolumeError(f"zone of vertex {int(np.flatnonzero(counts == 0)[0])} is empty")
    local /= counts[:, None]
    global_block = p.mean(axis=0)

    feats = np.empty((n, feature_width(k)))
    feats[:, 0:3] = coords
    feats[:, 3] = e
    feats[:, 4] = d
    feats[:, 5 : 5 + k] = local
    feats[:, 5 + k :] = global_block
    return feats


def save_features(feats: np.ndarray, path: str) -> None:
    """Write the feature matrix as CSV: a header naming the per-vertex columns
    ``x,y,z,e,d,local_0..``, one ``global`` line with the K global values, then
    one row of 5 + K values per vertex.

    Every row must hold the same global block, bit for bit; VolumeError otherwise.
    """
    k = (feats.shape[1] - 5) // 2
    glob = feats[:, 5 + k :]
    bits = glob.view(np.uint64)
    if not len(feats) or (bits != bits[0]).any():
        raise VolumeError(f"{path}: the rows must hold one global block, bit for bit")
    cols = ["x", "y", "z", "e", "d"] + [f"local_{i}" for i in range(k)]
    row = ",".join(["%.17g"] * (5 + k)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        f.write("global" + ",%.17g" * k % tuple(glob[0].tolist()) + "\n")
        f.write(row * len(feats) % tuple(feats[:, : 5 + k].ravel().tolist()))


def load_rows(path: str, error: type[Exception], **options) -> np.ndarray:
    """``np.loadtxt(path, **options)``; ``error`` naming the file unless it parses and has rows."""
    try:
        with warnings.catch_warnings():  # numpy warns on a file with no rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(path, **options)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc
    if not rows.size:
        raise error(f"{path}: holds no rows")
    return rows


def load_features(path: str) -> np.ndarray:
    """Read a matrix written by :func:`save_features`: each row's 5 + K values,
    then the ``global`` line's K values. A malformed file raises VolumeError."""
    try:
        with open(path) as f:
            f.readline()
            words = f.readline().rstrip("\n").split(",")
        glob = np.array(words[1:], dtype=np.float64)
    except ValueError as exc:  # not text, or a value that is not a number
        raise VolumeError(f"{path}: {exc}") from exc
    if words[0] != "global":
        raise VolumeError(f"{path}: no 'global' line after the header: the file predates "
                          "this format; rerun pool-features to write it again")
    rows = load_rows(path, VolumeError, delimiter=",", skiprows=2, ndmin=2)
    width = rows.shape[1]
    if width < 6:
        raise VolumeError(f"{path}: {width} columns, expected 5 + K for K channels")
    if len(glob) != width - 5:
        raise VolumeError(f"{path}: the global line holds {len(glob)} values for "
                          f"{width - 5} local columns")
    return np.hstack([rows, np.broadcast_to(glob, (len(rows), len(glob)))])
