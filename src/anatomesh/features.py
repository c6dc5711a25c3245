"""Per-vertex feature vectors: geometry plus zone- and organ-pooled probabilities."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .mesh import AnatomyMesh
from .volume import LabelVolume, ProbVolume, VolumeError, organ_box, surface_mask, voxel_indices

__all__ = ["pool_features", "feature_width", "save_features", "load_features"]

NO_MASS_SENTINEL = -1.0


def feature_width(channels: int) -> int:
    """Row width of the feature matrix: x,y,z,e,d plus local+global prob blocks."""
    return 5 + 2 * channels


def pool_features(
    mesh: AnatomyMesh,
    zones: LabelVolume,
    probs: ProbVolume,
    labels: LabelVolume,
    mass_labels: set[int],
) -> np.ndarray:
    """Build the (V, 5+2K) per-vertex feature matrix.

    ``zones`` holds each organ voxel's 1-based vertex index, as render-zones
    writes it. Coordinates are organ-centroid-relative, scaled by the organ
    bounding-box diagonal. ``d`` is the world distance to the nearest
    mass-surface voxel (-1 if no mass voxel exists). The local block averages
    probabilities over each vertex zone, the global block over all organ
    voxels. Mass labels are positive: every step runs on the box around the
    zone and non-zero label voxels, which holds every organ and mass voxel.
    """
    if zones.dims != probs.dims or zones.dims != labels.dims:
        raise VolumeError(
            f"dimension mismatch: zones {zones.dims}, probs {probs.dims}, "
            f"labels {labels.dims}"
        )
    k = probs.channels
    n = mesh.n_vertices
    spacing = np.asarray(zones.spacing, dtype=np.float64)

    box = organ_box((zones.data > 0) | (labels.data > 0))
    crop = zones.data[box]
    organ = crop > 0
    organ_world = voxel_indices(organ, box) * spacing
    centroid = organ_world.mean(axis=0)
    diag = float(np.linalg.norm(organ_world.max(axis=0) - organ_world.min(axis=0)))
    if diag == 0.0:
        diag = 1.0
    coords = (mesh.vertices - centroid) / diag

    e = mesh.mean_incident_edge_lengths()

    mass_mask = np.isin(labels.data[box], list(mass_labels))
    if mass_mask.any():
        surf = surface_mask(mass_mask)
        tree = cKDTree(voxel_indices(surf, box) * spacing)
        d, _ = tree.query(mesh.vertices)
    else:
        d = np.full(n, NO_MASS_SENTINEL)

    z = crop[organ] - 1
    p = probs.data[box][organ].astype(np.float64)
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
    """Write the feature matrix as CSV with a named header row."""
    k = (feats.shape[1] - 5) // 2
    cols = (
        ["x", "y", "z", "e", "d"]
        + [f"local_{i}" for i in range(k)]
        + [f"global_{i}" for i in range(k)]
    )
    row = ",".join(["%.17g"] * feats.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        f.write(row * len(feats) % tuple(feats.ravel().tolist()))


def load_features(path: str) -> np.ndarray:
    """Read a matrix written by :func:`save_features`; a malformed file raises VolumeError."""
    try:
        feats = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise VolumeError(f"{path}: {exc}") from exc
    width = feats.shape[1]
    if width < feature_width(1) or (width - feature_width(0)) % 2:
        raise VolumeError(f"{path}: {width} columns, expected 5 + 2K for K channels")
    return feats
