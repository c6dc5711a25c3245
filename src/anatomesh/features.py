"""Per-vertex feature vectors: geometry plus zone- and organ-pooled probabilities."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .mesh import AnatomyMesh
from .volume import LabelVolume, ProbVolume, VolumeError, surface_mask
from .zones import ZoneMap

__all__ = ["pool_features", "feature_width", "save_features", "load_features"]

NO_MASS_SENTINEL = -1.0


def feature_width(channels: int) -> int:
    """Row width of the feature matrix: x,y,z,e,d plus local+global prob blocks."""
    return 5 + 2 * channels


def pool_features(
    mesh: AnatomyMesh,
    zmap: ZoneMap,
    probs: ProbVolume,
    labels: LabelVolume,
    mass_labels: set[int],
) -> np.ndarray:
    """Build the (V, 5+2K) per-vertex feature matrix.

    Coordinates are organ-centroid-relative, scaled by the organ bounding-box
    diagonal. ``d`` is the world distance to the nearest mass-surface voxel
    (-1 if no mass voxel exists). The local block averages probabilities
    over each vertex zone, the global block over all organ voxels.
    """
    if zmap.dims != probs.dims or zmap.dims != labels.dims:
        raise VolumeError(
            f"dimension mismatch: zones {zmap.dims}, probs {probs.dims}, "
            f"labels {labels.dims}"
        )
    k = probs.channels
    n = mesh.n_vertices
    spacing = np.asarray(zmap.spacing, dtype=np.float64)

    organ = zmap.data > 0
    organ_idx = np.argwhere(organ)
    organ_world = organ_idx * spacing
    centroid = organ_world.mean(axis=0)
    diag = float(np.linalg.norm(organ_world.max(axis=0) - organ_world.min(axis=0)))
    if diag == 0.0:
        diag = 1.0
    coords = (mesh.vertices - centroid) / diag

    e = mesh.mean_incident_edge_lengths()

    mass_mask = np.isin(labels.data, list(mass_labels))
    if mass_mask.any():
        surf = surface_mask(mass_mask)
        tree = cKDTree(np.argwhere(surf) * spacing)
        d, _ = tree.query(mesh.vertices)
    else:
        d = np.full(n, NO_MASS_SENTINEL)

    z = zmap.data[organ] - 1
    p = probs.data[organ].astype(np.float64)
    local = np.zeros((n, k))
    np.add.at(local, z, p)
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
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in feats:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_features(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
