"""Partition an organ mask into per-vertex zones by synchronized dilation."""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .mesh import AnatomyMesh
from .volume import CONN6, LabelVolume, VolumeError, organ_box

__all__ = ["ZoneError", "render_zones", "vertex_labels"]


class ZoneError(ValueError):
    """Inconsistent zone map inputs."""


# Neighbours asked of the KD-tree per vertex at first. Collisions are rare,
# so a vertex almost always takes one of these; only one whose short list is
# all taken is asked again at the full length.
_SHORT_K = 8


def _seed_voxels(
    verts: np.ndarray, organ: np.ndarray, spacing: np.ndarray, offset=(0, 0, 0)
) -> np.ndarray:
    """Nearest organ voxel per vertex, collision-free.

    ``organ`` may be a box cut from the full grid at voxel index ``offset``;
    distances are measured in world units of the full grid and the seeds are
    returned as indices into ``organ``. If two vertices pick the same voxel
    the lower index keeps it and the higher index takes its nearest unclaimed
    voxel, so every zone is seeded.
    """
    organ_idx = np.argwhere(organ)
    tree = cKDTree((organ_idx + offset) * spacing)
    k_full = min(len(organ_idx), len(verts) + 1)
    k = min(_SHORT_K, k_full)
    _, cand = tree.query(verts, k=k)
    taken: set[int] = set()
    seeds = []
    for i, row in enumerate(np.asarray(cand).reshape(len(verts), -1).tolist()):
        free = [j for j in row if j not in taken]
        if not free and k < k_full:
            free = [j for j in tree.query(verts[i], k=k_full)[1].tolist() if j not in taken]
        if not free:
            raise ZoneError("more vertices than organ voxels: cannot seed zones")
        taken.add(free[0])
        seeds.append(free[0])
    return organ_idx[seeds]


def render_zones(
    mesh: AnatomyMesh, organ: np.ndarray, spacing: tuple[float, float, float]
) -> LabelVolume:
    """Grow one zone per vertex over the organ by synchronized 6-connected rounds.

    The zones come back as a u8 label volume: 1-based vertex index on organ
    voxels, 0 off. So a mesh may have at most 255 vertices.

    Each vertex seeds its nearest organ voxel (world distance). Per round,
    every unlabeled organ voxel adjacent to a labeled one takes the smallest
    adjacent zone index (lower index wins ties). Organ voxels unreachable by
    dilation fall back to the Euclidean-nearest vertex. Growth runs on the
    organ's bounding box: no voxel outside the organ is ever labeled, so the
    filter's constant border stands in for the rest of the grid.
    """
    if mesh.n_vertices > np.iinfo(np.uint8).max:
        raise ZoneError("too many zones for the u8 label codec")
    box = organ_box(organ)
    crop = organ[box]
    if not crop.any():
        raise ZoneError("organ mask is empty")
    sp = np.asarray(spacing, dtype=np.float64)
    offset = np.array([b.start for b in box])
    zones = np.zeros(crop.shape, dtype=np.int32)
    seeds = _seed_voxels(mesh.vertices, crop, sp, offset)
    zones[tuple(seeds.T)] = np.arange(1, len(seeds) + 1)
    big = np.iinfo(np.int32).max
    while True:
        unlabeled = crop & (zones == 0)
        if not unlabeled.any():
            break
        # smallest zone index among each voxel's 6 neighbours (and itself,
        # which is unlabeled wherever it matters)
        best = ndimage.minimum_filter(
            np.where(zones == 0, big, zones), footprint=CONN6, mode="constant", cval=big
        )
        reached = unlabeled & (best < big)
        if not reached.any():
            # remaining voxels are in islands with no seed
            rest = np.argwhere(unlabeled)
            _, vi = cKDTree(mesh.vertices).query((rest + offset) * sp)
            zones[tuple(rest.T)] = vi + 1
            break
        zones[reached] = best[reached]
    full = np.zeros(organ.shape, dtype=np.uint8)
    full[box] = zones
    return LabelVolume(full, tuple(spacing))


def vertex_labels(zones: LabelVolume, labels: LabelVolume) -> np.ndarray:
    """Per-vertex class label: the maximum voxel label inside each zone."""
    if zones.dims != labels.dims:
        raise VolumeError(f"dimension mismatch: {zones.dims} vs {labels.dims}")
    box = organ_box(zones.data > 0)
    crop = zones.data[box]
    organ = crop > 0
    z, voxel_labels = crop[organ] - 1, labels.data[box][organ]
    out = np.full(int(crop.max(initial=0)), -1, dtype=np.int64)
    for value in np.unique(voxel_labels):  # ascending: each zone keeps its largest
        out[z[voxel_labels == value]] = value
    empty = np.flatnonzero(out < 0)
    if empty.size:
        raise ZoneError(f"zone of vertex {empty[0]} is empty")
    return out
