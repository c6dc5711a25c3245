"""Anatomical prototype construction: mean shape, template fitting, regions."""

from __future__ import annotations

import numpy as np

from .mesh import AnatomyMesh, MeshError
from .meshfit import FitConfig, SurfaceIndex, fit_mesh, mean_surface_distance
from .template import template_mesh_arrays
from .volume import LabelVolume, VolumeError, is_connected, organ_box, voxel_indices

__all__ = ["mean_shape", "build_prototype", "assign_regions"]


def mean_shape(masks: list[LabelVolume]) -> LabelVolume:
    """Mean of centroid-aligned binary organ masks, thresholded at 0.5.

    Alignment is integer translation only; all inputs must share spacing.
    """
    if not masks:
        raise VolumeError("mean_shape needs at least one mask")
    spacing = masks[0].spacing
    dims = masks[0].dims
    for m in masks[1:]:
        if m.spacing != spacing:
            raise VolumeError(f"spacing mismatch: {m.spacing} vs {spacing}")
        if m.dims != dims:
            raise VolumeError(f"dims mismatch: {m.dims} vs {dims}")
    boxes, crops, centroids = [], [], []
    for m in masks:
        b = m.organ
        box = organ_box(b)
        crop = b[box]
        if not crop.any():
            raise VolumeError("a mask contains no organ voxels")
        boxes.append(box)
        crops.append(crop)
        centroids.append(voxel_indices(crop, box).mean(axis=0))
    ref = np.round(np.mean(centroids, axis=0)).astype(int)
    # each crop votes at its box shifted by whole voxels, wrapping round the
    # grid as np.roll does; the votes are whole counts, so every sum is exact
    acc = np.zeros_like(masks[0].data, dtype=np.float64)  # the masks' memory order
    for box, crop, c in zip(boxes, crops, centroids):
        shift = ref - np.round(c).astype(int)
        acc[np.ix_(*[(np.arange(s.start, s.stop) + k) % n
                     for s, k, n in zip(box, shift, dims)])] += crop
    acc /= len(masks)
    mean_mask = acc >= 0.5
    if not mean_mask.any():
        raise VolumeError("mean shape is empty")
    if not is_connected(mean_mask):
        raise VolumeError("mean shape is disconnected")
    return LabelVolume(mean_mask.astype(np.uint8), spacing)


def build_prototype(mean_mask: LabelVolume, cfg: FitConfig) -> AnatomyMesh:
    """Fit the fixed 156-vertex template to a mean organ mask.

    The template starts as the bounding ellipsoid of the mask and is deformed
    by the mask-to-mesh loss. Fails if vertices end up on average further
    than 1.5 voxels from the mask surface.
    """
    tverts, tfaces = template_mesh_arrays()
    idx_pts = np.argwhere(mean_mask.organ)
    if idx_pts.size == 0:
        raise VolumeError("mean mask is empty")
    spacing = np.asarray(mean_mask.spacing)
    world = idx_pts * spacing
    center = world.mean(axis=0)
    half = (world.max(axis=0) - world.min(axis=0)) / 2.0
    half = np.maximum(half, spacing)
    init = AnatomyMesh(tverts * half + center, tfaces)
    fitted, _ = fit_mesh(init, mean_mask, cfg)
    surf = SurfaceIndex.from_mask(mean_mask)
    dist = mean_surface_distance(fitted, surf)
    limit = 1.5 * float(spacing.mean())
    if dist > limit:
        raise MeshError(
            f"prototype fit did not converge: mean surface distance "
            f"{dist:.3f} mm exceeds {limit:.3f} mm"
        )
    return fitted


def assign_regions(mesh: AnatomyMesh, head_end: np.ndarray) -> AnatomyMesh:
    """Re-index vertices along the principal axis so region ranges line up.

    After reordering, vertex positions are unchanged but sorting by
    projection onto the first principal axis (head extremity first) makes
    indices 1-48 the head, 49-90 the ventral body, 91-135 the dorsal body
    and 136-156 the tail.
    """
    verts = mesh.vertices
    centered = verts - verts.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] - s[1] < 1e-9 * max(s[0], 1.0):
        raise MeshError("degenerate principal axis: point cloud is isotropic")
    axis = vt[0]
    if np.dot(np.asarray(head_end, dtype=np.float64) - verts.mean(axis=0), axis) > 0:
        axis = -axis
    proj = centered @ axis
    order = np.argsort(proj, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    return AnatomyMesh(verts[order], inv[mesh.faces], mesh.region_counts)
