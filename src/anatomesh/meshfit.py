"""Deform a prototype mesh onto a target mask surface by gradient descent.

Total loss: point term + lambda1 * edge-uniformity + lambda2 * edge-length.
Nearest-surface correspondences are refreshed every iteration (ICP-style
alternation); within an iteration the step is halved until the
fixed-correspondence loss does not increase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .mesh import AnatomyMesh
from .volume import LabelVolume, organ_box, surface_mask, voxel_indices

__all__ = [
    "SurfaceIndex",
    "FitConfig",
    "FitError",
    "point_loss",
    "edge_regularizers",
    "fit_mesh",
]


class FitError(RuntimeError):
    """Mesh fitting failure (degenerate geometry or divergence)."""


class SurfaceIndex:
    """Nearest-neighbor index over the surface voxels of a mask, in world mm."""

    def __init__(self, points: np.ndarray):
        if len(points) == 0:
            raise FitError("empty surface index")
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self._tree = cKDTree(self.points)

    @classmethod
    def from_mask(cls, target: LabelVolume) -> "SurfaceIndex":
        """The index over the organ's surface voxels, found on the organ's box."""
        mask = target.organ
        box = organ_box(mask)
        surf = surface_mask(mask[box])
        if not surf.any():
            raise FitError("the organ has no surface voxels in target")
        return cls(voxel_indices(surf, box) * np.asarray(target.spacing, dtype=np.float64))

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distances, nearest surface points) for each query point."""
        d, idx = self._tree.query(queries)
        return d, self.points[idx]


@dataclass(frozen=True)
class FitConfig:
    """The ``[fit]`` settings; the field defaults are the run defaults."""

    lambda1: float = 1e-4
    lambda2: float = 1e-2
    step_size: float = 0.25
    max_iters: int = 400
    tol: float = 1e-6
    prototype_cases: int = 10  # train cases whose mean shape the prototype is fitted to

    def __post_init__(self):
        # each test is written so that NaN fails it
        for name in ("lambda1", "lambda2", "step_size", "tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_iters", "prototype_cases"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class FitTrace:
    """Per-iteration loss record, exportable as CSV."""

    point: list[float] = field(default_factory=list)
    e1: list[float] = field(default_factory=list)
    e2: list[float] = field(default_factory=list)
    total: list[float] = field(default_factory=list)

    def append(self, lpt: float, le1: float, le2: float, ltot: float) -> None:
        self.point.append(lpt)
        self.e1.append(le1)
        self.e2.append(le2)
        self.total.append(ltot)

    def __len__(self) -> int:
        return len(self.total)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("iter,L_pt,L_e1,L_e2,L_total\n")
            rows = zip(range(len(self)), self.point, self.e1, self.e2, self.total)
            f.write("%d,%.9g,%.9g,%.9g,%.9g\n" * len(self) % tuple(v for r in rows for v in r))


def _point_term(verts: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
    diff = verts - q
    return float((diff * diff).sum()), 2.0 * diff


def point_loss(mesh: AnatomyMesh, idx: SurfaceIndex) -> tuple[float, np.ndarray]:
    """Sum of squared distances from each vertex to its nearest surface point.

    The gradient holds the nearest-point correspondences fixed.
    """
    _, q = idx.nearest(mesh.vertices)
    return _point_term(mesh.vertices, q)


def edge_regularizers(
    mesh: AnatomyMesh,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Edge-uniformity and edge-length terms with analytic gradients.

    e1 = sum_e (|e| - mean_e)^2 over all edges, mean_e the global mean edge
    length (itself a function of the vertices); e2 = sum_e |e|.
    """
    p = mesh.vertices
    edges = mesh.edges
    vec = p[edges[:, 0]] - p[edges[:, 1]]
    lengths = np.linalg.norm(vec, axis=1)
    bad = np.flatnonzero(lengths == 0.0)
    if bad.size:
        a, b = edges[bad[0]]
        raise FitError(f"degenerate zero-length edge ({a}, {b})")
    mean = lengths.mean()
    dev = lengths - mean
    e1 = float((dev * dev).sum())
    e2 = float(lengths.sum())
    unit = vec / lengths[:, None]
    # d(e1)/d|e_i| = 2*(|e_i| - mean) - (2/E)*sum(dev) and the deviations sum
    # to zero, so the mean's dependence on the vertices drops out.
    g1_edge = 2.0 * dev[:, None] * unit
    ends = mesh.topology.ends
    grad1 = ends @ np.concatenate([g1_edge, -g1_edge])
    grad2 = ends @ np.concatenate([unit, -unit])
    return e1, e2, grad1, grad2


def _objective(
    verts: np.ndarray, q: np.ndarray, regs: tuple, cfg: FitConfig
) -> tuple[float, float, np.ndarray]:
    """(L_pt, total, gradient) with correspondences ``q`` held fixed.

    ``regs`` is :func:`edge_regularizers` of the same vertices.
    """
    lpt, grad_pt = _point_term(verts, q)
    e1, e2, g1, g2 = regs
    total = lpt + cfg.lambda1 * e1 + cfg.lambda2 * e2
    return lpt, total, grad_pt + cfg.lambda1 * g1 + cfg.lambda2 * g2


def fit_mesh(
    mesh: AnatomyMesh,
    target: LabelVolume,
    cfg: FitConfig,
) -> tuple[AnatomyMesh, FitTrace]:
    """Iteratively deform ``mesh`` onto the surface of the organ in ``target``.

    Combinatorics and region labels are untouched; only vertex positions move.
    The regularizers depend on the vertices alone, so those of the accepted
    line-search candidate carry into the next iteration.
    """
    idx = SurfaceIndex.from_mask(target)
    current = mesh.with_vertices(mesh.vertices.copy())
    regs = edge_regularizers(current)
    trace = FitTrace()
    prev_total = None
    for it in range(cfg.max_iters):
        _, q = idx.nearest(current.vertices)
        lpt, total, grad = _objective(current.vertices, q, regs, cfg)
        if not np.isfinite(total):
            raise FitError(f"non-finite loss at iteration {it}")
        trace.append(lpt, regs[0], regs[1], total)
        step = cfg.step_size
        for _ in range(40):
            candidate = current.with_vertices(current.vertices - step * grad)
            candidate_regs = edge_regularizers(candidate)
            if _objective(candidate.vertices, q, candidate_regs, cfg)[1] <= total:
                break
            step *= 0.5
        else:
            # gradient is (numerically) zero: converged
            break
        current, regs = candidate, candidate_regs
        if prev_total is not None and prev_total > 0:
            if (prev_total - total) / prev_total < cfg.tol and total <= prev_total:
                break
        prev_total = total
    return current, trace


def mean_surface_distance(mesh: AnatomyMesh, idx: SurfaceIndex) -> float:
    """Mean world-space distance from mesh vertices to the surface point set."""
    d, _ = idx.nearest(mesh.vertices)
    return float(d.mean())
