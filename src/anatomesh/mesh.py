"""Triangular surface mesh with per-vertex anatomical region labels."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AnatomyMesh",
    "MeshError",
    "REGION_NAMES",
    "REGION_COUNTS",
    "region_ranges",
    "save_mesh",
    "load_mesh",
]

REGION_NAMES = ("Head", "VentralBody", "DorsalBody", "Tail")

# Vertex counts per region; ranges are contiguous: Head 1-48, VentralBody 49-90,
# DorsalBody 91-135, Tail 136-156 (1-based).
REGION_COUNTS = (48, 42, 45, 21)

VERTEX_COUNT = sum(REGION_COUNTS)  # 156


class MeshError(ValueError):
    """Invalid mesh structure."""


def region_ranges(counts: tuple[int, ...] = REGION_COUNTS) -> tuple[tuple[int, int], ...]:
    """Half-open 0-based (start, end) index ranges for each region."""
    out = []
    start = 0
    for c in counts:
        out.append((start, start + c))
        start += c
    return tuple(out)


def _face_edges(faces: np.ndarray) -> np.ndarray:
    """Every face's three edges as sorted pairs, one row per face side."""
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    return np.sort(e, axis=1)


def edges_from_faces(faces: np.ndarray) -> np.ndarray:
    """Unique undirected edges (sorted pairs) of a triangle list."""
    return np.unique(_face_edges(faces), axis=0)


@dataclass
class AnatomyMesh:
    """Closed triangular mesh whose vertex indices carry anatomical meaning.

    ``vertices`` is (V, 3) float64 in world mm, ``faces`` (F, 3) int. The
    region of vertex i is determined by its index range; ``region_counts``
    defaults to the standard (48, 42, 45, 21) split.
    """

    vertices: np.ndarray
    faces: np.ndarray
    region_counts: tuple[int, ...] = REGION_COUNTS
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError(f"faces must be (F, 3), got {self.faces.shape}")
        v = len(self.vertices)
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= v:
            raise MeshError("face indices out of range")
        if sum(self.region_counts) != v:
            raise MeshError(
                f"region counts {self.region_counts} do not sum to vertex count {v}"
            )
        self.edges = edges_from_faces(self.faces)
        self.edges.setflags(write=False)  # shared by every with_vertices copy

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.faces)

    def region_of(self, vertex: int) -> str:
        for name, (a, b) in zip(REGION_NAMES, region_ranges(self.region_counts)):
            if a <= vertex < b:
                return name
        raise MeshError(f"vertex index {vertex} out of range")

    def vertex_regions(self) -> np.ndarray:
        """Region index (0..3) per vertex."""
        out = np.empty(self.n_vertices, dtype=np.int64)
        for r, (a, b) in enumerate(region_ranges(self.region_counts)):
            out[a:b] = r
        return out

    def mean_incident_edge_lengths(self) -> np.ndarray:
        """Mean length of edges incident to each vertex."""
        p = self.vertices
        lengths = np.linalg.norm(p[self.edges[:, 0]] - p[self.edges[:, 1]], axis=1)
        total = np.zeros(self.n_vertices)
        count = np.zeros(self.n_vertices)
        np.add.at(total, self.edges[:, 0], lengths)
        np.add.at(total, self.edges[:, 1], lengths)
        np.add.at(count, self.edges[:, 0], 1)
        np.add.at(count, self.edges[:, 1], 1)
        return total / np.maximum(count, 1)

    def with_vertices(self, vertices: np.ndarray) -> "AnatomyMesh":
        """Copy with new geometry, sharing faces, edges and regions.

        Only the vertex shape is checked; the combinatorics were validated
        when this mesh was built, so the edges are not rebuilt.
        """
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        if vertices.shape != self.vertices.shape:
            raise MeshError(
                f"vertices must be {self.vertices.shape}, got {vertices.shape}"
            )
        out = copy.copy(self)
        out.vertices = vertices
        return out

    def validate_closed(self) -> None:
        """Check closed-manifold invariants: every edge on exactly 2 faces, genus 0."""
        _, counts = np.unique(_face_edges(self.faces), axis=0, return_counts=True)
        if not (counts == 2).all():
            raise MeshError("mesh is not closed: some edge is not shared by 2 faces")
        if self.euler_characteristic() != 2:
            raise MeshError(
                f"Euler characteristic {self.euler_characteristic()} != 2"
            )


def save_mesh(mesh: AnatomyMesh, path: str) -> None:
    """Write Wavefront-style text: v/f lines plus region-range comments."""
    with open(path, "w") as f:
        for name, (a, b) in zip(REGION_NAMES, region_ranges(mesh.region_counts)):
            f.write(f"# region {name} {a + 1} {b}\n")
        for x, y, z in mesh.vertices:
            f.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for i, j, k in mesh.faces:
            f.write(f"f {i + 1} {j + 1} {k + 1}\n")


def load_mesh(path: str) -> AnatomyMesh:
    """Read a mesh written by :func:`save_mesh`."""
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    counts: list[int] = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "#" and len(parts) >= 5 and parts[1] == "region":
                counts.append(int(parts[4]) - int(parts[3]) + 1)
            elif parts[0] == "v":
                verts.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(v) - 1 for v in parts[1:4]])
    if not verts or not faces:
        raise MeshError(f"{path}: no mesh data found")
    region_counts = tuple(counts) if counts else (len(verts),)
    return AnatomyMesh(np.array(verts), np.array(faces), region_counts)
