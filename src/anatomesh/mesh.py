"""Triangular surface mesh with per-vertex anatomical region labels."""

from __future__ import annotations

import copy
import functools
import re
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "AnatomyMesh",
    "MeshError",
    "MeshTopology",
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


@dataclass(frozen=True, eq=False)
class MeshTopology:
    """The combinatorics of a mesh, built once and shared by every stage.

    ``edges`` are the unique sorted vertex pairs of ``faces``; ``adjacency``
    is their symmetric V×V 0/1 CSR matrix, loop-free since no face repeats a
    corner. ``ends`` is V×2E and 0/1: column e is the first end of edge e,
    column E+e its second end. So ``ends @ np.concatenate([a, b])`` adds
    ``a[e]`` to vertex ``edges[e, 0]`` and ``b[e]`` to ``edges[e, 1]``, in
    the order of ``np.add.at`` over the first ends and then the second ends.
    """

    faces: np.ndarray
    region_counts: tuple[int, ...]
    edges: np.ndarray = field(init=False, repr=False)
    adjacency: sparse.csr_array = field(init=False, repr=False)
    ends: sparse.csr_array = field(init=False, repr=False)

    def __post_init__(self):
        faces = np.array(self.faces, dtype=np.int64)  # a copy, made read-only below
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError(f"faces must be (F, 3), got {faces.shape}")
        v = sum(self.region_counts)
        if faces.min(initial=0) < 0 or faces.max(initial=-1) >= v:
            raise MeshError("face indices out of range")
        repeats = (np.diff(np.sort(faces, axis=1), axis=1) == 0).any(axis=1)
        if repeats.any():
            raise MeshError(f"face {faces[repeats.argmax()].tolist()} repeats a corner")
        edges = edges_from_faces(faces)
        n = 2 * len(edges)
        # each edge from both ends: the first ends of all edges, then the second
        near, far = edges.T.ravel(), edges[:, ::-1].T.ravel()
        adjacency = sparse.csr_array((np.ones(n), (near, far)), shape=(v, v))
        ends = sparse.csr_array((np.ones(n), (near, np.arange(n))), shape=(v, n))
        faces.setflags(write=False)
        edges.setflags(write=False)
        for name, value in (("faces", faces), ("region_counts", tuple(self.region_counts)),
                            ("edges", edges), ("adjacency", adjacency), ("ends", ends)):
            object.__setattr__(self, name, value)

    @property
    def n_vertices(self) -> int:
        return sum(self.region_counts)

    @property
    def mean_degree(self) -> float:
        return 2 * len(self.edges) / self.n_vertices

    @functools.cached_property
    def face_rows(self) -> str:
        """The f rows :func:`save_mesh` writes for these faces, formatted once."""
        return "f %d %d %d\n" * len(self.faces) % tuple((self.faces + 1).ravel().tolist())


class AnatomyMesh:
    """Closed triangular mesh whose vertex indices carry anatomical meaning.

    ``vertices`` is (V, 3) float64 in world mm. ``faces`` (F, 3) and
    ``region_counts`` build one :class:`MeshTopology`, which every
    :meth:`with_vertices` copy shares. The region of vertex i is determined
    by its index range; ``region_counts`` defaults to the standard
    (48, 42, 45, 21) split.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        faces: np.ndarray,
        region_counts: tuple[int, ...] = REGION_COUNTS,
    ):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {self.vertices.shape}")
        v = len(self.vertices)
        if sum(region_counts) != v:
            raise MeshError(
                f"region counts {tuple(region_counts)} do not sum to vertex count {v}"
            )
        self.topology = MeshTopology(faces, region_counts)

    faces = property(lambda self: self.topology.faces)
    edges = property(lambda self: self.topology.edges)
    region_counts = property(lambda self: self.topology.region_counts)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.faces)

    def mean_incident_edge_lengths(self) -> np.ndarray:
        """Mean length of edges incident to each vertex."""
        p, ends = self.vertices, self.topology.ends
        lengths = np.linalg.norm(p[self.edges[:, 0]] - p[self.edges[:, 1]], axis=1)
        total = ends @ np.concatenate([lengths, lengths])
        return total / np.maximum(ends.sum(axis=1), 1)

    def with_vertices(self, vertices: np.ndarray) -> "AnatomyMesh":
        """Copy with new geometry, sharing the topology.

        Only the vertex shape is checked; the combinatorics were validated
        when the topology was built.
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


def _region_comments(counts: tuple[int, ...]) -> str:
    ranges = zip(REGION_NAMES, region_ranges(counts))
    return "".join(f"# region {name} {a + 1} {b}\n" for name, (a, b) in ranges)


def save_mesh(mesh: AnatomyMesh, path: str) -> None:
    """Write Wavefront-style text: v/f lines plus region-range comments.

    The comments name the regions of ``REGION_NAMES``; a mesh with more
    regions would not read back, so it is refused before the file is opened.
    """
    if len(mesh.region_counts) > len(REGION_NAMES):
        raise MeshError(
            f"{path}: {len(mesh.region_counts)} regions, the format names {len(REGION_NAMES)}"
        )
    with open(path, "w") as f:
        f.write(_region_comments(mesh.region_counts))
        f.write("v %.9g %.9g %.9g\n" * len(mesh.vertices) % tuple(mesh.vertices.ravel().tolist()))
        f.write(mesh.topology.face_rows)


# v rows as save_mesh writes them: a tag and three fields, one row per line
_V_ROWS = re.compile(r"(?:v \S+ \S+ \S+\n)*")


def _vertices_onto(text: str, like: AnatomyMesh) -> np.ndarray | None:
    """The vertices of ``text`` if it is ``like``'s region comments, one v row
    per vertex and ``like``'s f rows, as :func:`save_mesh` writes them; else None.

    Only the v rows are split into fields. Whatever this accepts, the
    line-by-line read accepts with the same vertices.
    """
    if len(like.region_counts) > len(REGION_NAMES) or not len(like.faces):
        return None  # save_mesh cannot write such a mesh so that it reads back
    head, tail = _region_comments(like.region_counts), like.topology.face_rows
    if not (text.startswith(head) and text.endswith(tail)):
        return None
    rows = text[len(head) : len(text) - len(tail)]
    if rows.count("\n") != like.n_vertices or not _V_ROWS.fullmatch(rows):
        return None
    fields = rows.split()
    del fields[::4]  # the v tags
    try:
        return np.array(fields, dtype=np.float64).reshape(-1, 3)
    except ValueError:
        return None  # the line-by-line read names the field


def load_mesh(path: str, like: AnatomyMesh | None = None) -> AnatomyMesh:
    """Read a mesh written by :func:`save_mesh`.

    A malformed line raises :class:`MeshError` naming the path. Given ``like``,
    the file must hold ``like``'s faces and region counts (else the same), and
    the result shares ``like``'s topology.
    """
    try:
        with open(path) as f:
            text = f.read()
    except ValueError as exc:  # not text
        raise MeshError(f"{path}: {exc}") from exc
    if like is not None:
        vertices = _vertices_onto(text, like)
        if vertices is not None:
            return like.with_vertices(vertices)
    verts: list[list[str]] = []
    faces: list[list[str]] = []
    counts: list[int] = []
    try:
        for line in text.split("\n"):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "#" and len(parts) >= 5 and parts[1] == "region":
                counts.append(int(parts[4]) - int(parts[3]) + 1)
            elif parts[0] == "v":
                verts.append(parts[1:4])
            elif parts[0] == "f":
                faces.append(parts[1:4])
        # a short or non-numeric v/f row fails here
        vertices = np.array(verts, dtype=np.float64)
        face_array = np.array(faces, dtype=np.int64) - 1
    except ValueError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    if not verts or not faces:
        raise MeshError(f"{path}: no mesh data found")
    region_counts = tuple(counts) if counts else (len(verts),)
    if like is None:
        return AnatomyMesh(vertices, face_array, region_counts)
    if region_counts != like.region_counts or not np.array_equal(face_array, like.faces):
        raise MeshError(f"{path}: faces or region counts differ from the prototype's")
    return like.with_vertices(vertices)
