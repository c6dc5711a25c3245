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


def region_ranges(counts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
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
    corner. It is float32, the graph network's dtype; 0 and 1 are exact in
    any float dtype, so a float64 product upcasts it exactly. ``ends`` is
    V×2E and 0/1: column e is the first end of edge e, column E+e its second
    end. So ``ends @ np.concatenate([a, b])`` adds
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
        adjacency = sparse.csr_array((np.ones(n, dtype=np.float32), (near, far)), shape=(v, v))
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


# The layout save_mesh writes: comment lines, among them the region lines,
# then one v row per vertex and one f row per face, single spaces, every line
# ending in a newline.
_LAYOUT = re.compile(
    r"((?:# region \S+ [0-9]+ [0-9]+\n|#(?! region ).*\n)*)"
    r"((?:v \S+ \S+ \S+\n)*)"
    r"((?:f [0-9]+ [0-9]+ [0-9]+\n)*)"
)
_REGION = re.compile(r"^# region \S+ ([0-9]+) ([0-9]+)$", re.MULTILINE)


def _fields(rows: str, dtype: type) -> np.ndarray:
    """The (N, 3) fields of N ``tag a b c`` rows."""
    fields = rows.split()
    del fields[::4]  # the tags
    return np.array(fields, dtype=dtype).reshape(-1, 3)


def load_mesh(path: str, like: AnatomyMesh | None = None) -> AnatomyMesh:
    """Read a mesh in the layout :func:`save_mesh` writes, and no other.

    The ``# region`` comments give the region counts; without them every
    vertex is in one region. Another layout (named by its first line that
    does not fit), a field that is not a number and a mesh that
    :class:`AnatomyMesh` refuses raise :class:`MeshError` naming the path.
    Given ``like``, the file must hold ``like``'s region counts and f rows
    (else the same); only its v rows are split into fields, and the result
    shares ``like``'s topology.
    """
    try:
        with open(path, newline="") as f:
            text = f.read()
        layout = _LAYOUT.match(text)
        end = layout.end()
        if end < len(text):
            line, newline, _ = text[end:].partition("\n")
            n = text.count("\n", 0, end) + 1
            why = ("is not a comment, v or f row as save_mesh writes them" if newline
                   else "does not end in a newline")
            raise MeshError(f"line {n} {line!r} {why}")
        comments, v_rows, f_rows = layout.groups()
        if not v_rows or not f_rows:
            raise MeshError("no mesh data found")
        vertices = _fields(v_rows, np.float64)
        counts = tuple(int(b) - int(a) + 1 for a, b in _REGION.findall(comments))
        counts = counts or (len(vertices),)
        if like is None:
            return AnatomyMesh(vertices, _fields(f_rows, np.int64) - 1, counts)
        if counts != like.region_counts or f_rows != like.topology.face_rows:
            raise MeshError("faces or region counts differ from the prototype's")
        return like.with_vertices(vertices)
    except (ValueError, OverflowError) as exc:  # not text, out of the layout or a bad mesh
        raise MeshError(f"{path}: {exc}") from exc
