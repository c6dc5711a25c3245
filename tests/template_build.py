"""How the shipped template mesh (``anatomesh/template.obj``) is built.

The template is a 642-vertex icosphere simplified by shortest-edge collapses
to 156 vertices and projected back to the unit sphere. The construction is
fully deterministic, ties broken by the smaller ``(u, v)`` vertex pair, so
``tests/test_template.py`` rebuilds the file byte for byte. The heap-based
``collapse_to`` has the quadratic ``collapse_brute`` as its oracle.

To rewrite the file after a change to the construction::

    PYTHONPATH=src python tests/template_build.py > src/anatomesh/template.obj
"""

import heapq
import sys

import numpy as np

from anatomesh.mesh import VERTEX_COUNT, MeshError

HEADER = "# anatomesh template: icosphere(3) edge-collapsed to 156 vertices, on the unit sphere\n"


def icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere: (vertices, faces). 0 subdivisions = icosahedron."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        vlist = list(verts)
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = (vlist[a] + vlist[b]) / 2.0
                vlist.append(p / np.linalg.norm(p))
                midpoint[key] = len(vlist) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(vlist)
        faces = np.array(new_faces, dtype=np.int64)
    return verts, faces


def _link_ok(nbrs: list[set[int]], u: int, v: int) -> bool:
    """Link condition: the endpoints share exactly the two face-opposite vertices."""
    return len(nbrs[u] & nbrs[v]) == 2


def collapse_to(
    verts: np.ndarray, faces: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Simplify a closed manifold mesh to ``target`` vertices.

    Repeatedly collapses the shortest edge ``(u, v)``, ``u < v``, that passes
    the link condition, keeping ``u`` at the edge midpoint and dropping ``v``.
    Ties go to the lexicographically smallest ``(length, u, v)`` key.

    The candidate edges sit in a min-heap of ``(length, u, v)`` entries, and
    the per-vertex neighbour and face sets are updated only around each
    merge. An entry is stale once an endpoint has moved or lost a neighbour;
    a popped entry is used only if both endpoints are alive and adjacent, the
    link condition holds and its length, recomputed the same way, is equal.
    After a merge, every collapsible edge at ``u`` or at a vertex whose
    neighbours changed is pushed again unless its newest entry already has
    its current length, so each collapsible edge always has a current entry.
    Faces keep their input order; a face is relabelled ``v -> u`` in place or
    dropped when two of its corners merge.
    """
    n = len(verts)
    pos = [v.copy() for v in verts]
    face_list = [list(f) for f in faces]
    face_alive = [True] * len(face_list)
    vfaces: list[set[int]] = [set() for _ in range(n)]
    for fi, f in enumerate(face_list):
        for i in f:
            vfaces[i].add(fi)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    heap: list[tuple[float, int, int]] = []
    # (u, v) -> length of a heap entry known to be still queued
    queued: dict[tuple[int, int], float] = {}

    def refresh(x: int) -> None:
        nbrs[x] = {i for fi in vfaces[x] for i in face_list[fi] if i != x}

    def push_edges_at(x: int) -> None:
        for y in nbrs[x]:
            u, v = (x, y) if x < y else (y, x)
            if _link_ok(nbrs, u, v):
                d = float(np.linalg.norm(pos[u] - pos[v]))
                if queued.get((u, v)) != d:
                    queued[(u, v)] = d
                    heapq.heappush(heap, (d, u, v))

    for x in range(n):
        refresh(x)
    for x in range(n):
        push_edges_at(x)

    alive = set(range(n))
    while len(alive) > target:
        while heap:
            d, u, v = heapq.heappop(heap)
            if queued.get((u, v)) == d:
                del queued[(u, v)]
            # a dropped vertex has no neighbours, so adjacency implies both alive
            if (
                v in nbrs[u]
                and _link_ok(nbrs, u, v)
                and d == float(np.linalg.norm(pos[u] - pos[v]))
            ):
                break
        else:
            raise MeshError("no collapsible edge found before reaching target size")
        pos[u] = (pos[u] + pos[v]) / 2.0
        changed = nbrs[v] | {u}
        for fi in vfaces[v]:
            f = face_list[fi]
            f[f.index(v)] = u
            if len(set(f)) == 3:
                vfaces[u].add(fi)
            else:
                face_alive[fi] = False
                for i in set(f):
                    vfaces[i].discard(fi)
        vfaces[v], nbrs[v] = set(), set()
        alive.discard(v)
        for x in changed:
            refresh(x)
        for x in changed:
            push_edges_at(x)
    kept = sorted(alive)
    remap = {old: new for new, old in enumerate(kept)}
    out_verts = np.array([pos[old] for old in kept])
    out_faces = np.array(
        [[remap[i] for i in f] for f, ok in zip(face_list, face_alive) if ok],
        dtype=np.int64,
    )
    return out_verts, out_faces


def collapse_brute(verts, faces, target):
    """Reference edge collapse: rescans every edge before each merge.

    This is the original quadratic loop, kept as an oracle for the heap-based
    ``collapse_to``: same link condition, same ``(length, u, v)`` key, same
    midpoint placement and face order.
    """
    pos = {i: v.copy() for i, v in enumerate(verts)}
    face_list = [tuple(f) for f in faces]
    alive = set(pos)
    while len(alive) > target:
        nbrs = [set() for _ in range(len(verts))]
        for a, b, c in face_list:
            nbrs[a].update((b, c))
            nbrs[b].update((a, c))
            nbrs[c].update((a, b))
        best = None
        for u in sorted(alive):
            for v in sorted(nbrs[u]):
                if v <= u:
                    continue
                if len(nbrs[u] & nbrs[v]) != 2:
                    continue
                key = (float(np.linalg.norm(pos[u] - pos[v])), u, v)
                if best is None or key < best:
                    best = key
        if best is None:
            raise MeshError("no collapsible edge found before reaching target size")
        _, u, v = best
        pos[u] = (pos[u] + pos[v]) / 2.0
        new_faces = []
        for f in face_list:
            g = tuple(u if i == v else i for i in f)
            if len(set(g)) == 3:
                new_faces.append(g)
        face_list = new_faces
        alive.discard(v)
        del pos[v]
    remap = {old: new for new, old in enumerate(sorted(alive))}
    out_verts = np.array([pos[old] for old in sorted(alive)])
    out_faces = np.array([[remap[i] for i in f] for f in face_list], dtype=np.int64)
    return out_verts, out_faces


def template_obj_text() -> str:
    """The text of ``template.obj``: ``%.17g`` v rows, which round-trip float64,
    then 1-based f rows."""
    verts, faces = icosphere(3)  # 642 vertices
    verts, faces = collapse_to(verts, faces, VERTEX_COUNT)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return (
        HEADER
        + "v %.17g %.17g %.17g\n" * len(verts) % tuple(verts.ravel().tolist())
        + "f %d %d %d\n" * len(faces) % tuple((faces + 1).ravel().tolist())
    )


if __name__ == "__main__":
    sys.stdout.write(template_obj_text())
