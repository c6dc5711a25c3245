import hashlib

import numpy as np
import pytest

from anatomesh.mesh import MeshError
from anatomesh.template import collapse_to, icosphere, template_mesh_arrays


def _collapse_brute(verts, faces, target):
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


def _jittered_icosphere(subdivisions, seed):
    """Icosphere with each vertex moved radially by a seeded random factor.

    Jitter makes the edge lengths distinct and lets the link condition fail
    at edges away from the merged vertex.
    """
    verts, faces = icosphere(subdivisions)
    if seed is not None:
        rng = np.random.default_rng(seed)
        verts = verts * rng.uniform(0.6, 1.4, size=(len(verts), 1))
    return verts, faces


class TestCollapseOracle:
    # icosphere(1) has 42 vertices, icosphere(2) 162; the low targets drive
    # the mesh through degenerate (non-manifold) states.
    @pytest.mark.parametrize(
        "subdivisions,target,seed",
        [(1, 41, None), (1, 30, None), (1, 20, None), (1, 12, None), (1, 4, None),
         (1, 3, None), (2, 150, None), (2, 100, None), (2, 60, None),
         (2, 20, None), (2, 3, None),
         (1, 20, 0), (1, 3, 0), (2, 100, 3), (2, 40, 3), (2, 10, 1)],
    )
    def test_matches_brute_force(self, subdivisions, target, seed):
        verts, faces = _jittered_icosphere(subdivisions, seed)
        got_v, got_f = collapse_to(verts, faces, target)
        ref_v, ref_f = _collapse_brute(verts, faces, target)
        assert len(got_v) == target
        assert got_v.dtype == ref_v.dtype and got_f.dtype == ref_f.dtype
        assert got_v.tobytes() == ref_v.tobytes()
        assert got_f.tobytes() == ref_f.tobytes()

    @pytest.mark.parametrize("subdivisions", [1, 2])
    def test_both_raise_below_smallest_collapse(self, subdivisions):
        verts, faces = icosphere(subdivisions)
        with pytest.raises(MeshError, match="no collapsible edge"):
            _collapse_brute(verts, faces, 2)
        with pytest.raises(MeshError, match="no collapsible edge"):
            collapse_to(verts, faces, 2)

    def test_target_at_size_is_identity(self):
        verts, faces = icosphere(1)
        out_v, out_f = collapse_to(verts, faces, len(verts))
        assert np.array_equal(out_v, verts) and np.array_equal(out_f, faces)


class TestTemplatePinned:
    def test_template_bytes(self):
        # Digest captured with the brute-force collapse, before it was
        # replaced by the heap: the template must stay bit-identical.
        verts, faces = template_mesh_arrays()
        assert verts.dtype == np.float64 and faces.dtype == np.int64
        h = hashlib.sha256()
        h.update(verts.tobytes())
        h.update(faces.tobytes())
        assert h.hexdigest() == "d75874fbf47660f58b535644b1eeecd2f7f6dac8cbc5015a64e2487a09ba6195"

    def test_arrays_read_only(self):
        verts, faces = template_mesh_arrays()
        assert not verts.flags.writeable and not faces.flags.writeable
