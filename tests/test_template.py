import hashlib
import re

import numpy as np
import pytest

from anatomesh.mesh import MeshError
from anatomesh.template import TEMPLATE_PATH, _read_template, template_mesh_arrays

from template_build import collapse_brute, collapse_to, icosphere, template_obj_text


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
        ref_v, ref_f = collapse_brute(verts, faces, target)
        assert len(got_v) == target
        assert got_v.dtype == ref_v.dtype and got_f.dtype == ref_f.dtype
        assert got_v.tobytes() == ref_v.tobytes()
        assert got_f.tobytes() == ref_f.tobytes()

    @pytest.mark.parametrize("subdivisions", [1, 2])
    def test_both_raise_below_smallest_collapse(self, subdivisions):
        verts, faces = icosphere(subdivisions)
        with pytest.raises(MeshError, match="no collapsible edge"):
            collapse_brute(verts, faces, 2)
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


class TestTemplateFile:
    def test_file_rebuilds_byte_for_byte(self):
        with open(TEMPLATE_PATH, "rb") as f:
            shipped = f.read()
        assert shipped == template_obj_text().encode()

    def test_file_reads_as_the_build(self):
        verts, faces = _read_template(TEMPLATE_PATH)
        ref_v, ref_f = template_mesh_arrays()
        assert verts.tobytes() == ref_v.tobytes() and faces.tobytes() == ref_f.tobytes()

    @staticmethod
    def _copy(tmp_path, lines):
        path = tmp_path / "template.obj"
        path.write_text("".join(lines))
        return str(path)

    @staticmethod
    def _rows(tag):
        with open(TEMPLATE_PATH) as f:
            return [line for line in f if line.startswith(tag + " ")]

    def test_truncated_faces_rejected(self, tmp_path):
        v, f = self._rows("v"), self._rows("f")
        path = self._copy(tmp_path, v + f[: len(f) // 2])
        with pytest.raises(MeshError, match=rf"^{re.escape(path)}: 156 vertices and \d+ edges, "
                                            r"the template has 156 and 462$"):
            _read_template(path)

    def test_truncated_vertices_rejected(self, tmp_path):
        path = self._copy(tmp_path, self._rows("v")[:100])
        with pytest.raises(MeshError, match=rf"^{re.escape(path)}: no mesh data found$"):
            _read_template(path)

    def test_extra_vertex_rejected(self, tmp_path):
        v, f = self._rows("v"), self._rows("f")
        path = self._copy(tmp_path, v + ["v 0 0 0\n"] + f)
        with pytest.raises(MeshError, match=rf"^{re.escape(path)}: 157 vertices and 462 edges, "):
            _read_template(path)

    def test_extra_face_rejected(self, tmp_path):
        _, faces = template_mesh_arrays()
        neighbours = set(faces[(faces == 0).any(axis=1)].ravel())
        b, c = [i for i in range(156) if i not in neighbours][:2]
        v, f = self._rows("v"), self._rows("f")
        path = self._copy(tmp_path, v + f + [f"f 1 {b + 1} {c + 1}\n"])
        with pytest.raises(MeshError, match=rf"^{re.escape(path)}: 156 vertices and 46[4-5] edges, "):
            _read_template(path)
