import numpy as np
import pytest

from anatomesh.mesh import (
    REGION_COUNTS,
    AnatomyMesh,
    MeshError,
    load_mesh,
    region_ranges,
    save_mesh,
)
from anatomesh.template import template_mesh_arrays


class TestTemplate:
    def test_combinatorics(self, template):
        assert template.n_vertices == 156
        assert len(template.edges) == 462
        assert len(template.faces) == 308
        assert template.euler_characteristic() == 2

    def test_closed_manifold(self, template):
        template.validate_closed()

    def test_no_duplicate_vertices(self, template):
        d = np.linalg.norm(
            template.vertices[:, None] - template.vertices[None, :], axis=2
        )
        np.fill_diagonal(d, 1.0)
        assert d.min() > 1e-6

    def test_deterministic(self):
        v1, f1 = template_mesh_arrays()
        v2, f2 = template_mesh_arrays()
        assert np.array_equal(v1, v2) and np.array_equal(f1, f2)


class TestRegions:
    def test_counts(self):
        assert REGION_COUNTS == (48, 42, 45, 21)
        assert sum(REGION_COUNTS) == 156

    def test_ranges_partition(self):
        ranges = region_ranges()
        assert ranges[0] == (0, 48)
        assert ranges[-1] == (135, 156)
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(156))

    def test_region_of(self, template):
        assert template.region_of(0) == "Head"
        assert template.region_of(47) == "Head"
        assert template.region_of(48) == "VentralBody"
        assert template.region_of(90) == "DorsalBody"
        assert template.region_of(155) == "Tail"


class TestMeshIO:
    def test_round_trip(self, template, tmp_path):
        path = str(tmp_path / "m.obj")
        save_mesh(template, path)
        back = load_mesh(path)
        assert np.array_equal(back.faces, template.faces)
        assert back.region_counts == template.region_counts
        # 9 significant digits survive the text format
        np.testing.assert_allclose(back.vertices, template.vertices, rtol=1e-8)

    def test_twice_round_trip_exact(self, template, tmp_path):
        p1, p2 = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
        save_mesh(template, p1)
        save_mesh(load_mesh(p1), p2)
        assert (tmp_path / "a.obj").read_text() == (tmp_path / "b.obj").read_text()

    def test_missing_data(self, tmp_path):
        p = tmp_path / "empty.obj"
        p.write_text("# nothing\n")
        with pytest.raises(MeshError):
            load_mesh(str(p))


class TestValidation:
    def test_bad_face_index(self):
        with pytest.raises(MeshError, match="out of range"):
            AnatomyMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]), (3,))

    def test_region_count_mismatch(self, small_mesh):
        with pytest.raises(MeshError, match="region counts"):
            AnatomyMesh(small_mesh.vertices, small_mesh.faces, (5, 5))

    def test_mean_incident_edge_lengths(self, small_mesh):
        # icosahedron: all edges equal, every vertex mean equals edge length
        p = small_mesh.vertices
        L = np.linalg.norm(p[small_mesh.edges[:, 0]] - p[small_mesh.edges[:, 1]], axis=1)
        means = small_mesh.mean_incident_edge_lengths()
        np.testing.assert_allclose(means, L[0], rtol=1e-12)


class TestWithVertices:
    def test_shares_topology(self, small_mesh):
        moved = small_mesh.with_vertices(small_mesh.vertices * 2.0)
        assert moved.edges is small_mesh.edges
        assert moved.faces is small_mesh.faces
        assert moved.region_counts == small_mesh.region_counts
        np.testing.assert_array_equal(moved.vertices, small_mesh.vertices * 2.0)
        # the source mesh keeps its own geometry
        assert not np.array_equal(moved.vertices, small_mesh.vertices)

    def test_shared_edges_read_only(self, small_mesh):
        moved = small_mesh.with_vertices(small_mesh.vertices)
        with pytest.raises(ValueError):
            moved.edges[0, 0] = 1

    @pytest.mark.parametrize("shape", [(11, 3), (12, 2), (36,)])
    def test_rejects_wrong_shape(self, small_mesh, shape):
        with pytest.raises(MeshError, match="vertices must be"):
            small_mesh.with_vertices(np.zeros(shape))
