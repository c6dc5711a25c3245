import numpy as np
import pytest

from anatomesh.mesh import REGION_NAMES, MeshError
from anatomesh.meshfit import SurfaceIndex, mean_surface_distance
from anatomesh.prototype import assign_regions, build_prototype, mean_shape
from anatomesh.volume import LabelVolume, VolumeError

from conftest import sphere_mask, vertex_region_names


def label_vol(mask, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(mask.astype(np.uint8), spacing)


def ellipsoid_mask(grid, center, axes):
    idx = np.indices((grid, grid, grid)).reshape(3, -1).T
    return ((((idx - np.asarray(center)) / np.asarray(axes)) ** 2).sum(axis=1) <= 1.0
            ).reshape(grid, grid, grid)


class TestMeanShape:
    def test_single_mask_identity(self):
        mask = sphere_mask(24, 6)
        out = mean_shape([label_vol(mask)], 1)
        assert np.array_equal(out.data.astype(bool), mask)

    def test_shifted_pair_recentres(self):
        base = sphere_mask(32, 5, (12, 15.5, 15.5))
        shifted = np.roll(base, 2, axis=0)
        out = mean_shape([label_vol(base), label_vol(shifted)], 1)
        # mean of the two centroids: shape re-centered one voxel over
        expect = np.roll(base, 1, axis=0)
        assert np.array_equal(out.data.astype(bool), expect)

    def test_matches_voxel_mean_oracle(self):
        rng = np.random.default_rng(0)
        masks = []
        for _ in range(3):
            center = rng.uniform(12, 20, size=3)
            axes = rng.uniform(4, 7, size=3)
            masks.append(ellipsoid_mask(32, center, axes))
        out = mean_shape([label_vol(m) for m in masks], 1)
        # independent recomputation: align centroids by integer shift, mean, >= 0.5
        centroids = [np.argwhere(m).mean(axis=0) for m in masks]
        ref = np.round(np.mean(centroids, axis=0)).astype(int)
        acc = np.zeros((32, 32, 32))
        for m, c in zip(masks, centroids):
            shift = ref - np.round(c).astype(int)
            acc += np.roll(m.astype(float), tuple(shift), axis=(0, 1, 2))
        expect = acc / 3 >= 0.5
        assert np.array_equal(out.data.astype(bool), expect)

    def test_empty_list_rejected(self):
        with pytest.raises(VolumeError):
            mean_shape([], 1)

    def test_spacing_mismatch_rejected(self):
        m = sphere_mask(16, 4)
        with pytest.raises(VolumeError, match="spacing"):
            mean_shape([label_vol(m), label_vol(m, (1.0, 1.0, 2.0))], 1)


class TestBuildPrototype:
    def test_sphere_fit(self):
        vol = label_vol(sphere_mask(48, 14))
        proto = build_prototype(vol)
        proto.validate_closed()
        assert proto.n_vertices == 156
        # every vertex close to the analytic sphere surface
        r = np.linalg.norm(proto.vertices - 23.5, axis=1)
        assert np.abs(r - 14).mean() <= 1.5

    def test_deterministic(self):
        vol = label_vol(sphere_mask(40, 11))
        a = build_prototype(vol)
        b = build_prototype(vol)
        assert np.array_equal(a.vertices, b.vertices)

    def test_capsule_bounding_box(self):
        mask = ellipsoid_mask(48, (23.5, 23.5, 23.5), (18, 7, 7))
        vol = label_vol(mask)
        proto = build_prototype(vol)
        got_min = proto.vertices.min(axis=0)
        got_max = proto.vertices.max(axis=0)
        want = np.argwhere(mask)
        assert np.all(np.abs(got_min - want.min(axis=0)) <= 2.0)
        assert np.all(np.abs(got_max - want.max(axis=0)) <= 2.0)


class TestAssignRegions:
    def _capsule_mesh(self):
        vol = label_vol(ellipsoid_mask(48, (23.5, 23.5, 23.5), (18, 7, 7)))
        return build_prototype(vol)

    def test_head_at_low_x(self):
        mesh = self._capsule_mesh()
        head_end = np.array([4.0, 23.5, 23.5])
        out = assign_regions(mesh, head_end)
        order = np.argsort(out.vertices[:, 0], kind="stable")
        # the 48 head vertices are exactly the 48 smallest-x vertices
        assert set(order[:48]) == set(range(48))

    def test_idempotent(self):
        mesh = self._capsule_mesh()
        head_end = np.array([4.0, 23.5, 23.5])
        once = assign_regions(mesh, head_end)
        twice = assign_regions(once, head_end)
        assert np.array_equal(once.vertices, twice.vertices)
        assert np.array_equal(once.faces, twice.faces)

    def test_region_counts_fixed(self):
        out = assign_regions(self._capsule_mesh(), np.array([4.0, 23.5, 23.5]))
        assert out.region_counts == (48, 42, 45, 21)
        regions = vertex_region_names(out.region_counts)
        assert [regions.count(name) for name in REGION_NAMES] == [48, 42, 45, 21]

    def test_geometry_preserved(self):
        mesh = self._capsule_mesh()
        out = assign_regions(mesh, np.array([4.0, 23.5, 23.5]))
        assert sorted(map(tuple, out.vertices)) == sorted(map(tuple, mesh.vertices))
        out.validate_closed()

    def test_degenerate_axis_rejected(self):
        from anatomesh.mesh import AnatomyMesh

        # regular octahedron: exactly equal principal axes
        verts = np.array(
            [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
             [0, 0, 1.0], [0, 0, -1.0]]
        )
        faces = np.array(
            [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
             [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
        )
        mesh = AnatomyMesh(verts, faces, (2, 2, 1, 1))
        with pytest.raises(MeshError, match="principal axis"):
            assign_regions(mesh, np.array([1.0, 0.0, 0.0]))
