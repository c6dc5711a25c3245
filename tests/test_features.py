import numpy as np
import pytest

from anatomesh.features import (
    NO_MASS_SENTINEL,
    feature_width,
    load_features,
    pool_features,
    save_features,
)
from anatomesh.volume import LabelVolume, ProbVolume, VolumeError
from anatomesh.zones import ZoneMap, render_zones

from test_zones import line_mesh, zone_mask


def uniform_probs(dims, k):
    return ProbVolume(np.full(dims + (k,), 1.0 / k, dtype=np.float32), (1.0, 1.0, 1.0))


def scene(rng, grid=12, n_verts=4, k=3):
    """Small random organ with zones, labels and probabilities."""
    organ = np.zeros((grid,) * 3, dtype=bool)
    organ[2:-2, 2:-2, 2:-2] = rng.random((grid - 4,) * 3) < 0.7
    organ[grid // 2, grid // 2, grid // 2] = True
    verts = rng.uniform(3, grid - 3, size=(n_verts, 3))
    mesh = line_mesh(verts)
    zmap = render_zones(mesh, organ, (1.0, 1.0, 1.0))
    raw = rng.random((grid,) * 3 + (k,)).astype(np.float32)
    raw /= raw.sum(axis=-1, keepdims=True)
    probs = ProbVolume(raw, (1.0, 1.0, 1.0))
    lab = (rng.integers(1, 4, size=(grid,) * 3) * organ).astype(np.uint8)
    labels = LabelVolume(lab, (1.0, 1.0, 1.0))
    return mesh, zmap, probs, labels


class TestShapeAndBlocks:
    def test_feature_width(self):
        assert feature_width(4) == 13
        assert feature_width(1) == 7

    def test_uniform_probs_give_uniform_blocks(self):
        rng = np.random.default_rng(0)
        mesh, zmap, _, labels = scene(rng, k=4)
        probs = uniform_probs(zmap.dims, 4)
        feats = pool_features(mesh, zmap, probs, labels, {2, 3})
        assert feats.shape == (mesh.n_vertices, 13)
        np.testing.assert_allclose(feats[:, 5:13], 0.25, rtol=1e-6)

    def test_global_block_identical_rows(self):
        rng = np.random.default_rng(1)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels, {2})
        g = feats[:, 5 + probs.channels :]
        assert np.all(g == g[0])

    def test_mean_pool_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels, {2})
        k = probs.channels
        for v in range(mesh.n_vertices):
            zone = zone_mask(zmap, v)
            expect = probs.data[zone].astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(feats[v, 5 : 5 + k], expect, rtol=1e-9)
        organ = zmap.data > 0
        np.testing.assert_allclose(
            feats[0, 5 + k :], probs.data[organ].astype(np.float64).mean(axis=0),
            rtol=1e-9,
        )


class TestGeometryColumns:
    def test_coords_centered_and_bounded(self):
        rng = np.random.default_rng(5)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels, {2})
        # normalized by the bounding-box diagonal: coordinates stay small
        assert np.abs(feats[:, 0:3]).max() < 2.0

    def test_coords_translation_covariant(self):
        rng = np.random.default_rng(6)
        mesh, zmap, probs, labels = scene(rng)
        a = pool_features(mesh, zmap, probs, labels, {2})
        shifted = mesh.with_vertices(mesh.vertices + [3.0, -1.0, 2.0])
        b = pool_features(shifted, zmap, probs, labels, {2})
        # organ centroid is unchanged, so shifting the mesh shifts the
        # normalized coordinates by the same world offset over the diagonal
        organ_world = np.argwhere(zmap.data > 0).astype(float)
        diag = np.linalg.norm(organ_world.max(axis=0) - organ_world.min(axis=0))
        expect = np.broadcast_to(np.array([3.0, -1.0, 2.0]) / diag, (4, 3))
        np.testing.assert_allclose(b[:, 0:3] - a[:, 0:3], expect, rtol=1e-9)

    def test_edge_column_matches_mesh(self):
        rng = np.random.default_rng(7)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels, {2})
        np.testing.assert_allclose(feats[:, 3], mesh.mean_incident_edge_lengths())

    def test_distance_zero_on_mass_surface(self):
        organ = np.zeros((10, 10, 10), dtype=bool)
        organ[2:8, 2:8, 2:8] = True
        lab = np.zeros((10, 10, 10), dtype=np.uint8)
        lab[organ] = 1
        lab[4:6, 4:6, 4:6] = 2
        verts = np.array([[4.0, 4.0, 4.0], [2.0, 2.0, 2.0], [7.0, 7.0, 7.0]])
        mesh = line_mesh(verts)
        zmap = render_zones(mesh, organ, (1.0, 1.0, 1.0))
        probs = uniform_probs((10, 10, 10), 2)
        feats = pool_features(mesh, zmap, probs, LabelVolume(lab, (1, 1, 1)), {2})
        assert feats[0, 4] == 0.0  # vertex sits on a mass surface voxel
        assert feats[1, 4] > 0.0

    def test_distance_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels, {2, 3})
        from anatomesh.volume import surface_mask

        mass = np.isin(labels.data, [2, 3])
        surf = np.argwhere(surface_mask(mass)).astype(float)
        for v in range(mesh.n_vertices):
            expect = np.linalg.norm(surf - mesh.vertices[v], axis=1).min()
            assert feats[v, 4] == pytest.approx(expect, abs=1e-9)

    def test_distance_is_one_lipschitz(self):
        rng = np.random.default_rng(9)
        mesh, zmap, probs, labels = scene(rng)
        a = pool_features(mesh, zmap, probs, labels, {2})
        delta = rng.normal(scale=0.3, size=mesh.vertices.shape)
        b = pool_features(mesh.with_vertices(mesh.vertices + delta), zmap, probs,
                          labels, {2})
        step = np.linalg.norm(delta, axis=1)
        assert np.all(np.abs(b[:, 4] - a[:, 4]) <= step + 1e-9)

    def test_no_mass_sentinel(self):
        rng = np.random.default_rng(10)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels, {99})
        assert np.all(feats[:, 4] == NO_MASS_SENTINEL)


class TestIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels, {2})
        path = str(tmp_path / "f.csv")
        save_features(feats, path)
        back = load_features(path)
        np.testing.assert_array_equal(back, feats)

    def test_header_names(self, tmp_path):
        feats = np.zeros((2, 9))  # k = 2
        path = tmp_path / "f.csv"
        save_features(feats, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "x,y,z,e,d,local_0,local_1,global_0,global_1"

    def test_dims_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        mesh, zmap, _, labels = scene(rng)
        bad = uniform_probs((5, 5, 5), 3)
        with pytest.raises(VolumeError, match="mismatch"):
            pool_features(mesh, zmap, bad, labels, {2})
