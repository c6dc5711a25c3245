import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.spatial import cKDTree

from anatomesh.features import (
    NO_MASS_SENTINEL,
    feature_width,
    load_features,
    pool_features,
    save_features,
)
from anatomesh.volume import LabelVolume, ProbVolume, VolumeError, surface_mask
from anatomesh.zones import render_zones

from conftest import awkward_floats, organ_scenes, written_bytes
from test_zones import line_mesh, zone_mask


def save_features_reference(feats, path):
    """The per-value writer ``save_features`` replaced, kept as a byte-equality oracle."""
    k = (feats.shape[1] - 5) // 2
    cols = (
        ["x", "y", "z", "e", "d"]
        + [f"local_{i}" for i in range(k)]
        + [f"global_{i}" for i in range(k)]
    )
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in feats:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def pool_features_whole_grid(mesh, zmap, probs, labels, mass_labels):
    """``pool_features`` before it worked on the organ's box, kept as a byte-equality oracle."""
    k = probs.channels
    n = mesh.n_vertices
    spacing = np.asarray(zmap.spacing, dtype=np.float64)
    organ = zmap.data > 0
    organ_world = np.argwhere(organ) * spacing
    centroid = organ_world.mean(axis=0)
    diag = float(np.linalg.norm(organ_world.max(axis=0) - organ_world.min(axis=0)))
    coords = (mesh.vertices - centroid) / (diag if diag != 0.0 else 1.0)
    mass_mask = np.isin(labels.data, list(mass_labels))
    if mass_mask.any():
        d, _ = cKDTree(np.argwhere(surface_mask(mass_mask)) * spacing).query(mesh.vertices)
    else:
        d = np.full(n, NO_MASS_SENTINEL)
    z = zmap.data[organ] - 1
    p = probs.data[organ].astype(np.float64)
    local = np.empty((n, k))
    for c in range(k):
        local[:, c] = np.bincount(z, weights=p[:, c], minlength=n)
    local /= np.bincount(z, minlength=n).astype(np.float64)[:, None]
    feats = np.empty((n, feature_width(k)))
    feats[:, 0:3] = coords
    feats[:, 3] = mesh.mean_incident_edge_lengths()
    feats[:, 4] = d
    feats[:, 5 : 5 + k] = local
    feats[:, 5 + k :] = p.mean(axis=0)
    return feats


def local_block_add_at(zmap, probs):
    """Scatter-add oracle for the zone-mean block of :func:`pool_features`."""
    organ = zmap.data > 0
    z = zmap.data[organ] - 1
    p = probs.data[organ].astype(np.float64)
    n_zones = int(zmap.data.max())
    local = np.zeros((n_zones, probs.channels))
    np.add.at(local, z, p)
    return local / np.bincount(z, minlength=n_zones)[:, None]


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

    @given(
        st.integers(1, 3).flatmap(
            lambda k: arrays(np.float64, st.tuples(st.integers(1, 6), st.just(5 + 2 * k)),
                             elements=awkward_floats())
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_per_value_writer(self, feats):
        assert written_bytes(save_features, feats) == written_bytes(save_features_reference, feats)

    def test_header_names(self, tmp_path):
        feats = np.zeros((2, 9))  # k = 2
        path = tmp_path / "f.csv"
        save_features(feats, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "x,y,z,e,d,local_0,local_1,global_0,global_1"

    @pytest.mark.parametrize("text, match", [
        ("x,y\n1,2\n3,4\n", "2 columns, expected 5 + 2K"),
        ("x,y,z,e,d,l,g\n1,2,3,4,5,6,7\n1,2,3,4,5,6\n", "columns"),
        ("x,y,z,e,d,l,g\n1,2,3,4,5,6,seven\n", "seven"),
    ], ids=["width", "ragged", "text"])
    def test_malformed_file_names_its_path(self, tmp_path, text, match):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(VolumeError, match=f"^{re.escape(str(path))}: .*{re.escape(match)}"):
            load_features(str(path))

    def test_dims_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        mesh, zmap, _, labels = scene(rng)
        bad = uniform_probs((5, 5, 5), 3)
        with pytest.raises(VolumeError, match="mismatch"):
            pool_features(mesh, zmap, bad, labels, {2})


class TestZonePooling:
    @pytest.mark.parametrize("seed", range(6))
    def test_local_block_matches_add_at_bit_for_bit(self, seed):
        rng = np.random.default_rng(100 + seed)
        mesh, zmap, probs, labels = scene(rng, grid=14, n_verts=6, k=1 + seed % 4)
        feats = pool_features(mesh, zmap, probs, labels, {2})
        local = feats[:, 5 : 5 + probs.channels]
        assert local.tobytes() == local_block_add_at(zmap, probs).tobytes()


class TestOrganBoxCrop:
    """pool_features works on the box around the organ and mass voxels, the oracle on the grid."""

    @given(organ_scenes())
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_grid_bit_for_bit(self, scene):
        feats = pool_features(*scene)
        assert feats.tobytes() == pool_features_whole_grid(*scene).tobytes()

    def test_mass_outside_the_zone_voxels_on_the_grid_edge(self):
        organ = np.zeros((9, 8, 7), dtype=bool)
        organ[2:5, 3:6, 1:4] = True
        lab = organ.astype(np.uint8)
        lab[6:9, 0:2, 5:7] = 2  # beyond the organ's box, in a corner of the grid
        lab[4, 4, 2] = 3
        mesh = line_mesh(np.array([[3.0, 4.0, 2.0], [2.0, 3.0, 1.0], [4.0, 5.0, 3.0]]))
        zmap = render_zones(mesh, organ, (1.0, 1.0, 1.0))
        probs = uniform_probs(organ.shape, 2)
        labels = LabelVolume(lab, (1.0, 1.0, 1.0))
        feats = pool_features(mesh, zmap, probs, labels, {2})
        assert feats[0, 4] == np.sqrt(27.0)  # to (6, 1, 5)
        assert feats.tobytes() == pool_features_whole_grid(
            mesh, zmap, probs, labels, {2}).tobytes()
