import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.spatial import cKDTree

from anatomesh.evaluate import MASS_LABELS
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
from test_synth import grown_box
from test_zones import line_mesh, zone_mask


def save_features_reference(feats, path):
    """A per-value writer of the ``save_features`` layout, kept as a byte-equality oracle."""
    k = (feats.shape[1] - 5) // 2
    with open(path, "w") as f:
        f.write(",".join(["x", "y", "z", "e", "d"] + [f"local_{i}" for i in range(k)]) + "\n")
        f.write(",".join(["global"] + [f"{v:.17g}" for v in feats[0, 5 + k :]]) + "\n")
        for row in feats[:, : 5 + k]:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def save_features_old_layout(feats, path):
    """The layout written before the global block had one line: all 5 + 2K columns on each row."""
    k = (feats.shape[1] - 5) // 2
    with open(path, "w") as f:
        f.write(",".join(["x", "y", "z", "e", "d"] + [f"local_{i}" for i in range(k)]
                         + [f"global_{i}" for i in range(k)]) + "\n")
        for row in feats:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def feature_matrices(elements):
    """(rows, 5 + 2K) matrices for K = 1..4 and 1..6 rows, every row with one global block."""
    def build(k):
        return st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 6), st.just(5 + k)), elements=elements),
            arrays(np.float64, k, elements=elements),
        ).map(lambda parts: np.hstack([parts[0], np.broadcast_to(parts[1], (len(parts[0]), k))]))
    return st.integers(1, 4).flatmap(build)


def pool_features_whole_grid(mesh, zmap, probs, labels):
    """``pool_features`` before it worked on the organ's box, kept as a byte-equality oracle."""
    k = probs.channels
    n = mesh.n_vertices
    spacing = np.asarray(zmap.spacing, dtype=np.float64)
    organ = zmap.data > 0
    organ_world = np.argwhere(organ) * spacing
    centroid = organ_world.mean(axis=0)
    diag = float(np.linalg.norm(organ_world.max(axis=0) - organ_world.min(axis=0)))
    coords = (mesh.vertices - centroid) / (diag if diag != 0.0 else 1.0)
    mass_mask = np.isin(labels.data, MASS_LABELS)
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
        feats = pool_features(mesh, zmap, probs, labels)
        assert feats.shape == (mesh.n_vertices, 13)
        np.testing.assert_allclose(feats[:, 5:13], 0.25, rtol=1e-6)

    def test_global_block_identical_rows(self):
        rng = np.random.default_rng(1)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels)
        g = feats[:, 5 + probs.channels :]
        assert np.all(g == g[0])

    def test_mean_pool_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels)
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
        feats = pool_features(mesh, zmap, probs, labels)
        # normalized by the bounding-box diagonal: coordinates stay small
        assert np.abs(feats[:, 0:3]).max() < 2.0

    def test_coords_translation_covariant(self):
        rng = np.random.default_rng(6)
        mesh, zmap, probs, labels = scene(rng)
        a = pool_features(mesh, zmap, probs, labels)
        shifted = mesh.with_vertices(mesh.vertices + [3.0, -1.0, 2.0])
        b = pool_features(shifted, zmap, probs, labels)
        # organ centroid is unchanged, so shifting the mesh shifts the
        # normalized coordinates by the same world offset over the diagonal
        organ_world = np.argwhere(zmap.data > 0).astype(float)
        diag = np.linalg.norm(organ_world.max(axis=0) - organ_world.min(axis=0))
        expect = np.broadcast_to(np.array([3.0, -1.0, 2.0]) / diag, (4, 3))
        np.testing.assert_allclose(b[:, 0:3] - a[:, 0:3], expect, rtol=1e-9)

    def test_edge_column_matches_mesh(self):
        rng = np.random.default_rng(7)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels)
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
        feats = pool_features(mesh, zmap, probs, LabelVolume(lab, (1, 1, 1)))
        assert feats[0, 4] == 0.0  # vertex sits on a mass surface voxel
        assert feats[1, 4] > 0.0

    def test_distance_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels)
        from anatomesh.volume import surface_mask

        mass = np.isin(labels.data, [2, 3])
        surf = np.argwhere(surface_mask(mass)).astype(float)
        for v in range(mesh.n_vertices):
            expect = np.linalg.norm(surf - mesh.vertices[v], axis=1).min()
            assert feats[v, 4] == pytest.approx(expect, abs=1e-9)

    def test_distance_is_one_lipschitz(self):
        rng = np.random.default_rng(9)
        mesh, zmap, probs, labels = scene(rng)
        a = pool_features(mesh, zmap, probs, labels)
        delta = rng.normal(scale=0.3, size=mesh.vertices.shape)
        b = pool_features(mesh.with_vertices(mesh.vertices + delta), zmap, probs, labels)
        step = np.linalg.norm(delta, axis=1)
        assert np.all(np.abs(b[:, 4] - a[:, 4]) <= step + 1e-9)

    def test_no_mass_sentinel(self):
        rng = np.random.default_rng(10)
        mesh, zmap, probs, labels = scene(rng)
        organ_only = LabelVolume(np.minimum(labels.data, 1), labels.spacing)
        feats = pool_features(mesh, zmap, probs, organ_only)
        assert np.all(feats[:, 4] == NO_MASS_SENTINEL)


class TestIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        mesh, zmap, probs, labels = scene(rng)
        feats = pool_features(mesh, zmap, probs, labels)
        path = str(tmp_path / "f.csv")
        save_features(feats, path)
        back = load_features(path)
        np.testing.assert_array_equal(back, feats)

    @given(feature_matrices(awkward_floats(allow_non_finite=False)))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_bit_for_bit(self, feats):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.csv")
            save_features(feats, path)
            back = load_features(path)
        assert back.shape == feats.shape
        assert back.view(np.uint64).tobytes() == feats.view(np.uint64).tobytes()

    @given(feature_matrices(awkward_floats()))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_per_value_writer(self, feats):
        assert written_bytes(save_features, feats) == written_bytes(save_features_reference, feats)

    def test_header_names(self, tmp_path):
        feats = np.zeros((2, 9))  # k = 2
        feats[:, 7:] = [0.25, -0.0]
        path = tmp_path / "f.csv"
        save_features(feats, str(path))
        lines = path.read_text().splitlines()
        assert lines[:2] == ["x,y,z,e,d,local_0,local_1", "global,0.25,-0"]
        assert lines[2:] == ["0,0,0,0,0,0,0"] * 2

    @pytest.mark.parametrize("row, col", [(1, 0), (5, 3)])
    def test_unequal_global_columns_refused_on_save(self, tmp_path, row, col):
        feats = np.zeros((6, 13))
        feats[row, 9 + col] = -0.0  # equal as a number, not as bits
        path = tmp_path / "f.csv"
        with pytest.raises(VolumeError, match=re.escape(f"{path}: the rows must hold one "
                                                        "global block, bit for bit")):
            save_features(feats, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("text, match", [
        ("x,y\nglobal,1\n1,2\n3,4\n", "2 columns, expected 5 + K for K channels"),
        ("x,y,z,e,d,l\nglobal,1\n1,2,3,4,5,6\n1,2,3,4,5\n", "columns"),
        ("x,y,z,e,d,l\nglobal,1\n1,2,3,4,5,seven\n", "seven"),
        ("x,y,z,e,d,l\nglobal,one\n1,2,3,4,5,6\n", "one"),
        ("x,y,z,e,d,l\nglobal,1\n", "holds no rows"),
        ("x,y,z,e,d,l,m\nglobal,1\n1,2,3,4,5,6,7\n",
         "the global line holds 1 values for 2 local columns"),
        ("x,y,z,e,d,l\nglobal,1,2\n1,2,3,4,5,6\n",
         "the global line holds 2 values for 1 local columns"),
        ("", "no 'global' line after the header"),
        (b"x,y,z,e,d,l\nglobal,1\n1,2,3,4,5,\xff\n", "can't decode byte 0xff"),
    ], ids=["width", "ragged", "text", "global-text", "no-rows", "short-global",
            "long-global", "empty", "not-utf8"])
    def test_malformed_file_names_its_path(self, tmp_path, text, match):
        path = tmp_path / "f.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the error
            with pytest.raises(VolumeError) as err:
                load_features(str(path))
        assert re.match(f"{re.escape(str(path))}: .*{re.escape(match)}", str(err.value))

    def test_old_layout_of_a_pooled_matrix_refused(self, tmp_path):
        rng = np.random.default_rng(14)
        feats = pool_features(*scene(rng, k=4))
        path = tmp_path / "f.csv"
        save_features_old_layout(feats, str(path))
        assert path.read_text().splitlines()[1].count(",") == 12
        with pytest.raises(VolumeError) as err:
            load_features(str(path))
        assert str(err.value) == (f"{path}: no 'global' line after the header: the file "
                                  "predates this format; rerun pool-features to write it again")

    def test_dims_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        mesh, zmap, _, labels = scene(rng)
        bad = uniform_probs((5, 5, 5), 3)
        with pytest.raises(VolumeError, match="mismatch"):
            pool_features(mesh, zmap, bad, labels)

    def test_pooling_box_outside_the_stored_box_named(self):
        rng = np.random.default_rng(13)
        mesh, zmap, probs, labels = scene(rng)
        box = (slice(2, 10), slice(2, 10), slice(3, 10))  # the organ reaches plane z = 2
        stored = ProbVolume(probs.crop(box), probs.spacing, probs.dims, box)
        with pytest.raises(VolumeError, match=r"box \[2:10, 2:10, 2:10\] is not inside "
                                              r"the stored box \[2:10, 2:10, 3:10\]"):
            pool_features(mesh, zmap, stored, labels)


class TestZonePooling:
    @pytest.mark.parametrize("seed", range(6))
    def test_local_block_matches_add_at_bit_for_bit(self, seed):
        rng = np.random.default_rng(100 + seed)
        mesh, zmap, probs, labels = scene(rng, grid=14, n_verts=6, k=1 + seed % 4)
        feats = pool_features(mesh, zmap, probs, labels)
        local = feats[:, 5 : 5 + probs.channels]
        assert local.tobytes() == local_block_add_at(zmap, probs).tobytes()


class TestOrganBoxCrop:
    """pool_features works on the box around the organ and mass voxels, the oracle on the grid."""

    @given(organ_scenes())
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_grid_bit_for_bit(self, scene):
        feats = pool_features(*scene)
        assert feats.tobytes() == pool_features_whole_grid(*scene).tobytes()

    @given(organ_scenes())
    @settings(max_examples=150, deadline=None)
    def test_probabilities_stored_on_the_grown_box(self, scene):
        # the box synth-gen stores: the non-zero labels' box grown by one voxel
        mesh, zones, probs, labels = scene
        box = grown_box(labels)
        stored = ProbVolume(probs.crop(box), probs.spacing, probs.dims, box)
        feats = pool_features(mesh, zones, stored, labels)
        assert feats.tobytes() == pool_features_whole_grid(*scene).tobytes()

    def test_mass_outside_the_zone_voxels_on_the_grid_edge(self):
        organ = np.zeros((9, 8, 7), dtype=bool)
        organ[2:5, 3:6, 1:4] = True
        lab = organ.astype(np.uint8)
        lab[6:9, 0:2, 5:7] = 2  # beyond the organ's box, in a corner of the grid
        lab[8, 1, 6] = 3  # the mass holds both mass labels
        mesh = line_mesh(np.array([[3.0, 4.0, 2.0], [2.0, 3.0, 1.0], [4.0, 5.0, 3.0]]))
        zmap = render_zones(mesh, organ, (1.0, 1.0, 1.0))
        probs = uniform_probs(organ.shape, 2)
        labels = LabelVolume(lab, (1.0, 1.0, 1.0))
        feats = pool_features(mesh, zmap, probs, labels)
        assert feats[0, 4] == np.sqrt(27.0)  # to (6, 1, 5)
        assert feats.tobytes() == pool_features_whole_grid(mesh, zmap, probs, labels).tobytes()
