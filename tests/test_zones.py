import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from anatomesh.mesh import AnatomyMesh
from anatomesh.volume import LabelVolume
from anatomesh.zones import (
    _SHORT_K,
    ZoneError,
    _seed_voxels,
    render_zones,
    vertex_labels,
)

from conftest import organ_scenes, random_connected_mask, sphere_mask

NEIGHBORS = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
)


def bfs_oracle(seeds, organ):
    """Level-synchronized multi-source BFS with a min-label tie rule.

    Written voxel-by-voxel with python sets, independently of the vectorized
    production code.
    """
    w, h, d = organ.shape
    zones = {}
    for label, (x, y, z) in enumerate(seeds, start=1):
        zones[(x, y, z)] = label
    frontier = set(zones)
    while frontier:
        candidates = {}
        for (x, y, z) in frontier:
            for dx, dy, dz in NEIGHBORS:
                n = (x + dx, y + dy, z + dz)
                if not (0 <= n[0] < w and 0 <= n[1] < h and 0 <= n[2] < d):
                    continue
                if n in zones or not organ[n]:
                    continue
                cur = candidates.get(n)
                lab = zones[(x, y, z)]
                if cur is None or lab < cur:
                    candidates[n] = lab
        zones.update(candidates)
        frontier = set(candidates)
    out = np.zeros(organ.shape, dtype=np.int32)
    for pos, lab in zones.items():
        out[pos] = lab
    return out


def _seed_voxels_brute(verts, organ, spacing):
    """Full-grid seeding with the full candidate list per vertex.

    Asks the KD-tree for V+1 neighbours of every vertex at once and walks
    each list in order, independently of the production code's short first
    query.
    """
    organ_idx = np.argwhere(organ)
    tree = cKDTree(organ_idx * spacing)
    k = min(len(organ_idx), len(verts) + 1)
    _, cand = tree.query(verts, k=k)
    cand = np.asarray(cand).reshape(len(verts), -1)
    taken = set()
    seeds = np.empty(len(verts), dtype=np.int64)
    for i in range(len(verts)):
        for j in cand[i]:
            if j not in taken:
                taken.add(int(j))
                seeds[i] = j
                break
        else:
            raise ZoneError("more vertices than organ voxels: cannot seed zones")
    return organ_idx[seeds]


def vertex_labels_whole_grid(zmap, labels):
    """``vertex_labels`` before it worked on the organ's box, kept as an oracle."""
    out = np.full(int(zmap.data.max()), -1, dtype=np.int64)
    organ = zmap.data > 0
    np.maximum.at(out, zmap.data[organ] - 1, labels.data[organ])
    empty = np.flatnonzero(out < 0)
    if empty.size:
        raise ZoneError(f"zone of vertex {empty[0]} is empty")
    return out


def zone_mask(zmap, vertex):
    """Boolean mask of the zone of 0-based vertex index ``vertex``."""
    return zmap.data == vertex + 1


def bfs_zones(verts, organ, spacing):
    """BFS-oracle zone map seeded by the brute-force seeding."""
    seeds = _seed_voxels_brute(np.asarray(verts, dtype=np.float64), organ, np.asarray(spacing))
    return bfs_oracle([tuple(s) for s in seeds], organ)


def line_mesh(points):
    """Degenerate helper mesh whose only purpose is carrying vertices."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    faces = np.array([[i, i + 1, i + 2] for i in range(n - 2)], dtype=np.int64)
    return AnatomyMesh(pts, faces.reshape(-1, 3), (n,))


class TestRenderZones:
    def test_single_vertex_takes_everything(self):
        organ = sphere_mask(16, 5)
        verts = np.array([[7.5, 7.5, 7.5], [7.4, 7.5, 7.5], [7.6, 7.5, 7.5]])
        mesh = line_mesh(verts)
        zmap = render_zones(mesh, organ, (1.0, 1.0, 1.0))
        inside = zmap.data[organ]
        assert set(np.unique(inside)) <= {1, 2, 3}
        assert np.all(zmap.data[~organ] == 0)

    def test_partition_covers_exactly_the_organ(self):
        rng = np.random.default_rng(0)
        organ = random_connected_mask(rng, 24)
        verts = rng.uniform(6, 18, size=(8, 3))
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        assert np.all((zmap.data > 0) == organ)
        # every zone seeded, so every vertex owns at least one voxel
        assert set(np.unique(zmap.data[organ])) == set(range(1, 9))

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(4):
            organ = random_connected_mask(rng, 20)
            verts = rng.uniform(5, 15, size=(6, 3))
            mesh = line_mesh(verts)
            zmap = render_zones(mesh, organ, (1.0, 1.0, 1.0))
            # recover the seeds: round zero of the production run
            seeds = _seed_voxels(verts, organ, np.ones(3), np.zeros(3, int))
            expect = bfs_oracle([tuple(s) for s in seeds], organ)
            assert np.array_equal(zmap.data, expect)

    def test_bar_tie_goes_to_lower_index(self):
        # 1x1x9 bar, seeds at both ends: the middle voxel is equidistant
        organ = np.zeros((1, 1, 9), dtype=bool)
        organ[0, 0, :] = True
        verts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 8.0]])
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        got = zmap.data[0, 0, :]
        assert list(got) == [1, 1, 1, 1, 1, 2, 2, 2, 2]

    def test_lower_index_wins_reversed_seeds(self):
        # same geometry, vertex order swapped: tie voxel flips with it
        organ = np.zeros((1, 1, 9), dtype=bool)
        organ[0, 0, :] = True
        verts = np.array([[0.0, 0.0, 8.0], [0.0, 0.0, 0.0]])
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        got = zmap.data[0, 0, :]
        assert list(got) == [2, 2, 2, 2, 1, 1, 1, 1, 1]

    def test_island_falls_back_to_nearest_vertex(self):
        organ = np.zeros((12, 12, 12), dtype=bool)
        organ[1:5, 1:5, 1:5] = True
        organ[9, 9, 9] = True  # disconnected voxel far from all seeds
        verts = np.array([[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        assert zmap.data[9, 9, 9] == 2  # vertex 2 is closer to the island
        assert np.all((zmap.data > 0) == organ)

    def test_seed_collision_resolved(self):
        # two coincident vertices nearest to the same voxel still get
        # distinct non-empty zones
        organ = sphere_mask(10, 3)
        verts = np.array([[4.5, 4.5, 4.5], [4.5, 4.5, 4.5]])
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        assert (zmap.data == 1).any() and (zmap.data == 2).any()

    def test_anisotropic_spacing_changes_seeds(self):
        organ = np.ones((3, 3, 7), dtype=bool)
        verts = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 4.0]])
        iso = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        squashed = render_zones(line_mesh(verts * [1, 1, 0.1]), organ, (1.0, 1.0, 0.1))
        # in world units both runs describe the same scene, so they agree
        assert np.array_equal(iso.data, squashed.data)

    def test_empty_organ_rejected(self):
        with pytest.raises(ZoneError, match="empty"):
            render_zones(line_mesh(np.eye(3)), np.zeros((4, 4, 4), dtype=bool), (1, 1, 1))

    def test_more_vertices_than_voxels_rejected(self):
        organ = np.zeros((3, 3, 3), dtype=bool)
        organ[1, 1, 1] = True
        organ[1, 1, 2] = True
        verts = np.array([[1.0, 1, 1], [1.0, 1, 2], [2.0, 1, 1]])
        with pytest.raises(ZoneError, match="more vertices"):
            render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))

    def test_template_zones_are_a_u8_label_volume(self, template):
        organ = sphere_mask(16, 6)
        zones = render_zones(template.with_vertices(template.vertices * 5 + 7.5), organ,
                             (1.0, 1.0, 1.0))
        assert isinstance(zones, LabelVolume) and zones.data.dtype == np.uint8
        assert set(np.unique(zones.data[organ])) == set(range(1, 157))
        assert np.all(zones.data[~organ] == 0)

    def test_255_vertices_fill_the_u8_codec(self):
        organ = np.ones((8, 8, 8), dtype=bool)
        zones = render_zones(line_mesh(np.argwhere(organ)[:255]), organ, (1.0, 1.0, 1.0))
        assert zones.data.dtype == np.uint8 and int(zones.data.max()) == 255

    def test_256_vertices_rejected_before_growth(self, monkeypatch):
        import anatomesh.zones

        def no_growth(*args):
            raise AssertionError("zones were seeded")

        monkeypatch.setattr(anatomesh.zones, "_seed_voxels", no_growth)
        organ = np.ones((8, 8, 8), dtype=bool)  # room for every vertex
        with pytest.raises(ZoneError, match="^too many zones for the u8 label codec$"):
            render_zones(line_mesh(np.argwhere(organ)[:256]), organ, (1.0, 1.0, 1.0))

    def test_full_template_on_capsule(self, template):
        from anatomesh.meshfit import FitConfig
        from anatomesh.prototype import build_prototype

        idx = np.indices((40, 40, 40)).reshape(3, -1).T
        organ = (
            (((idx - 19.5) / np.array([15, 7, 7])) ** 2).sum(axis=1) <= 1.0
        ).reshape(40, 40, 40)
        vol = LabelVolume(organ.astype(np.uint8), (1.0, 1.0, 1.0))
        proto = build_prototype(vol, FitConfig(max_iters=2000))
        zmap = render_zones(proto, organ, (1.0, 1.0, 1.0))
        assert int(zmap.data.max()) == 156
        assert np.all((zmap.data > 0) == organ)
        assert set(np.unique(zmap.data[organ])) == set(range(1, 157))


class TestSeedVoxels:
    """The short first query must pick the seeds the full query picks."""

    def _check(self, verts, organ, spacing):
        sp = np.asarray(spacing, dtype=np.float64)
        expect = _seed_voxels_brute(verts, organ, sp)
        assert np.array_equal(_seed_voxels(verts, organ, sp, np.zeros(3, int)), expect)
        # cut to the organ's box, with the offset restoring world positions
        idx = np.argwhere(organ)
        lo, hi = idx.min(axis=0), idx.max(axis=0) + 1
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        got = _seed_voxels(verts, organ[box], sp, lo)
        assert np.array_equal(got + lo, expect)

    def test_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            grid = int(rng.integers(16, 29))
            organ = random_connected_mask(rng, grid)
            sp = rng.uniform(0.5, 2.0, size=3)
            verts = rng.uniform(0.25, 0.75, size=(int(rng.integers(4, 40)), 3)) * grid * sp
            self._check(verts, organ, sp)

    def test_coincident_vertices_take_the_requery(self):
        # every vertex shares one nearest voxel, so from vertex _SHORT_K on
        # the whole short list is taken and the full query decides
        organ = sphere_mask(16, 5)
        verts = np.tile([[7.23, 7.61, 7.37]], (3 * _SHORT_K // 2, 1))
        assert len(verts) > _SHORT_K
        self._check(verts, organ, (1.0, 1.0, 1.0))
        self._check(verts * [1.0, 0.5, 2.0], organ, (1.0, 0.5, 2.0))

    def test_exact_distance_ties_take_equally_near_voxels(self):
        # (7.2, 7.6, 7.4) is exactly as far from (7, 8, 8) as from (7, 7, 7).
        # cKDTree orders such ties differently for different k, so the two
        # seedings may swap tied voxels but never pick a farther one.
        organ = sphere_mask(16, 5)
        verts = np.tile([[7.2, 7.6, 7.4]], (3 * _SHORT_K // 2, 1))
        got = _seed_voxels(verts, organ, np.ones(3), np.zeros(3, int))
        expect = _seed_voxels_brute(verts, organ, np.ones(3))
        dist = lambda seeds: ((seeds - verts) ** 2).sum(axis=1)
        assert np.array_equal(dist(got), dist(expect))
        assert len({tuple(s) for s in got}) == len(verts)

    def test_organ_with_one_voxel_more_than_vertices(self):
        n = _SHORT_K + 4
        organ = np.zeros((5, 5, n + 6), dtype=bool)
        organ[2, 2, 3 : 3 + n + 1] = True
        verts = np.tile([[2.0, 2.0, 3.0]], (n, 1))
        self._check(verts, organ, (1.0, 1.0, 1.0))
        # the vertex count only just fits: every voxel but one is a seed
        seeds = _seed_voxels(verts, organ, np.ones(3), np.zeros(3, int))
        assert len({tuple(s) for s in seeds}) == n

    def test_more_vertices_than_voxels_rejected_by_both(self):
        organ = np.zeros((4, 4, 16), dtype=bool)
        organ[1, 1, 2 : 2 + _SHORT_K + 2] = True
        verts = np.tile([[1.0, 1.0, 2.0]], (_SHORT_K + 3, 1))
        with pytest.raises(ZoneError, match="more vertices"):
            _seed_voxels(verts, organ, np.ones(3), np.zeros(3, int))
        with pytest.raises(ZoneError, match="more vertices"):
            _seed_voxels_brute(verts, organ, np.ones(3))


class TestBoxCrop:
    """render_zones grows on the organ's box; the BFS oracle on the full grid."""

    def test_small_organ_off_centre(self):
        rng = np.random.default_rng(21)
        organ = np.zeros((48, 48, 48), dtype=bool)
        organ[34:44, 3:12, 25:31] = random_connected_mask(rng, 12)[1:11, 2:11, 3:9]
        organ[38, 7, 28] = True
        verts = np.argwhere(organ)[rng.choice(organ.sum(), 7, replace=False)] + 0.3
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        assert np.array_equal(zmap.data, bfs_zones(verts, organ, (1.0, 1.0, 1.0)))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [0, -1])
    def test_organ_touching_a_grid_face(self, axis, side):
        grid = 14
        center = [6.5, 7.0, 5.5]
        center[axis] = 0.0 if side == 0 else grid - 1.0
        organ = sphere_mask(grid, 5, center)
        face = [slice(None)] * 3
        face[axis] = side
        assert organ[tuple(face)].any()
        verts = np.array(center) + np.random.default_rng(axis).uniform(-3, 3, size=(6, 3))
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        assert np.array_equal(zmap.data, bfs_zones(verts, organ, (1.0, 1.0, 1.0)))

    def test_seedless_island_in_far_corner(self):
        sp = np.array([0.8, 1.0, 1.5])
        organ = np.zeros((20, 20, 20), dtype=bool)
        organ[10:14, 10:14, 10:14] = True
        organ[18:20, 19, 19] = True  # far corner island, no seed in reach
        # every seed lands in the body; the island's nearest vertex is 2, but
        # measured from the box corner instead of the grid's it would be 1
        verts = np.array([[9.5, 9.5, 9.5], [15.0, 15.0, 15.0], [11.2, 12.3, 12.4]]) * sp
        zmap = render_zones(line_mesh(verts), organ, tuple(sp))
        body = organ.copy()
        body[18:20, 19, 19] = False
        assert np.all(_seed_voxels_brute(verts, organ, sp) < 14)  # no seed on the island
        assert np.array_equal(zmap.data[body], bfs_zones(verts, body, sp)[body])
        for voxel in np.argwhere(organ & ~body):
            nearest = np.argmin(((voxel * sp - verts) ** 2).sum(axis=1))
            assert zmap.data[tuple(voxel)] == nearest + 1
        assert np.all((zmap.data > 0) == organ)

    def test_anisotropic_spacing(self):
        rng = np.random.default_rng(23)
        for sp in ((0.7, 1.3, 2.0), (2.5, 1.0, 0.4)):
            organ = random_connected_mask(rng, 22)
            verts = np.argwhere(organ)[rng.choice(organ.sum(), 9, replace=False)] * sp
            verts = verts + rng.uniform(-0.4, 0.4, size=verts.shape)
            zmap = render_zones(line_mesh(verts), organ, sp)
            assert np.array_equal(zmap.data, bfs_zones(verts, organ, sp))


class TestVertexLabels:
    def _zone_map(self):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        data[0, 0, 0] = 1
        data[0, 0, 1] = 1
        data[1, 1, 1] = 2
        return LabelVolume(data, (1.0, 1.0, 1.0))

    def test_maximum_rule(self):
        zmap = self._zone_map()
        lab = np.zeros((2, 2, 2), dtype=np.uint8)
        lab[0, 0, 0] = 1
        lab[0, 0, 1] = 3  # zone 1 contains labels {1, 3} -> max 3
        lab[1, 1, 1] = 2
        out = vertex_labels(zmap, LabelVolume(lab, (1.0, 1.0, 1.0)))
        assert list(out) == [3, 2]

    def test_background_ignored(self):
        zmap = self._zone_map()
        lab = np.full((2, 2, 2), 7, dtype=np.uint8)  # background voxels loud
        lab[0, 0, 0] = 1
        lab[0, 0, 1] = 1
        lab[1, 1, 1] = 1
        out = vertex_labels(zmap, LabelVolume(lab, (1.0, 1.0, 1.0)))
        assert list(out) == [1, 1]

    def test_true_mass_outside_the_zones_adds_nothing(self):
        # the zones cover the predicted organ; a true mass voxel that the
        # segmentation missed lies in no zone, so no vertex takes its label
        zmap = self._zone_map()
        lab = (zmap.data > 0).astype(np.uint8)
        lab[0, 1, 0] = 3  # beside zone 1's voxel (0, 0, 0)
        lab[1, 1, 0] = 2  # beside zone 2's voxel (1, 1, 1)
        out = vertex_labels(zmap, LabelVolume(lab, (1.0, 1.0, 1.0)))
        assert list(out) == [1, 1]

    def test_dims_mismatch(self):
        from anatomesh.volume import VolumeError

        zmap = self._zone_map()
        with pytest.raises(VolumeError, match="mismatch"):
            vertex_labels(zmap, LabelVolume(np.zeros((3, 3, 3), np.uint8), (1, 1, 1)))

    @given(organ_scenes(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_grid(self, scene, dropped):
        _, zmap, _, labels = scene
        if dropped < zmap.data.max() - 1:  # an empty zone below the last must be named alike
            zmap = LabelVolume(np.where(zmap.data == dropped + 1, 0, zmap.data), zmap.spacing)
        try:
            expect = vertex_labels_whole_grid(zmap, labels)
        except ZoneError as exc:
            with pytest.raises(ZoneError, match=f"^{re.escape(str(exc))}$"):
                vertex_labels(zmap, labels)
        else:
            got = vertex_labels(zmap, labels)
            assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        organ = random_connected_mask(rng, 16)
        verts = rng.uniform(4, 12, size=(5, 3))
        zmap = render_zones(line_mesh(verts), organ, (1.0, 1.0, 1.0))
        lab = LabelVolume(
            (rng.integers(1, 4, size=(16, 16, 16)) * organ).astype(np.uint8), (1, 1, 1)
        )
        out = vertex_labels(zmap, lab)
        for v in range(5):
            zone = zone_mask(zmap, v)
            assert out[v] == lab.data[zone].max()
