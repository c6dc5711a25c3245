import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatomesh.mesh import REGION_NAMES, MeshError
from anatomesh.meshfit import FitConfig, SurfaceIndex, mean_surface_distance
from anatomesh.prototype import assign_regions, build_prototype, mean_shape, organ_crop
from anatomesh.volume import LabelVolume, VolumeError, is_connected

from conftest import boxed_masks, file_order, sphere_mask, vertex_region_names

# an iteration budget the sphere and capsule fits converge within
PROTOTYPE_FIT = FitConfig(max_iters=2000)


def label_vol(mask, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(mask.astype(np.uint8), spacing)


def mean_shape_whole_grid(masks):
    """``mean_shape`` before it voted on each mask's box: a float64 ``np.roll``
    of every whole mask, kept as a bit-exact oracle."""
    if not masks:
        raise VolumeError("mean_shape needs at least one mask")
    spacing = masks[0].spacing
    dims = masks[0].dims
    for m in masks[1:]:
        if m.spacing != spacing:
            raise VolumeError(f"spacing mismatch: {m.spacing} vs {spacing}")
        if m.dims != dims:
            raise VolumeError(f"dims mismatch: {m.dims} vs {dims}")
    binaries = [m.data > 0 for m in masks]
    centroids = []
    for b in binaries:
        if not b.any():
            raise VolumeError("a mask contains no organ voxels")
        centroids.append(np.argwhere(b).mean(axis=0))
    ref = np.round(np.mean(centroids, axis=0)).astype(int)
    acc = np.zeros_like(binaries[0], dtype=np.float64)
    for b, c in zip(binaries, centroids):
        shift = ref - np.round(c).astype(int)
        acc += np.roll(b.astype(np.float64), tuple(shift), axis=(0, 1, 2))
    acc /= len(binaries)
    mean_mask = acc >= 0.5
    if not mean_mask.any():
        raise VolumeError("mean shape is empty")
    if not is_connected(mean_mask):
        raise VolumeError("mean shape is disconnected")
    return LabelVolume(mean_mask.astype(np.uint8), spacing)


def mean_of(masks):
    """``mean_shape`` of the masks' organ crops, as build-prototype takes it."""
    return mean_shape([organ_crop(m) for m in masks])


def outcome(f, masks):
    """What ``f(masks)`` gives: its data's dtype, values and spacing, or its error.

    Not its memory order: every reader of the mean shape gives the same
    result in any layout."""
    try:
        out = f(masks)
    except VolumeError as exc:
        return str(exc)
    return out.data.dtype, out.data.tobytes(), out.spacing


@st.composite
def mask_lists(draw):
    """1-4 label volumes on one grid: voxels of label 1 that touch any grid
    face or none, and sometimes voxels of label 2 beside them, which the
    organ holds too, laid out as loaded, in C order or with the axes in
    another memory order."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    spacing = draw(st.sampled_from([(1.0, 1.0, 1.0), (0.5, 1.0, 2.5)]))
    perm = draw(st.permutations(range(3)))
    layout = draw(st.sampled_from([
        file_order,
        np.ascontiguousarray,
        lambda a: np.ascontiguousarray(a.transpose(perm)).transpose(np.argsort(perm)),
    ]))
    vols = []
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(boxed_masks(dims=dims)).astype(np.uint8)
        if draw(st.booleans()):
            labels[draw(boxed_masks(dims=dims)) & (labels == 0)] = 2
        vols.append(LabelVolume(layout(labels), spacing))
    return vols


def ellipsoid_mask(grid, center, axes):
    idx = np.indices((grid, grid, grid)).reshape(3, -1).T
    return ((((idx - np.asarray(center)) / np.asarray(axes)) ** 2).sum(axis=1) <= 1.0
            ).reshape(grid, grid, grid)


class TestMeanShape:
    def test_single_mask_identity(self):
        mask = sphere_mask(24, 6)
        out = mean_of([label_vol(mask)])
        assert np.array_equal(out.data.astype(bool), mask)

    def test_shifted_pair_recentres(self):
        base = sphere_mask(32, 5, (12, 15.5, 15.5))
        shifted = np.roll(base, 2, axis=0)
        out = mean_of([label_vol(base), label_vol(shifted)])
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
        out = mean_of([label_vol(m) for m in masks])
        # independent recomputation: align centroids by integer shift, mean, >= 0.5
        centroids = [np.argwhere(m).mean(axis=0) for m in masks]
        ref = np.round(np.mean(centroids, axis=0)).astype(int)
        acc = np.zeros((32, 32, 32))
        for m, c in zip(masks, centroids):
            shift = ref - np.round(c).astype(int)
            acc += np.roll(m.astype(float), tuple(shift), axis=(0, 1, 2))
        expect = acc / 3 >= 0.5
        assert np.array_equal(out.data.astype(bool), expect)

    @given(mask_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_grid_roll(self, masks):
        assert outcome(mean_of, masks) == outcome(mean_shape_whole_grid, masks)

    def test_votes_wrap_past_a_grid_face(self):
        # a full row (centroid 3.5, rounded to 4) and one voxel at x = 7: the
        # reference is round(5.25) = 5, so the row shifts by +1 and its x = 7
        # voxel wraps to x = 0; the single voxel shifts by -2 to x = 5
        row, dot = np.zeros((8, 3, 3), dtype=bool), np.zeros((8, 3, 3), dtype=bool)
        row[:, 0, 0] = True
        dot[7, 0, 0] = True
        masks = [label_vol(row), label_vol(dot)]
        out = mean_of(masks)
        assert np.array_equal(out.data.astype(bool), row)
        assert outcome(mean_of, masks) == outcome(mean_shape_whole_grid, masks)
        # with the voxel twice the reference is round(5.83) = 6: the row shifts
        # by +2, wrapping x = 6 and 7, and only x = 6 gets 2 of 3 votes
        masks = [label_vol(row), label_vol(dot), label_vol(dot)]
        expect = np.zeros_like(row)
        expect[6, 0, 0] = True
        assert np.array_equal(mean_of(masks).data.astype(bool), expect)
        assert outcome(mean_of, masks) == outcome(mean_shape_whole_grid, masks)

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("wide", [0, 1], ids=["one-vote-short", "at-half"])
    def test_votes_at_the_vote_type_boundary(self, n, wide):
        # every mask centred on x = 2, so none shifts: the five-voxel row gets
        # ceil(n / 2) - 1 + wide votes and the centre voxel all n, which a
        # uint8 count holds for 255 masks and not for 256
        row, dot = np.zeros((5, 1, 1), dtype=bool), np.zeros((5, 1, 1), dtype=bool)
        row[:, 0, 0] = True
        dot[2, 0, 0] = True
        k = (n + 1) // 2 - 1 + wide
        masks = [label_vol(row)] * k + [label_vol(dot)] * (n - k)
        assert outcome(mean_of, masks) == outcome(mean_shape_whole_grid, masks)
        assert np.array_equal(mean_of(masks).data.astype(bool), row if wide else dot)

    def test_crop_is_a_box_sized_copy(self):
        labels = np.zeros((9, 8, 7), dtype=np.uint8)
        labels[2:5, 3:4, 1:6] = 1
        labels[3, 3, 2] = 2
        crop = organ_crop(label_vol(labels))
        assert crop.box == (slice(2, 5), slice(3, 4), slice(1, 6))
        assert crop.mask.base is None and crop.mask.all()
        assert crop.mask.shape == (3, 1, 5)

    def test_mask_without_organ_rejected(self):
        with pytest.raises(VolumeError, match="a mask contains no organ voxels"):
            organ_crop(label_vol(np.zeros((4, 4, 4), dtype=bool)))

    def test_empty_list_rejected(self):
        with pytest.raises(VolumeError):
            mean_shape([])

    def test_spacing_mismatch_rejected(self):
        m = sphere_mask(16, 4)
        with pytest.raises(VolumeError, match="spacing"):
            mean_of([label_vol(m), label_vol(m, (1.0, 1.0, 2.0))])

    def test_dims_mismatch_rejected(self):
        with pytest.raises(VolumeError, match="dims"):
            mean_of([label_vol(sphere_mask(16, 4)), label_vol(sphere_mask(15, 4))])


class TestBuildPrototype:
    def test_sphere_fit(self):
        vol = label_vol(sphere_mask(48, 14))
        proto = build_prototype(vol, PROTOTYPE_FIT)
        proto.validate_closed()
        assert proto.n_vertices == 156
        # every vertex close to the analytic sphere surface
        r = np.linalg.norm(proto.vertices - 23.5, axis=1)
        assert np.abs(r - 14).mean() <= 1.5

    def test_deterministic(self):
        vol = label_vol(sphere_mask(40, 11))
        a = build_prototype(vol, PROTOTYPE_FIT)
        b = build_prototype(vol, PROTOTYPE_FIT)
        assert np.array_equal(a.vertices, b.vertices)

    def test_capsule_bounding_box(self):
        mask = ellipsoid_mask(48, (23.5, 23.5, 23.5), (18, 7, 7))
        vol = label_vol(mask)
        proto = build_prototype(vol, PROTOTYPE_FIT)
        got_min = proto.vertices.min(axis=0)
        got_max = proto.vertices.max(axis=0)
        want = np.argwhere(mask)
        assert np.all(np.abs(got_min - want.min(axis=0)) <= 2.0)
        assert np.all(np.abs(got_max - want.max(axis=0)) <= 2.0)


class TestAssignRegions:
    def _capsule_mesh(self):
        vol = label_vol(ellipsoid_mask(48, (23.5, 23.5, 23.5), (18, 7, 7)))
        return build_prototype(vol, PROTOTYPE_FIT)

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
