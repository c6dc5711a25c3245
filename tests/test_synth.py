import collections
import dataclasses
import hashlib
import itertools
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from anatomesh.synth import (
    BLOB_LABEL,
    BODY_RADIUS,
    DEFAULT_CLASSES,
    HEAD_RADIUS,
    MANAGEMENT_BY_CLASS,
    N_CHANNELS,
    ORGAN_HALF_LENGTH,
    ORGAN_LABEL,
    TUBE_LABEL,
    MassSpec,
    SynthConfig,
    SynthError,
    case_draws,
    gen_case,
    _centerline,
    _sweep_mask,
    gen_organ,
    implant_mass,
    load_case_info,
    save_case,
    soften,
)
from anatomesh.volume import LabelVolume, VolumeError, load_volume, save_volume

from conftest import boxed_masks


CONN6 = ndimage.generate_binary_structure(3, 1)
DEFAULTS = SynthConfig()


def gen_dataset(n, seed, cfg=DEFAULTS):
    """The first n cases that synth-gen makes for ``cfg`` with ``seed``: case i
    depends on its index and the seed alone, not on the case count."""
    cfg = dataclasses.replace(cfg, seed=seed)
    draws = itertools.islice(case_draws(cfg), n)
    return [gen_case(cid, case_seed, cfg) for cid, case_seed in draws]


def sweep_mask_reference(grid, points, radii):
    """Brute force: every grid voxel against every centerline point."""
    coords = np.indices((grid, grid, grid)).reshape(3, -1).T.astype(np.float64)
    inside = np.zeros(len(coords), dtype=bool)
    for chunk in range(0, len(points), 32):
        p = points[chunk : chunk + 32]
        r = radii[chunk : chunk + 32]
        d2 = ((coords[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        inside |= (d2 <= (r**2)[None, :]).any(axis=1)
    return inside.reshape(grid, grid, grid)


@st.composite
def capsules(draw):
    """Grid, centerline points and radii; points may sit past either face and
    land on integer coordinates, so boxes get clipped and voxels lie exactly
    on a ball's surface."""
    grid = draw(st.sampled_from([32, 33, 48]))
    coord = st.one_of(
        st.integers(-3, grid + 2).map(float),
        st.floats(-4.0, grid + 3.0, allow_nan=False),
    )
    radius = st.one_of(
        st.integers(1, 6).map(float),
        st.floats(0.05, 0.99),
        st.floats(0.05, 8.0),
    )
    n = draw(st.integers(1, 40))
    points = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(radius, min_size=n, max_size=n)))
    return grid, points, radii


class TestSweepMask:
    @settings(max_examples=60, deadline=None)
    @given(capsules())
    @example((48, *_centerline(48, SynthConfig().bend, ORGAN_HALF_LENGTH, BODY_RADIUS,
                               HEAD_RADIUS)))  # the default organ
    def test_equals_brute_force(self, capsule):
        grid, points, radii = capsule
        assert np.array_equal(_sweep_mask(grid, points, radii), sweep_mask_reference(grid, points, radii))


class TestGenOrgan:
    def test_deterministic(self):
        m1, h1 = gen_organ(3, DEFAULTS)
        m2, h2 = gen_organ(3, DEFAULTS)
        assert np.array_equal(m1, m2)
        assert np.array_equal(h1, h2)

    def test_seeds_differ(self):
        m1, _ = gen_organ(1, DEFAULTS)
        m2, _ = gen_organ(2, DEFAULTS)
        assert not np.array_equal(m1, m2)

    def test_connected_and_inside_grid(self):
        for seed in range(6):
            mask, _ = gen_organ(seed, DEFAULTS)
            _, n = ndimage.label(mask, structure=CONN6)
            assert n == 1
            assert not mask[[0, -1], :, :].any()
            assert not mask[:, [0, -1], :].any()
            assert not mask[:, :, [0, -1]].any()

    def test_head_end_on_low_x_side(self):
        mask, head = gen_organ(0, DEFAULTS)
        xs = np.argwhere(mask)[:, 0]
        # the head end sits at the low-x extremity of the organ
        assert abs(head[0] - xs.min()) < 10
        assert head[0] < xs.mean()

    def test_head_thicker_than_tail(self):
        mask, head = gen_organ(4, DEFAULTS)
        occ = np.argwhere(mask)
        lo_x = occ[:, 0].min()
        hi_x = occ[:, 0].max()
        head_slab = np.count_nonzero(mask[lo_x : lo_x + 8])
        tail_slab = np.count_nonzero(mask[hi_x - 7 : hi_x + 1])
        assert head_slab > tail_slab

    def test_bend_zero_mirror_symmetric(self):
        cfg = SynthConfig(bend=0.0)
        mask, _ = gen_organ(5, cfg)
        # with no bend the shape is symmetric in y about the grid center
        assert np.array_equal(mask, mask[:, ::-1, :])

    def test_small_grid_rejected(self):
        with pytest.raises(SynthError, match="grid"):
            SynthConfig(grid=16)

    def test_bad_noise_rejected(self):
        for noise in (0.7, -0.1, float("nan")):
            with pytest.raises(SynthError, match="noise"):
                SynthConfig(noise=noise)

    def test_bad_mix_rejected(self):
        with pytest.raises(SynthError, match="sum to 1"):
            SynthConfig(class_mix=(0.5, 0.5, 0.5, 0.5))


class TestImplantMass:
    def test_blob_confined_to_head_band(self):
        spec = DEFAULT_CLASSES[2][0]
        hits = 0
        for seed in range(40):
            try:
                organ, _ = gen_organ(seed, DEFAULTS)
                labels = implant_mass(organ, spec, seed + 1000, DEFAULTS)
            except SynthError:
                continue
            hits += 1
            mass = np.argwhere(labels.data == BLOB_LABEL)
            assert mass.size
            occ = np.argwhere(organ)
            span = occ[:, 0].max() - occ[:, 0].min()
            # head band: first ~31% of the long axis (48/156), with slack
            # for the ellipsoid extent
            frac = (mass[:, 0].mean() - occ[:, 0].min()) / span
            assert frac < 0.45
        assert hits >= 30

    def test_body_blob_avoids_head(self):
        spec = DEFAULT_CLASSES[3][0]
        hits = 0
        for seed in range(40):
            try:
                organ, _ = gen_organ(seed, DEFAULTS)
                labels = implant_mass(organ, spec, seed + 2000, DEFAULTS)
            except SynthError:
                continue
            hits += 1
            mass = np.argwhere(labels.data == BLOB_LABEL)
            occ = np.argwhere(organ)
            span = occ[:, 0].max() - occ[:, 0].min()
            frac = (mass[:, 0].mean() - occ[:, 0].min()) / span
            assert frac > 0.25
        assert hits >= 30

    def test_protrusion_bounded(self):
        spec = DEFAULT_CLASSES[2][0]
        organ, _ = gen_organ(0, DEFAULTS)
        labels = implant_mass(organ, spec, 11, DEFAULTS)
        mass = labels.data == BLOB_LABEL
        outside = np.count_nonzero(mass & ~organ)
        assert outside <= 0.2 * np.count_nonzero(mass) + 1

    def test_tube_uses_tube_label(self):
        spec = DEFAULT_CLASSES[4][0]
        organ, _ = gen_organ(1, DEFAULTS)
        labels = implant_mass(organ, spec, 12, DEFAULTS)
        assert (labels.data == TUBE_LABEL).any()
        assert not (labels.data == BLOB_LABEL).any()
        # the tube stays inside the organ and spans much of its length
        tube = np.argwhere(labels.data == TUBE_LABEL)
        occ = np.argwhere(organ)
        span = occ[:, 0].max() - occ[:, 0].min()
        assert (tube[:, 0].max() - tube[:, 0].min()) > 0.5 * span

    def test_organ_voxels_keep_organ_label(self):
        spec = DEFAULT_CLASSES[3][0]
        organ, _ = gen_organ(2, DEFAULTS)
        labels = implant_mass(organ, spec, 13, DEFAULTS)
        mass = labels.data > ORGAN_LABEL
        assert np.array_equal(labels.data > 0, organ | mass)
        assert np.all(labels.data[organ & ~mass] == ORGAN_LABEL)

    def test_bad_spec_rejected(self):
        with pytest.raises(SynthError, match="unknown region"):
            MassSpec(9, ("Torso",), (2.0, 3.0))
        with pytest.raises(SynthError, match="size range"):
            MassSpec(9, ("Head",), (3.0, 2.0))


def soften_reference(labels, noise, seed):
    """The per-voxel formula on whole (W, H, D, K) float64 volumes, as first written."""
    one_hot = np.eye(N_CHANNELS, dtype=np.float64)[labels.data]
    if noise > 0.0:
        blurred = np.empty_like(one_hot)
        for k in range(N_CHANNELS):
            blurred[..., k] = ndimage.uniform_filter(one_hot[..., k], size=3, mode="nearest")
        one_hot = 0.75 * one_hot + 0.25 * blurred
        rng = np.random.default_rng(seed)
        r = rng.random(one_hot.shape)
        r /= r.sum(axis=-1, keepdims=True)
        one_hot = (1.0 - noise) * one_hot + noise * r
    one_hot /= one_hot.sum(axis=-1, keepdims=True)
    probs = one_hot.astype(np.float32)
    probs[probs < 0] = 0.0  # blur residues that a tiny noise weight leaves negative
    return probs


def grown_box(labels):
    """The box of the non-zero labels grown by one voxel and clipped to the grid;
    the whole grid when every label is 0."""
    at = np.argwhere(labels.data > 0)
    if not len(at):
        return tuple(slice(0, n) for n in labels.dims)
    lo = np.maximum(at.min(axis=0) - 1, 0)
    hi = np.minimum(at.max(axis=0) + 2, labels.dims)
    return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))


BACKGROUND = np.eye(1, N_CHANNELS, dtype=np.float32)[0]


def is_background(rows):
    """Which (..., K) rows are the background row (1, 0, ..., 0), bit for bit."""
    return (rows.view(np.uint32) == BACKGROUND.view(np.uint32)).all(axis=-1)


def soften_matches_reference(labels, noise, seed):
    """soften's volume is the grown box. Its rows within one voxel of a non-zero
    label (the 3x3x3 dilation of the labels) are the reference's, byte for byte,
    and every other row is the background."""
    probs = soften(labels, noise, seed)
    box = grown_box(labels)
    assert probs.dims == labels.dims and probs.box == box
    reference = soften_reference(labels, noise, seed)
    near = ndimage.binary_dilation(labels.data != 0, np.ones((3, 3, 3), dtype=bool))[box]
    assert probs.data[near].tobytes() == reference[box][near].tobytes()
    assert is_background(probs.data[~near]).all()
    return probs, reference


def segmentation(probs):
    """The whole-grid argmax of a stored box, 0 outside it."""
    seg = np.zeros(probs.dims, dtype=np.int64)
    seg[probs.box] = probs.data.argmax(axis=-1)
    return seg


@st.composite
def label_volumes(draw):
    """Odd and non-cubic label volumes, some channels absent."""
    shape = tuple(draw(st.lists(st.integers(1, 13), min_size=3, max_size=3)))
    present = draw(st.lists(st.integers(0, N_CHANNELS - 1), min_size=1, max_size=N_CHANNELS,
                            unique=True))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = np.asarray(present, dtype=np.uint8)[pick.integers(len(present), size=shape)]
    return LabelVolume(data, (1.0, 1.0, 1.0))


@st.composite
def organ_volumes(draw):
    """Labels in a box with a background margin on some faces and none on others,
    so that the grown box is clipped by ``mode="nearest"``'s faces or is not; some
    non-background channels absent."""
    mask = draw(boxed_masks(max_side=12))
    present = draw(st.lists(st.integers(1, N_CHANNELS - 1), min_size=1,
                            max_size=N_CHANNELS - 1, unique=True))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = np.asarray(present, dtype=np.uint8)
    data = np.zeros(mask.shape, dtype=np.uint8)
    data[mask] = present[pick.integers(len(present), size=int(mask.sum()))]
    return LabelVolume(data, (1.0, 1.0, 1.0))


class TestSoften:
    @settings(max_examples=80, deadline=None)
    @given(
        label_volumes(),
        st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
        st.integers(0, 2**31 - 1),
    )
    def test_equals_reference(self, labels, noise, seed):
        soften_matches_reference(labels, noise, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        organ_volumes(),
        st.one_of(st.sampled_from([0.0, 1e-300, 0.4999]), st.floats(0.0, 0.4999)),
        st.integers(0, 2**31 - 1),
    )
    def test_box_holds_every_voxel_the_argmax_can_take(self, labels, noise, seed):
        # outside the grown box the whole-grid reference's argmax is background
        probs, reference = soften_matches_reference(labels, noise, seed)
        outside = np.ones(labels.dims, dtype=bool)
        outside[probs.box] = False
        assert not reference.argmax(axis=-1)[outside].any()
        # in the box, the rows the codec stores are the reference's bit for
        # bit, and on every row written as background its argmax is 0 too
        written = is_background(probs.data)
        reference = reference[probs.box]
        assert probs.data[~written].tobytes() == reference[~written].tobytes()
        assert not reference.argmax(axis=-1)[written].any()

    def test_background_alone_keeps_the_whole_grid(self):
        labels = LabelVolume(np.zeros((3, 4, 5), dtype=np.uint8), (1.0, 1.0, 1.0))
        probs, _ = soften_matches_reference(labels, 0.2, 1)
        assert probs.box == (slice(0, 3), slice(0, 4), slice(0, 5))

    @pytest.mark.parametrize("noise", [1e-323, 1e-20])
    def test_tiny_noise_gives_a_valid_volume(self, noise):
        # the blur leaves -7.4e-17 in channel 1 here, which the noise term
        # does not cover; those voxels' probability is 0, not negative
        data = np.array([[[2, 1, 1, 0, 0, 0, 0, 0], [0, 2, 1, 2, 1, 1, 2, 2]]], dtype=np.uint8)
        blur = ndimage.uniform_filter(data == 1, size=3, mode="nearest",
                                      output=np.empty(data.shape))
        assert blur.min() < -7e-17
        probs = soften(LabelVolume(data, (1.0, 1.0, 1.0)), noise, 0)
        assert probs.box == (slice(0, 1), slice(0, 2), slice(0, 8))
        assert np.all(probs.data[..., 1][blur < 0] == 0.0)
        assert probs.data.min() == 0.0

    def test_case_volumes_equal_reference(self):
        for cid in (1, 2, 3, 4):
            labels = gen_case(cid, 40 + cid, DEFAULTS).labels
            # a tiny noise keeps the blur's running-sum residues in the float32
            # result, so a crop too narrow for the blur's bits shows there
            for noise in (0.0, 1e-300, 0.15, 0.2, 0.49):
                soften_matches_reference(labels, noise, cid)

    def test_result_is_in_file_order(self, tmp_path):
        # the (W, H, D, K) view of a (D, H, W, K) buffer: save_volume reads it
        # as is and copies only the stored rows and their int64 indices,
        # beside a few bytes a voxel for the mask
        probs = soften(self._labels(), 0.2, 7)
        assert probs.data.transpose(2, 1, 0, 3).flags.c_contiguous
        voxels = probs.data[..., 0].size
        stored = int(np.count_nonzero(~is_background(probs.data)))
        assert 0 < stored < voxels / 2
        tracemalloc.start()
        try:
            save_volume(probs, str(tmp_path / "probs"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stored * (BACKGROUND.nbytes + 8) + 4 * voxels
        back = load_volume(str(tmp_path / "probs"))
        assert back.box == probs.box and back.dims == probs.dims
        assert np.array_equal(back.data, probs.data)

    def test_one_run_of_draws_per_box_plane(self, monkeypatch):
        # one random call per plane of the box, and one advance to its first
        # draw plus at most one after each plane; not one of each per column
        labels = gen_case(2, 3, DEFAULTS).labels
        expect = soften(labels, 0.2, 7)
        calls = collections.Counter()
        real_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = real_rng(seed)
                self.bit_generator = self

            def random(self, *args, **kwargs):
                calls["random"] += 1
                return self.rng.random(*args, **kwargs)

            def advance(self, delta):
                calls["advance"] += 1
                self.rng.bit_generator.advance(delta)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        probs = soften(labels, 0.2, 7)
        assert probs.data.tobytes() == expect.data.tobytes()
        planes = probs.box[0].stop - probs.box[0].start
        assert calls["random"] == planes
        assert calls["advance"] <= planes + 1

    def test_label_without_channel_named(self):
        data = np.zeros((5, 6, 7), dtype=np.uint8)
        data[2, 3, 4] = N_CHANNELS
        with pytest.raises(SynthError, match=f"label {N_CHANNELS} has no channel"):
            soften(LabelVolume(data, (1.0, 1.0, 1.0)), 0.2, 0)

    def _labels(self, seed=0):
        organ, _ = gen_organ(seed, DEFAULTS)
        return implant_mass(organ, DEFAULT_CLASSES[2][0], seed + 1, DEFAULTS)

    def test_zero_noise_is_exact_one_hot(self):
        labels = self._labels()
        probs = soften(labels, 0.0, 99)
        expect = np.eye(N_CHANNELS, dtype=np.float32)[labels.data]
        assert np.array_equal(probs.data, expect[probs.box])
        assert np.array_equal(segmentation(probs), labels.data)

    def test_rows_normalized(self):
        probs = soften(self._labels(), 0.2, 7)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_argmax_mostly_agrees_with_labels(self):
        labels = self._labels(3)
        probs = soften(labels, 0.2, 8)
        agree = (segmentation(probs) == labels.data).mean()
        assert agree >= 0.99

    def test_deterministic(self):
        labels = self._labels(4)
        a = soften(labels, 0.2, 5)
        b = soften(labels, 0.2, 5)
        assert a.box == b.box
        assert np.array_equal(a.data, b.data)


class TestCases:
    def test_class_management_purity(self):
        assert MANAGEMENT_BY_CLASS == {
            1: "Discharge", 2: "Surgery", 3: "Monitoring", 4: "Surgery"
        }
        for cid in (1, 2, 3, 4):
            case = gen_case(cid, 100 + cid, DEFAULTS)
            assert case.class_id == cid
            assert case.management == MANAGEMENT_BY_CLASS[cid]

    def test_class_one_has_no_mass(self):
        case = gen_case(1, 7, DEFAULTS)
        assert set(np.unique(case.labels.data)) <= {0, ORGAN_LABEL}

    def test_case_deterministic(self):
        a = gen_case(2, 42, DEFAULTS)
        b = gen_case(2, 42, DEFAULTS)
        assert np.array_equal(a.labels.data, b.labels.data)
        assert a.probs.box == b.probs.box
        assert np.array_equal(a.probs.data, b.probs.data)

    def test_dataset_deterministic_and_mixed(self):
        d1 = gen_dataset(24, 5)
        d2 = gen_dataset(24, 5)
        assert [c.class_id for c in d1] == [c.class_id for c in d2]
        for a, b in zip(d1, d2):
            assert np.array_equal(a.labels.data, b.labels.data)
        # with a uniform mix over 24 draws every class should appear
        assert set(c.class_id for c in d1) == {1, 2, 3, 4}

    def test_dataset_respects_skewed_mix(self):
        cfg = SynthConfig(class_mix=(0.0, 1.0, 0.0, 0.0))
        d = gen_dataset(6, 1, cfg)
        assert all(c.class_id == 2 for c in d)

    def test_one_draw_per_train_and_test_case(self):
        cfg = SynthConfig(n_train=5, n_test=3, seed=2)
        draws = list(case_draws(cfg))
        assert len(draws) == 8
        assert draws == list(case_draws(SynthConfig(n_train=2, n_test=6, seed=2)))

    def test_dataset_pinned(self):
        # Digest over the labels, the stored box and its rows. The full-grid
        # _sweep_mask and implant_mass ellipsoid, before they were rewritten to
        # test only local boxes, and the whole-grid soften, cropped to each
        # case's grown box with the background row written on every row that
        # no non-zero label is within one voxel of, give the same digest:
        # generated data must stay bit-identical. bend = 5.0 was the library
        # default then.
        h = hashlib.sha256()
        for c in gen_dataset(24, 11, SynthConfig(grid=40, bend=5.0)):
            h.update(c.labels.data.tobytes())
            h.update(np.array([(s.start, s.stop) for s in c.probs.box], dtype=np.int64).tobytes())
            h.update(c.probs.data.tobytes())
            h.update(np.array([c.class_id, c.seed], dtype=np.int64).tobytes())
            h.update(np.asarray(c.head_end, dtype=np.float64).tobytes())
        assert h.hexdigest() == "2201462eb3b46a188b95e2a7d257071abcee91a85b431688e689989041049831"

    def test_stream_is_lazy_and_matches_list(self):
        # a huge case count costs nothing until cases are drawn; case i does not depend on it
        first = gen_case(*next(case_draws(SynthConfig(n_train=10**9, seed=5))), DEFAULTS)
        ref = gen_dataset(1, 5)[0]
        assert first.class_id == ref.class_id and first.seed == ref.seed
        assert first.probs.box == ref.probs.box
        assert np.array_equal(first.probs.data, ref.probs.data)


class TestCaseIO:
    def test_round_trip(self, tmp_path):
        case = gen_case(3, 17, DEFAULTS)
        d = str(tmp_path / "case")
        save_case(case, d)
        labels = load_volume(os.path.join(d, "labels"))
        probs = load_volume(os.path.join(d, "probs"))
        back = load_case_info(d)
        assert np.array_equal(labels.data, case.labels.data)
        assert probs.dims == case.probs.dims and probs.box == case.probs.box
        assert np.array_equal(probs.data, case.probs.data)
        assert back.class_id == case.class_id
        assert back.management == case.management
        np.testing.assert_allclose(back.head_end, case.head_end, rtol=1e-8)
        assert back.seed == case.seed

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda text: text.replace("class 3\n", ""), "missing field 'class'"),
            (lambda text: text.replace("seed ", "seed x"), "field 'seed'"),
            (lambda text: text.replace("class 3\n", "class 7\n"),
             "field 'class': class 7 is not in the class table"),
            (lambda text: re.sub(r"head_end (\S+) (\S+) \S+", r"head_end \1 \2", text),
             "field 'head_end': 2 values, expected 3"),
            (lambda text: text.replace("management Monitoring\n", "management Surgery\n"),
             "field 'management': class 3's management is Monitoring, not Surgery"),
        ],
        ids=["missing-class", "non-integer-seed", "unknown-class", "two-value-head-end",
             "management-against-class"],
    )
    def test_malformed_case_file_named(self, tmp_path, edit, match):
        d = tmp_path / "case"
        save_case(gen_case(3, 17, DEFAULTS), str(d))
        path = d / "case.txt"
        path.write_text(edit(path.read_text()))
        with pytest.raises(VolumeError, match=match) as err:
            load_case_info(str(d))
        assert str(path) in str(err.value)

    def test_field_given_twice_rejected(self, tmp_path):
        # taking the last copy would give the case seed 99
        d = tmp_path / "case"
        save_case(gen_case(3, 17, DEFAULTS), str(d))
        path = d / "case.txt"
        path.write_text(path.read_text() + "seed 99\n")
        with pytest.raises(VolumeError) as err:
            load_case_info(str(d))
        assert str(err.value) == f"{path}:5: seed is already set on line 4"
