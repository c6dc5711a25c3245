import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from anatomesh.volume import (
    DETECTION_CUTOFF,
    PROB_TOL,
    LabelVolume,
    ProbVolume,
    VolumeError,
    channel_sum,
    detected,
    dice,
    is_connected,
    load_volume,
    organ_box,
    save_volume,
    surface_mask,
    voxel_indices,
)

from conftest import boxed_masks, file_order


def random_label_volume(rng, dims=(4, 5, 6)):
    return LabelVolume(rng.integers(0, 4, size=dims).astype(np.uint8), (1.0, 0.5, 2.0))


def random_prob_data(rng, dims=(3, 4, 2), k=3):
    raw = rng.random(dims + (k,)).astype(np.float32)
    return raw / raw.sum(axis=-1, keepdims=True)


def find_objects_box(mask):
    """The whole-grid box render_zones took before :func:`organ_box`, kept as an oracle."""
    boxes = ndimage.find_objects(mask.astype(np.uint8))
    return boxes[0] if boxes else (slice(0, 0),) * 3


LAYOUTS = {"C": np.ascontiguousarray, "loaded": file_order, "reversed": lambda m: m[::-1, :, ::-1]}


def label_box_reference(data):
    """The box a label volume is stored on: ``find_objects``' box of its
    non-zero voxels, or the whole grid when it has none."""
    if not data.any():
        return tuple(slice(0, n) for n in data.shape)
    return find_objects_box(data > 0)


def stored_payload(voxels, background):
    """The payload of (n, K) voxel rows in file order, built a voxel at a time: the
    bit mask of the rows whose bytes differ from ``background``, most significant
    bit first, then those rows."""
    stored = [row.tobytes() != background.tobytes() for row in voxels]
    mask = bytearray((len(stored) + 7) // 8)
    for i, bit in enumerate(stored):
        if bit:
            mask[i // 8] |= 0x80 >> (i % 8)
    return bytes(mask) + b"".join(row.tobytes() for row, bit in zip(voxels, stored) if bit)


def payload_reference(vol):
    """The payload ``save_volume`` writes, kept as an oracle.

    A label volume's payload covers the voxels of :func:`label_box_reference`
    and stores the non-zero ones; a prob volume's covers its box and stores
    the rows other than (1, 0, ..., 0)."""
    if isinstance(vol, LabelVolume):
        box = label_box_reference(vol.data)
        voxels = vol.data[box].transpose(2, 1, 0).reshape(-1, 1).astype("<u1")
        return stored_payload(voxels, np.zeros(1, dtype="<u1"))
    voxels = vol.data.transpose(2, 1, 0, 3).reshape(-1, vol.channels).astype("<f4")
    return stored_payload(voxels, np.eye(1, vol.channels, dtype="<f4")[0])


def prob_check_reference(data):
    """The whole-volume probability check before the slab check, kept as an oracle.

    Returns the error message, or None to accept. It lets NaN rows through;
    on finite data ``ProbVolume`` must give the same outcome.
    """
    sums = channel_sum(np.moveaxis(data, -1, 0))
    bad = np.abs(sums - 1.0) > PROB_TOL
    if bad.any():
        w, h, d = np.argwhere(bad)[0]
        return (
            f"probability rows must sum to 1 +- {PROB_TOL}; voxel ({w},{h},{d}) "
            f"sums to {sums[w, h, d]:.6f}"
        )
    if (data < 0).any():
        return "probability values must be non-negative"
    return None


def prob_check_outcome(data):
    try:
        ProbVolume(data, (1.0, 1.0, 1.0))
    except VolumeError as exc:
        return str(exc)
    return None


class TestCodec:
    def test_label_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = random_label_volume(rng)
        save_volume(vol, str(tmp_path / "v"))
        back = load_volume(str(tmp_path / "v"))
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing

    def test_prob_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        raw = rng.random((3, 4, 2, 3)).astype(np.float32)
        raw /= raw.sum(axis=-1, keepdims=True)
        vol = ProbVolume(raw, (1.0, 1.0, 3.0))
        save_volume(vol, str(tmp_path / "p"))
        back = load_volume(str(tmp_path / "p"))
        assert np.array_equal(back.data, vol.data)

    def test_payload_length_mismatch(self, tmp_path):
        (tmp_path / "bad.hdr").write_text(
            "dims 2 2 2\nspacing 1 1 1\nkind label\nchannels 1\ndtype u8\n"
            "box 0 2 0 2 0 2\nstored mask\n"
        )
        # a mask storing all 8 voxels, then 7 labels
        (tmp_path / "bad.raw").write_bytes(b"\xff" + bytes([1]) * 7)
        with pytest.raises(VolumeError, match="7 values"):
            load_volume(str(tmp_path / "bad"))

    def test_hand_written_file(self, tmp_path):
        # 1x1x3 grid, labels 0,1,2 in w-fastest order: the mask stores the 2nd and 3rd
        (tmp_path / "h.hdr").write_text(
            "dims 1 1 3\nspacing 1 1 1\nkind label\nchannels 1\ndtype u8\n"
            "box 0 1 0 1 0 3\nstored mask\n"
        )
        (tmp_path / "h.raw").write_bytes(bytes([0b01100000, 1, 2]))
        vol = load_volume(str(tmp_path / "h"))
        assert vol.dims == (1, 1, 3)
        assert [vol.data[0, 0, d] for d in range(3)] == [0, 1, 2]

    def test_malformed_header(self, tmp_path):
        (tmp_path / "m.hdr").write_text(
            "dims 2 two 2\nspacing 1 1 1\nbox 0 2 0 2 0 2\nstored mask\n"
        )
        (tmp_path / "m.raw").write_bytes(b"\x00")
        with pytest.raises(VolumeError, match="malformed header"):
            load_volume(str(tmp_path / "m"))

    def test_prob_normalization_enforced(self):
        bad = np.full((2, 2, 2, 2), 0.6, dtype=np.float32)
        with pytest.raises(VolumeError, match="sum to 1"):
            ProbVolume(bad, (1.0, 1.0, 1.0))

    def test_prob_row_check_names_the_voxel(self):
        data = np.full((2, 3, 2, 4), 0.25, dtype=np.float32)
        data[1, 2, 0, 3] = 0.26
        with pytest.raises(VolumeError, match=r"voxel \(1,2,0\) sums to 1\.010000"):
            ProbVolume(data, (1.0, 1.0, 1.0))
        data[1, 2, 0] = (1.5, -0.5, 0.0, 0.0)  # sums to 1, but one value is negative
        with pytest.raises(VolumeError, match="non-negative"):
            ProbVolume(data, (1.0, 1.0, 1.0))

    def test_prob_row_with_nan_rejected(self):
        data = np.full((4, 4, 4, 2), 0.5, dtype=np.float32)
        data[1, 2, 3, 0] = np.nan
        with pytest.raises(VolumeError, match=r"voxel \(1,2,3\) sums to nan"):
            ProbVolume(data, (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("loaded_order", [False, True])
    def test_prob_check_finds_a_bad_row_in_the_last_slab(self, loaded_order):
        data = np.full((9, 9, 9, 2), 0.5, dtype=np.float32)
        data[8, 8, 8, 1] = 0.75
        data = file_order(data) if loaded_order else data
        with pytest.raises(VolumeError, match=r"voxel \(8,8,8\) sums to 1\.250000"):
            ProbVolume(data, (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("loaded_order", [False, True])
    def test_prob_check_names_the_first_bad_row_across_slabs(self, loaded_order):
        # slabs run along d in the loaded order: (2,0,1) is in an earlier
        # slab than (0,1,6), but (0,1,6) comes first in (w, h, d) order
        data = np.full((3, 3, 9, 2), 0.5, dtype=np.float32)
        data[2, 0, 1, 0] = 0.9
        data[0, 1, 6, 1] = 0.1
        data = file_order(data) if loaded_order else data
        assert prob_check_reference(data).endswith("voxel (0,1,6) sums to 0.600000")
        assert prob_check_outcome(data) == prob_check_reference(data)

    @pytest.mark.parametrize("loaded_order", [False, True])
    def test_prob_check_reports_a_bad_sum_before_a_negative_value(self, loaded_order):
        data = np.full((3, 3, 9, 2), 0.5, dtype=np.float32)
        data[0, 0, 0] = (1.5, -0.5)
        assert "non-negative" in prob_check_outcome(file_order(data) if loaded_order else data)
        data[2, 2, 8, 0] = 0.25
        data = file_order(data) if loaded_order else data
        assert prob_check_outcome(data) == prob_check_reference(data)
        assert "voxel (2,2,8)" in prob_check_outcome(data)

    @given(
        st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10)),
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), st.integers(0, 3),
                st.sampled_from([-0.5, -1e-9, -0.0, 0.0, 1e-6, 4e-6, 2e-5, 0.3, 0.6, 1.0, 1e30]),
                st.booleans(),
            ),
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_prob_check_matches_whole_volume_reference(self, dims, k, edits, loaded_order):
        # an edit adds delta to one channel, or also takes it from the next one,
        # which keeps the row sum and may leave a negative value
        data = np.full(dims + (k,), 1.0 / k, dtype=np.float32)
        for w, h, d, c, delta, move in edits:
            row = data[w % dims[0], h % dims[1], d % dims[2]]
            row[c % k] += np.float32(delta)
            if move:
                row[(c + 1) % k] -= np.float32(delta)
        data = file_order(data) if loaded_order else data
        assert prob_check_outcome(data) == prob_check_reference(data)

    def test_bad_row_in_a_loaded_file_names_the_file(self, tmp_path):
        vol = ProbVolume(np.full((3, 4, 2, 4), 0.25, dtype=np.float32), (1.0, 1.0, 1.0))
        save_volume(vol, str(tmp_path / "probs"))
        raw = tmp_path / "probs.raw"
        # every row is stored: a 3-byte mask of 24 ones, then the rows
        mask, payload = raw.read_bytes()[:3], np.frombuffer(raw.read_bytes()[3:], dtype="<f4")
        assert mask == b"\xff" * 3
        payload = payload.copy()
        # the first channel of voxel (1, 2, 1): w fastest, K values a voxel
        payload[4 * (1 + 3 * (2 + 4 * 1))] = 0.9
        raw.write_bytes(mask + payload.tobytes())
        with pytest.raises(VolumeError) as info:
            load_volume(str(tmp_path / "probs"))
        assert str(info.value) == (
            f"{raw}: probability rows must sum to 1 +- {PROB_TOL}; voxel (1,2,1) sums to 1.650000"
        )

    def test_prob_without_channels_rejected(self):
        with pytest.raises(VolumeError, match=r"K >= 1\), got shape \(2, 2, 2, 0\)"):
            ProbVolume(np.zeros((2, 2, 2, 0), dtype=np.float32), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("kind", ["label", "prob"])
    def test_save_of_load_reproduces_both_files(self, tmp_path, kind):
        rng = np.random.default_rng(2)
        if kind == "label":
            vol = random_label_volume(rng)
        else:
            vol = ProbVolume(random_prob_data(rng), (1.0, 1.0, 3.0))
        save_volume(vol, str(tmp_path / "a"))
        save_volume(load_volume(str(tmp_path / "a")), str(tmp_path / "b"))
        for ext in (".hdr", ".raw"):
            assert (tmp_path / f"b{ext}").read_bytes() == (tmp_path / f"a{ext}").read_bytes()

    def test_loaded_prob_volume_is_read_only_in_file_order(self, tmp_path):
        data = random_prob_data(np.random.default_rng(3))
        data[1, 2] = (1.0, 0.0, 0.0)  # background rows: not stored, filled in on load
        vol = ProbVolume(data, (1.0, 1.0, 1.0))
        save_volume(vol, str(tmp_path / "v"))
        back = load_volume(str(tmp_path / "v"))
        assert back.data.tobytes() == vol.data.tobytes()
        assert back.data.strides == file_order(vol.data).strides
        assert not back.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.data[0, 0, 0] = 0

    def test_empty_volumes_round_trip(self, tmp_path):
        for vol in (
            LabelVolume(np.zeros((0, 2, 2), dtype=np.uint8), (1, 1, 1)),
            ProbVolume(np.zeros((2, 0, 2, 3), dtype=np.float32), (1, 1, 1)),
        ):
            save_volume(vol, str(tmp_path / "e"))
            assert (tmp_path / "e.raw").read_bytes() == b""
            assert load_volume(str(tmp_path / "e")).data.shape == vol.data.shape

    def test_truncated_float_payload_rejected(self, tmp_path):
        (tmp_path / "t.hdr").write_text(
            "dims 1 1 2\nspacing 1 1 1\nkind prob\nchannels 1\ndtype f32\n"
            "box 0 1 0 1 0 2\nstored mask\n"
        )
        # a mask storing both voxels, then 7 bytes of their two f32 values
        (tmp_path / "t.raw").write_bytes(bytes([0b11000000]) + bytes(7))
        with pytest.raises(VolumeError, match="1.75 values, the mask stores 2 voxels of 2"):
            load_volume(str(tmp_path / "t"))

    @given(
        st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_payload_matches_reference(self, dims, k, seed, loaded_order):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 256, size=dims).astype(np.uint8)
        probs = random_prob_data(rng, dims, k)
        if loaded_order:
            labels, probs = file_order(labels), file_order(probs)
        with tempfile.TemporaryDirectory() as tmp:
            for vol in (LabelVolume(labels, (1, 1, 1)), ProbVolume(probs, (1, 1, 1))):
                save_volume(vol, os.path.join(tmp, "v"))
                with open(os.path.join(tmp, "v.raw"), "rb") as f:
                    assert f.read() == payload_reference(vol)

    def test_w_fastest_payload_order(self, tmp_path):
        vol = LabelVolume(np.arange(8).reshape(2, 2, 2).astype(np.uint8), (1, 1, 1))
        save_volume(vol, str(tmp_path / "o"))
        payload = (tmp_path / "o.raw").read_bytes()
        # flat index = w + W*(h + H*d); voxel (0, 0, 0) holds 0 and is not stored
        expect = [vol.data[w, h, d] for d in range(2) for h in range(2) for w in range(2)]
        assert expect[0] == 0
        assert list(payload) == [0b01111111] + expect[1:]


PROB_HEADER = "dims 3 4 5\nspacing 1 1 1\nkind prob\nchannels 2\ndtype f32\n"
LABEL_HEADER = "dims 3 4 5\nspacing 1 1 1\nkind label\nchannels 1\ndtype u8\n"


def stored_rows(rows, value):
    """The payload of ``rows`` voxels that are all stored and all hold ``value``:
    a mask of ones, then the values."""
    return np.packbits(np.ones(rows, dtype=bool)).tobytes() + value * rows


# (box line, voxels the payload holds, error) on a 3 x 4 x 5 grid
BAD_BOXES = pytest.mark.parametrize("box, payload_rows, match", [
    ("1 1 0 4 0 5", 0, r"box \[1:1, 0:4, 0:5\] is empty"),
    ("0 3 0 4 2 6", 12, r"box \[0:3, 0:4, 2:6\] is outside the grid \(3, 4, 5\)"),
    ("-1 2 0 4 0 5", 60, r"box \[-1:2, 0:4, 0:5\] is outside the grid"),
    ("2 1 0 4 0 5", 0, r"box \[2:1, 0:4, 0:5\] is outside the grid"),
    ("0 1 0 1 0", 1, "malformed header"),
], ids=["empty", "past-the-grid", "negative", "reversed", "five-numbers"])


class TestProbBox:
    """A prob volume stores the rows of a box of its grid, and the codec names a bad box."""

    def _boxed(self):
        rng = np.random.default_rng(4)
        box = (slice(1, 3), slice(0, 4), slice(2, 3))
        return ProbVolume(random_prob_data(rng, (2, 4, 1), 2), (1.0, 1.0, 1.0), (3, 4, 5), box)

    def test_round_trip_keeps_dims_box_and_rows(self, tmp_path):
        vol = self._boxed()
        save_volume(vol, str(tmp_path / "p"))
        assert (tmp_path / "p.hdr").read_text() == PROB_HEADER + "box 1 3 0 4 2 3\nstored mask\n"
        assert (tmp_path / "p.raw").read_bytes() == payload_reference(vol)
        back = load_volume(str(tmp_path / "p"))
        assert (back.dims, back.box) == (vol.dims, vol.box)
        assert back.data.tobytes() == vol.data.tobytes()

    @BAD_BOXES
    def test_bad_box_names_the_header(self, tmp_path, box, payload_rows, match):
        (tmp_path / "b.hdr").write_text(PROB_HEADER + f"box {box}\nstored mask\n")
        (tmp_path / "b.raw").write_bytes(
            stored_rows(payload_rows, np.full(2, 0.5, dtype="<f4").tobytes())
        )
        with pytest.raises(VolumeError, match=match) as err:
            load_volume(str(tmp_path / "b"))
        assert str(tmp_path / "b.hdr") in str(err.value)

    def test_payload_of_another_box_names_the_payload(self, tmp_path):
        save_volume(self._boxed(), str(tmp_path / "p"))
        hdr = tmp_path / "p.hdr"
        hdr.write_text(hdr.read_text().replace("box 1 3 0 4 2 3", "box 1 3 0 4 2 4"))
        # the 16-voxel box's mask takes 2 bytes: the 8-voxel mask and a value's first byte
        with pytest.raises(VolumeError, match=r"payload has 15.75 values, the mask stores "
                                              r"\d+ voxels of \d+") as err:
            load_volume(str(tmp_path / "p"))
        assert str(tmp_path / "p.raw") in str(err.value)

    def test_data_must_fill_its_box(self):
        data = random_prob_data(np.random.default_rng(5), (2, 4, 2), 2)
        with pytest.raises(VolumeError, match=r"does not fill box \[1:3, 0:4, 2:3\]"):
            ProbVolume(data, (1.0, 1.0, 1.0), (3, 4, 5), (slice(1, 3), slice(0, 4), slice(2, 3)))

    def test_bad_row_named_by_its_grid_voxel(self):
        data = np.full((2, 4, 1, 2), 0.5, dtype=np.float32)
        data[1, 3, 0, 0] = 0.75
        with pytest.raises(VolumeError, match=r"voxel \(2,3,2\) sums to 1\.250000"):
            ProbVolume(data, (1.0, 1.0, 1.0), (3, 4, 5), (slice(1, 3), slice(0, 4), slice(2, 3)))

    def test_crop_of_a_box_inside_the_stored_box(self):
        vol = self._boxed()
        inner = (slice(2, 3), slice(1, 3), slice(2, 3))
        assert np.array_equal(vol.crop(inner), vol.data[1:2, 1:3, 0:1])
        with pytest.raises(VolumeError, match=r"box \[0:3, 1:3, 2:3\] is not inside "
                                              r"the stored box \[1:3, 0:4, 2:3\]"):
            vol.crop((slice(0, 3), slice(1, 3), slice(2, 3)))


def save_old_layout(path, kind, data, dims, spacing, box=None):
    """Write ``data`` in a layout older than today's: no ``stored`` line and every
    voxel of ``box`` (the whole grid, with no ``box`` line, when ``box`` is None),
    w fastest."""
    channels, dtype, raw = (data.shape[3], "f32", "<f4") if kind == "prob" else (1, "u8", "<u1")
    (w, h, d), (sx, sy, sz) = dims, spacing
    with open(path + ".hdr", "w") as f:
        f.write(f"dims {w} {h} {d}\nspacing {sx:.9g} {sy:.9g} {sz:.9g}\n"
                f"kind {kind}\nchannels {channels}\ndtype {dtype}\n")
        if box is not None:
            f.write("box " + " ".join(f"{s.start} {s.stop}" for s in box) + "\n")
    with open(path + ".raw", "wb") as f:
        f.write(np.swapaxes(data, 0, 2).astype(raw).tobytes())


def refused_as_predating(path):
    with pytest.raises(VolumeError) as err:
        load_volume(path)
    assert str(err.value) == (
        f"{path}.hdr: no 'box' or 'stored mask' line: the file predates this format; "
        "rerun synth-gen to write it again"
    )


class TestLabelBox:
    """A label volume is stored on the box of its non-zero voxels and loads
    onto its whole grid, 0 outside the box."""

    def _boxed(self):
        data = np.zeros((3, 4, 5), dtype=np.uint8)
        data[1, 2, 3] = 1
        data[2, 0, 2] = 3
        return LabelVolume(data, (1.0, 1.0, 1.0))

    def test_box_line_and_a_payload_of_the_box_only(self, tmp_path):
        vol = self._boxed()
        save_volume(vol, str(tmp_path / "l"))
        assert (tmp_path / "l.hdr").read_text() == (
            LABEL_HEADER + "box 1 3 0 3 2 4\nstored mask\n"
        )
        payload = (tmp_path / "l.raw").read_bytes()
        # 2 * 3 * 2 voxels, w fastest: (2, 0, 2) is the 2nd and (1, 2, 3) the 11th
        assert payload == bytes([0b01000000, 0b00100000, 3, 1])

    def test_loaded_volume_is_read_only_in_file_order(self, tmp_path):
        vol = self._boxed()
        save_volume(vol, str(tmp_path / "l"))
        back = load_volume(str(tmp_path / "l"))
        assert isinstance(back, LabelVolume) and back.spacing == vol.spacing
        assert np.array_equal(back.data, vol.data)
        assert back.data.strides == file_order(vol.data).strides
        assert not back.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.data[0, 0, 0] = 1

    @given(boxed_masks(max_side=9), st.sampled_from(sorted(LAYOUTS)), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_on_the_box_of_the_non_zero_voxels(self, mask, layout, seed):
        rng = np.random.default_rng(seed)
        data = LAYOUTS[layout](mask * rng.integers(1, 256, size=mask.shape).astype(np.uint8))
        vol = LabelVolume(data, (0.5, 1.0, 2.5))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "l")
            save_volume(vol, path)
            with open(path + ".hdr") as f:
                box_line, stored_line = f.read().splitlines()[-2:]
            with open(path + ".raw", "rb") as f:
                assert f.read() == payload_reference(vol)
            back = load_volume(path)
        box = label_box_reference(vol.data)
        assert box_line == "box " + " ".join(f"{s.start} {s.stop}" for s in box)
        assert stored_line == "stored mask"
        assert np.array_equal(back.data, vol.data)

    @pytest.mark.parametrize("dims", [(3, 4, 5), (0, 2, 2), (2, 0, 3), (1, 1, 0)])
    def test_all_zero_volume_round_trips_on_the_whole_grid(self, tmp_path, dims):
        vol = LabelVolume(np.zeros(dims, dtype=np.uint8), (1.0, 1.0, 1.0))
        save_volume(vol, str(tmp_path / "z"))
        box = " ".join(f"0 {n}" for n in dims)
        assert (tmp_path / "z.hdr").read_text().endswith(f"\nbox {box}\nstored mask\n")
        # the mask's bits, all 0, and no value
        assert (tmp_path / "z.raw").read_bytes() == bytes(-(-int(np.prod(dims)) // 8))
        back = load_volume(str(tmp_path / "z"))
        assert back.dims == dims and not back.data.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_whole_grid_file_without_a_box_loads_the_same_data(self, tmp_path, seed):
        # a file written before label volumes were boxed is refused; the file
        # save_volume writes for the same volume on the rerun loads its data
        vol = random_label_volume(np.random.default_rng(seed), (6, 5, 7))
        vol = LabelVolume(vol.data * (np.indices(vol.dims)[1] >= 2), vol.spacing)
        save_old_layout(str(tmp_path / "old"), "label", vol.data, vol.dims, vol.spacing)
        save_volume(vol, str(tmp_path / "new"))
        assert "box" not in (tmp_path / "old.hdr").read_text()
        assert "box 0 6 2 5 0 7" in (tmp_path / "new.hdr").read_text()
        refused_as_predating(str(tmp_path / "old"))
        new = load_volume(str(tmp_path / "new"))
        assert np.array_equal(new.data, vol.data) and new.spacing == vol.spacing
        assert not new.data.flags.writeable

    @BAD_BOXES
    def test_bad_box_names_the_header(self, tmp_path, box, payload_rows, match):
        (tmp_path / "b.hdr").write_text(LABEL_HEADER + f"box {box}\nstored mask\n")
        (tmp_path / "b.raw").write_bytes(stored_rows(payload_rows, b"\x01"))
        with pytest.raises(VolumeError, match=match) as err:
            load_volume(str(tmp_path / "b"))
        assert str(tmp_path / "b.hdr") in str(err.value)


@st.composite
def stored_volumes(draw):
    """A label or prob volume on a box of a grid, whose voxels are all
    background, all stored, one stored voxel in a grid corner or a random mix."""
    kind = draw(st.sampled_from(["label", "prob"]))
    dims = tuple(draw(st.integers(1, 11)) for _ in range(3))
    pattern = draw(st.sampled_from(["all background", "all stored", "one corner", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if pattern == "all background":
        stored = np.zeros(dims, dtype=bool)
    elif pattern == "all stored":
        stored = np.ones(dims, dtype=bool)
    elif pattern == "one corner":
        stored = np.zeros(dims, dtype=bool)
        stored[draw(st.tuples(*[st.sampled_from([0, -1])] * 3))] = True
    else:
        stored = rng.random(dims) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    if kind == "label":
        data = np.where(stored, rng.integers(1, 256, size=dims), 0).astype(np.uint8)
        return LabelVolume(LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](data), (1.0, 0.5, 2.0))
    k = draw(st.integers(1, 4))
    rows = np.zeros(dims + (k,), dtype=np.float32)
    rows[..., 0] = 1.0  # the background row
    if k == 1:
        # the one row that sums to 1 besides the background's
        rows[stored] = np.nextafter(np.float32(1.0), np.float32(0.0))
    else:
        # a random row; a one-hot row of another channel, as noise 0 gives;
        # or the background row with -0.0, which differs in its sign bit
        pick = rng.integers(3, size=dims)
        random_rows = random_prob_data(rng, dims, k)
        one_hot = np.eye(k, dtype=np.float32)[rng.integers(1, k, size=dims)]
        rows[stored & (pick == 0)] = random_rows[stored & (pick == 0)]
        rows[stored & (pick == 1)] = one_hot[stored & (pick == 1)]
        rows[stored & (pick == 2), 1] = -0.0
    grid = tuple(n + draw(st.integers(0, 3)) for n in dims)
    at = [draw(st.integers(0, g - n)) for g, n in zip(grid, dims)]
    box = tuple(slice(a, a + n) for a, n in zip(at, dims))
    return ProbVolume(file_order(rows) if draw(st.booleans()) else rows, (1.0, 1.0, 1.0),
                      grid, box)


class TestStoredVoxels:
    """Every volume stores only its non-background voxels: a bit mask over its
    box, then the stored voxels' values, and loads them back bit for bit."""

    @given(stored_volumes())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_is_bit_exact(self, vol):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            save_volume(vol, a)
            with open(a + ".raw", "rb") as f:
                assert f.read() == payload_reference(vol)
            back = load_volume(a)
            save_volume(back, b)
            for ext in (".hdr", ".raw"):
                with open(a + ext, "rb") as f, open(b + ext, "rb") as g:
                    assert f.read() == g.read()
        assert type(back) is type(vol) and back.dims == vol.dims
        assert back.data.tobytes() == vol.data.tobytes()
        axes = (2, 1, 0, 3)[: back.data.ndim]
        assert back.data.transpose(axes).flags.c_contiguous  # in file order
        assert not back.data.flags.writeable
        if isinstance(vol, ProbVolume):
            assert back.box == vol.box

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 1, 5), (2, 4, 1), (9, 7, 3)])
    def test_box_sizes_not_a_multiple_of_8(self, tmp_path, dims):
        # 1, 15, 8 and 189 voxels: the mask's last byte is padded with 0 bits
        data = np.full(dims, 7, dtype=np.uint8)
        save_volume(LabelVolume(data, (1.0, 1.0, 1.0)), str(tmp_path / "l"))
        n = int(np.prod(dims))
        mask = np.packbits(np.ones(n, dtype=bool)).tobytes()
        assert len(mask) == -(-n // 8) and mask[-1] == (0xFF << (-n % 8)) & 0xFF
        assert (tmp_path / "l.raw").read_bytes() == mask + bytes([7]) * n
        assert np.array_equal(load_volume(str(tmp_path / "l")).data, data)

    def test_noise_free_probability_volume(self, tmp_path):
        # the one-hot rows of a label volume: label 0 rows are not stored
        labels = np.random.default_rng(6).integers(0, 4, size=(5, 6, 7))
        vol = ProbVolume(np.eye(4, dtype=np.float32)[labels], (1.0, 1.0, 1.0))
        save_volume(vol, str(tmp_path / "p"))
        mask_bytes = -(-labels.size // 8)
        stored = int(np.count_nonzero(labels))
        assert len((tmp_path / "p.raw").read_bytes()) == mask_bytes + 16 * stored
        assert load_volume(str(tmp_path / "p")).data.tobytes() == vol.data.tobytes()

    @pytest.mark.parametrize("kind", ["label", "prob"])
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_box_files_load_the_same_arrays(self, tmp_path, kind, seed):
        # files written before only non-background voxels were stored, with a box
        # line or none and every voxel of the box, are refused; the file
        # save_volume writes for the same volume on the rerun loads its arrays
        rng = np.random.default_rng(seed)
        if kind == "label":
            vol = random_label_volume(rng, (6, 5, 7))
            vol = LabelVolume(vol.data * (np.indices(vol.dims)[1] >= 2), vol.spacing)
            box = label_box_reference(vol.data)
            save_old_layout(str(tmp_path / "no-box"), kind, vol.data, vol.dims, vol.spacing)
            save_old_layout(str(tmp_path / "box"), kind, vol.data[box], vol.dims,
                            vol.spacing, box)
        else:
            data = random_prob_data(rng, (6, 5, 7), 3)
            data[rng.random((6, 5, 7)) < 0.5] = (1.0, 0.0, 0.0)
            vol = ProbVolume(data, (1.0, 2.0, 1.0), (8, 5, 9),
                             (slice(1, 7), slice(0, 5), slice(2, 9)))
            save_old_layout(str(tmp_path / "no-box"), kind, data, data.shape[:3], vol.spacing)
            save_old_layout(str(tmp_path / "box"), kind, data, vol.dims, vol.spacing, vol.box)
        save_volume(vol, str(tmp_path / "new"))
        assert "stored" not in (tmp_path / "box.hdr").read_text()
        assert "box" not in (tmp_path / "no-box.hdr").read_text()
        for name in ("no-box", "box"):
            refused_as_predating(str(tmp_path / name))
        new = load_volume(str(tmp_path / "new"))
        assert new.data.tobytes() == vol.data.tobytes() and new.dims == vol.dims
        assert not new.data.flags.writeable
        if kind == "prob":
            assert new.box == vol.box

    def _saved(self, tmp_path, kind):
        rng = np.random.default_rng(7)
        if kind == "label":
            vol = LabelVolume(rng.integers(0, 3, size=(5, 4, 3)).astype(np.uint8), (1, 1, 1))
        else:
            data = random_prob_data(rng, (5, 4, 3), 2)
            data[rng.random((5, 4, 3)) < 0.5] = (1.0, 0.0)
            vol = ProbVolume(data, (1.0, 1.0, 1.0))
        save_volume(vol, str(tmp_path / "v"))
        return tmp_path / "v.raw", (tmp_path / "v.raw").read_bytes()

    @pytest.mark.parametrize("kind", ["label", "prob"])
    def test_mask_shorter_than_its_box_names_the_payload(self, tmp_path, kind):
        raw, payload = self._saved(tmp_path, kind)
        raw.write_bytes(payload[:7])  # the mask of the box's 60 voxels takes 8 bytes
        with pytest.raises(VolumeError) as err:
            load_volume(str(tmp_path / "v"))
        assert str(err.value) == (
            f"{raw}: payload has 7 bytes, the mask of box [0:5, 0:4, 0:3] takes 8"
        )

    @pytest.mark.parametrize("kind", ["label", "prob"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_value_count_must_match_the_mask(self, tmp_path, kind, change):
        raw, payload = self._saved(tmp_path, kind)
        stored = sum(bin(b).count("1") for b in payload[:8])
        item, k = (1, 1) if kind == "label" else (4, 2)
        values = len(payload[8:]) // item
        assert values == stored * k
        # one value more or fewer than the mask's stored voxels hold
        raw.write_bytes(payload + bytes(item) if change > 0 else payload[:-item])
        with pytest.raises(VolumeError) as err:
            load_volume(str(tmp_path / "v"))
        assert str(err.value) == (
            f"{raw}: payload has {values + change} values, "
            f"the mask stores {stored} voxels of {stored * k}"
        )

    def test_bad_stored_row_named_by_its_first_grid_voxel(self, tmp_path):
        # rows (2, 0, 0) and (0, 1, 0) of the box come 3rd and 4th in the
        # file, but (0, 1, 0) comes first in (w, h, d) order
        data = np.zeros((3, 2, 2, 2), dtype=np.float32)
        data[..., 0] = 1.0
        data[2, 0, 0] = data[0, 1, 0] = data[1, 1, 1] = (0.5, 0.5)
        vol = ProbVolume(data, (1.0, 1.0, 1.0), (5, 2, 4), (slice(2, 5), slice(0, 2), slice(1, 3)))
        save_volume(vol, str(tmp_path / "p"))
        raw = tmp_path / "p.raw"
        mask, values = raw.read_bytes()[:2], np.frombuffer(raw.read_bytes()[2:], dtype="<f4")
        assert mask == bytes([0b00110000, 0b00100000])
        values = values.copy()
        values[[0, 2]] = 0.75
        raw.write_bytes(mask + values.tobytes())
        with pytest.raises(VolumeError) as err:
            load_volume(str(tmp_path / "p"))
        assert str(err.value) == (
            f"{raw}: probability rows must sum to 1 +- {PROB_TOL}; voxel (2,1,1) sums to 1.250000"
        )

    def test_stored_label_0_rejected(self, tmp_path):
        raw, payload = self._saved(tmp_path, "label")
        raw.write_bytes(payload[:9] + b"\x00" + payload[10:])
        with pytest.raises(VolumeError) as err:
            load_volume(str(tmp_path / "v"))
        assert str(err.value) == f"{raw}: a stored label is 0, which is background"

    @pytest.mark.parametrize("kind", ["label", "prob"])
    def test_stored_line_other_than_mask_rejected(self, tmp_path, kind):
        self._saved(tmp_path, kind)
        hdr = tmp_path / "v.hdr"
        hdr.write_text(hdr.read_text().replace("stored mask", "stored bits"))
        with pytest.raises(VolumeError, match=f"malformed header {hdr}: "
                                              "'stored bits', expected 'stored mask'"):
            load_volume(str(tmp_path / "v"))

    def test_header_key_given_twice_rejected(self, tmp_path):
        (tmp_path / "t.hdr").write_text(LABEL_HEADER + "box 0 3 0 4 0 5\nbox 0 3 0 4 0 4\n")
        (tmp_path / "t.raw").write_bytes(bytes(60))
        with pytest.raises(VolumeError) as err:
            load_volume(str(tmp_path / "t"))
        assert str(err.value) == f"{tmp_path / 't.hdr'}:7: box is already set on line 6"


class TestHeaderRules:
    """A header states a kind the codec writes, and a spacing of three finite positive values."""

    @pytest.mark.parametrize("kind, channels, dtype", [
        ("label", 1, "f32"),
        ("label", 2, "u8"),
        ("label", 0, "u8"),
        ("prob", 2, "u8"),
        ("prob", 0, "f32"),
        ("mask", 1, "u8"),
    ])
    def test_kind_channels_and_dtype_must_agree(self, tmp_path, kind, channels, dtype):
        (tmp_path / "k.hdr").write_text(
            f"dims 1 1 2\nspacing 1 1 1\nkind {kind}\nchannels {channels}\ndtype {dtype}\n"
            "box 0 1 0 1 0 2\nstored mask\n"
        )
        # both voxels stored, as two f32 values, 1.7 and 300.0: a u8 cast would read them
        # as 1 and 44
        values = np.array([1.7, 300.0], dtype="<f4").tobytes()
        (tmp_path / "k.raw").write_bytes(bytes([0b11000000]) + values)
        with pytest.raises(VolumeError, match=f"kind {kind}, dtype {dtype}, {channels} channels") as err:
            load_volume(str(tmp_path / "k"))
        assert f"malformed header {tmp_path / 'k.hdr'}" in str(err.value)

    BAD_SPACINGS = [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, -np.inf), (1.0, 1.0),
                    (1.0, 1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (1.0, -2.0, 1.0)]

    @pytest.mark.parametrize("spacing", BAD_SPACINGS)
    def test_volumes_reject_a_spacing_that_is_not_three_finite_positive_values(self, spacing):
        match = r"spacing must be three finite positive values"
        with pytest.raises(VolumeError, match=match):
            LabelVolume(np.zeros((2, 2, 2), dtype=np.uint8), spacing)
        with pytest.raises(VolumeError, match=match):
            ProbVolume(np.ones((2, 2, 2, 1), dtype=np.float32), spacing)

    @pytest.mark.parametrize("kind", ["label", "prob"])
    @pytest.mark.parametrize("spacing", ["nan 1 1", "1 inf 1", "1 1", "1 1 0", "1 -1 1"])
    def test_bad_spacing_names_the_header(self, tmp_path, kind, spacing):
        dtype = "u8" if kind == "label" else "f32"
        (tmp_path / "s.hdr").write_text(
            f"dims 1 1 1\nspacing {spacing}\nkind {kind}\nchannels 1\ndtype {dtype}\n"
            "box 0 1 0 1 0 1\nstored mask\n"
        )
        value = np.ones(1, dtype="<u1" if kind == "label" else "<f4").tobytes()
        (tmp_path / "s.raw").write_bytes(stored_rows(1, value))
        with pytest.raises(VolumeError, match="spacing must be three finite positive") as err:
            load_volume(str(tmp_path / "s"))
        assert str(tmp_path / "s.hdr") in str(err.value)

    @pytest.mark.parametrize("kind", ["label", "prob"])
    @pytest.mark.parametrize("line", ["box", "stored"])
    def test_header_that_predates_the_format_refused(self, tmp_path, kind, line):
        # each line is required on its own: older files lack the stored line, and
        # label files older still the box line too
        rng = np.random.default_rng(8)
        if kind == "label":
            vol = random_label_volume(rng)
        else:
            vol = ProbVolume(random_prob_data(rng), (1.0, 1.0, 1.0))
        save_volume(vol, str(tmp_path / "v"))
        hdr = tmp_path / "v.hdr"
        lines = hdr.read_text().splitlines(keepends=True)
        hdr.write_text("".join(text for text in lines if not text.startswith(line + " ")))
        with pytest.raises(VolumeError) as err:
            load_volume(str(tmp_path / "v"))
        assert str(err.value) == (
            f"{hdr}: no 'box' or 'stored mask' line: the file predates this format; "
            "rerun synth-gen to write it again"
        )


def brute_force_surface(vol, label):
    w, h, d = vol.dims
    out = set()
    for x in range(w):
        for y in range(h):
            for z in range(d):
                if vol.data[x, y, z] != label:
                    continue
                for dx, dy, dz in (
                    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
                ):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if not (0 <= nx < w and 0 <= ny < h and 0 <= nz < d):
                        out.add((x, y, z))
                        break
                    if vol.data[nx, ny, nz] != label:
                        out.add((x, y, z))
                        break
    return out


def surface_set(vol, label):
    """Surface voxels of ``label`` in ``vol`` as a set of index triples."""
    return {tuple(ijk) for ijk in np.argwhere(surface_mask(vol.data == label))}


class TestSurface:
    def test_single_voxel(self):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        data[1, 1, 1] = 1
        assert surface_set(LabelVolume(data, (1, 1, 1)), 1) == {(1, 1, 1)}

    def test_solid_block_has_26_surface_voxels(self):
        data = np.zeros((5, 5, 5), dtype=np.uint8)
        data[1:4, 1:4, 1:4] = 1
        surf = surface_set(LabelVolume(data, (1, 1, 1)), 1)
        assert len(surf) == 26
        assert (2, 2, 2) not in surf

    def test_matches_brute_force_scan(self):
        # in each layout the stages pass: C order, w fastest as loaded, and a reversed view
        rng = np.random.default_rng(7)
        for _ in range(5):
            data = rng.integers(0, 2, size=(8, 8, 8)).astype(np.uint8)
            for layout in LAYOUTS.values():
                vol = LabelVolume(layout(data), (1, 1, 1))
                assert surface_set(vol, 1) == brute_force_surface(vol, 1)

    @pytest.mark.parametrize("shape", [(0, 0, 0), (0, 4, 3), (2, 0, 5)])
    def test_zero_size_crop_has_an_empty_surface(self, shape):
        # the crop an empty mask's box gives
        surf = surface_mask(np.zeros(shape, dtype=bool))
        assert surf.shape == shape and surf.dtype == bool

    def test_absent_label_gives_empty_set(self):
        vol = LabelVolume(np.zeros((3, 3, 3), dtype=np.uint8), (1, 1, 1))
        assert surface_set(vol, 5) == set()

    def test_surface_is_subset_of_label_voxels(self):
        rng = np.random.default_rng(8)
        vol = LabelVolume(rng.integers(0, 3, size=(6, 6, 6)).astype(np.uint8), (1, 1, 1))
        all_voxels = {tuple(i) for i in np.argwhere(vol.data == 1)}
        assert surface_set(vol, 1) <= all_voxels


class TestOrganBox:
    @given(boxed_masks(), st.sampled_from(sorted(LAYOUTS)))
    @settings(max_examples=300, deadline=None)
    def test_matches_find_objects(self, mask, layout):
        mask = LAYOUTS[layout](mask)
        assert organ_box(mask) == find_objects_box(mask)

    @given(boxed_masks(), st.sampled_from(sorted(LAYOUTS)))
    @settings(max_examples=300, deadline=None)
    def test_crop_indices_are_argwhere_on_the_grid(self, mask, layout):
        mask = LAYOUTS[layout](mask)
        box = organ_box(mask)
        got, expect = voxel_indices(mask[box], box), np.argwhere(mask)
        # same rows in the same order and memory layout, so float sums over
        # them (centroids, world coordinates) keep their bits
        assert got.dtype == expect.dtype
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
            expect.flags.c_contiguous, expect.flags.f_contiguous)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("corner", [(0, 0, 0), (4, 0, 6), (4, 5, 6), (0, 5, 0)])
    def test_one_voxel_in_a_corner(self, corner):
        mask = np.zeros((5, 6, 7), dtype=bool)
        mask[corner] = True
        assert organ_box(mask) == tuple(slice(c, c + 1) for c in corner)

    def test_empty_mask_gives_an_empty_box(self):
        mask = np.zeros((3, 4, 5), dtype=bool)
        box = organ_box(mask)
        assert mask[box].size == 0
        assert voxel_indices(mask[box], box).shape == (0, 3)


class TestIsConnected:
    """is_connected labels the mask's box; the oracle counts components on the whole grid."""

    @staticmethod
    def whole_grid(mask):
        return ndimage.label(mask, structure=ndimage.generate_binary_structure(3, 1))[1] == 1

    @given(boxed_masks(max_side=9), st.sampled_from(sorted(LAYOUTS)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_whole_grid_count(self, mask, layout):
        mask = LAYOUTS[layout](mask)
        assert is_connected(mask) == self.whole_grid(mask)

    def test_empty_mask_is_not_connected(self):
        assert not is_connected(np.zeros((3, 4, 5), dtype=bool))

    @pytest.mark.parametrize("corner", [(0, 0, 0), (4, 5, 6), (2, 3, 1)])
    def test_one_voxel_is_connected(self, corner):
        mask = np.zeros((5, 6, 7), dtype=bool)
        mask[corner] = True
        assert is_connected(mask)

    @pytest.mark.parametrize("centre", [True, False], ids=["cross", "six-arms"])
    def test_voxels_on_every_face_of_the_box(self, centre):
        # a 3-D cross inside the grid, one arm ending on each face of its box;
        # without its centre voxel the six arms are six components
        mask = np.zeros((9, 8, 7), dtype=bool)
        mask[1:6, 4, 3] = mask[3, 2:7, 3] = mask[3, 4, 1:6] = True
        mask[3, 4, 3] = centre
        assert is_connected(mask) == centre == self.whole_grid(mask)


class TestDice:
    def test_identical_nonempty(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[1:3, 1:3, 1:3] = True
        assert dice(m, m) == 1.0

    def test_half_overlap(self):
        a = np.zeros((4, 1, 1), dtype=bool)
        b = np.zeros((4, 1, 1), dtype=bool)
        a[0:2] = True
        b[1:3] = True
        assert dice(a, b) == 0.5

    def test_both_empty_is_one(self):
        e = np.zeros((2, 2, 2), dtype=bool)
        assert dice(e, e) == 1.0

    def test_disjoint_is_zero(self):
        a = np.zeros((2, 2, 2), dtype=bool)
        b = np.zeros((2, 2, 2), dtype=bool)
        a[0, 0, 0] = True
        b[1, 1, 1] = True
        assert dice(a, b) == 0.0

    def test_matches_set_count_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.random((16, 16, 16)) < 0.3
            b = rng.random((16, 16, 16)) < 0.3
            sa = {tuple(i) for i in np.argwhere(a)}
            sb = {tuple(i) for i in np.argwhere(b)}
            expect = 2 * len(sa & sb) / (len(sa) + len(sb))
            assert dice(a, b) == pytest.approx(expect, abs=1e-12)

    @given(st.integers(0, 2**27 - 1), st.integers(0, 2**27 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, bits_a, bits_b):
        a = np.array([(bits_a >> i) & 1 for i in range(27)], dtype=bool).reshape(3, 3, 3)
        b = np.array([(bits_b >> i) & 1 for i in range(27)], dtype=bool).reshape(3, 3, 3)
        assert dice(a, b) == dice(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(VolumeError):
            dice(np.zeros((2, 2, 2), dtype=bool), np.zeros((3, 3, 3), dtype=bool))


class TestDetected:
    def _masks(self, n_gt, n_overlap, grid=4):
        gt = np.zeros((grid, grid, grid), dtype=bool)
        pred = np.zeros_like(gt)
        flat_gt = gt.reshape(-1)
        flat_pred = pred.reshape(-1)
        flat_gt[:n_gt] = True
        flat_pred[:n_overlap] = True
        return pred, gt

    def test_ten_percent_rule(self):
        pred, gt = self._masks(10, 1)
        assert DETECTION_CUTOFF == 0.1
        assert detected(pred, gt)

    def test_below_cutoff(self):
        pred, gt = self._masks(11, 1)
        assert not detected(pred, gt)

    def test_empty_gt_raises(self):
        with pytest.raises(VolumeError):
            detected(np.zeros((2, 2, 2), dtype=bool), np.zeros((2, 2, 2), dtype=bool))

    def test_monotone_in_overlap(self):
        # one ground-truth voxel more at a time: once detected, always detected
        rng = np.random.default_rng(5)
        gt = rng.random((6, 6, 6)) < 0.4
        gt[0, 0, 0] = True
        pred = np.zeros_like(gt)
        before = False
        for voxel in rng.permutation(np.argwhere(gt)):
            pred[tuple(voxel)] = True
            after = detected(pred, gt)
            assert after or not before
            before = after
        assert before
