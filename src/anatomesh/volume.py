"""Voxel volume types, file codec, surface extraction and segmentation metrics."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "LabelVolume",
    "ProbVolume",
    "VolumeError",
    "channel_sum",
    "load_volume",
    "read_fields",
    "save_volume",
    "CONN6",
    "is_connected",
    "organ_box",
    "voxel_indices",
    "whole_box",
    "surface_mask",
    "dice",
    "detected",
    "DETECTION_CUTOFF",
]

PROB_TOL = 1e-5
# a mass is detected when the prediction covers at least this share of its voxels
DETECTION_CUTOFF = 0.1


class VolumeError(ValueError):
    """Malformed volume file or inconsistent volume data."""


def _check_spacing(spacing: tuple[float, ...]) -> None:
    """Raise VolumeError unless ``spacing`` is three finite positive mm sizes."""
    # written so that NaN fails it
    if not (len(spacing) == 3 and all(0 < s < math.inf for s in spacing)):
        raise VolumeError(f"spacing must be three finite positive values, got {tuple(spacing)}")


@dataclass(frozen=True)
class LabelVolume:
    """Dense integer-labeled voxel grid.

    ``data`` has shape (W, H, D), dtype uint8. Label 0 is background,
    1 the organ, >= 2 mass classes; the organ is every non-zero voxel,
    masses included. ``spacing`` is mm per voxel.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        if self.data.ndim != 3:
            raise VolumeError(f"label data must be 3-D, got shape {self.data.shape}")
        _check_spacing(self.spacing)
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.uint8))
        self.data.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def organ(self) -> np.ndarray:
        """The organ mask: every non-zero voxel."""
        return self.data > 0


def channel_sum(channels: np.ndarray) -> np.ndarray:
    """Float64 sum over the leading axis, adding one channel at a time in order.

    On a (K, ...) view of a (..., K) volume this gives the bits of the
    float64 ``sum(axis=-1)``, at about a quarter of its cost.
    """
    total = channels[0].astype(np.float64)
    for channel in channels[1:]:
        total += channel
    return total


def _check_probabilities(rows: np.ndarray, origin: list[int]) -> None:
    """Raise VolumeError unless every (w, h, d, K) row is non-negative and sums to 1.

    The first bad row in (w, h, d) order is named by its grid voxel, row
    (0, 0, 0) being voxel ``origin``. A NaN sum fails.
    """
    sums = channel_sum(np.moveaxis(rows, -1, 0))
    bad = ~(np.abs(sums - 1.0) <= PROB_TOL)
    if bad.any():
        at = np.argwhere(bad)[0]  # argwhere runs in C order: (w, h, d) order
        w, h, d = (at + origin).tolist()
        raise VolumeError(
            f"probability rows must sum to 1 +- {PROB_TOL}; voxel ({w},{h},{d}) "
            f"sums to {sums[tuple(at)]:.6f}"
        )
    if (rows < 0).any():
        raise VolumeError("probability values must be non-negative")


def whole_box(dims: tuple[int, ...]) -> tuple[slice, ...]:
    """The box of every voxel of a grid of ``dims``."""
    return tuple(slice(0, n) for n in dims)


def _box_text(box: tuple[slice, ...]) -> str:
    return "[" + ", ".join(f"{s.start}:{s.stop}" for s in box) + "]"


def _check_box(box: tuple[slice, ...], dims: tuple[int, ...]) -> None:
    """Raise VolumeError unless ``box`` lies in a grid of ``dims`` and, if the grid
    holds a voxel, holds one too."""
    if not all(0 <= s.start <= s.stop <= n for s, n in zip(box, dims)):
        raise VolumeError(f"box {_box_text(box)} is outside the grid {tuple(dims)}")
    if all(dims) and any(s.start == s.stop for s in box):
        raise VolumeError(f"box {_box_text(box)} is empty")


@dataclass(frozen=True)
class ProbVolume:
    """Per-voxel class probabilities on a box of a (W, H, D) grid.

    ``data`` has shape (w, h, d, K), dtype float32: the rows of the grid
    voxels in ``box``, three slices of a grid of ``dims``. Both default to
    the whole of ``data``. Only the box's rows are stored and checked; what
    the grid holds outside the box is for a consumer to say.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    dims: tuple[int, int, int] | None = None
    box: tuple[slice, slice, slice] | None = None

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[3] < 1:
            raise VolumeError(f"prob data must be (W, H, D, K >= 1), got shape {self.data.shape}")
        _check_spacing(self.spacing)
        dims = tuple(self.data.shape[:3]) if self.dims is None else tuple(self.dims)
        box = whole_box(dims) if self.box is None else tuple(self.box)
        _check_box(box, dims)
        if tuple(s.stop - s.start for s in box) != self.data.shape[:3]:
            raise VolumeError(
                f"prob data of shape {self.data.shape} does not fill box {_box_text(box)}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float32))
        _check_probabilities(self.data, [s.start for s in box])
        self.data.setflags(write=False)

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    def crop(self, box: tuple[slice, slice, slice]) -> np.ndarray:
        """The rows of the grid voxels in ``box``; VolumeError unless it lies in the stored box."""
        if not all(s.start <= b.start <= b.stop <= s.stop for b, s in zip(box, self.box)):
            raise VolumeError(
                f"box {_box_text(box)} is not inside the stored box {_box_text(self.box)}"
            )
        at = tuple(slice(b.start - s.start, b.stop - s.start) for b, s in zip(box, self.box))
        return self.data[at]


def _header_path(path: str) -> tuple[str, str]:
    base, ext = os.path.splitext(path)
    if ext in (".hdr", ".raw"):
        return base + ".hdr", base + ".raw"
    return path + ".hdr", path + ".raw"


_ITEM = {"label": np.dtype("<u1"), "prob": np.dtype("<f4")}


def _background(kind: str, channels: int) -> np.ndarray:
    """The row a volume of ``kind`` does not store: label 0, or probability 1 on channel 0."""
    row = np.zeros(channels, dtype=_ITEM[kind])
    if kind == "prob":
        row[0] = 1.0
    return row


def _stored(rows: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Which of the contiguous (n, K) ``rows`` differ from ``background`` in any bit.

    Each row is compared as unsigned words of up to 8 bytes, one word
    column at a time: two compares for four float32 channels, where
    comparing floats would take four and would not see the sign of a -0.0.
    """
    word = np.dtype(f"<u{math.gcd(rows.shape[1] * rows.itemsize, 8)}")
    words, background = rows.view(word), background.view(word)
    stored = words[:, 0] != background[0]
    for k in range(1, len(background)):
        stored |= words[:, k] != background[k]
    return stored


def save_volume(vol: LabelVolume | ProbVolume, path: str) -> None:
    """Write the two-file volume codec: text ``.hdr`` plus raw ``.raw`` payload.

    The header holds the grid's ``dims``, a ``box x0 x1 y0 y1 z0 z1`` line
    (ends exclusive) and a ``stored mask`` line. The payload holds the
    box's non-background voxels only, as two parts: the bit mask of the
    stored voxels over the box (``np.packbits``, most significant bit
    first, w fastest: w, then h, then d), then the stored voxels' values in
    the same order. Background is label 0 in a label volume and the row
    (1, 0, ..., 0) in a prob volume. A label volume's box is the box of
    its non-zero voxels, or the whole grid when it has none; a prob volume
    is stored on its own box, K consecutive f32 per voxel. Little-endian
    throughout.
    """
    hdr_path, raw_path = _header_path(path)
    w, h, d = vol.dims
    if isinstance(vol, LabelVolume):
        box = organ_box(vol.organ)
        if any(s.start == s.stop for s in box):
            box = whole_box(vol.dims)
        kind, channels, dtype = "label", 1, "u8"
        payload = vol.data[box].transpose(2, 1, 0)
    else:
        box = vol.box
        kind, channels, dtype = "prob", vol.channels, "f32"
        payload = vol.data.transpose(2, 1, 0, 3)
    rows = np.ascontiguousarray(payload, dtype=_ITEM[kind]).reshape(-1, channels)
    stored = _stored(rows, _background(kind, channels))
    sx, sy, sz = vol.spacing
    with open(hdr_path, "w") as f:
        f.write(f"dims {w} {h} {d}\n")
        f.write(f"spacing {sx:.9g} {sy:.9g} {sz:.9g}\n")
        f.write(f"kind {kind}\n")
        f.write(f"channels {channels}\n")
        f.write(f"dtype {dtype}\n")
        f.write("box " + " ".join(f"{s.start} {s.stop}" for s in box) + "\n")
        f.write("stored mask\n")
    with open(raw_path, "wb") as f:
        f.write(np.packbits(stored))
        f.write(rows.compress(stored, axis=0))


def read_fields(path: str) -> dict[str, list[str]]:
    """Words by the first word of their line; VolumeError names both lines of a repeated key."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise VolumeError(f"{path}: {exc}") from exc
    fields, line_of = {}, {}
    for lineno, line in enumerate(lines, 1):
        words = line.split()
        if not words:
            continue
        key = words[0]
        if key in fields:
            raise VolumeError(f"{path}:{lineno}: {key} is already set on line {line_of[key]}")
        fields[key], line_of[key] = words[1:], lineno
    return fields


def load_volume(path: str) -> LabelVolume | ProbVolume:
    """Load a volume written by :func:`save_volume`.

    The box is filled with background and the stored values are scattered
    into it; a prob volume's rows are checked as its constructor checks
    them, and an error names the ``.raw`` file. A header
    without a ``box`` or a ``stored mask`` line predates this format and is
    refused. The data is read-only, in the file's w-fastest order: a
    consumer that needs another order copies. A label volume's box is
    copied once into a zeroed grid.
    """
    hdr_path, raw_path = _header_path(path)
    fields = read_fields(hdr_path)
    if "box" not in fields or "stored" not in fields:
        raise VolumeError(f"{hdr_path}: no 'box' or 'stored mask' line: the file predates "
                          "this format; rerun synth-gen to write it again")
    try:
        dims = tuple(int(v) for v in fields["dims"])
        w, h, d = dims
        spacing = tuple(float(v) for v in fields["spacing"])
        kind = fields["kind"][0]
        channels = int(fields["channels"][0])
        dtype = fields["dtype"][0]
        x0, x1, y0, y1, z0, z1 = (int(v) for v in fields["box"])
        if fields["stored"] != ["mask"]:
            raise ValueError(f"'stored {' '.join(fields['stored'])}', expected 'stored mask'")
    except (KeyError, ValueError, IndexError) as exc:
        raise VolumeError(f"malformed header {hdr_path}: {exc}") from exc
    label_ok = kind == "label" and dtype == "u8" and channels == 1
    prob_ok = kind == "prob" and dtype == "f32" and channels >= 1
    if not (label_ok or prob_ok):
        raise VolumeError(
            f"malformed header {hdr_path}: kind {kind}, dtype {dtype}, {channels} channels; "
            f"a label volume is u8 with 1 channel, a prob volume f32 with 1 or more"
        )
    box = (slice(x0, x1), slice(y0, y1), slice(z0, z1))
    try:
        _check_spacing(spacing)
        _check_box(box, dims)
    except VolumeError as exc:
        raise VolumeError(f"{hdr_path}: {exc}") from None
    item = _ITEM[kind]
    with open(raw_path, "rb") as f:
        payload = f.read()
    bw, bh, bd = x1 - x0, y1 - y0, z1 - z0
    size = bw * bh * bd
    skip = -(-size // 8)
    if len(payload) < skip:
        raise VolumeError(
            f"{raw_path}: payload has {len(payload)} bytes, the mask of box "
            f"{_box_text(box)} takes {skip}"
        )
    mask = np.unpackbits(np.frombuffer(payload, np.uint8, skip), count=size)
    index = np.flatnonzero(mask.view(bool))  # several times faster than on uint8
    if len(payload) - skip != len(index) * channels * item.itemsize:
        raise VolumeError(
            f"{raw_path}: payload has {(len(payload) - skip) / item.itemsize:g} values, "
            f"the mask stores {len(index)} voxels of {len(index) * channels}"
        )
    values = np.frombuffer(payload, dtype=item, offset=skip).reshape(-1, channels)
    if kind == "label" and not values.all():
        raise VolumeError(f"{raw_path}: a stored label is 0, which is background")
    rows = np.zeros((size, channels), dtype=item)
    rows[:, 0] = _background(kind, channels)[0]
    row = np.dtype((np.void, channels * item.itemsize))
    rows.view(row)[index, 0] = values.view(row)[:, 0]
    if kind == "label":
        grid = np.zeros((d, h, w), dtype=np.uint8)
        grid[z0:z1, y0:y1, x0:x1] = rows.reshape(bd, bh, bw)
        return LabelVolume(grid.transpose(2, 1, 0), spacing)
    try:
        return ProbVolume(rows.reshape(bd, bh, bw, channels).transpose(2, 1, 0, 3),
                          spacing, dims, box)
    except VolumeError as exc:  # a bad probability row
        raise VolumeError(f"{raw_path}: {exc}") from None


# 6-connectivity: voxels are neighbours when they share a face.
CONN6 = ndimage.generate_binary_structure(3, 1)


def is_connected(mask: np.ndarray) -> bool:
    """True when the voxels of ``mask`` form exactly one 6-connected component."""
    _, n = ndimage.label(mask[organ_box(mask)], structure=CONN6)
    return n == 1


def organ_box(mask: np.ndarray) -> tuple[slice, slice, slice]:
    """The bounding box of ``mask``'s voxels, as ``ndimage.find_objects`` gives it.

    One pass over the mask finds the occupied planes of its memory-major
    axis; only that slab is scanned for the other two axes. An empty mask
    gives an empty box. Every voxel outside the box is off, which is what
    :func:`surface_mask` assumes past a mask's edge, so it finds the same
    surface on the box's crop as on the whole grid.
    """
    major = int(np.argmax(np.abs(mask.strides)))
    rest = [a for a in range(3) if a != major]
    planes = np.flatnonzero(mask.any(axis=tuple(rest)))
    if not planes.size:
        return (slice(0, 0),) * 3
    box = [slice(int(planes[0]), int(planes[-1]) + 1)] * 3
    projection = mask[(slice(None),) * major + (box[major],)].any(axis=major)
    for k, axis in enumerate(rest):
        occupied = np.flatnonzero(projection.any(axis=1 - k))
        box[axis] = slice(int(occupied[0]), int(occupied[-1]) + 1)
    return tuple(box)


def voxel_indices(crop: np.ndarray, box: tuple[slice, ...]) -> np.ndarray:
    """Grid indices of the true voxels of ``crop``, the part of a mask inside ``box``.

    The rows are those ``np.argwhere`` gives for these voxels on the whole
    grid, in the same C order and the same column-major layout, so sums and
    KD-trees over them see the same inputs.
    """
    return np.argwhere(crop) + [s.start for s in box]


def surface_mask(mask: np.ndarray) -> np.ndarray:
    """Boolean mask of voxels in ``mask`` with a 6-neighbor outside the set.

    A voxel is interior when it and its six face neighbours (``CONN6``) are
    all in the set. Outside the grid counts as off, so voxels on the grid
    boundary are surface.
    """
    return mask & ~ndimage.binary_erosion(mask, CONN6)


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice overlap 2|A n B| / (|A| + |B|); dice of two empty masks is 1.0."""
    if pred.shape != gt.shape:
        raise VolumeError(f"dimension mismatch: {pred.shape} vs {gt.shape}")
    a = int(np.count_nonzero(pred))
    b = int(np.count_nonzero(gt))
    if a + b == 0:
        return 1.0
    inter = int(np.count_nonzero(pred & gt))
    return 2.0 * inter / (a + b)


def detected(pred: np.ndarray, gt: np.ndarray) -> bool:
    """Detection rule: overlap with ground truth covers at least ``DETECTION_CUTOFF`` of it."""
    if pred.shape != gt.shape:
        raise VolumeError(f"dimension mismatch: {pred.shape} vs {gt.shape}")
    n_gt = int(np.count_nonzero(gt))
    if n_gt == 0:
        raise VolumeError("detection rule undefined for empty ground truth")
    return int(np.count_nonzero(pred & gt)) / n_gt >= DETECTION_CUTOFF
