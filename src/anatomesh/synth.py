"""Synthetic organ/mass volumes with anatomically constrained mass placement.

The generated organ is a bent swept capsule with an enlarged head bulb.
Default case classes exercise the spatial priors the classifier should learn:

  1  no mass                      -> Discharge
  2  blob confined to the head    -> Surgery
  3  blob outside the head        -> Monitoring
  4  diffuse tube along the organ -> Surgery

Classes 2 and 3 share the same voxel label (blob), so pixel voting cannot
separate them; only geometry can.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .mesh import REGION_COUNTS, REGION_NAMES
from .volume import (
    LabelVolume,
    ProbVolume,
    VolumeError,
    channel_sum,
    is_connected,
    organ_box,
    read_fields,
    save_volume,
    whole_box,
)

__all__ = [
    "CaseInfo",
    "MassSpec",
    "SynthCase",
    "SynthConfig",
    "SynthError",
    "DEFAULT_CLASSES",
    "MANAGEMENT_BY_CLASS",
    "case_draws",
    "gen_case",
    "gen_organ",
    "implant_mass",
    "soften",
    "save_case",
    "load_case_info",
]

ORGAN_LABEL = 1
BLOB_LABEL = 2
TUBE_LABEL = 3
N_CHANNELS = 4  # background, organ, blob mass, tube mass


class SynthError(RuntimeError):
    """Synthetic generation failure (empty, clipped or unplaceable shape)."""


@dataclass(frozen=True)
class MassSpec:
    class_id: int
    allowed_regions: tuple[str, ...]
    size_range: tuple[float, float]  # voxel radius
    diffuse: bool = False
    voxel_label: int = BLOB_LABEL

    def __post_init__(self):
        if not self.allowed_regions:
            raise SynthError("allowed_regions must be non-empty")
        for r in self.allowed_regions:
            if r not in REGION_NAMES:
                raise SynthError(f"unknown region {r!r}")
        if self.size_range[0] <= 0 or self.size_range[1] < self.size_range[0]:
            raise SynthError(f"invalid size range {self.size_range}")


# class id -> (spec or None for the no-mass class, management label)
DEFAULT_CLASSES: dict[int, tuple[MassSpec | None, str]] = {
    1: (None, "Discharge"),
    2: (MassSpec(2, ("Head",), (3.0, 5.0)), "Surgery"),
    3: (MassSpec(3, ("VentralBody", "DorsalBody", "Tail"), (3.0, 5.0)), "Monitoring"),
    4: (MassSpec(4, REGION_NAMES, (1.5, 2.0), diffuse=True, voxel_label=TUBE_LABEL),
        "Surgery"),
}

MANAGEMENT_BY_CLASS = {c: mgmt for c, (_, mgmt) in DEFAULT_CLASSES.items()}


@dataclass
class SynthCase:
    labels: LabelVolume
    probs: ProbVolume
    class_id: int
    management: str
    head_end: np.ndarray
    seed: int


class CaseInfo(NamedTuple):
    """What ``case.txt`` records about a case: every field of SynthCase but the volumes."""

    class_id: int
    management: str
    head_end: np.ndarray
    seed: int


# organ shape before each case's jitter, in voxels unless noted
ORGAN_HALF_LENGTH = 0.62  # fraction of half-grid
BODY_RADIUS = 4.0
HEAD_RADIUS = 6.0
RETRY_LIMIT = 10  # tries per case, and per mass placement


@dataclass(frozen=True)
class SynthConfig:
    """The ``[synth]`` settings; the field defaults are the run defaults."""

    n_train: int = 400
    n_test: int = 100
    seed: int = 0
    grid: int = 48
    noise: float = 0.2
    bend: float = 6.0  # voxels of centerline deflection
    class_mix: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self):
        # each test is written so that NaN fails it
        for name in ("n_train", "n_test"):
            if not getattr(self, name) >= 1:
                raise SynthError(f"{name} must be at least 1")
        if not self.seed >= 0:
            raise SynthError("seed must be at least 0")
        if not self.grid >= 32:
            raise SynthError("grid must be at least 32")
        if not 0.0 <= self.noise < 0.5:
            raise SynthError("noise must be in [0, 0.5)")
        if not np.isfinite(self.bend):
            raise SynthError("bend must be finite")
        mix = self.class_mix
        if not (len(mix) == len(DEFAULT_CLASSES) and min(mix) >= 0 and abs(sum(mix) - 1) <= 1e-9):
            raise SynthError(
                f"class_mix must be {len(DEFAULT_CLASSES)} non-negative weights that sum to 1"
            )


def _centerline(
    grid: int,
    bend: float,
    half_length: float = ORGAN_HALF_LENGTH,
    body_radius: float = BODY_RADIUS,
    head_radius: float = HEAD_RADIUS,
) -> tuple[np.ndarray, np.ndarray]:
    """Centerline sample points (160, 3) and per-sample radii, in voxel units.

    Runs along x with a quadratic bend in y; t=0 is the head end. The y
    offset vanishes for bend=0 so the shape is mirror-symmetric then.
    ``half_length`` is a fraction of the half-grid.
    """
    c = (grid - 1) / 2.0
    t = np.linspace(0.0, 1.0, 160)
    half = half_length * grid / 2.0
    x = c - half + 2.0 * half * t
    y = c + bend * (4.0 * t * (1.0 - t) - 1.0)
    z = np.full_like(t, c)
    # bulbous head tapering toward the tail
    radii = body_radius + (head_radius - body_radius) * np.exp(-t / 0.15)
    radii *= 1.0 - 0.35 * t
    return np.stack([x, y, z], axis=1), radii


def _bounds(grid: int, centers: np.ndarray, reach) -> tuple[np.ndarray, np.ndarray]:
    """Per axis, the clipped grid box ``lo:hi`` within ``reach`` of each center (one or many)."""
    lo = np.clip(np.floor(centers - reach).astype(int), 0, grid)
    hi = np.clip(np.ceil(centers + reach).astype(int) + 1, 0, grid)
    return lo, hi


def _sweep_mask(grid: int, points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Voxels within the swept varying-radius capsule.

    Each centerline point is tested only against the voxels of its own
    bounding box, and its ball is OR-ed into the grid there. The boxes of
    all points, and each point's squared distances to the grid planes of
    each axis, are found in one pass, so the loop makes few numpy calls per
    point, whose fixed cost outweighs their work on such small boxes.
    """
    inside = np.zeros((grid, grid, grid), dtype=bool)
    # integer voxel coordinates as floats: ``coord - c`` is ``np.arange(grid) - c``
    coord = np.arange(grid, dtype=np.float64)
    sq_x, sq_y, sq_z = ((coord - points[:, [axis]]) ** 2 for axis in range(3))
    lows, highs = _bounds(grid, points, radii[:, None])
    for i, (r, (ax, ay, az), (bx, by, bz)) in enumerate(
        zip(radii.tolist(), lows.tolist(), highs.tolist())
    ):
        d2 = sq_x[i, ax:bx, None, None] + sq_y[i, None, ay:by, None] + sq_z[i, az:bz]
        inside[ax:bx, ay:by, az:bz] |= d2 <= r**2
    return inside


def gen_organ(seed: int, cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Binary organ mask and the head-end point (world coords, unit spacing).

    The base shape is deterministic per config; the seed jitters bend and
    radii slightly so cases differ.
    """
    rng = np.random.default_rng(seed)
    half_length = ORGAN_HALF_LENGTH * rng.uniform(0.92, 1.0)
    bend = cfg.bend * rng.uniform(0.8, 1.2) if cfg.bend else 0.0
    body_radius = BODY_RADIUS * rng.uniform(0.9, 1.1)
    head_radius = HEAD_RADIUS * rng.uniform(0.9, 1.1)
    points, radii = _centerline(cfg.grid, bend, half_length, body_radius, head_radius)
    mask = _sweep_mask(cfg.grid, points, radii)
    if not mask.any():
        raise SynthError("generated organ is empty")
    if mask[[0, -1]].any() or mask[:, [0, -1]].any() or mask[:, :, [0, -1]].any():
        raise SynthError(
            f"generated organ clips the grid boundary: [synth] bend = {cfg.bend:g} "
            f"does not fit [synth] grid = {cfg.grid}"
        )
    if not is_connected(mask):
        raise SynthError("generated organ is disconnected")
    return mask, points[0].copy()


# Centerline-parameter band (lo, hi] of each region, by vertex-count fractions.
_BAND_ENDS = np.cumsum(REGION_COUNTS) / sum(REGION_COUNTS)
_REGION_BANDS = dict(
    zip(REGION_NAMES, zip(np.concatenate([[0.0], _BAND_ENDS[:-1]]), _BAND_ENDS))
)


def _region_band(t: float) -> str:
    """Anatomical region of a centerline parameter."""
    for name, (_, hi) in _REGION_BANDS.items():
        if t <= hi:
            return name
    return REGION_NAMES[-1]


def _centerline_param(point: np.ndarray, points: np.ndarray) -> float:
    d = np.linalg.norm(points - point, axis=1)
    return float(d.argmin()) / (len(points) - 1)


def implant_mass(
    organ: np.ndarray,
    spec: MassSpec,
    seed: int,
    cfg: SynthConfig,
) -> LabelVolume:
    """Place a mass of the given spec inside the organ, label per spec.

    Blob masses are ellipsoids centered on an allowed centerline band; at most
    20% of the mass may protrude outside the organ. Diffuse masses are a thin
    tube spanning the organ centerline.
    """
    rng = np.random.default_rng(seed)
    points, _ = _centerline(cfg.grid, cfg.bend)
    grid = organ.shape[0]
    labels = organ.astype(np.uint8) * ORGAN_LABEL
    allowed = [band for name, band in _REGION_BANDS.items() if name in spec.allowed_regions]
    if spec.diffuse:
        radius = rng.uniform(*spec.size_range)
        span = points[int(0.08 * len(points)) : int(0.92 * len(points))]
        tube = _sweep_mask(grid, span, np.full(len(span), radius))
        tube &= organ
        if not tube.any():
            raise SynthError("diffuse tube does not intersect the organ")
        labels[tube] = spec.voxel_label
        return LabelVolume(labels, (1.0, 1.0, 1.0))
    for _ in range(RETRY_LIMIT):
        lo, hi = allowed[rng.integers(len(allowed))]
        t = rng.uniform(lo + 0.02, hi - 0.02)
        center = points[int(round(t * (len(points) - 1)))]
        radius = rng.uniform(*spec.size_range)
        axes = radius * rng.uniform(0.8, 1.2, size=3)
        start, stop = _bounds(grid, center, axes)
        box = tuple(map(slice, start, stop))
        dx, dy, dz = (
            ((np.arange(a, b) - c) / s) ** 2 for a, b, c, s in zip(start, stop, center, axes)
        )
        mass = dx[:, None, None] + dy[None, :, None] + dz[None, None, :] <= 1.0
        if not mass.any():
            continue
        outside = np.count_nonzero(mass & ~organ[box])
        if outside > 0.2 * np.count_nonzero(mass):
            continue
        centroid = (np.argwhere(mass) + start).mean(axis=0)
        if _region_band(_centerline_param(centroid, points)) not in spec.allowed_regions:
            continue
        labels[box][mass] = spec.voxel_label
        return LabelVolume(labels, (1.0, 1.0, 1.0))
    raise SynthError(
        f"could not place a mass of class {spec.class_id} within "
        f"{spec.allowed_regions} after {RETRY_LIMIT} tries"
    )


def _grow(box: tuple[slice, ...], by: int, dims: tuple[int, ...]) -> tuple[slice, ...]:
    """``box`` grown by ``by`` voxels on every side, clipped to a grid of ``dims``."""
    return tuple(slice(max(s.start - by, 0), min(s.stop + by, n)) for s, n in zip(box, dims))


def soften(labels: LabelVolume, noise: float, seed: int) -> ProbVolume:
    """Noisy probability stand-in for a segmentation softmax, on the organ's neighbourhood.

    One-hot labels get a 1-voxel boundary blur, then are blended with seeded
    random probability vectors with weight ``noise``, in the [0, 0.5) that
    :class:`SynthConfig` allows. A label with no channel raises SynthError.
    The arithmetic is the per-voxel formula's, in float64; a negative
    float32 result is set to 0.

    The volume holds the box of the non-zero labels, grown by one voxel and
    clipped to the grid (labels with none hold the whole grid). Only the
    rows whose 3x3x3 neighbourhood holds a non-zero label are computed;
    every other row is background, (1, 0, ..., 0), where the formula gives
    channel 0 at least 1 - noise > noise, so channel 0 wins the argmax
    either way. The computed rows are the whole-grid formula's bit for bit:
    each present channel is blurred on a crop 2 voxels wider than the box,
    and voxel (w, h, d, k) takes element ((w * H + h) * D + d) * K + k of
    the seed's stream of draws. The draws are made one box plane at a time:
    plane w's rows h0..h1 over every d are one run of the stream, and the
    generator is advanced past the rows outside the box between two runs.
    The result is the (w, h, d, K) view of a (d, h, w, K) buffer, which
    :func:`save_volume` reads without a copy.
    """
    data = labels.data
    top = int(data.max(initial=0))
    if top >= N_CHANNELS:
        raise SynthError(f"label {top} has no channel among {N_CHANNELS}")
    dims = data.shape
    box = _grow(organ_box(data > 0), 1, dims) if top else whole_box(dims)
    size = tuple(s.stop - s.start for s in box)
    out = np.zeros((*size[::-1], N_CHANNELS), dtype=np.float32)
    probs = out.transpose(2, 1, 0, 3)
    if not noise > 0.0:
        # no noise: every row is exactly one 1.0, so normalising would divide by 1.0
        for k in range(N_CHANNELS):
            np.equal(data[box], k, out=probs[..., k])
        return ProbVolume(probs, labels.spacing, dims, box)
    out[..., 0] = 1.0
    near = ndimage.maximum_filter(data[box] != 0, size=3, mode="constant")
    # (0.75 * one-hot + 0.25 * blur) * (1 - noise) of each present channel.
    # Adding 0.75 only where the one-hot is 1 keeps the bits: the blur has
    # no -0.0 that adding 0.0 would turn into 0.0.
    crop = _grow(box, 2, dims)
    inner = tuple(slice(b.start - c.start, b.stop - c.start) for b, c in zip(box, crop))
    smooth = {}
    for k in range(N_CHANNELS):
        channel = data[crop] == k
        if not channel.any():
            continue  # an absent channel blurs to exact zeros and adds nothing
        blend = ndimage.uniform_filter(
            channel, size=3, mode="nearest", output=np.empty(channel.shape)
        )[inner]
        blend *= 0.25
        np.add(blend, 0.75, out=blend, where=channel[inner])
        blend *= 1.0 - noise
        smooth[k] = blend
    # Each box plane's rows h0..h1 over the grid's whole depth are one run of
    # the stream; the generator skips the other rows between two planes.
    r = np.empty((size[0], size[1], dims[2], N_CHANNELS))
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance((box[0].start * dims[1] + box[1].start) * dims[2] * N_CHANNELS)
    for plane in r:
        rng.random(out=plane)
        rng.bit_generator.advance((dims[1] - size[1]) * dims[2] * N_CHANNELS)
    # the computed rows, in (w, h, d) order, become their blend in place
    rows = r[:, :, box[2]][near]
    rows /= channel_sum(rows.T)[:, None]
    rows *= noise
    for k, blend in smooth.items():
        rows[:, k] += blend[near]
    rows /= channel_sum(rows.T)[:, None]
    rows = rows.astype(np.float32)
    # The blur's running sums leave about -1e-17 where a channel is exactly 0,
    # which a noise weight below about 1e-16 does not cover: those are zeros.
    rows[rows < 0] = 0.0
    probs[near] = rows
    return ProbVolume(probs, labels.spacing, dims, box)


def gen_case(class_id: int, seed: int, cfg: SynthConfig) -> SynthCase:
    spec, management = DEFAULT_CLASSES[class_id]
    last_err = None
    for attempt in range(RETRY_LIMIT):
        sub = int(np.random.default_rng((seed, attempt)).integers(2**31))
        try:
            organ, head_end = gen_organ(sub, cfg)
            if spec is None:
                labels = LabelVolume(organ.astype(np.uint8) * ORGAN_LABEL, (1.0, 1.0, 1.0))
            else:
                labels = implant_mass(organ, spec, sub + 1, cfg)
            probs = soften(labels, cfg.noise, sub + 2)
            return SynthCase(labels, probs, class_id, management, head_end, seed)
        except SynthError as exc:
            last_err = exc
    raise SynthError(f"case generation failed after {RETRY_LIMIT} retries: {last_err}")


def case_draws(cfg: SynthConfig) -> Iterator[tuple[int, int]]:
    """The (class id, case seed) of each train case, then each test case, from the class mix.

    Case i takes the i-th class draw from ``cfg.seed`` and its own seed
    from ``(cfg.seed, i, 7)``. A case's bytes depend only on this pair, so
    cases can be made in any order once their pairs are drawn.
    """
    ids = sorted(DEFAULT_CLASSES)
    mix = np.asarray(cfg.class_mix, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    for i in range(cfg.n_train + cfg.n_test):
        cid = ids[rng.choice(len(ids), p=mix)]
        yield cid, int(np.random.default_rng((cfg.seed, i, 7)).integers(2**31))


def save_case(case: SynthCase, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    save_volume(case.labels, os.path.join(directory, "labels"))
    save_volume(case.probs, os.path.join(directory, "probs"))
    hx, hy, hz = case.head_end
    with open(os.path.join(directory, "case.txt"), "w") as f:
        f.write(f"class {case.class_id}\n")
        f.write(f"management {case.management}\n")
        f.write(f"head_end {hx:.9g} {hy:.9g} {hz:.9g}\n")
        f.write(f"seed {case.seed}\n")


def load_case_info(directory: str) -> CaseInfo:
    """Parse ``case.txt``; a bad, missing or repeated field raises VolumeError naming the file."""
    path = os.path.join(directory, "case.txt")
    fields = read_fields(path)

    def parse(key, convert):
        if key not in fields:
            raise VolumeError(f"malformed case file {path}: missing field {key!r}")
        try:
            return convert(fields[key])
        except (ValueError, IndexError) as exc:
            raise VolumeError(f"malformed case file {path}: field {key!r}: {exc}") from exc

    return CaseInfo(
        parse("class", lambda v: int(v[0])),
        parse("management", lambda v: v[0]),
        parse("head_end", lambda v: np.array([float(x) for x in v])),
        parse("seed", lambda v: int(v[0])),
    )
