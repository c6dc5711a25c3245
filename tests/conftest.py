import os
import tempfile

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import ndimage

from anatomesh.mesh import REGION_NAMES, AnatomyMesh, region_ranges
from anatomesh.template import template_mesh_arrays
from anatomesh.volume import LabelVolume, ProbVolume

from template_build import icosphere


@pytest.fixture(scope="session")
def template():
    verts, faces = template_mesh_arrays()
    return AnatomyMesh(verts.copy(), faces.copy())


@pytest.fixture
def small_mesh():
    """12-vertex icosahedron, region split (3, 3, 3, 3)."""
    verts, faces = icosphere(0)
    return AnatomyMesh(verts, faces, (3, 3, 3, 3))


def vertex_region_names(counts):
    """Region name of each vertex, read off the contiguous index ranges."""
    ranges = region_ranges(counts)
    return [name for name, (a, b) in zip(REGION_NAMES, ranges) for _ in range(a, b)]


def sphere_mask(grid, radius, center=None):
    c = np.asarray(center if center is not None else [(grid - 1) / 2.0] * 3)
    idx = np.indices((grid, grid, grid)).reshape(3, -1).T
    return (((idx - c) ** 2).sum(axis=1) <= radius**2).reshape(grid, grid, grid)


def random_connected_mask(rng, grid, n_blobs=3, radius_range=(2, 5)):
    """Union of overlapping random balls, guaranteed 6-connected."""
    struct = ndimage.generate_binary_structure(3, 1)
    while True:
        mask = np.zeros((grid,) * 3, dtype=bool)
        center = rng.uniform(grid * 0.3, grid * 0.7, size=3)
        for _ in range(n_blobs):
            r = rng.uniform(*radius_range)
            mask |= sphere_mask(grid, r, center)
            center = np.clip(
                center + rng.uniform(-r, r, size=3), 2, grid - 3
            )
        labeled, n = ndimage.label(mask, structure=struct)
        if n == 1 and mask.any():
            return mask


def awkward_floats(allow_non_finite=True):
    """Floats that stress a text writer: signed zeros, subnormals, huge and whole values."""
    special = [0.0, -0.0, -1.0, 1.0, 3.0, 2.0**53, 5e-324, -2.5e-310, 1e300, -1e300, 0.1]
    return st.one_of(
        st.sampled_from(special),
        st.integers(-(10**6), 10**6).map(float),
        st.floats(allow_nan=allow_non_finite, allow_infinity=allow_non_finite),
    )


def written_bytes(write, *args):
    """The bytes ``write(*args, path)`` leaves at a fresh path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write(*args, path)
        with open(path, "rb") as f:
            return f.read()


def file_order(data):
    """The same values laid out as a loaded volume is: w fastest, then h, then d."""
    axes = (2, 1, 0) + tuple(range(3, data.ndim))
    return np.ascontiguousarray(data.transpose(axes)).transpose(axes)


SIDES = ("low face", "high face", "both faces", "inside")


@st.composite
def boxed_masks(draw, dims=None, max_side=7):
    """A non-empty boolean mask whose voxels fill part of a box.

    On each axis the box touches the grid's low face, its high face, both,
    or wherever it falls, so a draw reaches every face and corner of the
    grid. One voxel at the box corner on the chosen faces is always on; at
    density 0 it is the only one.
    """
    if dims is None:
        dims = tuple(draw(st.integers(1, max_side)) for _ in range(3))
    box, corner = [], []
    for n in dims:
        side = draw(st.sampled_from(SIDES))
        lo = 0 if side in ("low face", "both faces") else draw(st.integers(0, n - 1))
        hi = n if side in ("high face", "both faces") else draw(st.integers(lo + 1, n))
        box.append(slice(lo, hi))
        corner.append(hi - 1 if side == "high face" else lo)
    density = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros(dims, dtype=bool)
    mask[tuple(box)] = rng.random(mask[tuple(box)].shape) < density
    mask[tuple(corner)] = True
    return mask


SPACINGS = st.tuples(*[st.sampled_from([0.5, 0.8, 1.0, 1.3, 2.5])] * 3)


@st.composite
def organ_scenes(draw, max_zones=4):
    """(mesh, zone map, probabilities, labels) for pool_features and vertex_labels.

    The organ is a :func:`boxed_masks` draw whose voxels carry label 1 and
    zones 1..n, each zone non-empty. The mass is absent, inside the organ,
    or another boxed mask anywhere in the grid: on a grid face, partly or
    wholly outside the zone voxels. Its voxels carry label 2, label 3 or
    both, the labels of ``MASS_LABELS``. The zone, label and probability
    volumes are laid out as loaded (w fastest) or in C order.
    """
    organ = draw(boxed_masks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_organ = int(organ.sum())
    n = draw(st.integers(1, min(max_zones, n_organ)))
    zone_of = rng.integers(1, n + 1, size=n_organ)
    zone_of[:n] = rng.permutation(n) + 1
    zones = np.zeros(organ.shape, dtype=np.uint8)
    zones[organ] = zone_of
    labels = organ.astype(np.uint8)
    mass_kind = draw(st.sampled_from(["none", "inside the organ", "anywhere"]))
    if mass_kind != "none":
        mass = draw(boxed_masks(dims=organ.shape))
        if mass_kind == "inside the organ":
            mass &= organ
        labels[mass] = rng.choice(draw(st.sampled_from([(2, 3), (2,), (3,)])), int(mass.sum()))
    spacing = draw(SPACINGS)
    k = draw(st.integers(1, 3))
    raw = rng.random(organ.shape + (k,)).astype(np.float32)
    raw /= raw.sum(axis=-1, keepdims=True)
    layout = file_order if draw(st.booleans()) else np.ascontiguousarray
    verts = rng.uniform(-1.0, np.array(organ.shape) + 1.0, size=(n, 3)) * spacing
    faces = np.array([[i, i + 1, i + 2] for i in range(n - 2)], dtype=np.int64).reshape(-1, 3)
    return (
        AnatomyMesh(verts, faces, (n,)),
        LabelVolume(layout(zones), spacing),
        ProbVolume(layout(raw), spacing),
        LabelVolume(layout(labels), spacing),
    )


def patch_cpus(monkeypatch, n):
    """Make this process see ``n`` CPUs, so the stages and train fork for ``n``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch):
    """The pids of the processes forked from here on, in fork order."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
