import numpy as np
import pytest
from scipy import ndimage

from anatomesh.mesh import REGION_NAMES, AnatomyMesh, region_ranges
from anatomesh.template import icosphere, template_mesh_arrays


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
