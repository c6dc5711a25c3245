"""Fixed 156-vertex template: a subdivided icosahedron simplified by edge collapse.

The template's combinatorics are shared by every prototype and fitted mesh, so
the same vertex index refers to the same anatomical locus across cases. The
mesh is a constant and ships with the package as ``template.obj``: ``%.17g``
v rows, which round-trip float64, and 1-based f rows. The tests hold its
construction (shortest-edge collapses from the 642-vertex icosphere, projected
back to the unit sphere) and rebuild the file byte for byte.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .mesh import VERTEX_COUNT, MeshError, load_mesh

__all__ = ["TEMPLATE_PATH", "template_mesh_arrays"]

TEMPLATE_PATH = os.path.join(os.path.dirname(__file__), "template.obj")


def _read_template(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, faces) of the template file at ``path``.

    A file without the template's vertex count, or without the edge count
    (3V - 6) of a closed genus-0 mesh of that size, raises :class:`MeshError`
    naming the path.
    """
    mesh = load_mesh(path)
    v, e = mesh.n_vertices, len(mesh.edges)
    if v != VERTEX_COUNT or e != 3 * VERTEX_COUNT - 6:
        raise MeshError(
            f"{path}: {v} vertices and {e} edges, the template has "
            f"{VERTEX_COUNT} and {3 * VERTEX_COUNT - 6}"
        )
    return mesh.vertices, mesh.faces


@functools.cache
def template_mesh_arrays() -> tuple[np.ndarray, np.ndarray]:
    """The fixed unit-sphere template: 156 vertices, read-only float64 and int64."""
    verts, faces = _read_template(TEMPLATE_PATH)
    verts.setflags(write=False)
    return verts, faces
