import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatomesh.mesh import (
    REGION_COUNTS,
    REGION_NAMES,
    AnatomyMesh,
    MeshError,
    load_mesh,
    region_ranges,
    save_mesh,
)
from anatomesh.template import icosphere, template_mesh_arrays

from conftest import awkward_floats, vertex_region_names, written_bytes


def save_mesh_reference(mesh, path):
    """The per-value writer ``save_mesh`` replaced, kept as a byte-equality oracle."""
    with open(path, "w") as f:
        for name, (a, b) in zip(REGION_NAMES, region_ranges(mesh.region_counts)):
            f.write(f"# region {name} {a + 1} {b}\n")
        for x, y, z in mesh.vertices:
            f.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for i, j, k in mesh.faces:
            f.write(f"f {i + 1} {j + 1} {k + 1}\n")


def load_mesh_line_by_line(path, like=None):
    """``load_mesh`` before its read onto ``like`` split only the v rows, kept as an oracle."""
    verts, faces, counts = [], [], []
    try:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if not parts:
                    continue
                if parts[0] == "#" and len(parts) >= 5 and parts[1] == "region":
                    counts.append(int(parts[4]) - int(parts[3]) + 1)
                elif parts[0] == "v":
                    verts.append(parts[1:4])
                elif parts[0] == "f":
                    faces.append(parts[1:4])
        vertices = np.array(verts, dtype=np.float64)
        face_array = np.array(faces, dtype=np.int64) - 1
    except ValueError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    if not verts or not faces:
        raise MeshError(f"{path}: no mesh data found")
    region_counts = tuple(counts) if counts else (len(verts),)
    if like is None:
        return AnatomyMesh(vertices, face_array, region_counts)
    if region_counts != like.region_counts or not np.array_equal(face_array, like.faces):
        raise MeshError(f"{path}: faces or region counts differ from the prototype's")
    return like.with_vertices(vertices)


def read_outcome(load, text, like):
    """The vertex bytes ``load`` reads from ``text`` onto ``like``, or its MeshError message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.obj")
        with open(path, "w") as f:
            f.write(text)
        try:
            mesh = load(path, like=like)
        except MeshError as exc:
            return str(exc).replace(path, "<path>")
        assert mesh.topology is like.topology
        return mesh.vertices.tobytes()


def mean_incident_edge_lengths_add_at(mesh):
    """Scatter-add oracle for :meth:`AnatomyMesh.mean_incident_edge_lengths`."""
    p, edges = mesh.vertices, mesh.edges
    lengths = np.linalg.norm(p[edges[:, 0]] - p[edges[:, 1]], axis=1)
    total = np.zeros(mesh.n_vertices)
    count = np.zeros(mesh.n_vertices)
    np.add.at(total, edges[:, 0], lengths)
    np.add.at(total, edges[:, 1], lengths)
    np.add.at(count, edges[:, 0], 1)
    np.add.at(count, edges[:, 1], 1)
    return total / np.maximum(count, 1)


class TestTemplate:
    def test_combinatorics(self, template):
        assert template.n_vertices == 156
        assert len(template.edges) == 462
        assert len(template.faces) == 308
        assert template.euler_characteristic() == 2

    def test_closed_manifold(self, template):
        template.validate_closed()

    def test_no_duplicate_vertices(self, template):
        d = np.linalg.norm(
            template.vertices[:, None] - template.vertices[None, :], axis=2
        )
        np.fill_diagonal(d, 1.0)
        assert d.min() > 1e-6

    def test_deterministic(self):
        v1, f1 = template_mesh_arrays()
        v2, f2 = template_mesh_arrays()
        assert np.array_equal(v1, v2) and np.array_equal(f1, f2)


class TestRegions:
    def test_counts(self):
        assert REGION_COUNTS == (48, 42, 45, 21)
        assert sum(REGION_COUNTS) == 156

    def test_ranges_partition(self):
        ranges = region_ranges()
        assert ranges[0] == (0, 48)
        assert ranges[-1] == (135, 156)
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(156))

    def test_region_of(self, template):
        names = vertex_region_names(template.region_counts)
        assert len(names) == 156
        assert names[0] == "Head"
        assert names[47] == "Head"
        assert names[48] == "VentralBody"
        assert names[90] == "DorsalBody"
        assert names[155] == "Tail"


class TestTopology:
    def test_template_adjacency(self, template):
        a = template.topology.adjacency
        assert a.shape == (156, 156)
        assert a.nnz == 924
        assert (a != a.T).nnz == 0
        assert not a.diagonal().any()
        degree = np.bincount(template.edges.ravel(), minlength=156)
        assert np.array_equal(a.sum(axis=1), degree)
        assert template.topology.mean_degree == a.sum() / 156

    def test_ends_columns(self, template):
        topo = template.topology
        ends = topo.ends.toarray()
        e = len(topo.edges)
        assert ends.shape == (156, 2 * e)
        assert np.array_equal(ends.sum(axis=0), np.ones(2 * e))
        assert np.array_equal(ends[:, :e].argmax(axis=0), topo.edges[:, 0])
        assert np.array_equal(ends[:, e:].argmax(axis=0), topo.edges[:, 1])

    def test_mean_incident_edge_lengths_match_add_at(self, template):
        rng = np.random.default_rng(21)
        for _ in range(25):
            mesh = template.with_vertices(
                template.vertices + rng.normal(scale=0.5, size=template.vertices.shape)
            )
            assert np.array_equal(
                mesh.mean_incident_edge_lengths(), mean_incident_edge_lengths_add_at(mesh)
            )

    def test_faces_read_only(self, small_mesh):
        with pytest.raises(ValueError):
            small_mesh.faces[0, 0] = 1


class TestMeshIO:
    def test_round_trip(self, template, tmp_path):
        path = str(tmp_path / "m.obj")
        save_mesh(template, path)
        back = load_mesh(path)
        assert np.array_equal(back.faces, template.faces)
        assert back.region_counts == template.region_counts
        # 9 significant digits survive the text format
        np.testing.assert_allclose(back.vertices, template.vertices, rtol=1e-8)

    def test_twice_round_trip_exact(self, template, tmp_path):
        p1, p2 = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
        save_mesh(template, p1)
        save_mesh(load_mesh(p1), p2)
        assert (tmp_path / "a.obj").read_text() == (tmp_path / "b.obj").read_text()

    @given(arrays(np.float64, (12, 3), elements=awkward_floats(allow_non_finite=False)))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_per_value_writer(self, verts):
        mesh = AnatomyMesh(verts, icosphere(0)[1], (3, 3, 3, 3))
        assert written_bytes(save_mesh, mesh) == written_bytes(save_mesh_reference, mesh)

    def test_template_bytes_match_per_value_writer(self, template):
        assert written_bytes(save_mesh, template) == written_bytes(save_mesh_reference, template)

    def test_missing_data(self, tmp_path):
        p = tmp_path / "empty.obj"
        p.write_text("# nothing\n")
        with pytest.raises(MeshError):
            load_mesh(str(p))

    def test_read_onto_like_shares_its_topology(self, template, tmp_path):
        path = str(tmp_path / "m.obj")
        moved = template.with_vertices(template.vertices * 1.5)
        save_mesh(moved, path)
        back = load_mesh(path, like=template)
        assert back.topology is template.topology
        assert np.array_equal(back.vertices, load_mesh(path).vertices)

    @pytest.mark.parametrize("edit", ["face", "regions"])
    def test_read_onto_like_rejects_other_topology(self, template, tmp_path, edit):
        path = tmp_path / "m.obj"
        save_mesh(template, str(path))
        lines = path.read_text().splitlines(keepends=True)
        if edit == "face":
            i = next(k for k, line in enumerate(lines) if line.startswith("f "))
            a, b, c = lines[i].split()[1:]
            lines[i] = f"f {b} {a} {c}\n"  # same corners, flipped orientation
        else:
            lines = [line for line in lines if not line.startswith("# region")]
        path.write_text("".join(lines))
        load_mesh(str(path))  # still a valid mesh on its own
        with pytest.raises(MeshError, match=re.escape(f"{path}: faces or region counts differ")):
            load_mesh(str(path), like=template)


    @pytest.mark.parametrize("bad", ["v 1.0 2.0\n", "v 1.0 two 3.0\n", "f 1 2\n", "f 1 2 x\n"],
                             ids=["short-v", "text-v", "short-f", "text-f"])
    def test_malformed_row_names_the_path(self, template, tmp_path, bad):
        path = tmp_path / "m.obj"
        save_mesh(template, str(path))
        lines = path.read_text().splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines) if line.startswith(bad[0]))
        lines[i] = bad
        path.write_text("".join(lines))
        for like in (None, template):
            with pytest.raises(MeshError, match=f"^{re.escape(str(path))}: "):
                load_mesh(str(path), like=like)


def edited(text, edit):
    """``text`` of a saved mesh with one kind of damage."""
    lines = text.splitlines(keepends=True)
    r, v, f = (next(k for k, line in enumerate(lines) if line.startswith(tag))
               for tag in ("# region", "v ", "f "))
    if edit == "face order":
        a, b, c = lines[f].split()[1:]
        lines[f] = f"f {b} {a} {c}\n"
    elif edit == "face dropped":
        del lines[-1]
    elif edit == "# no regions":
        lines = [line for line in lines if not line.startswith("# region")]
    elif edit == "# region count":
        lines[r] = lines[r].replace(" 1 ", " 2 ", 1)
    elif edit == "v short":
        lines[v] = "v 1.0 2.0\n"
    elif edit == "v text":
        lines[v] = "v 1.0 two 3.0\n"
    elif edit == "v two on a line":
        lines[v : v + 2] = [lines[v].rstrip("\n") + " " + lines[v + 1]]
    elif edit == "v dropped":
        del lines[v]
    elif edit == "v extra":
        lines.insert(v, lines[v])
    elif edit == "v spaced":
        lines[v] = lines[v].replace(" ", "  ")
    return "".join(lines)


class TestReadOntoLike:
    """load_mesh(like=) splits only the v rows; the line-by-line read is the oracle."""

    @given(arrays(np.float64, (12, 3), elements=awkward_floats()))
    @settings(max_examples=200, deadline=None)
    def test_same_vertices_as_line_by_line(self, verts):
        like = AnatomyMesh(np.zeros((12, 3)), icosphere(0)[1], (3, 3, 3, 3))
        text = written_bytes(save_mesh, like.with_vertices(verts)).decode()
        got = read_outcome(load_mesh, text, like)
        assert isinstance(got, bytes)
        assert got == read_outcome(load_mesh_line_by_line, text, like)

    @pytest.mark.parametrize("edit", [
        "face order", "face dropped", "# no regions", "# region count", "v short", "v text",
        "v two on a line", "v dropped", "v extra", "v spaced",
    ])
    def test_damaged_file_gives_the_same_outcome(self, template, edit):
        text = edited(written_bytes(save_mesh, template).decode(), edit)
        got = read_outcome(load_mesh, text, template)
        assert got == read_outcome(load_mesh_line_by_line, text, template)
        # a doubled space is still a valid row; every other edit is rejected
        assert isinstance(got, bytes) == (edit == "v spaced")

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_file_gives_the_same_outcome(self, template, data):
        text = written_bytes(save_mesh, template).decode()
        cut = data.draw(st.integers(0, len(text) - 1))
        got = read_outcome(load_mesh, text[:cut], template)
        assert got == read_outcome(load_mesh_line_by_line, text[:cut], template)
        assert isinstance(got, bytes) == (cut == len(text) - 1)  # only the last newline may go

    @pytest.mark.parametrize("like, fails_at, message", [
        # save_mesh names four regions, so it refuses a fifth before it opens the file
        (AnatomyMesh(*icosphere(0), (3, 3, 3, 2, 1)), "save",
         "<path>: 5 regions, the format names 4"),
        (AnatomyMesh(np.ones((2, 3)), np.zeros((0, 3), dtype=np.int64), (2,)), "load",
         "no mesh data"),
    ], ids=["five-regions", "no-faces"])
    def test_mesh_that_cannot_round_trip_is_rejected(self, like, fails_at, message):
        if fails_at == "save":
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "m.obj")
                with pytest.raises(MeshError) as exc:
                    save_mesh(like, path)
                assert not os.path.exists(path)
                got = str(exc.value).replace(path, "<path>")
        else:
            text = written_bytes(save_mesh, like).decode()
            got = read_outcome(load_mesh, text, like)
            assert got == read_outcome(load_mesh_line_by_line, text, like)
        assert message in got


class TestValidation:
    def test_bad_face_index(self):
        with pytest.raises(MeshError, match="out of range"):
            AnatomyMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]), (3,))

    def test_repeated_corner_rejected(self):
        with pytest.raises(MeshError, match="repeats a corner"):
            AnatomyMesh(np.zeros((3, 3)), np.array([[0, 0, 1]]), (3,))

    def test_region_count_mismatch(self, small_mesh):
        with pytest.raises(MeshError, match="region counts"):
            AnatomyMesh(small_mesh.vertices, small_mesh.faces, (5, 5))

    def test_mean_incident_edge_lengths(self, small_mesh):
        # icosahedron: all edges equal, every vertex mean equals edge length
        p = small_mesh.vertices
        L = np.linalg.norm(p[small_mesh.edges[:, 0]] - p[small_mesh.edges[:, 1]], axis=1)
        means = small_mesh.mean_incident_edge_lengths()
        np.testing.assert_allclose(means, L[0], rtol=1e-12)


class TestWithVertices:
    def test_shares_topology(self, small_mesh):
        moved = small_mesh.with_vertices(small_mesh.vertices * 2.0)
        assert moved.topology is small_mesh.topology
        assert moved.edges is small_mesh.edges
        assert moved.faces is small_mesh.faces
        assert moved.region_counts == small_mesh.region_counts
        np.testing.assert_array_equal(moved.vertices, small_mesh.vertices * 2.0)
        # the source mesh keeps its own geometry
        assert not np.array_equal(moved.vertices, small_mesh.vertices)

    def test_shared_edges_read_only(self, small_mesh):
        moved = small_mesh.with_vertices(small_mesh.vertices)
        with pytest.raises(ValueError):
            moved.edges[0, 0] = 1

    @pytest.mark.parametrize("shape", [(11, 3), (12, 2), (36,)])
    def test_rejects_wrong_shape(self, small_mesh, shape):
        with pytest.raises(MeshError, match="vertices must be"):
            small_mesh.with_vertices(np.zeros(shape))
