import numpy as np
import pytest

from anatomesh.mesh import AnatomyMesh
from anatomesh.meshfit import (
    FitConfig,
    FitError,
    SurfaceIndex,
    edge_regularizers,
    fit_mesh,
    mean_surface_distance,
    point_loss,
)
from anatomesh.volume import LabelVolume

from conftest import sphere_mask


def edge_regularizer_gradients_add_at(mesh):
    """Scatter-add oracle for the two gradients of :func:`edge_regularizers`."""
    p, edges = mesh.vertices, mesh.edges
    vec = p[edges[:, 0]] - p[edges[:, 1]]
    lengths = np.linalg.norm(vec, axis=1)
    unit = vec / lengths[:, None]
    g1_edge = 2.0 * (lengths - lengths.mean())[:, None] * unit
    grad1 = np.zeros_like(p)
    np.add.at(grad1, edges[:, 0], g1_edge)
    np.add.at(grad1, edges[:, 1], -g1_edge)
    grad2 = np.zeros_like(p)
    np.add.at(grad2, edges[:, 0], unit)
    np.add.at(grad2, edges[:, 1], -unit)
    return grad1, grad2


def random_mesh(rng, scale=1.0):
    from anatomesh.template import icosphere

    verts, faces = icosphere(1)  # 42 vertices
    verts = verts * scale + rng.normal(scale=0.05 * scale, size=verts.shape)
    return AnatomyMesh(verts, faces, (42,))


def fd_gradient(f, verts, eps=1e-6):
    g = np.zeros_like(verts)
    for i in range(verts.shape[0]):
        for j in range(3):
            vp = verts.copy()
            vp[i, j] += eps
            vm = verts.copy()
            vm[i, j] -= eps
            g[i, j] = (f(vp) - f(vm)) / (2 * eps)
    return g


class TestSurfaceIndex:
    def test_exact_nearest_vs_linear_scan(self):
        rng = np.random.default_rng(0)
        pts = rng.random((50, 3)) * 10
        idx = SurfaceIndex(pts)
        queries = rng.random((20, 3)) * 12 - 1
        d, q = idx.nearest(queries)
        for k in range(len(queries)):
            dists = np.linalg.norm(pts - queries[k], axis=1)
            assert d[k] == pytest.approx(dists.min(), abs=1e-12)
            assert np.array_equal(q[k], pts[dists.argmin()])

    def test_empty_rejected(self):
        with pytest.raises(FitError):
            SurfaceIndex(np.zeros((0, 3)))


class TestPointLoss:
    def test_zero_when_on_surface(self):
        rng = np.random.default_rng(1)
        mesh = random_mesh(rng)
        idx = SurfaceIndex(mesh.vertices.copy())
        value, grad = point_loss(mesh, idx)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_single_displaced_vertex(self):
        rng = np.random.default_rng(2)
        mesh = random_mesh(rng)
        # surface points spaced 10 mm apart so a 3 mm displacement keeps
        # the original point nearest
        pts = np.array([[10.0 * i, 0.0, 0.0] for i in range(mesh.n_vertices)])
        moved = pts.copy()
        moved[0] += [0.0, 3.0, 0.0]
        value, _ = point_loss(mesh.with_vertices(moved), SurfaceIndex(pts))
        assert value == pytest.approx(9.0, rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mesh = random_mesh(rng)
            surf = rng.random((40, 3)) * 2 - 1
            idx = SurfaceIndex(surf)
            _, grad = point_loss(mesh, idx)
            _, q = idx.nearest(mesh.vertices)

            def f(v):  # fixed correspondences
                return ((v - q) ** 2).sum()

            fd = fd_gradient(f, mesh.vertices)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


class TestEdgeRegularizers:
    def test_uniform_edges(self, small_mesh):
        e1, e2, _, _ = edge_regularizers(small_mesh)
        n_edges = len(small_mesh.edges)
        p = small_mesh.vertices
        L = np.linalg.norm(p[small_mesh.edges[0, 0]] - p[small_mesh.edges[0, 1]])
        assert e1 == pytest.approx(0.0, abs=1e-20)
        assert e2 == pytest.approx(n_edges * L, rel=1e-12)

    def test_two_edge_arithmetic(self):
        # single triangle with a degenerate third edge is awkward; use a path
        # realized as a thin triangle pair giving edges of length 1 and 3
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [4.0, 0, 0], [2.0, 1.0, 0]])
        faces = np.array([[0, 1, 3], [1, 2, 3]])
        mesh = AnatomyMesh(verts, faces, (4,))
        p = mesh.vertices
        lengths = np.linalg.norm(p[mesh.edges[:, 0]] - p[mesh.edges[:, 1]], axis=1)
        mean = lengths.mean()
        e1, e2, _, _ = edge_regularizers(mesh)
        assert e1 == pytest.approx(((lengths - mean) ** 2).sum(), rel=1e-12)
        assert e2 == pytest.approx(lengths.sum(), rel=1e-12)

    def test_hand_example_two_lengths(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [4.0, 0, 0]])
        # compute on the two x-axis edges only: lengths 1 and 3, mean 2
        lengths = np.array([1.0, 3.0])
        mean = lengths.mean()
        assert ((lengths - mean) ** 2).sum() == pytest.approx(2.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mesh = random_mesh(rng)
            _, _, g1, g2 = edge_regularizers(mesh)

            def f1(v):
                m = mesh.with_vertices(v)
                return edge_regularizers(m)[0]

            def f2(v):
                m = mesh.with_vertices(v)
                return edge_regularizers(m)[1]

            np.testing.assert_allclose(g1, fd_gradient(f1, mesh.vertices),
                                       rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(g2, fd_gradient(f2, mesh.vertices),
                                       rtol=1e-5, atol=1e-8)

    def test_gradients_match_add_at(self, template):
        rng = np.random.default_rng(22)
        for _ in range(25):
            mesh = template.with_vertices(
                template.vertices + rng.normal(scale=0.5, size=template.vertices.shape)
            )
            _, _, g1, g2 = edge_regularizers(mesh)
            o1, o2 = edge_regularizer_gradients_add_at(mesh)
            assert np.array_equal(g1, o1)
            assert np.array_equal(g2, o2)

    def test_degenerate_edge_reported(self):
        verts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        faces = np.array([[0, 1, 2]])
        with pytest.raises(FitError, match="zero-length edge"):
            edge_regularizers(AnatomyMesh(verts, faces, (3,)))


def sphere_volume(grid=48, radius=14, shift=0):
    c = (grid - 1) / 2.0
    mask = sphere_mask(grid, radius, (c + shift, c, c))
    return LabelVolume(mask.astype(np.uint8), (1.0, 1.0, 1.0))


def sphere_template(grid=48, radius=14):
    from anatomesh.template import icosphere

    verts, faces = icosphere(1)
    c = (grid - 1) / 2.0
    return AnatomyMesh(verts * radius + c, faces, (42,))


class TestFitMesh:
    def test_already_fitted_stays_put(self):
        vol = sphere_volume()
        mesh = sphere_template()
        fitted, _ = fit_mesh(mesh, vol, 1, FitConfig(max_iters=300))
        refitted, _ = fit_mesh(fitted, vol, 1, FitConfig(max_iters=300))
        disp = np.linalg.norm(refitted.vertices - fitted.vertices, axis=1)
        assert disp.max() < 0.5

    def test_translated_sphere_converges(self):
        vol = sphere_volume(shift=5)
        mesh = sphere_template()
        fitted, trace = fit_mesh(mesh, vol, 1, FitConfig(max_iters=2000))
        idx = SurfaceIndex.from_mask(vol, 1)
        assert mean_surface_distance(fitted, idx) <= 1.0
        assert len(trace) >= 1

    def test_loss_non_increasing(self):
        vol = sphere_volume(shift=4)
        mesh = sphere_template()
        _, trace = fit_mesh(mesh, vol, 1, FitConfig(max_iters=300))
        totals = np.array(trace.total)
        # correspondences are refreshed between iterations; refreshing can
        # only decrease the point term, so the recorded totals never rise
        assert np.all(np.diff(totals) <= 1e-9)

    def test_combinatorics_and_regions_preserved(self, template):
        vol = sphere_volume(grid=48, radius=14)
        scaled = template.with_vertices(template.vertices * 14 + 23.5)
        fitted, _ = fit_mesh(scaled, vol, 1, FitConfig(max_iters=50))
        assert np.array_equal(fitted.faces, scaled.faces)
        assert np.array_equal(fitted.edges, scaled.edges)
        assert fitted.region_counts == scaled.region_counts

    def test_zero_lambda_reduces_to_projection(self):
        # with tiny regularizer weights, each vertex moves toward its
        # nearest surface point, so per-vertex distances shrink
        vol = sphere_volume(shift=3)
        mesh = sphere_template()
        idx = SurfaceIndex.from_mask(vol, 1)
        d0, _ = idx.nearest(mesh.vertices)
        cfg = FitConfig(lambda1=1e-12, lambda2=1e-12, step_size=0.25, max_iters=1)
        stepped, _ = fit_mesh(mesh, vol, 1, cfg)
        d1, _ = idx.nearest(stepped.vertices)
        assert np.all(d1 <= d0 + 1e-9)

    def test_homogeneity_under_scaling(self):
        rng = np.random.default_rng(6)
        mesh = random_mesh(rng)
        surf = rng.random((30, 3)) * 2 - 1
        s = 2.5
        idx1, idx2 = SurfaceIndex(surf), SurfaceIndex(surf * s)
        v1, _ = point_loss(mesh, idx1)
        v2, _ = point_loss(mesh.with_vertices(mesh.vertices * s), idx2)
        assert v2 == pytest.approx(s**2 * v1, rel=1e-9)
        e1a, e2a, _, _ = edge_regularizers(mesh)
        e1b, e2b, _, _ = edge_regularizers(mesh.with_vertices(mesh.vertices * s))
        assert e1b == pytest.approx(s**2 * e1a, rel=1e-9)
        assert e2b == pytest.approx(s * e2a, rel=1e-9)

    def test_first_trace_row_is_the_checked_kernels(self):
        # trace.csv row 0 must be the start mesh's point_loss and
        # edge_regularizers, the functions the gradient oracle checks
        vol = sphere_volume(shift=3)
        mesh = sphere_template()
        cfg = FitConfig(lambda1=0.3, lambda2=0.07, max_iters=3)
        _, trace = fit_mesh(mesh, vol, 1, cfg)
        lpt, _ = point_loss(mesh, SurfaceIndex.from_mask(vol, 1))
        e1, e2, _, _ = edge_regularizers(mesh)
        assert (trace.point[0], trace.e1[0], trace.e2[0]) == (lpt, e1, e2)
        assert trace.total[0] == lpt + cfg.lambda1 * e1 + cfg.lambda2 * e2

    def test_trace_csv(self, tmp_path):
        vol = sphere_volume()
        mesh = sphere_template()
        _, trace = fit_mesh(mesh, vol, 1, FitConfig(max_iters=20))
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,L_pt,L_e1,L_e2,L_total"
        assert len(lines) == len(trace) + 1
