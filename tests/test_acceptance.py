"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS line on success (run with ``-s`` or check
captured output); any assertion failure marks the criterion failed.
"""

import os
import time

import numpy as np
import pytest

from anatomesh.graphnet import backward, forward, graph_conv, loss
from anatomesh.mesh import AnatomyMesh
from anatomesh.meshfit import (
    FitConfig,
    SurfaceIndex,
    edge_regularizers,
    fit_mesh,
    mean_surface_distance,
    point_loss,
)
from anatomesh.volume import LabelVolume, detected, dice
from anatomesh.zones import render_zones

from conftest import random_connected_mask, sphere_mask
from test_graphnet import REGIONS, forward_oracle, ico_topology, random_instance, small_params
from test_meshfit import fd_gradient, random_mesh
from test_zones import bfs_oracle, line_mesh


def ok(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}", flush=True)


class TestCriterion1MeshFit:
    def test_sphere_fit_converges(self, template):
        mask = sphere_mask(64, 20, (36.5, 31.5, 31.5))  # shift +5 in x
        vol = LabelVolume(mask.astype(np.uint8), (1.0, 1.0, 1.0))
        start = template.with_vertices(template.vertices * 20 + 31.5)
        t0 = time.perf_counter()
        fitted, trace = fit_mesh(start, vol, 1, FitConfig(max_iters=2000))
        elapsed = time.perf_counter() - t0
        idx = SurfaceIndex.from_mask(vol, 1)
        msd = mean_surface_distance(fitted, idx)
        assert msd <= 1.0, f"mean surface distance {msd:.3f} > 1.0"
        totals = np.array(trace.total)
        assert np.all(np.diff(totals) <= 1e-9), "loss increased between iterations"
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s"
        ok(1, f"sphere fit: distance {msd:.3f} vox, {len(trace)} iters, {elapsed:.1f}s")


class TestCriterion2Gradients:
    def test_mesh_loss_gradients(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        eps = 1e-5
        for _ in range(20):
            mesh = random_mesh(rng)
            surf = rng.random((40, 3)) * 2 - 1
            idx = SurfaceIndex(surf)
            _, grad = point_loss(mesh, idx)
            _, q = idx.nearest(mesh.vertices)
            fd = fd_gradient(lambda v: ((v - q) ** 2).sum(), mesh.vertices, eps)
            _, _, g1, g2 = edge_regularizers(mesh)
            fd1 = fd_gradient(lambda v: edge_regularizers(mesh.with_vertices(v))[0],
                              mesh.vertices, eps)
            fd2 = fd_gradient(lambda v: edge_regularizers(mesh.with_vertices(v))[1],
                              mesh.vertices, eps)
            for g, fd_g in ((grad, fd), (g1, fd1), (g2, fd2)):
                # absolute floor tied to the gradient scale keeps roundoff in
                # near-zero components from dominating the relative error
                scale = max(float(np.abs(fd_g).max()), 1.0)
                denom = np.maximum(np.maximum(np.abs(fd_g), np.abs(g)), 1e-3 * scale)
                worst = max(worst, float(np.max(np.abs(g - fd_g) / denom)))
        assert worst <= 1e-5, f"mesh-loss gradient rel error {worst:.2e} > 1e-5"
        ok(2, f"mesh-loss gradients on 20 instances, worst rel error {worst:.1e}")

    def test_graphnet_gradients(self):
        from anatomesh.graphnet import _forward_cache

        rng = np.random.default_rng(101)
        topo = ico_topology()
        step = 1e-4
        worst = 0.0
        checked = 0

        def probe(params, feats, vt, gt):
            cache = _forward_cache(params, feats, topo)
            masks = [z > 0.0 for z in cache["preacts"]]
            sat = min(cache["vertex_probs"].min(), cache["global_probs"].min())
            value = loss(cache["vertex_probs"], cache["global_probs"], vt, gt, 0.1, 0.1)
            return value, masks, sat

        for _ in range(20):
            params, feats, vt, gt = random_instance(rng, topo)
            _, base_masks, _ = probe(params, feats, vt, gt)
            _, grads = backward(params, feats, topo, vt, gt, 0.1, 0.1)
            for t, g in zip(params.tensors(), grads.tensors()):
                for fi in rng.choice(t.size, size=min(4, t.size), replace=False):
                    idx = np.unravel_index(fi, t.shape)
                    orig = t[idx]
                    t[idx] = orig + step
                    up, up_masks, up_sat = probe(params, feats, vt, gt)
                    t[idx] = orig - step
                    dn, dn_masks, dn_sat = probe(params, feats, vt, gt)
                    t[idx] = orig
                    # skip perturbations that flip a ReLU activation or push a
                    # probability into the clamp: the loss is non-smooth there
                    # and central differences do not measure the gradient
                    smooth = min(up_sat, dn_sat) > 1e-6 and all(
                        np.array_equal(bm, um) and np.array_equal(bm, dm)
                        for bm, um, dm in zip(base_masks, up_masks, dn_masks)
                    )
                    if not smooth:
                        continue
                    checked += 1
                    fd = (up - dn) / (2 * step)
                    denom = max(abs(fd), abs(g[idx]), 1e-6)
                    worst = max(worst, abs(fd - g[idx]) / denom)
        assert checked >= 500, f"only {checked} smooth samples checked"
        assert worst <= 1e-4, f"graphnet gradient rel error {worst:.2e} > 1e-4"
        ok(2, f"graphnet gradients: {checked} samples on 20 instances, "
              f"worst rel error {worst:.1e}")


class TestCriterion3Zones:
    def test_bfs_oracle_agreement(self):
        rng = np.random.default_rng(102)
        for trial in range(50):
            grid = int(rng.integers(16, 33))
            organ = random_connected_mask(rng, grid)
            n_seeds = int(rng.integers(4, 17))
            verts = rng.uniform(grid * 0.25, grid * 0.75, size=(n_seeds, 3))
            mesh = line_mesh(verts)
            zmap = render_zones(mesh, organ, (1.0, 1.0, 1.0))
            from anatomesh.zones import _seed_voxels

            seeds = _seed_voxels(verts, organ, np.ones(3))
            expect = bfs_oracle([tuple(s) for s in seeds], organ)
            assert np.array_equal(zmap.data, expect), f"trial {trial}: oracle mismatch"
            assert np.all((zmap.data > 0) == organ), f"trial {trial}: not a partition"
        ok(3, "render_zones matches the BFS oracle on 50 random masks")


class TestCriterion4GraphConv:
    def test_dense_oracle(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(3, 21))
            a = np.triu(rng.random((n, n)) < 0.4, k=1).astype(np.float64)
            a = a + a.T
            win, wout = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            h = rng.normal(size=(n, win))
            w0, w1 = rng.normal(size=(win, wout)), rng.normal(size=(win, wout))
            b = rng.normal(size=wout)
            got = graph_conv(h, w0, w1, a, b, activate=False)
            for p in range(n):
                expect = w0.T @ h[p] + b
                for q in range(n):
                    if a[p, q]:
                        expect = expect + w1.T @ h[q]
                worst = max(worst, float(np.max(np.abs(got[p] - expect))))
        assert worst <= 1e-6, f"graph_conv oracle error {worst:.2e} > 1e-6"
        ok(4, f"graph_conv matches the per-node oracle on 100 graphs ({worst:.1e})")

    def test_forward_oracle(self):
        rng = np.random.default_rng(104)
        topo = ico_topology()
        worst = 0.0
        for _ in range(20):
            params = small_params(rng)
            feats = rng.normal(size=(12, 5))
            vp, gp = forward(params, feats, topo)
            evp, egp = forward_oracle(params, feats, topo)
            worst = max(worst, float(np.max(np.abs(vp - evp))),
                        float(np.max(np.abs(gp - egp))))
        assert worst <= 1e-6, f"forward oracle error {worst:.2e} > 1e-6"
        ok(4, f"forward matches an independent re-implementation ({worst:.1e})")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Full-size pipeline on the default configuration."""
    from anatomesh.cli import main

    tmp = tmp_path_factory.mktemp("full")
    cfg = tmp / "run.cfg"
    cfg.write_text("# defaults: 400 train / 100 test cases\n")
    out = str(tmp / "run")
    t0 = time.perf_counter()
    rc = main(["pipeline", "--config", str(cfg), "--out", out])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return out, elapsed


class TestCriterion5EndToEnd:
    def test_accuracy_and_ordering(self, full_run):
        out, elapsed = full_run
        accs = {}
        with open(os.path.join(out, "report", "accuracy.csv")) as f:
            next(f)
            for line in f:
                k, v = line.strip().split(",")
                accs[k] = float(v)
        assert accs["gc"] >= 0.90, f"GC accuracy {accs['gc']:.3f} < 0.90"
        assert accs["gc"] >= accs["pv"], (
            f"GC {accs['gc']:.3f} below PV {accs['pv']:.3f}"
        )
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s >= 10min"
        ok(5, f"end-to-end GC {accs['gc']:.3f}, PV {accs['pv']:.3f}, "
              f"VV {accs['vv']:.3f} in {elapsed:.0f}s")


class TestCriterion6Metrics:
    def test_hand_computed_values(self):
        from anatomesh.evaluate import binary_metrics, detection_table, management_report

        # dice micro-examples
        a = np.zeros((4, 1, 1), dtype=bool)
        b = np.zeros((4, 1, 1), dtype=bool)
        a[:2] = True
        b[1:3] = True
        assert dice(a, a) == 1.0
        assert dice(a, b) == 0.5
        assert dice(a, ~a) == 0.0

        # detection with the 10% overlap rule
        gt = np.zeros((10, 1, 1), dtype=bool)
        gt[:10] = True
        one = np.zeros_like(gt)
        one[0] = True
        assert detected(one, gt, 0.1) is True        # exactly 10%
        assert detected(one, gt, 0.2) is False
        assert detected(np.zeros_like(gt), gt, 0.1) is False

        # binary metrics: tp=2 tn=2 fp=1 fn=1
        acc, sens, spec = binary_metrics([1, 1, 0, 0, 1, 0], [1, 0, 0, 1, 1, 0], 1)
        assert (acc, sens, spec) == (4 / 6, 2 / 3, 2 / 3)

        # detection table over three fixed cases
        g = np.zeros((8, 1, 1), dtype=bool)
        g[:4] = True
        half = np.zeros_like(g)
        half[:2] = True
        t = detection_table(
            [(g.copy(), g.copy(), 2), (half, g.copy(), 2),
             (np.zeros_like(g), g.copy(), 3)],
            cutoff=0.1,
        )
        assert t.per_class[2] == (pytest.approx((1.0 + 2 / 3) / 2), 1.0, 2)
        assert t.per_class[3] == (0.0, 0.0, 1)
        assert t.macro[1] == 0.5

        # management confusion
        cm = management_report(
            ["Surgery", "Surgery", "Monitoring", "Discharge", "Surgery"],
            ["Surgery", "Monitoring", "Monitoring", "Discharge", "Discharge"],
        )
        assert np.array_equal(
            cm.counts, np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
        )
        ok(6, "all metrics reproduce hand-computed micro-examples exactly")


class TestCriterion7Structure:
    def test_invariants_preserved(self, template, full_run):
        from anatomesh.mesh import load_mesh

        out, _ = full_run

        def check(mesh):
            assert mesh.n_vertices == 156
            assert len(mesh.edges) == 462
            assert len(mesh.faces) == 308
            assert mesh.euler_characteristic() == 2
            assert mesh.region_counts == (48, 42, 45, 21)
            mesh.validate_closed()

        check(template)
        proto = load_mesh(os.path.join(out, "prototype.obj"))
        check(proto)
        case_root = os.path.join(out, "cases")
        fitted_dirs = sorted(os.listdir(case_root))[:10]
        for d in fitted_dirs:
            fitted = load_mesh(os.path.join(case_root, d, "fitted.obj"))
            check(fitted)
            # fitting moves vertices but never touches combinatorics
            assert np.array_equal(fitted.faces, proto.faces)
            assert np.array_equal(fitted.edges, proto.edges)
        ok(7, f"V=156, chi=2, regions (48,42,45,21) on prototype and "
              f"{len(fitted_dirs)} fitted meshes")


class TestCriterion8Reproducibility:
    def test_rerun_bit_identical(self, tmp_path):
        from anatomesh.cli import main
        from test_cli import SMALL_CONFIG, tree_digest

        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["pipeline", "--config", str(cfg), "--out", out1]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", out2]) == 0
        a, b = tree_digest(out1), tree_digest(out2)
        assert set(a) == set(b)
        diffs = [k for k in a if a[k] != b[k]]
        assert not diffs, f"artifacts differ between reruns: {diffs[:5]}"
        ok(8, f"rerun produced {len(a)} bit-identical artifacts")
