import dataclasses
import hashlib
import os
import re
import signal
import sys

import numpy as np
import pytest

import anatomesh.graphnet as graphnet
from anatomesh.evaluate import classify_gc, classify_pv, classify_vv
from anatomesh.graphnet import (
    GraphNetError,
    GraphResNetParams,
    TrainConfig,
    backward,
    forward,
    graph_conv,
    init_params,
    load_params,
    loss,
    save_params,
    train,
)
from anatomesh.mesh import MeshTopology, region_ranges
from anatomesh.volume import LabelVolume
from anatomesh.workers import _blas_threads

from conftest import assert_no_child_left, count_forks, patch_cpus
from template_build import icosphere


REGIONS = (3, 3, 3, 3)


def ico_topology():
    _, faces = icosphere(0)
    return MeshTopology(faces, REGIONS)


def small_params(rng, input_width=5, width=8, k_vertex=3, k_global=4, scale=0.3):
    """Random small network with non-saturating weights."""
    p = init_params(input_width, k_vertex, k_global, ico_topology(), width=width,
                    seed=int(rng.integers(1 << 30)))
    for t in p.tensors():
        t[...] = rng.normal(scale=scale, size=t.shape)
    return p


def float64_copy(params):
    """``params`` with its float32 weights upcast exactly: the oracles run at float64."""
    return dataclasses.replace(params, flat=params.flat.astype(np.float64))


def loop_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def forward_oracle(params, feats, topo):
    """Per-node loop re-implementation of the forward pass."""
    a = topo.adjacency.toarray()
    n = a.shape[0]
    h = (feats.astype(np.float64) - params.input_mean) / params.input_std
    saved = None
    for layer in range(params.n_layers):
        if layer % 2 == 0:
            saved = h
        w0, w1, b = params.conv_w0[layer], params.conv_w1[layer], params.conv_b[layer]
        z = np.empty((n, w0.shape[1]))
        for p in range(n):
            acc = w0.T @ h[p] + b
            for q in range(n):
                if a[p, q]:
                    acc = acc + w1.T @ h[q]
            z[p] = acc
        if layer % 2 == 1 and saved.shape == z.shape:
            z = z + saved
        h = np.maximum(z, 0.0) if layer < params.n_layers - 1 else z
    vp = np.stack([loop_softmax(h[p] @ params.vertex_w + params.vertex_b)
                   for p in range(n)])
    pooled = [h[ra:rb].mean(axis=0) for ra, rb in region_ranges(params.region_counts)]
    hvp = np.concatenate([np.concatenate(pooled), h.ravel()])
    gp = loop_softmax(hvp @ params.global_w + params.global_b)
    return vp, gp


class TestGraphConv:
    def test_matches_per_node_loop(self):
        rng = np.random.default_rng(0)
        topo = ico_topology()
        h = rng.normal(size=(12, 5))
        w0 = rng.normal(size=(5, 7))
        w1 = rng.normal(size=(5, 7))
        b = rng.normal(size=7)
        got = graph_conv(h, w0, w1, topo.adjacency, b, activate=False)
        a = topo.adjacency.toarray()
        for p in range(12):
            expect = w0.T @ h[p] + b
            for q in range(12):
                if a[p, q]:
                    expect = expect + w1.T @ h[q]
            np.testing.assert_allclose(got[p], expect, rtol=1e-6, atol=1e-12)

    def test_relu_clips_negatives(self):
        rng = np.random.default_rng(1)
        topo = ico_topology()
        h = rng.normal(size=(12, 4))
        w0, w1 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        out = graph_conv(h, w0, w1, topo.adjacency)
        raw = graph_conv(h, w0, w1, topo.adjacency, activate=False)
        assert np.all(out >= 0.0)
        np.testing.assert_array_equal(out, np.maximum(raw, 0.0))

    def test_width_mismatch(self):
        topo = ico_topology()
        with pytest.raises(GraphNetError, match="fan-in"):
            graph_conv(np.zeros((12, 3)), np.zeros((4, 4)), np.zeros((4, 4)), topo.adjacency)


class TestForward:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        topo = ico_topology()
        for _ in range(3):
            params = float64_copy(small_params(rng))
            feats = rng.normal(size=(12, 5))
            vp, gp = forward(params, feats, topo)
            evp, egp = forward_oracle(params, feats, topo)
            np.testing.assert_allclose(vp, evp, rtol=1e-6, atol=1e-12)
            np.testing.assert_allclose(gp, egp, rtol=1e-6, atol=1e-12)

    def test_with_standardization(self):
        rng = np.random.default_rng(3)
        topo = ico_topology()
        params = float64_copy(small_params(rng))
        params.input_mean = rng.normal(size=5)
        params.input_std = rng.uniform(0.5, 2.0, size=5)
        feats = rng.normal(size=(12, 5)) * 10
        vp, gp = forward(params, feats, topo)
        evp, egp = forward_oracle(params, feats, topo)
        np.testing.assert_allclose(vp, evp, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(gp, egp, rtol=1e-6, atol=1e-12)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(4)
        topo = ico_topology()
        params = float64_copy(small_params(rng))
        vp, gp = forward(params, rng.normal(size=(12, 5)), topo)
        np.testing.assert_allclose(vp.sum(axis=1), 1.0, rtol=1e-12)
        assert gp.sum() == pytest.approx(1.0, rel=1e-12)

    def test_shortcut_changes_result(self):
        # zeroing every weight leaves only biases and shortcuts; with width
        # equal to the input width the first pair shortcut re-injects the
        # input, so the final embedding depends on the features
        rng = np.random.default_rng(5)
        topo = ico_topology()
        params = small_params(rng, input_width=8, width=8)
        for t in params.conv_w0 + params.conv_w1 + params.conv_b:
            t[...] = 0.0
        f1 = rng.normal(size=(12, 8))
        f2 = rng.normal(size=(12, 8))
        c1 = forward(params, f1, topo)
        c2 = forward(params, f2, topo)
        assert not np.allclose(c1[1], c2[1])

    def test_feature_width_mismatch(self):
        rng = np.random.default_rng(6)
        params = small_params(rng)
        with pytest.raises(GraphNetError, match="input"):
            forward(params, np.zeros((12, 7)), ico_topology())

    def test_feature_rows_mismatch(self):
        rng = np.random.default_rng(6)
        params = small_params(rng)
        with pytest.raises(GraphNetError, match="10 feature rows .* 12 vertices"):
            forward(params, np.zeros((10, 5)), ico_topology())

    def test_init_params_layer_shapes(self, template):
        p = init_params(13, 4, 4, template.topology, width=64, seed=0)
        assert p.n_layers == 6
        assert p.widths == [13, 64, 64, 64, 64, 64, 64]
        assert p.vertex_w.shape == (64, 4)
        assert p.global_w.shape == ((4 + 156) * 64, 4)


class TestLoss:
    def test_uniform_probs_closed_form(self):
        # all-uniform vertex and global predictions: the summed vertex term
        # is V*ln(K_v), the global term ln(K_g)
        vp = np.full((156, 4), 0.25)
        gp = np.full(4, 0.25)
        vt = np.eye(4)[np.zeros(156, dtype=int)]
        gt = np.eye(4)[1]
        got = loss(vp, gp, vt, gt, eta1=0.1, eta2=0.1)
        expect = 0.1 * 156 * np.log(4) + 0.1 * np.log(4)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_perfect_prediction_near_zero(self):
        vt = np.eye(3)[np.zeros(5, dtype=int)]
        vp = np.clip(vt, 1e-12, 1.0)
        vp /= vp.sum(axis=1, keepdims=True)
        gt = np.eye(2)[0]
        gp = np.array([1.0 - 1e-12, 1e-12])
        assert loss(vp, gp, vt, gt, 0.1, 0.1) < 1e-5

    def test_clamp_bounds_loss(self):
        # fully confident wrong answers stay finite through the clamp
        vt = np.eye(2)[np.zeros(3, dtype=int)]
        vp = np.array([[0.0, 1.0]] * 3)
        gt = np.eye(2)[0]
        gp = np.array([0.0, 1.0])
        got = loss(vp, gp, vt, gt, eta1=1.0, eta2=1.0)
        assert np.isfinite(got)
        assert got == pytest.approx(4 * -np.log(1e-7), rel=1e-6)

    def test_weights_scale_terms(self):
        vp = np.full((4, 2), 0.5)
        gp = np.array([0.5, 0.5])
        vt = np.eye(2)[np.zeros(4, dtype=int)]
        gt = np.eye(2)[0]
        only_v = loss(vp, gp, vt, gt, eta1=1.0, eta2=0.0)
        only_g = loss(vp, gp, vt, gt, eta1=0.0, eta2=1.0)
        assert only_v == pytest.approx(4 * np.log(2), rel=1e-12)
        assert only_g == pytest.approx(np.log(2), rel=1e-12)


def random_instance(rng, topo, scale=0.3):
    """Instance whose softmax outputs stay far from the clamp boundary."""
    while True:
        params = small_params(rng, scale=scale)
        feats = rng.normal(size=(12, 5))
        vp, gp = forward(params, feats, topo)
        if vp.min() > 1e-6 and gp.min() > 1e-6:
            vt = np.eye(3)[rng.integers(0, 3, size=12)]
            gt = np.eye(4)[rng.integers(0, 4)]
            return params, feats, vt, gt


class TestBackward:
    def fd_check(self, params, feats, topo, vt, gt, eta1, eta2, rng, step=1e-4):
        params = float64_copy(params)
        value, grads = backward(params, feats, topo, vt, gt, eta1, eta2)
        tensors = params.tensors()
        gtens = grads.tensors()
        worst = 0.0
        for t, g in zip(tensors, gtens):
            flat_idx = rng.choice(t.size, size=min(6, t.size), replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, t.shape)
                orig = t[idx]
                t[idx] = orig + step
                vp, gp = forward(params, feats, topo)
                up = loss(vp, gp, vt, gt, eta1, eta2)
                t[idx] = orig - step
                vp, gp = forward(params, feats, topo)
                dn = loss(vp, gp, vt, gt, eta1, eta2)
                t[idx] = orig
                fd = (up - dn) / (2 * step)
                denom = max(abs(fd), abs(g[idx]), 1e-6)
                worst = max(worst, abs(fd - g[idx]) / denom)
        return value, worst

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        topo = ico_topology()
        for _ in range(3):
            params, feats, vt, gt = random_instance(rng, topo)
            _, worst = self.fd_check(params, feats, topo, vt, gt, 0.1, 0.1, rng)
            assert worst <= 1e-4

    def test_gradients_with_standardization(self):
        rng = np.random.default_rng(8)
        topo = ico_topology()
        while True:
            params, feats, vt, gt = random_instance(rng, topo)
            params.input_mean = rng.normal(size=5)
            params.input_std = rng.uniform(0.5, 2.0, size=5)
            vp, gp = forward(params, feats, topo)
            if vp.min() > 1e-6 and gp.min() > 1e-6:
                break
        _, worst = self.fd_check(params, feats, topo, vt, gt, 0.1, 0.1, rng)
        assert worst <= 1e-4

    def test_loss_value_matches_forward(self):
        rng = np.random.default_rng(9)
        topo = ico_topology()
        params, feats, vt, gt = random_instance(rng, topo)
        value, _ = backward(params, feats, topo, vt, gt, 0.1, 0.1)
        vp, gp = forward(params, feats, topo)
        assert value == pytest.approx(loss(vp, gp, vt, gt, 0.1, 0.1), rel=1e-12)

    def test_eta1_zero_kills_vertex_head_grad(self):
        rng = np.random.default_rng(10)
        topo = ico_topology()
        params, feats, vt, gt = random_instance(rng, topo)
        _, grads = backward(params, feats, topo, vt, gt, 0.0, 0.1)
        assert np.all(grads.vertex_w == 0.0)
        assert np.all(grads.vertex_b == 0.0)
        assert not np.all(grads.global_w == 0.0)

    def test_eta2_zero_kills_global_head_grad(self):
        rng = np.random.default_rng(11)
        topo = ico_topology()
        params, feats, vt, gt = random_instance(rng, topo)
        _, grads = backward(params, feats, topo, vt, gt, 0.1, 0.0)
        assert np.all(grads.global_w == 0.0)
        assert np.all(grads.global_b == 0.0)
        assert not np.all(grads.vertex_w == 0.0)

    def test_both_zero_gives_zero_everywhere(self):
        rng = np.random.default_rng(12)
        topo = ico_topology()
        params, feats, vt, gt = random_instance(rng, topo)
        _, grads = backward(params, feats, topo, vt, gt, 0.0, 0.0)
        for t in grads.tensors():
            assert np.all(t == 0.0)


def tiny_dataset(rng, n=6):
    """Cases whose global label is decodable from a single feature column."""
    out = []
    for i in range(n):
        g = i % 2
        feats = rng.normal(size=(12, 5))
        feats[:, 0] = 3.0 if g else -3.0
        vt = np.full(12, g, dtype=int)
        out.append((feats, vt, g))
    return out


class TestTrain:
    def test_deterministic(self):
        rng = np.random.default_rng(13)
        topo = ico_topology()
        data = tiny_dataset(rng)
        cfg = TrainConfig(epochs=3, seed=5, learning_rate=1e-3, width=8)
        p1, _ = train(data, topo, cfg, [])
        p2, _ = train(data, topo, cfg, [])
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a, b)

    def test_zero_epochs_returns_init(self):
        rng = np.random.default_rng(14)
        topo = ico_topology()
        data = tiny_dataset(rng)
        cfg = TrainConfig(epochs=0, seed=5, width=8)
        got, log = train(data, topo, cfg, [])
        expect = init_params(5, 2, 2, ico_topology(), width=8, seed=5)
        for a, b in zip(got.tensors(), expect.tensors()):
            assert np.array_equal(a, b)
        assert len(log.epochs) == 0

    def test_memorizes_separable_dataset(self):
        rng = np.random.default_rng(15)
        topo = ico_topology()
        data = tiny_dataset(rng, n=8)
        cfg = TrainConfig(epochs=60, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        params, log = train(data, topo, cfg, [])
        correct = 0
        for feats, _, g in data:
            _, gp = forward(params, feats, topo)
            if classify_gc(gp) - 1 == g:
                correct += 1
        assert correct == len(data)
        assert log.train_loss[-1] < log.train_loss[0]

    def test_validation_selects_best_epoch(self):
        rng = np.random.default_rng(16)
        topo = ico_topology()
        data = tiny_dataset(rng, n=8)
        val = tiny_dataset(rng, n=4)
        cfg = TrainConfig(epochs=10, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        params, log = train(data, topo, cfg, validation=val)
        assert all(a is not None for a in log.val_acc)
        best = max(log.val_acc)
        correct = sum(
            classify_gc(forward(params, f, topo)[1]) - 1 == g for f, _, g in val
        )
        assert correct / len(val) == pytest.approx(best)

    def test_stops_after_first_perfect_validation_epoch(self):
        rng = np.random.default_rng(16)
        topo = ico_topology()
        data = tiny_dataset(rng, n=8)
        val = tiny_dataset(rng, n=4)
        cfg = TrainConfig(epochs=20, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        params, log = train(data, topo, cfg, validation=val)
        k = log.val_acc.index(1.0)
        assert len(log.epochs) == k + 1 < cfg.epochs
        longer = TrainConfig(epochs=40, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        again, _ = train(data, topo, longer, validation=val)
        for a, b in zip(params.tensors(), again.tensors()):
            assert np.array_equal(a, b)

    def test_runs_every_epoch_without_validation(self):
        rng = np.random.default_rng(16)
        topo = ico_topology()
        cfg = TrainConfig(epochs=12, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        _, log = train(tiny_dataset(rng, n=8), topo, cfg, [])
        assert log.epochs == list(range(12))

    def test_runs_every_epoch_when_validation_never_perfect(self):
        rng = np.random.default_rng(16)
        topo = ico_topology()
        data = tiny_dataset(rng, n=8)
        val = tiny_dataset(rng, n=4)
        # two validation cases whose labels contradict their features
        val = val + [(f, vt, 1 - g) for f, vt, g in val[:2]]
        cfg = TrainConfig(epochs=12, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        _, log = train(data, topo, cfg, validation=val)
        assert max(log.val_acc) < 1.0
        assert log.epochs == list(range(12))

    @pytest.mark.parametrize("split, case, edit, name", [
        ("training", 2, lambda vt, g: (np.where(vt == 0, -1, vt), g), "vertex"),
        ("training", 3, lambda vt, g: (vt, -1), "global"),
        ("training", 0, lambda vt, g: (vt + 0.5, g), "vertex"),
        ("validation", 1, lambda vt, g: (vt, 0.5), "global"),
    ], ids=["negative-vertex", "negative-global", "fractional-vertex", "fractional-global"])
    def test_bad_label_rejected_before_first_epoch(self, monkeypatch, split, case, edit,
                                                   name):
        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(graphnet, "backward", no_epoch)
        rng = np.random.default_rng(19)
        cases = {"training": tiny_dataset(rng), "validation": tiny_dataset(rng, n=2)}
        f, vt, g = cases[split][case]
        cases[split][case] = (f, *edit(vt, g))
        with pytest.raises(GraphNetError, match=f"{split} case {case}: {name} labels"):
            train(cases["training"], ico_topology(), TrainConfig(epochs=3, width=8),
                  validation=cases["validation"])

    def test_empty_dataset_rejected(self):
        with pytest.raises(GraphNetError, match="empty"):
            train([], ico_topology(), TrainConfig(), [])

    def test_log_csv(self, tmp_path):
        rng = np.random.default_rng(17)
        topo = ico_topology()
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, width=8)
        _, log = train(tiny_dataset(rng), topo, cfg, [])
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(lines) == 3


def trained_files(out, data, val, cfg):
    """The model.ckpt and train_log.csv bytes of one train, and its log."""
    params, log = train(data, ico_topology(), cfg, val)
    save_params(params, str(out / "model.ckpt"))
    log.to_csv(str(out / "train_log.csv"))
    return (out / "model.ckpt").read_bytes(), (out / "train_log.csv").read_bytes(), log


class TestTrainBytes:
    """The bytes one small fixed train writes, pinned by SHA-256.

    The digests were taken with numpy's bundled OpenBLAS on x86-64; a BLAS
    with other summation orders moves them, and then they must be re-taken
    from a commit whose training is trusted.
    """

    @pytest.mark.parametrize("n_val, ckpt_sha, log_sha", [
        (0, "e8eee6ab600e5a4eed5019754ff45521d3db7047447890afb6490ada21e80ddf",
         "b0d3241cf08401857d453106e086e930fcd95ad8b739b4e33ae24fc73c3aeea7"),
        # the best validation epoch is epoch 1 of 6, so this pins the kept copy
        (4, "dcac03cbed779fc744dc848606b9f6aef039e75be17b253ba3c7d7170539de62",
         "6168fb203a454a236638895f158ae48eafd7c658ddbb429e1ac93bc0fb15a9d6"),
    ], ids=["no-validation", "validation"])
    def test_files_keep_their_bytes(self, tmp_path, n_val, ckpt_sha, log_sha):
        rng = np.random.default_rng(16)
        data, val = tiny_dataset(rng, n=8), tiny_dataset(rng, n=n_val)
        cfg = TrainConfig(epochs=6, seed=4, learning_rate=1e-3, batch_size=4, width=8)
        ckpt, log_csv, _ = trained_files(tmp_path, data, val, cfg)
        assert (hashlib.sha256(ckpt).hexdigest(), hashlib.sha256(log_csv).hexdigest()) == (
            ckpt_sha, log_sha
        )


class TestTrainWorkers:
    """train runs each batch on min(CPUs, batch size, training cases) processes,
    the calling one among them, and writes the same bytes on any number.

    Each test trains on the main thread, so nothing forks from a process with
    a second thread.
    """

    @pytest.mark.parametrize("n_train, n_val, batch_size, epochs, stops", [
        (8, 4, 4, 20, True),
        (8, 0, 4, 6, False),
        (9, 3, 4, 5, None),
        (10, 5, 8, 4, None),
    ], ids=["validation-stops-early", "no-validation", "last-batch-of-one",
            "more-workers-than-cases"])
    def test_files_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, n_train,
                                                  n_val, batch_size, epochs, stops):
        rng = np.random.default_rng(16)
        data, val = tiny_dataset(rng, n=n_train), tiny_dataset(rng, n=n_val)
        cfg = TrainConfig(epochs=epochs, seed=0, learning_rate=1e-3, batch_size=batch_size,
                          width=8)
        forks = count_forks(monkeypatch)
        files = {}
        for cpus in (1, 2, 8):
            patch_cpus(monkeypatch, cpus)
            forks.clear()
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            *files[cpus], log = trained_files(out, data, val, cfg)
            assert len(forks) == min(cpus, batch_size, n_train) - 1, cpus
            assert_no_child_left()
            if stops is not None:
                assert (len(log.epochs) < epochs) == stops
        assert files[1] == files[2] == files[8]

    @pytest.mark.parametrize("cpus, batch_size, n_train, forks", [
        (1, 4, 9, 0), (2, 4, 9, 1), (8, 4, 9, 3), (8, 16, 3, 2), (8, 16, 1, 0),
    ])
    def test_one_process_per_cpu_capped_by_batch_and_cases(self, monkeypatch, cpus,
                                                           batch_size, n_train, forks):
        patch_cpus(monkeypatch, cpus)
        made = count_forks(monkeypatch)
        cfg = TrainConfig(epochs=1, batch_size=batch_size, width=8)
        train(tiny_dataset(np.random.default_rng(0), n=n_train), ico_topology(), cfg, [])
        assert len(made) == forks
        assert_no_child_left()

    @pytest.mark.parametrize("fault, message", [
        ("loss", "divergence at epoch 0"),
        ("gradient", "non-finite gradient at epoch 0"),
    ])
    def test_non_finite_case_on_a_worker_fails_as_on_one_cpu(self, tmp_path, monkeypatch,
                                                             fault, message):
        data = tiny_dataset(np.random.default_rng(16), n=8)
        cfg = TrainConfig(epochs=3, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        # the last case of the first batch, which a forked worker takes on 2 CPUs
        bad = data[np.random.default_rng(cfg.seed).permutation(len(data))[3]][0]
        computed_by = tmp_path / "computed_by"
        real = graphnet.backward

        def faulty(params, feats, *args):
            value, grads = real(params, feats, *args)
            if feats is bad:
                computed_by.write_text(str(os.getpid()))
                if fault == "loss":
                    value = np.nan
                else:
                    grads.global_w[0, 0] = np.inf
            return value, grads

        monkeypatch.setattr(graphnet, "backward", faulty)
        forks = count_forks(monkeypatch)
        for cpus in (1, 2):
            patch_cpus(monkeypatch, cpus)
            with pytest.raises(GraphNetError) as info:
                train(data, ico_topology(), cfg, [])
            assert str(info.value) == message
            assert_no_child_left()
        assert len(forks) == 1
        assert computed_by.read_text() == str(forks[0])

    def test_validation_runs_in_the_calling_process(self, tmp_path, monkeypatch):
        # a forked worker runs backward on its batch share and never forward
        patch_cpus(monkeypatch, 2)
        caller = os.getpid()
        real = graphnet.forward

        def caller_only(*args):
            if os.getpid() != caller:
                raise AssertionError("forward ran in a forked worker")
            return real(*args)

        rng = np.random.default_rng(16)
        data, val = tiny_dataset(rng, n=8), tiny_dataset(rng, n=4)
        cfg = TrainConfig(epochs=3, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        expect = trained_files(tmp_path, data, val, cfg)[:2]
        monkeypatch.setattr(graphnet, "forward", caller_only)
        forks = count_forks(monkeypatch)
        assert trained_files(tmp_path, data, val, cfg)[:2] == expect
        assert len(forks) == 1
        assert_no_child_left()

    def test_each_process_runs_blas_on_one_thread_while_forked(self, tmp_path, monkeypatch):
        had = _blas_threads(2)
        if had is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS")
        try:
            patch_cpus(monkeypatch, 2)
            seen = tmp_path / "seen"
            seen.mkdir()
            real = graphnet.backward

            def record(*args):
                # setting one thread returns the count each process runs
                (seen / str(os.getpid())).write_text(str(_blas_threads(1)))
                return real(*args)

            monkeypatch.setattr(graphnet, "backward", record)
            cfg = TrainConfig(epochs=1, batch_size=4, width=8)
            train(tiny_dataset(np.random.default_rng(0)), ico_topology(), cfg, [])
            assert sorted(p.read_text() for p in seen.iterdir()) == ["1", "1"]
            assert _blas_threads(had) == 2
        finally:
            _blas_threads(had)

    def test_killed_worker_named_by_its_exit_status(self, monkeypatch):
        patch_cpus(monkeypatch, 2)
        caller = os.getpid()
        real = graphnet.backward

        def killed_in_worker(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(graphnet, "backward", killed_in_worker)
        forks = count_forks(monkeypatch)
        cfg = TrainConfig(epochs=3, batch_size=4, width=8)
        status = f"exit status -{int(signal.SIGKILL)} and sent no report"
        with pytest.raises(RuntimeError, match=status):
            train(tiny_dataset(np.random.default_rng(0)), ico_topology(), cfg, [])
        assert len(forks) == 1
        assert_no_child_left()

    def test_interrupted_train_leaves_no_worker(self, monkeypatch):
        patch_cpus(monkeypatch, 2)
        caller = os.getpid()
        real = graphnet.backward

        def interrupt_caller(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(graphnet, "backward", interrupt_caller)
        forks = count_forks(monkeypatch)
        cfg = TrainConfig(epochs=3, batch_size=4, width=8)
        with pytest.raises(KeyboardInterrupt):
            train(tiny_dataset(np.random.default_rng(0)), ico_topology(), cfg, [])
        assert len(forks) == 1
        assert_no_child_left()


class TestClassifiers:
    """``evaluate``'s voting rules; each returns a case class (mass label 2 -> 2, 3 -> 4)."""

    def _volume(self, counts):
        """LabelVolume holding ``counts[label]`` voxels of each label."""
        total = sum(counts.values())
        side = int(np.ceil(total ** (1 / 3))) + 1
        data = np.zeros(side**3, dtype=np.uint8)
        pos = 0
        for lab, n in counts.items():
            data[pos : pos + n] = lab
            pos += n
        return LabelVolume(data.reshape(side, side, side), (1.0, 1.0, 1.0))

    def test_pv_majority(self):
        vol = self._volume({2: 10, 3: 4})
        assert classify_pv(vol, 1) == 2
        assert classify_pv(self._volume({2: 4, 3: 10}), 1) == 4

    def test_pv_threshold_returns_default(self):
        vol = self._volume({2: 3})
        assert classify_pv(vol, 5) == 1

    def test_pv_tie_to_lower_class(self):
        vol = self._volume({2: 6, 3: 6})
        assert classify_pv(vol, 1) == 2

    def test_pv_no_mass_voxels(self):
        vol = self._volume({0: 5})
        assert classify_pv(vol, 0) == 1

    def test_pv_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            classify_pv(self._volume({2: 2}), -1)

    def test_vv_majority(self):
        probs = np.zeros((10, 4))
        probs[:6, 2] = 1.0  # six vertices vote class 2
        probs[6:8, 3] = 1.0
        probs[8:, 0] = 1.0
        assert classify_vv(probs) == 2
        assert classify_vv(probs[:, [0, 1, 3, 2]]) == 4  # six votes for label 3

    def test_vv_no_mass_votes(self):
        probs = np.zeros((5, 4))
        probs[:, 0] = 1.0
        assert classify_vv(probs) == 1

    def test_vv_tie_lower_class(self):
        probs = np.zeros((4, 4))
        probs[:2, 2] = 1.0
        probs[2:, 3] = 1.0
        assert classify_vv(probs) == 2

    def test_gc_one_based_argmax(self):
        assert classify_gc(np.array([0.1, 0.2, 0.6, 0.1])) == 3
        assert classify_gc(np.array([0.9, 0.05, 0.05])) == 1

    def test_gc_tie_lower_class(self):
        assert classify_gc(np.array([0.4, 0.4, 0.2])) == 1


class TestLayout:
    """One flat block holds every weight: the named arrays, the checkpoint payload
    and train's shared memory all use its layout."""

    def test_tensors_are_views_of_flat_in_checkpoint_order(self):
        params = small_params(np.random.default_rng(25))
        start = params.flat.__array_interface__["data"][0]
        offset = 0
        for t in params.tensors():
            assert t.flags.c_contiguous and np.shares_memory(t, params.flat)
            assert t.__array_interface__["data"][0] == start + params.flat.itemsize * offset
            offset += t.size
        assert offset == params.flat.size
        params.global_w[-1, -1] = 7.0
        assert params.flat[-params.k_global - 1] == 7.0

    def test_gradient_shares_the_layout(self):
        rng = np.random.default_rng(26)
        params, feats, vt, gt = random_instance(rng, ico_topology())
        _, grads = backward(params, feats, ico_topology(), vt, gt, 0.1, 0.1)
        assert grads.flat.shape == params.flat.shape
        for g, t in zip(grads.tensors(), params.tensors()):
            assert g.shape == t.shape and np.shares_memory(g, grads.flat)

    def test_payload_is_flat(self, tmp_path):
        params = small_params(np.random.default_rng(27))
        save_params(params, str(tmp_path / "m.ckpt"))
        _, payload = (tmp_path / "m.ckpt").read_bytes().split(b"end\n", 1)
        assert payload == params.flat.tobytes()

    def test_loaded_params_are_writable_and_own_their_memory(self, tmp_path):
        params = small_params(np.random.default_rng(28))
        save_params(params, str(tmp_path / "m.ckpt"))
        back = load_params(str(tmp_path / "m.ckpt"))
        assert back.flat.flags.writeable and back.flat.flags.owndata
        assert all(np.shares_memory(t, back.flat) for t in back.tensors())
        back.vertex_b[0] += 1.0
        assert np.array_equal(back.flat, np.concatenate([t.ravel() for t in back.tensors()]))


class TestFloat32:
    """The network computes in float32, its parameters' dtype; a float64 copy of the
    same weights is the reference it must agree with."""

    # |float32 - float64| <= F32_TOL * the largest |float64| value of the same array:
    # about 800 float32 epsilons, for rounding through six layers and two heads
    F32_TOL = 1e-4

    def assert_agree(self, got, expect):
        assert got.dtype == np.float32 and expect.dtype == np.float64
        assert np.abs(got - expect).max() <= self.F32_TOL * np.abs(expect).max()

    def test_every_array_of_forward_and_backward_is_float32(self):
        rng = np.random.default_rng(30)
        topo = ico_topology()
        params, feats, vt, gt = random_instance(rng, topo)
        assert topo.adjacency.dtype == np.float32
        cache = graphnet._forward_cache(params, feats, topo)
        arrays = [a for v in cache.values() if isinstance(v, list) for a in v
                  if isinstance(a, np.ndarray)]
        arrays += [v for v in cache.values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3 * params.n_layers + 4
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        _, grads = backward(params, feats, topo, vt.astype(np.float32), gt.astype(np.float32),
                            0.1, 0.1)
        assert grads.flat.dtype == np.float32

    def test_train_keeps_every_block_in_float32(self, monkeypatch, tmp_path):
        # train's blocks as they are when the workers fork: the shared parameters
        # and gradient sum, the velocity, the best copy and the one-hot targets
        seen = {}
        real = graphnet.forked

        def record(*args):
            seen.update(sys._getframe(1).f_locals)
            return real(*args)

        monkeypatch.setattr(graphnet, "forked", record)
        rng = np.random.default_rng(16)
        cfg = TrainConfig(epochs=2, seed=0, learning_rate=1e-3, batch_size=4, width=8)
        params, _ = train(tiny_dataset(rng, n=8), ico_topology(), cfg, tiny_dataset(rng, n=4))
        blocks = [seen["params"].flat, seen["grad_sum"], seen["velocity"], seen["best"],
                  params.flat]
        for _, vt, gt in seen["train_cases"] + seen["val_cases"]:
            blocks += [vt, gt]
        assert {b.dtype for b in blocks} == {np.dtype(np.float32)}
        save_params(params, str(tmp_path / "m.ckpt"))
        assert load_params(str(tmp_path / "m.ckpt")).flat.dtype == np.float32

    def test_forward_agrees_with_float64(self):
        rng = np.random.default_rng(31)
        topo = ico_topology()
        for _ in range(5):
            params = small_params(rng)
            params.input_mean = rng.normal(size=5)
            params.input_std = rng.uniform(0.5, 2.0, size=5)
            feats = rng.normal(size=(12, 5)) * 10
            for got, expect in zip(forward(params, feats, topo),
                                   forward(float64_copy(params), feats, topo)):
                self.assert_agree(got, expect)

    def test_backward_agrees_with_float64(self):
        rng = np.random.default_rng(32)
        topo = ico_topology()
        for _ in range(5):
            params, feats, vt, gt = random_instance(rng, topo)
            value, grads = backward(params, feats, topo, vt.astype(np.float32),
                                    gt.astype(np.float32), 0.1, 0.1)
            value64, grads64 = backward(float64_copy(params), feats, topo, vt, gt, 0.1, 0.1)
            assert abs(value - value64) <= self.F32_TOL * abs(value64)
            for got, expect in zip(grads.tensors(), grads64.tensors()):
                self.assert_agree(got, expect)


class TestCheckpoint:
    def test_header_names_dtype_and_global_head_inputs(self, tmp_path):
        params = small_params(np.random.default_rng(33))
        save_params(params, str(tmp_path / "m.ckpt"))
        header, payload = (tmp_path / "m.ckpt").read_bytes().split(b"end\n", 1)
        lines = header.decode().splitlines()
        # 4 region means and 12 vertices, each 8 wide
        assert "global_inputs 128" in lines and lines[-1] == "dtype f32"
        assert len(payload) == 4 * params.flat.size

    def test_float64_checkpoint_rejected(self, tmp_path):
        # the format before float32: no dtype line and an <f8 payload
        params = small_params(np.random.default_rng(34))
        p = tmp_path / "old.ckpt"
        save_params(params, str(p))
        header, _ = p.read_bytes().split(b"end\n", 1)
        p.write_bytes(header.replace(b"dtype f32\n", b"") + b"end\n"
                      + params.flat.astype("<f8").tobytes())
        with pytest.raises(GraphNetError,
                           match=r"old\.ckpt: not a float32 checkpoint \(no 'dtype f32' line\)"):
            load_params(str(p))

    def test_header_key_given_twice_rejected(self, tmp_path):
        # taking the last copy would load the network with seed 99
        params = small_params(np.random.default_rng(36))
        p = tmp_path / "bad.ckpt"
        save_params(params, str(p))
        header, payload = p.read_bytes().split(b"end\n", 1)
        lines = header.decode().splitlines()
        first = next(n for n, line in enumerate(lines, 1) if line.startswith("seed "))
        p.write_bytes(header + b"seed 99\nend\n" + payload)
        with pytest.raises(GraphNetError) as err:
            load_params(str(p))
        assert str(err.value) == f"{p}:{len(lines) + 1}: seed is already set on line {first}"

    def test_global_inputs_of_another_length_rejected(self, tmp_path):
        params = small_params(np.random.default_rng(35))
        p = tmp_path / "bad.ckpt"
        save_params(params, str(p))
        p.write_bytes(p.read_bytes().replace(b"global_inputs 128\n", b"global_inputs 120\n"))
        with pytest.raises(GraphNetError, match=r"bad\.ckpt: malformed checkpoint: "
                           r"global_inputs 120, the widths and regions give 128"):
            load_params(str(p))

    def test_widths_of_another_layer_count_rejected(self, tmp_path):
        params = small_params(np.random.default_rng(29))
        p = tmp_path / "bad.ckpt"
        save_params(params, str(p))
        p.write_bytes(p.read_bytes().replace(b"layers 6\n", b"layers 5\n"))
        with pytest.raises(GraphNetError,
                           match=r"bad\.ckpt: malformed checkpoint: .*5 layers take 6 widths, not 7"):
            load_params(str(p))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        params = small_params(rng)
        params.input_mean = rng.normal(size=5)
        params.input_std = rng.uniform(0.5, 2.0, size=5)
        path = str(tmp_path / "m.ckpt")
        save_params(params, path)
        back = load_params(path)
        for a, b in zip(params.tensors(), back.tensors()):
            assert np.array_equal(a, b)
        assert np.array_equal(back.input_mean, params.input_mean)
        assert np.array_equal(back.input_std, params.input_std)
        assert back.region_counts == params.region_counts
        assert back.seed == params.seed

    def test_round_trip_without_standardization(self, tmp_path):
        # a new network standardizes by the identity, and saves it like any other
        rng = np.random.default_rng(19)
        params = small_params(rng)
        path = str(tmp_path / "m.ckpt")
        save_params(params, path)
        back = load_params(path)
        assert np.array_equal(back.input_mean, np.zeros(5))
        assert np.array_equal(back.input_std, np.ones(5))
        for a, b in zip(params.tensors(), back.tensors()):
            assert np.array_equal(a, b)

    def test_checkpoint_without_standardization_rejected(self, tmp_path):
        params = small_params(np.random.default_rng(23))
        p = tmp_path / "bad.ckpt"
        save_params(params, str(p))
        text = p.read_bytes()
        p.write_bytes(re.sub(rb"input_(mean|std) [^\n]*\n", b"", text))
        with pytest.raises(GraphNetError, match=r"bad\.ckpt: malformed checkpoint: .*input_mean"):
            load_params(str(p))

    @pytest.mark.parametrize("field", ["input_mean", "input_std"])
    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_standardization_of_another_width_rejected(self, tmp_path, field, change):
        params = small_params(np.random.default_rng(24))
        p = tmp_path / "bad.ckpt"
        save_params(params, str(p))

        def resize(m):
            values = m.group(2).split()
            values = values[:change] if change < 0 else values + values[-change:]
            return m.group(1) + b" ".join(values) + b"\n"

        pattern = rb"(" + field.encode() + rb" )([^\n]*)\n"
        p.write_bytes(re.sub(pattern, resize, p.read_bytes(), count=1))
        width = 5 + change
        with pytest.raises(
            GraphNetError,
            match=rf"bad\.ckpt: malformed checkpoint: {field} holds {width} values, "
            r"the input width is 5$",
        ):
            load_params(str(p))

    def test_same_predictions_after_reload(self, tmp_path):
        rng = np.random.default_rng(20)
        topo = ico_topology()
        params = small_params(rng)
        feats = rng.normal(size=(12, 5))
        save_params(params, str(tmp_path / "m.ckpt"))
        back = load_params(str(tmp_path / "m.ckpt"))
        vp1, gp1 = forward(params, feats, topo)
        vp2, gp2 = forward(back, feats, topo)
        assert np.array_equal(vp1, vp2) and np.array_equal(gp1, gp2)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"layers 6\nwidths 5 8")
        with pytest.raises(GraphNetError, match="truncated"):
            load_params(str(p))

    def test_extra_payload_rejected(self, tmp_path):
        # k_global extra values would read as a global head one row longer
        params = small_params(np.random.default_rng(21))
        p = tmp_path / "bad.ckpt"
        save_params(params, str(p))
        with open(p, "ab") as f:
            f.write(np.zeros(params.k_global, dtype="<f4").tobytes())
        with pytest.raises(GraphNetError, match=r"bad\.ckpt: payload holds"):
            load_params(str(p))

    def test_missing_header_field_rejected(self, tmp_path):
        params = small_params(np.random.default_rng(22))
        p = tmp_path / "bad.ckpt"
        save_params(params, str(p))
        p.write_bytes(p.read_bytes().replace(b"regions 3 3 3 3\n", b""))
        with pytest.raises(GraphNetError, match=r"bad\.ckpt: .*regions"):
            load_params(str(p))
