import filecmp
import os

import numpy as np
import pytest

from anatomesh import pipeline, synth
from anatomesh.cli import main
from anatomesh.config import ConfigError, load_config
from anatomesh.volume import LabelVolume

SMALL_CONFIG = """\
[synth]
n_train = 12
n_test = 4
seed = 0
grid = 40
noise = 0.15

[fit]
max_iters = 60
prototype_cases = 4

[train]
epochs = 4
batch_size = 4
width = 16
val_fraction = 0.25
"""


def write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def tree_digest(root):
    """Relative path -> file bytes, for whole-run comparisons."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = f.read()
    return out


class TestConfig:
    def test_defaults_without_file_sections(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "[train]\nepochs = 3\n"))
        assert cfg.get_int("train", "epochs") == 3
        assert cfg.get_int("synth", "n_train") == 400  # untouched default

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, "[train]\nlearningrate = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write_config(tmp_path, "[optimizer]\nlr = 1\n"))

    def test_key_outside_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            load_config(write_config(tmp_path, "epochs = 3\n"))

    def test_comments_and_floats(self, tmp_path):
        text = "[synth]\nnoise = 0.1  # light noise\nclass_mix = 0.5 0.5 0 0\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.get_float("synth", "noise") == 0.1
        assert cfg.get_floats("synth", "class_mix") == (0.5, 0.5, 0.0, 0.0)

    def test_non_integer_rejected(self, tmp_path):
        for value in ("2.9", "2.0", "1e3", "two"):
            cfg = load_config(write_config(tmp_path, f"[train]\nepochs = {value}\n"))
            with pytest.raises(ConfigError, match=r"\[train\] epochs"):
                cfg.get_int("train", "epochs")

    def test_region_counts_key_rejected(self, tmp_path):
        # the 156-vertex region split is fixed; [regions] counts was never read
        with pytest.raises(ConfigError, match=r"unknown section \[regions\]"):
            load_config(write_config(tmp_path, "[regions]\ncounts = 48 42 45 21\n"))

    def test_digest_tracks_content(self, tmp_path):
        a = load_config(write_config(tmp_path, "[train]\nepochs = 3\n"))
        b = load_config(write_config(tmp_path, "[train]\nepochs = 4\n"))
        assert a.digest != b.digest


class TestCliErrors:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        rc = main(["pipeline", "--config", "/no/such.cfg", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic
        assert "not found" in err

    def test_bad_stage_input_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        # train stage without any prior stage outputs
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "w")])
        assert rc == 1
        assert "anatomesh: train:" in capsys.readouterr().err

    def test_zone_error_names_the_case(self, tmp_path, capsys, template):
        from anatomesh.mesh import save_mesh
        from anatomesh.volume import save_volume

        work = tmp_path / "w"
        for name, extent in (("train_0000", slice(3, 13)), ("train_0001", slice(0, 0))):
            case = work / "cases" / name
            case.mkdir(parents=True)
            labels = np.zeros((16, 16, 16), dtype=np.uint8)
            labels[extent, extent, extent] = 1  # the second organ is empty
            save_volume(LabelVolume(labels, (1.0, 1.0, 1.0)), str(case / "labels"))
            save_mesh(template, str(case / "fitted.obj"))
        cfg = write_config(tmp_path)
        rc = main(["render-zones", "--config", cfg, "--out", str(work)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "anatomesh: render-zones: train_0001: organ mask is empty\n"

    def test_debug_reraises(self, tmp_path, capsys):
        argv = ["pipeline", "--config", "/no/such.cfg", "--out", str(tmp_path)]
        with pytest.raises(ConfigError, match="not found"):
            main(["--debug", *argv])
        assert capsys.readouterr().err == ""

    def test_debug_off_by_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "w")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("anatomesh: train:") and err.count("\n") == 1


class TestExportMesh:
    def test_round_trip(self, tmp_path, template):
        from anatomesh.mesh import load_mesh, save_mesh

        src = str(tmp_path / "a.obj")
        dst = str(tmp_path / "b.obj")
        save_mesh(template, src)
        assert main(["export-mesh", "--mesh", src, "--out", dst]) == 0
        back = load_mesh(dst)
        assert np.array_equal(back.faces, template.faces)
        # a second export of the loaded mesh is byte-identical
        dst2 = str(tmp_path / "c.obj")
        assert main(["export-mesh", "--mesh", dst, "--out", dst2]) == 0
        assert filecmp.cmp(dst, dst2, shallow=False)

    def test_missing_mesh_exits_one(self, tmp_path, capsys):
        rc = main(["export-mesh", "--mesh", "/no.obj", "--out", str(tmp_path / "o.obj")])
        assert rc == 1


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full small pipeline run shared by the checks below."""
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = write_config(tmp)
    out = str(tmp / "run")
    rc = main(["pipeline", "--config", cfg, "--out", out])
    assert rc == 0
    return cfg, out


class TestPipeline:
    def test_outputs_present(self, pipeline_run):
        _, out = pipeline_run
        for f in ("prototype.obj", "model.ckpt", "train_log.csv",
                  "predictions.csv", "manifest.txt"):
            assert os.path.exists(os.path.join(out, f)), f
        for f in ("report/report.txt", "report/management_confusion.csv",
                  "report/accuracy.csv"):
            assert os.path.exists(os.path.join(out, f)), f
        case = os.path.join(out, "cases", "train_0000")
        for f in ("labels.hdr", "labels.raw", "probs.hdr", "fitted.obj",
                  "trace.csv", "zones.hdr", "vertex_labels.txt", "features.csv"):
            assert os.path.exists(os.path.join(case, f)), f

    def test_case_counts(self, pipeline_run):
        _, out = pipeline_run
        dirs = os.listdir(os.path.join(out, "cases"))
        assert sum(d.startswith("train") for d in dirs) == 12
        assert sum(d.startswith("test") for d in dirs) == 4

    def test_predictions_well_formed(self, pipeline_run):
        _, out = pipeline_run
        lines = open(os.path.join(out, "predictions.csv")).read().splitlines()
        assert lines[0].startswith("# pv_threshold ")
        assert lines[1] == "case,truth,gc,vv,pv"
        assert len(lines) == 2 + 4
        for line in lines[2:]:
            name, truth, gc, vv, pv = line.split(",")
            assert name.startswith("test_")
            for v in (truth, gc, vv, pv):
                assert int(v) in (1, 2, 3, 4)

    def test_manifest_lists_all_stages(self, pipeline_run):
        cfg, out = pipeline_run
        text = open(os.path.join(out, "manifest.txt")).read()
        for stage in ("synth-gen", "build-prototype", "fit-mesh", "render-zones",
                      "pool-features", "train", "classify", "eval"):
            assert f"stage {stage}" in text
        assert load_config(cfg).digest in text

    def test_stagewise_equals_pipeline(self, pipeline_run, tmp_path):
        cfg, out = pipeline_run
        staged = str(tmp_path / "staged")
        for stage in ("synth-gen", "build-prototype", "fit-mesh", "render-zones",
                      "pool-features", "train", "classify", "eval"):
            assert main([stage, "--config", cfg, "--out", staged]) == 0
        a = tree_digest(out)
        b = tree_digest(staged)
        # manifests differ (stage lists); every data artifact is identical
        keys = set(a) - {"manifest.txt"}
        assert keys == set(b) - {"manifest.txt"}
        for k in sorted(keys):
            assert a[k] == b[k], k

    def test_rerun_bit_identical(self, pipeline_run, tmp_path):
        cfg, out = pipeline_run
        again = str(tmp_path / "again")
        assert main(["pipeline", "--config", cfg, "--out", again]) == 0
        a = tree_digest(out)
        b = tree_digest(again)
        assert set(a) == set(b)
        for k in sorted(a):
            assert a[k] == b[k], k


class TestCaseFiles:
    def test_synth_gen_replaces_cases(self, tmp_path):
        out = str(tmp_path / "run")
        for n_train, n_test in ((12, 4), (8, 2)):
            text = SMALL_CONFIG.replace("n_train = 12", f"n_train = {n_train}")
            text = text.replace("n_test = 4", f"n_test = {n_test}")
            assert main(["synth-gen", "--config", write_config(tmp_path, text),
                         "--out", out]) == 0
        dirs = sorted(os.listdir(os.path.join(out, "cases")))
        assert dirs == [f"test_{i:04d}" for i in range(2)] + [
            f"train_{i:04d}" for i in range(8)
        ]

    def test_each_stage_reads_a_case_volume_once(self, tmp_path, monkeypatch):
        out = str(tmp_path / "run")
        reads = []

        def counted(load):
            def load_volume(path):
                reads.append(os.path.relpath(path, out))
                return load(path)
            return load_volume

        for module in (pipeline, synth):
            monkeypatch.setattr(module, "load_volume", counted(module.load_volume))
        cfg = write_config(tmp_path)
        by_stage = {}
        for stage, _ in pipeline.STAGES:
            reads.clear()
            assert main([stage, "--config", cfg, "--out", out]) == 0
            assert len(reads) == len(set(reads)), stage
            by_stage[stage] = list(reads)
        assert by_stage["train"] == []
        assert not any(p.endswith("probs") for p in by_stage["build-prototype"])
        # 3 validation and 4 test cases, each predicted segmentation read once
        assert len(by_stage["classify"]) == 7


class TestPvThreshold:
    def test_select_pv_threshold(self):
        def volume(label, n):
            data = np.zeros(64, dtype=np.uint8)
            data[:n] = label
            return LabelVolume(data.reshape(4, 4, 4), (1.0, 1.0, 1.0))

        # small masses are noise here: only threshold 5 gets every case right;
        # truths are case classes, so blob voxels (2) mean class 2, tube (3) class 4
        vols = [volume(2, 3), volume(2, 8), volume(3, 2), volume(3, 9)]
        assert pipeline._select_pv_threshold(vols, [1, 2, 1, 4]) == 5
