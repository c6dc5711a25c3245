import filecmp
import io
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatomesh import pipeline
from anatomesh.cli import main
from anatomesh.config import ConfigError, load_config
from anatomesh.graphnet import TrainConfig
from anatomesh.mesh import MeshTopology
from anatomesh.meshfit import FitConfig
from anatomesh.synth import SynthConfig
from anatomesh.volume import LabelVolume, ProbVolume, save_volume

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
        assert cfg.get("train", "epochs") == 3
        assert cfg.get("synth", "n_train") == 400  # untouched default

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
        assert cfg.get("synth", "noise") == 0.1
        assert cfg.get("synth", "class_mix") == (0.5, 0.5, 0.0, 0.0)

    def test_non_integer_rejected(self, tmp_path):
        for value in ("2.9", "2.0", "1e3", "two"):
            with pytest.raises(ConfigError, match=r"\[train\] epochs"):
                load_config(write_config(tmp_path, f"[train]\nepochs = {value}\n"))

    @pytest.mark.parametrize("text, match", [
        ("[synth]\nnoise = abc\n", r"run\.cfg:2: \[synth\] noise must be a float, got 'abc'"),
        ("[synth]\nclass_mix = a b\n", r"run\.cfg:2: \[synth\] class_mix must be 4 floats"),
        ("[synth]\nclass_mix = 0.5 0.5\n", r"\[synth\] class_mix must be 4 floats"),
        ("[fit]\n\nmax_iters = 6.5\n", r"run\.cfg:3: \[fit\] max_iters must be an integer"),
    ], ids=["noise", "class_mix-letters", "class_mix-short", "max_iters"])
    def test_bad_value_rejected_at_load(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("section, line", [
        # the 156-vertex region split is fixed; [regions] counts was never read
        ("regions", "counts = 48 42 45 21"),
        # features are always zone means
        ("pool", "pooling = mean"),
        # the PV threshold is always chosen on the validation split
        ("classify", "pv_threshold = auto"),
    ], ids=["regions", "pool", "classify"])
    def test_region_counts_key_rejected(self, tmp_path, section, line):
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
            load_config(write_config(tmp_path, f"[{section}]\n{line}\n"))

    @pytest.mark.parametrize("fraction", ["1.5", "1.0", "-0.5", "nan"])
    def test_val_fraction_outside_unit_interval_rejected(self, tmp_path, fraction):
        with pytest.raises(ConfigError, match=r"run\.cfg:2: \[train\] val_fraction must be in \[0, 1\)"):
            load_config(write_config(tmp_path, f"[train]\nval_fraction = {fraction}\n"))

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", "0"),
        ("train", "epochs", "-1"),
        ("synth", "n_train", "0"),
        ("synth", "noise", "nan"),
        ("synth", "noise", "0.5"),
        ("synth", "noise", "-0.1"),
        ("synth", "n_test", "0"),
        ("synth", "seed", "-1"),
        ("synth", "grid", "31"),
        ("synth", "class_mix", "0.5 0.5 0.5 0.5"),
        ("synth", "class_mix", "1.5 -0.5 0 0"),
        ("synth", "class_mix", "nan 0.25 0.25 0.25"),
        ("synth", "bend", "nan"),
        ("synth", "bend", "inf"),
        ("synth", "bend", "-inf"),
        ("fit", "lambda1", "0"),
        ("fit", "lambda1", "nan"),
        ("fit", "lambda2", "-0.01"),
        ("fit", "step_size", "0"),
        ("fit", "tol", "nan"),
        ("fit", "max_iters", "0"),
        ("fit", "prototype_cases", "0"),
        ("train", "eta1", "nan"),
        ("train", "eta2", "-0.1"),
        ("train", "learning_rate", "-1"),
        ("train", "learning_rate", "nan"),
        ("train", "momentum", "1.5"),
        ("train", "momentum", "1.0"),
        ("train", "momentum", "-0.1"),
        ("train", "momentum", "nan"),
        ("train", "width", "0"),
        ("train", "seed", "-1"),
    ])
    def test_value_out_of_range_rejected_at_load(self, tmp_path, section, key, value):
        path = write_config(tmp_path, f"# comment\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:3: [{section}] {key} must be ")) as info:
            load_config(path)
        assert str(info.value).endswith(f", got '{value}'")

    def test_empty_file_gives_the_library_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg.synth == SynthConfig()
        assert cfg.fit == FitConfig()
        assert cfg.train == TrainConfig()

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
        work.mkdir()
        save_mesh(template, str(work / "prototype.obj"))
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

    def test_fit_error_names_the_case(self, tmp_path, capsys, template):
        from anatomesh.mesh import save_mesh
        from anatomesh.volume import save_volume

        work = tmp_path / "w"
        case = work / "cases" / "train_0000"
        case.mkdir(parents=True)
        save_mesh(template, str(work / "prototype.obj"))
        empty = np.zeros((16, 16, 16), dtype=np.uint8)
        save_volume(LabelVolume(empty, (1.0, 1.0, 1.0)), str(case / "labels"))
        rc = main(["fit-mesh", "--config", write_config(tmp_path), "--out", str(work)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("anatomesh: fit-mesh: train_0000: "
                       "label 1 has no surface voxels in target\n")

    @pytest.mark.parametrize("stage", ["render-zones", "pool-features"])
    def test_changed_face_names_the_case_and_file(self, pipeline_run, tmp_path, capsys,
                                                  stage):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "train_0002", "fitted.obj")
        with open(path) as f:
            lines = f.readlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("f "))
        a, b, c = (int(v) for v in lines[i].split()[1:])
        lines[i] = f"f {a} {b} {next(v for v in range(1, 5) if v not in (a, b, c))}\n"
        with open(path, "w") as f:
            f.writelines(lines)
        assert main([stage, "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            f"anatomesh: {stage}: train_0002: {path}: "
            "faces or region counts differ from the prototype's\n"
        )

    @pytest.mark.parametrize("stage, case", [("train", "train_0003"), ("classify", "test_0001")])
    def test_bad_features_file_names_the_case_and_file(self, pipeline_run, tmp_path, capsys,
                                                       stage, case):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", case, "features.csv")
        with open(path, "w") as f:
            f.write("x,y\n" + "0.5,1.5\n" * 156)
        assert main([stage, "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            f"anatomesh: {stage}: {case}: {path}: 2 columns, expected 5 + 2K for K channels\n"
        )

    @pytest.mark.parametrize("case, name, edit, message", [
        ("train_0003", "features.csv",
         lambda lines: ["x,y,z,e,d,local_0,global_0\n"] + ["0.5," * 6 + "0.5\n"] * 156,
         "7 columns, the first case has 13"),
        ("train_0002", "vertex_labels.txt", lambda lines: lines[:150],
         "150 labels for 156 feature rows"),
    ], ids=["feature-width", "label-count"])
    def test_inconsistent_train_input_names_the_case_and_file(self, pipeline_run, tmp_path,
                                                              capsys, case, name, edit, message):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", case, name)
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(edit(lines))
        assert main(["train", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == f"anatomesh: train: {case}: {path}: {message}\n"

    def test_prototype_error_names_the_case(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "train_0001", "labels.hdr")
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(line for line in lines if not line.startswith("kind"))
        assert main(["build-prototype", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            f"anatomesh: build-prototype: train_0001: malformed header {path}: 'kind'\n"
        )

    def test_eval_error_names_the_case(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "test_0002", "probs.raw")  # a case with a mass
        size = os.path.getsize(path)
        with open(path, "wb") as f:
            f.write(bytes(size))  # every probability 0
        assert main(["eval", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err.startswith(
            "anatomesh: eval: test_0002: probability rows must sum to 1"
        )

    def test_classify_network_error_names_the_case(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "test_0002", "features.csv")
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines[:-6])  # the header and 150 of the 156 vertex rows
        assert main(["classify", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            "anatomesh: classify: test_0002: 150 feature rows do not match the mesh's "
            "156 vertices\n"
        )

    def test_synth_error_names_the_case_and_keys(self, tmp_path, capsys):
        demo = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.cfg")
        with open(demo) as f:
            text = f.read().replace("[synth]\n", "[synth]\nbend = 100\n")
        rc = main(["pipeline", "--config", write_config(tmp_path, text),
                   "--out", str(tmp_path / "w")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "anatomesh: pipeline: train_0000: case generation failed after 10 retries: "
            "generated organ clips the grid boundary: [synth] bend = 100 does not fit "
            "[synth] grid = 40\n"
        )

    def test_bad_value_fails_before_any_stage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG + "learning_rate = abc\n")
        work = tmp_path / "w"
        rc = main(["synth-gen", "--config", cfg, "--out", str(work)])
        assert rc == 1
        assert "[train] learning_rate must be a float, got 'abc'" in capsys.readouterr().err
        assert not (work / "cases").exists()

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
        with open(os.path.join(out, "predictions.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("# pv_threshold ")
        assert lines[1] == "case,truth,gc,vv,pv"
        assert len(lines) == 2 + 4
        for line in lines[2:]:
            name, truth, gc, vv, pv = line.split(",")
            assert name.startswith("test_")
            for v in (truth, gc, vv, pv):
                assert int(v) in (1, 2, 3, 4)

    def test_train_log_ends_at_first_perfect_validation_epoch(self, pipeline_run):
        cfg, out = pipeline_run
        with open(os.path.join(out, "train_log.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        accs = [float(line.split(",")[3]) for line in lines[1:]]
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(len(accs)))
        if 1.0 in accs:
            assert len(accs) == accs.index(1.0) + 1
        else:
            assert len(accs) == load_config(cfg).get("train", "epochs")

    def test_manifest_lists_all_stages(self, pipeline_run):
        cfg, out = pipeline_run
        with open(os.path.join(out, "manifest.txt")) as f:
            text = f.read()
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

        monkeypatch.setattr(pipeline, "load_volume", counted(pipeline.load_volume))
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

    def test_each_stage_builds_one_mesh_topology(self, tmp_path, monkeypatch):
        out = str(tmp_path / "run")
        cfg = write_config(tmp_path)
        for stage in ("synth-gen", "build-prototype"):
            assert main([stage, "--config", cfg, "--out", out]) == 0
        builds = []
        build = MeshTopology.__post_init__

        def counted(self):
            builds.append(1)
            build(self)

        monkeypatch.setattr(MeshTopology, "__post_init__", counted)
        for stage in ("fit-mesh", "render-zones", "pool-features", "train", "classify"):
            builds.clear()
            assert main([stage, "--config", cfg, "--out", out]) == 0
            assert len(builds) <= 1, stage


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


class TestCaseFileFormats:
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_vertex_labels_bytes_match_savetxt(self, values):
        labels = np.array(values, dtype=np.int64)
        expect = io.BytesIO()
        np.savetxt(expect, labels, fmt="%d")
        with tempfile.TemporaryDirectory() as tmp:
            pipeline._save_vertex_labels(labels, tmp)
            with open(os.path.join(tmp, "vertex_labels.txt"), "rb") as f:
                assert f.read() == expect.getvalue()

    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_segmentation_is_the_channel_argmax(self, dims, k, seed):
        # rows drawn from a few values, so that ties between channels are common
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 3, size=dims + (k,)).astype(np.float32)
        raw[raw.sum(axis=-1) == 0] = 1.0
        probs = ProbVolume(raw / raw.sum(axis=-1, keepdims=True), (1.0, 2.0, 1.0))
        with tempfile.TemporaryDirectory() as tmp:
            save_volume(probs, os.path.join(tmp, "probs"))
            seg = pipeline._load_segmentation(tmp)
        assert seg.spacing == probs.spacing
        assert np.array_equal(seg.data, probs.data.argmax(axis=-1))
