import filecmp
import gc
import glob
import hashlib
import io
import multiprocessing
import os
import re
import shutil
import signal
import tempfile
import time
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatomesh import pipeline
from anatomesh.cli import main
from anatomesh.config import ConfigError, load_config
from anatomesh.graphnet import TrainConfig
from anatomesh.mesh import MeshTopology
from anatomesh.meshfit import FitConfig, FitError
from anatomesh.synth import SynthConfig, SynthError
from anatomesh.volume import LabelVolume, ProbVolume, load_volume, save_volume

from conftest import assert_no_child_left, count_forks, patch_cpus
from test_synth import grown_box

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


def one_hot_probs(labels):
    """Probabilities whose channel argmax, the predicted segmentation, is ``labels``."""
    return ProbVolume(np.eye(2, dtype=np.float32)[labels], (1.0, 1.0, 1.0))


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
        assert cfg.train.epochs == 3
        assert cfg.synth.n_train == 400  # untouched default

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
        assert cfg.synth.noise == 0.1
        assert cfg.synth.class_mix == (0.5, 0.5, 0.0, 0.0)

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
        assert cfg.synth.n_train == 400
        assert cfg.train.width == 64

    @pytest.mark.parametrize("make, rule", [
        (lambda: SynthConfig(n_train=0), "n_train must be at least 1"),
        (lambda: SynthConfig(n_test=0), "n_test must be at least 1"),
        (lambda: SynthConfig(seed=-1), "seed must be at least 0"),
        (lambda: FitConfig(prototype_cases=0), "prototype_cases must be at least 1"),
        (lambda: TrainConfig(width=0), "width must be at least 1"),
        (lambda: TrainConfig(val_fraction=1.0), r"val_fraction must be in \[0, 1\)"),
        (lambda: TrainConfig(val_fraction=-0.5), r"val_fraction must be in \[0, 1\)"),
        (lambda: TrainConfig(val_fraction=float("nan")), r"val_fraction must be in \[0, 1\)"),
    ], ids=["n_train", "n_test", "synth-seed", "prototype_cases", "width",
            "val_fraction-1", "val_fraction-negative", "val_fraction-nan"])
    def test_settings_class_holds_the_run_level_rule(self, make, rule):
        with pytest.raises((ValueError, SynthError), match=f"^{rule}$"):
            make()

    def test_key_set_twice_rejected(self, tmp_path):
        # [synth] seed and [train] seed are two keys: line 7 loads
        path = write_config(tmp_path, "[train]\nepochs = 3\n\n[synth]\nseed = 1\n"
                                      "[train]\nseed = 2\nepochs = 5\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:8: [train] epochs is already set on line 2")):
            load_config(path)

    def test_file_that_is_not_utf8_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"# comment\n[train]\nepochs = 3\xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: not UTF-8 text")):
            load_config(str(path))

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

    def test_no_training_case_left(self, tmp_path, capsys):
        work = tmp_path / "w"
        for name in ("train_0000", "train_0001"):
            (work / "cases" / name).mkdir(parents=True)
        text = SMALL_CONFIG.replace("n_train = 12", "n_train = 2").replace(
            "val_fraction = 0.25", "val_fraction = 0.75")
        rc = main(["train", "--config", write_config(tmp_path, text), "--out", str(work)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "anatomesh: train: [train] val_fraction = 0.75 leaves no training case: "
            "2 of the 2 train cases ([synth] n_train = 2) are for validation\n"
        )

    def test_pipeline_refuses_a_split_without_training_case_before_synth_gen(
        self, tmp_path, capsys
    ):
        work = tmp_path / "w"
        text = SMALL_CONFIG.replace("n_train = 12", "n_train = 2").replace(
            "val_fraction = 0.25", "val_fraction = 0.75")
        rc = main(["pipeline", "--config", write_config(tmp_path, text), "--out", str(work)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "anatomesh: pipeline: [train] val_fraction = 0.75 leaves no training case: "
            "2 of the 2 train cases ([synth] n_train = 2) are for validation\n"
        )
        assert not (work / "cases").exists()

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
            labels[extent, extent, extent] = 1  # the second segmented organ is empty
            save_volume(one_hot_probs(labels), str(case / "probs"))
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
        empty = np.zeros((16, 16, 16), dtype=np.uint8)  # a segmentation without organ
        save_volume(one_hot_probs(empty), str(case / "probs"))
        rc = main(["fit-mesh", "--config", write_config(tmp_path), "--out", str(work)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("anatomesh: fit-mesh: train_0000: "
                       "the organ has no surface voxels in target\n")

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

    @pytest.mark.parametrize("stage, edit, message", [
        ("render-zones", "face index", "face indices out of range"),
        ("fit-mesh", "region count",
         "region counts (47, 42, 45, 21) do not sum to vertex count 156"),
    ])
    def test_damaged_prototype_names_the_file(self, pipeline_run, tmp_path, capsys,
                                              stage, edit, message):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "prototype.obj")
        with open(path) as f:
            lines = f.readlines()
        if edit == "face index":
            lines[-1] = "f 1 2 157\n"
        else:
            lines[0] = lines[0].replace(" 1 ", " 2 ", 1)
        with open(path, "w") as f:
            f.writelines(lines)
        assert main([stage, "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == f"anatomesh: {stage}: {path}: {message}\n"

    @pytest.mark.parametrize("stage, case", [("train", "train_0003"), ("classify", "test_0001")])
    def test_bad_features_file_names_the_case_and_file(self, pipeline_run, tmp_path, capsys,
                                                       stage, case):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", case, "features.csv")
        with open(path, "w") as f:
            f.write("x,y\nglobal,1.5\n" + "0.5,1.5\n" * 156)
        assert main([stage, "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            f"anatomesh: {stage}: {case}: {path}: 2 columns, expected 5 + K for K channels\n"
        )

    @pytest.mark.parametrize("case, name, edit, message", [
        ("train_0003", "features.csv",
         lambda lines: ["x,y,z,e,d,local_0\n", "global,0.5\n"] + ["0.5," * 5 + "0.5\n"] * 156,
         "7 columns, the first case has 13"),
        ("train_0002", "vertex_labels.txt", lambda lines: lines[:150],
         "150 labels for 156 feature rows"),
        ("train_0003", "features.csv", lambda lines: lines[:2], "holds no rows"),
        ("train_0002", "vertex_labels.txt", lambda lines: [], "holds no rows"),
    ], ids=["feature-width", "label-count", "no-feature-rows", "no-labels"])
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as CI's demo steps run: a warning would fail train
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

    def test_prototype_case_without_organ_named(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "train_0001", "labels")
        labels = load_volume(path)
        save_volume(LabelVolume(np.zeros(labels.dims, np.uint8), labels.spacing), path)
        assert main(["build-prototype", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            "anatomesh: build-prototype: train_0001: a mask contains no organ voxels\n"
        )

    @pytest.mark.parametrize("stage, name, case", [
        ("fit-mesh", "probs.hdr", "train_0002"),
        ("train", "case.txt", "train_0002"),
        ("eval", "predictions.csv", None),
    ], ids=["volume-header", "case-file", "predictions"])
    def test_file_that_is_not_utf8_named(self, pipeline_run, tmp_path, capsys, stage, name,
                                         case):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, *(["cases", case] if case else []), name)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:14] + b"\xff" + data[15:])
        assert main([stage, "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            f"anatomesh: {stage}: {case + ': ' if case else ''}{path}: 'utf-8' codec can't "
            "decode byte 0xff in position 14: invalid start byte\n"
        )

    def test_eval_error_names_the_case(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "test_0002", "probs.raw")  # a case with a mass
        box = load_volume(path).box
        mask = -(-np.prod([s.stop - s.start for s in box]) // 8)
        with open(path, "rb") as f:
            payload = f.read()
        with open(path, "wb") as f:
            f.write(payload[:mask] + bytes(len(payload) - mask))  # every stored probability 0
        assert main(["eval", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err.startswith(
            f"anatomesh: eval: test_0002: {path}: probability rows must sum to 1"
        )

    @pytest.mark.parametrize("edit, line, message", [
        (lambda rows: rows[:2] + ["test_0000,2,2\n"] + rows[3:], 3,
         "expected the 5 fields case,truth,gc,vv,pv, got 3"),
        (lambda rows: rows[:3] + ["test_0001,9,1,1,1\n"] + rows[4:], 4,
         "class 9 is not in the class table"),
        (lambda rows: rows[:2] + ["test_0000,2,x,2,2\n"] + rows[3:], 3,
         "invalid literal for int() with base 10: 'x'"),
        (lambda rows: rows + ["\n"], None, "expected the 5 fields case,truth,gc,vv,pv, got 1"),
    ], ids=["short-row", "unknown-class", "not-an-integer", "trailing-blank-line"])
    def test_bad_prediction_row_names_the_file_and_line(self, pipeline_run, tmp_path, capsys,
                                                         edit, line, message):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "predictions.csv")
        with open(path) as f:
            rows = f.readlines()
        with open(path, "w") as f:
            f.writelines(edit(rows))
        line = line or len(rows) + 1
        assert main(["eval", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == f"anatomesh: eval: {path}:{line}: {message}\n"

    def test_prediction_file_without_rows_named(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "predictions.csv")
        with open(path) as f:
            header = f.readlines()[:2]
        with open(path, "w") as f:
            f.writelines(header)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as CI's demo steps run
            assert main(["eval", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == f"anatomesh: eval: {path}: holds no rows\n"

    def test_classify_network_error_names_the_case(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "test_0002", "features.csv")
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines[:-6])  # the header, the global line and 150 of 156 rows
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


class TestGcFreeze:
    """main freezes the objects alive before the command and unfreezes them after it."""

    @pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
    def test_stage_runs_frozen_and_main_unfreezes(self, tmp_path, monkeypatch, fails):
        from anatomesh import cli

        seen = []

        def stage(cfg, out_dir):
            seen.append(gc.get_freeze_count())
            if fails:
                raise SynthError("organ unplaceable")

        monkeypatch.setattr(cli, "STAGES", (("synth-gen", stage),))
        argv = ["synth-gen", "--config", write_config(tmp_path), "--out", str(tmp_path / "w")]
        assert main(argv) == int(fails)
        assert len(seen) == 1 and seen[0] > 0
        assert gc.get_freeze_count() == 0


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
            assert len(accs) == load_config(cfg).train.epochs

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

    def test_probability_files_hold_the_grown_box(self, pipeline_run):
        _, out = pipeline_run
        for d in pipeline._case_dirs(out, "train", "test"):
            labels = load_volume(os.path.join(d, "labels"))
            probs = load_volume(os.path.join(d, "probs"))
            assert probs.dims == labels.dims
            assert probs.box == grown_box(labels) != tuple(slice(0, n) for n in labels.dims)

    def test_classify_keeps_each_validation_count_not_its_volume(
        self, pipeline_run, tmp_path, monkeypatch
    ):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        counted, searched = [], []
        count, search = pipeline.mass_counts, pipeline.select_pv_threshold
        monkeypatch.setattr(pipeline, "mass_counts", lambda seg: counted.append(1) or count(seg))
        monkeypatch.setattr(
            pipeline, "select_pv_threshold",
            lambda counts, truths: searched.append(counts) or search(counts, truths),
        )
        pipeline.stage_classify(load_config(cfg), work)
        _, val_dirs = pipeline._split_train(load_config(cfg), work)
        assert len(counted) == len(val_dirs) > 0
        [counts] = searched
        expect = [count(pipeline._load_segmentation(d)) for d in val_dirs]
        assert [c.tolist() for c in counts] == [c.tolist() for c in expect]
        assert filecmp.cmp(os.path.join(out, "predictions.csv"),
                           os.path.join(work, "predictions.csv"), shallow=False)

    def test_eval_keeps_each_mass_score_not_its_masks(self, pipeline_run, tmp_path,
                                                      monkeypatch):
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        tables = []
        table = pipeline.detection_table
        monkeypatch.setattr(pipeline, "detection_table",
                            lambda cases: tables.append(cases) or table(cases))
        pipeline.stage_eval(load_config(cfg), work)
        [cases] = tables
        assert cases and all(
            type(d) is float and type(hit) is bool and type(c) is int for d, hit, c in cases
        )
        assert filecmp.cmp(os.path.join(out, "report", "detection_table.csv"),
                           os.path.join(work, "report", "detection_table.csv"), shallow=False)

    def test_rerun_bit_identical(self, pipeline_run, tmp_path):
        cfg, out = pipeline_run
        again = str(tmp_path / "again")
        assert main(["pipeline", "--config", cfg, "--out", again]) == 0
        a = tree_digest(out)
        b = tree_digest(again)
        assert set(a) == set(b)
        for k in sorted(a):
            assert a[k] == b[k], k

    def test_rerun_without_a_mass_case_leaves_only_its_own_report(self, pipeline_run, tmp_path):
        _, out = pipeline_run
        work = str(tmp_path / "w")
        shutil.copytree(out, work)
        report = os.path.join(work, "report")
        assert "detection_table.csv" in os.listdir(report)
        no_mass = SMALL_CONFIG.replace("noise", "class_mix = 1 0 0 0\nnoise")
        assert main(["pipeline", "--config", write_config(tmp_path, no_mass), "--out", work]) == 0
        assert sorted(os.listdir(report)) == [
            "accuracy.csv", "management_confusion.csv", "report.txt", "surgery_vs_rest.csv"
        ]


class TestStageBytes:
    """The bytes the geometry and decision stages write on ``SMALL_CONFIG``, pinned by
    SHA-256: one digest per file kind, over its files in sorted relative-path order.

    These stages have no other cross-commit pin, and ``_seed_voxels`` leaves
    exact distance ties to cKDTree's result order, which a scipy upgrade could
    change. ``predictions.csv`` and ``report/*`` follow the trained network, so
    they carry ``TestTrainBytes``' caveat: the digests were taken with numpy's
    bundled OpenBLAS on x86-64, and a BLAS with other summation orders moves
    them.
    """

    DIGESTS = {
        "prototype.obj": "93585c0339213a840eb64e15d5575a1432ed80b8b703059d718eb0106784f31c",
        "cases/*/fitted.obj": "bf44daac91f5c3e9c20d5afbc705e5a2b67d913d93df8f8593d5bd61e1f6559a",
        "cases/*/trace.csv": "042b4d3b2350ca1f86b72478b219e1185b17c8aad4b60cbe5e9059ce4bfb878c",
        "cases/*/zones.*": "da05cd0479c658cbc010e91825e6a34bdea741444931f56dcb41b005b2c09af7",
        "cases/*/vertex_labels.txt":
            "2a72774b15dc996d5fbbad80bb023d52b78d8bcf1e98b8ed3b52d658946cb7cd",
        "cases/*/features.csv": "d0692bb1088cbbf4f8d938e4e16c0c58e308666e59b2818d807058e8b95f2990",
        "predictions.csv": "521fd83cfaa27013044fb94222a1c5fb8e0b3bbad6988c2574bc2ef7849059c7",
        "report/*": "f77202c83e36235c5b7cc43bf6b1334ee7f53e590669ca5b923d2d4d12d0f778",
    }

    @pytest.mark.parametrize("pattern", list(DIGESTS))
    def test_files_keep_their_bytes(self, pipeline_run, pattern):
        _, out = pipeline_run
        paths = sorted(os.path.relpath(p, out) for p in glob.glob(os.path.join(out, pattern)))
        assert paths
        digest = hashlib.sha256()
        for rel in paths:
            with open(os.path.join(out, rel), "rb") as f:
                data = f.read()
            digest.update(f"{rel} {len(data)}\n".encode() + data)
        assert digest.hexdigest() == self.DIGESTS[pattern]


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
        patch_cpus(monkeypatch, 1)  # a forked worker's reads would not reach this list
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

    def test_test_time_files_do_not_depend_on_the_truth(self, pipeline_run, tmp_path):
        # with every test case's mass erased from its labels.*, only the training
        # target vertex_labels.txt and eval's report may change
        cfg, out = pipeline_run
        work = str(tmp_path / "w")
        assert main(["synth-gen", "--config", cfg, "--out", work]) == 0
        erased = 0
        for d in pipeline._case_dirs(work, "test"):
            path = os.path.join(d, "labels")
            labels = load_volume(path)
            mass = np.isin(labels.data, pipeline.MASS_LABELS)
            erased += int(mass.sum())
            save_volume(LabelVolume(np.where(mass, 0, labels.data).astype(np.uint8),
                                    labels.spacing), path)
        assert erased
        for stage in ("build-prototype", "fit-mesh", "render-zones", "pool-features", "train",
                      "classify"):
            assert main([stage, "--config", cfg, "--out", work]) == 0
        for pattern in ("cases/test_*/fitted.obj", "cases/test_*/zones.*",
                        "cases/test_*/features.csv", "predictions.csv"):
            paths = sorted(os.path.relpath(p, work)
                           for p in glob.glob(os.path.join(work, pattern)))
            assert paths, pattern
            for rel in paths:
                assert filecmp.cmp(os.path.join(out, rel), os.path.join(work, rel),
                                   shallow=False), rel

    def test_work_directory_with_whole_grid_label_files(self, pipeline_run, tmp_path, capsys):
        # one case's labels.* as written before label volumes were boxed: no box or
        # stored line, and every voxel of the grid, w fastest
        cfg, out = pipeline_run
        work = str(tmp_path / "old")
        shutil.copytree(out, work)
        path = os.path.join(work, "cases", "train_0002", "labels")
        vol = load_volume(path)
        (w, h, d), (sx, sy, sz) = vol.dims, vol.spacing
        with open(path + ".hdr", "w") as f:
            f.write(f"dims {w} {h} {d}\nspacing {sx:.9g} {sy:.9g} {sz:.9g}\n"
                    "kind label\nchannels 1\ndtype u8\n")
        with open(path + ".raw", "wb") as f:
            f.write(vol.data.transpose(2, 1, 0).tobytes())
        # render-zones reads labels.* for the training target, each zone's largest label
        assert main(["render-zones", "--config", cfg, "--out", work]) == 1
        assert capsys.readouterr().err == (
            f"anatomesh: render-zones: train_0002: {path}.hdr: no 'box' or 'stored mask' line: "
            "the file predates this format; rerun synth-gen to write it again\n"
        )

    def test_each_stage_builds_one_mesh_topology(self, tmp_path, monkeypatch):
        patch_cpus(monkeypatch, 1)  # a forked worker's builds would not reach this list
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


class TestCaseWorkers:
    """synth-gen, fit-mesh, render-zones and pool-features run their cases on
    one process per CPU, capped at the case count; the calling process is one.

    Each stage runs on the test's main thread, so nothing forks from a
    process with a second thread.
    """

    def _config(self, tmp_path, n_train, n_test):
        text = SMALL_CONFIG.replace("n_train = 12", f"n_train = {n_train}")
        text = text.replace("n_test = 4", f"n_test = {n_test}").replace("grid = 40", "grid = 32")
        return load_config(write_config(tmp_path, text))

    def test_synth_files_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, 4, 1)
        forks = count_forks(monkeypatch)
        trees = {}
        for cpus, workers in ((1, 1), (8, 5)):
            patch_cpus(monkeypatch, cpus)
            forks.clear()
            out = str(tmp_path / f"cpus{cpus}")
            pipeline.stage_synth(cfg, out)
            # the calling process is one worker: 8 CPUs and 5 cases make 4 forks
            assert len(forks) == workers - 1, cpus
            assert_no_child_left()
            trees[cpus] = tree_digest(out)
        assert trees[1] == trees[8]
        assert len(trees[1]) == 5 * 5

    def test_geometry_files_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, 4, 1)
        prepared = str(tmp_path / "prepared")
        patch_cpus(monkeypatch, 1)
        pipeline.stage_synth(cfg, prepared)
        pipeline.stage_prototype(cfg, prepared)
        forks = count_forks(monkeypatch)
        trees = {}
        for cpus in (1, 8):
            patch_cpus(monkeypatch, cpus)
            forks.clear()
            out = str(tmp_path / f"cpus{cpus}")
            shutil.copytree(prepared, out)
            for stage in (pipeline.stage_fit, pipeline.stage_zones, pipeline.stage_features):
                stage(cfg, out)
            assert len(forks) == (0 if cpus == 1 else 3 * 4), cpus
            assert_no_child_left()
            trees[cpus] = tree_digest(out)
        assert trees[1] == trees[8]
        assert len(trees[1]) - len(tree_digest(prepared)) == 5 * 6

    def test_first_failing_case_named_and_no_case_started_after(self, tmp_path, monkeypatch):
        # 6 + 4 cases on 8 workers: each of the first 8 is taken before case 3
        # fails, and the last two would be taken only by a worker set free later
        patch_cpus(monkeypatch, 8)
        cfg = self._config(tmp_path, 6, 4)
        names = [f"train_{k:04d}" for k in range(6)] + [f"test_{k:04d}" for k in range(4)]
        started = tmp_path / "started"
        started.mkdir()
        fork = multiprocessing.get_context("fork")
        all_taken = fork.Barrier(8, timeout=20)
        failed = fork.Event()

        def save_case(case, d):
            name = os.path.basename(d)
            (started / name).touch()
            if name in names[:8]:
                all_taken.wait()
            if name == "train_0003":
                failed.set()
                raise SynthError("organ unplaceable")
            assert failed.wait(20)
            time.sleep(0.2)  # the failing worker stops the case counter meanwhile

        monkeypatch.setattr(pipeline, "gen_case", lambda class_id, seed, cfg: None)
        monkeypatch.setattr(pipeline, "save_case", save_case)
        forks = count_forks(monkeypatch)
        with pytest.raises(SynthError) as info:
            pipeline.stage_synth(cfg, str(tmp_path / "w"))
        assert str(info.value) == "train_0003: organ unplaceable"
        assert len(forks) == 7
        assert sorted(os.listdir(started)) == sorted(names[:8])
        assert_no_child_left()

    def _one_case_each(self, tmp_path, monkeypatch, in_worker, in_caller=lambda: None):
        """synth-gen's 2 cases on 2 workers, one case each; the forked one calls ``in_worker``."""
        patch_cpus(monkeypatch, 2)
        cfg = self._config(tmp_path, 1, 1)
        caller = os.getpid()
        both_taken = multiprocessing.get_context("fork").Barrier(2, timeout=20)

        def save_case(case, d):
            both_taken.wait()
            (in_caller if os.getpid() == caller else in_worker)()

        monkeypatch.setattr(pipeline, "gen_case", lambda class_id, seed, cfg: None)
        monkeypatch.setattr(pipeline, "save_case", save_case)
        forks = count_forks(monkeypatch)
        return lambda: pipeline.stage_synth(cfg, str(tmp_path / "w")), forks

    def test_unpicklable_failure_comes_back_with_its_traceback(self, tmp_path, monkeypatch):
        class Unpicklable(Exception):
            def __init__(self):
                super().__init__("holds a lambda")
                self.hook = lambda: None

        def raise_unpicklable():
            raise Unpicklable()

        stage, forks = self._one_case_each(tmp_path, monkeypatch, raise_unpicklable)
        with pytest.raises(RuntimeError) as info:
            stage()
        assert str(info.value) == "Unpicklable that cannot be pickled: holds a lambda"
        assert len(forks) == 1
        [note] = info.value.__notes__
        assert note.startswith(f"in case worker {forks[0]}:\n")
        assert ", in raise_unpicklable\n" in note
        assert_no_child_left()

    def test_killed_worker_named_by_its_exit_status(self, tmp_path, monkeypatch):
        stage, forks = self._one_case_each(
            tmp_path, monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL)
        )
        status = f"exit status -{int(signal.SIGKILL)} and sent no report"
        with pytest.raises(RuntimeError, match=status):
            stage()
        assert len(forks) == 1
        assert_no_child_left()

    def test_interrupted_stage_leaves_no_worker(self, tmp_path, monkeypatch):
        interrupted = multiprocessing.get_context("fork").Event()

        def interrupt():
            interrupted.set()
            raise KeyboardInterrupt

        def outlast():
            assert interrupted.wait(20)
            time.sleep(0.2)  # still running when the caller's case has ended

        stage, forks = self._one_case_each(tmp_path, monkeypatch, outlast, interrupt)
        with pytest.raises(KeyboardInterrupt):
            stage()
        assert len(forks) == 1
        assert_no_child_left()

    def test_debug_shows_the_worker_frame(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, 1, 1)
        out = str(tmp_path / "w")
        pipeline.stage_synth(cfg, out)
        pipeline.stage_prototype(cfg, out)
        patch_cpus(monkeypatch, 2)
        caller = os.getpid()
        both_taken = multiprocessing.get_context("fork").Barrier(2, timeout=20)
        fit = pipeline.fit_mesh

        def fit_in_worker(*args):
            both_taken.wait()
            if os.getpid() != caller:
                raise FitError("no surface points")
            return fit(*args)

        monkeypatch.setattr(pipeline, "fit_mesh", fit_in_worker)
        argv = ["--debug", "fit-mesh", "--config", cfg.path, "--out", out]
        with pytest.raises(FitError) as info:
            main(argv)
        assert re.fullmatch(r"t\w+_0000: no surface points", str(info.value))
        shown = "".join(traceback.format_exception(info.value))
        assert "in case worker " in shown and ", in fit_in_worker\n" in shown
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 8])
    def test_every_case_runs_once_and_results_come_back_in_order(
        self, tmp_path, monkeypatch, workers
    ):
        # more workers than CPUs on one shared counter: a lost update would run
        # a case twice, and its exclusive create would fail, or skip one; each
        # worker's report is larger than a pipe's buffer
        forks = count_forks(monkeypatch)
        dirs = [str(tmp_path / f"case_{k:03d}") for k in range(300)]

        def work(d):
            open(d, "x").close()
            return os.path.basename(d) * 300

        results = pipeline._per_case(dirs, work, workers)
        assert results == [os.path.basename(d) * 300 for d in dirs]
        assert len(forks) == workers - 1
        assert_no_child_left()


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

    @given(st.data(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_segmentation_is_the_channel_argmax(self, data, k, seed):
        # the argmax of the stored box, 0 outside it; the box may be the whole grid
        dims = data.draw(st.tuples(*[st.integers(1, 6)] * 3))
        box = []
        for n in dims:
            lo = data.draw(st.integers(0, n - 1))
            box.append(slice(lo, data.draw(st.integers(lo + 1, n))))
        box = tuple(box)
        # rows drawn from a few values, so that ties between channels are common
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 3, size=tuple(s.stop - s.start for s in box) + (k,))
        raw = raw.astype(np.float32)
        raw[raw.sum(axis=-1) == 0] = 1.0
        probs = ProbVolume(raw / raw.sum(axis=-1, keepdims=True), (1.0, 2.0, 1.0), dims, box)
        with tempfile.TemporaryDirectory() as tmp:
            save_volume(probs, os.path.join(tmp, "probs"))
            seg = pipeline._load_segmentation(tmp)
        expect = np.zeros(dims, dtype=np.uint8)
        expect[box] = probs.data.argmax(axis=-1)
        assert seg.spacing == probs.spacing
        assert np.array_equal(seg.data, expect)
