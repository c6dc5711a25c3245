import csv
import dataclasses

from anatomesh.config import load_config
from anatomesh.pipeline import run_pipeline

from conftest import load_by_path
from test_cli import write_config

TINY_CONFIG = """\
[synth]
n_train = 8
n_test = 4
grid = 32

[fit]
max_iters = 20
prototype_cases = 3

[train]
epochs = 3
batch_size = 4
width = 8
val_fraction = 0.25
"""


def test_run_seed_reports_each_rate_and_the_epochs_run(tmp_path):
    cfg = load_config(write_config(tmp_path, TINY_CONFIG))
    metrics = load_by_path("tools", "seeds.py").run_seed(cfg, 2)
    # the same run at seed 2, in a directory that outlives it
    seeded = dataclasses.replace(
        cfg,
        synth=dataclasses.replace(cfg.synth, seed=2),
        train=dataclasses.replace(cfg.train, seed=2),
    )
    accs = run_pipeline(seeded, str(tmp_path / "run"))
    with open(tmp_path / "run" / "train_log.csv") as f:
        rows = list(csv.DictReader(f))
    assert 1 <= len(rows) <= cfg.train.epochs
    assert metrics["epochs run"] == len(rows)
    assert {k: metrics[f"{k.upper()} accuracy"] for k in accs} == accs
    rates = [name for name in metrics if "Surgery-vs-rest" in name]
    assert len(rates) == 9
    assert all(metrics[name] is None or 0.0 <= metrics[name] <= 1.0 for name in rates)
