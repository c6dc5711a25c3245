"""Benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {pipeline,geometry,learn} --seed N \\
        --seconds S --trace {0,1}

The seed makes the workload's inputs: a run config, and for ``geometry`` and
``learn`` a work directory prepared untimed with the program's own stages.
The run then starts fresh interpreters (``perfbench/rep.py``) one at a time,
closed-loop, until S seconds have gone into them (at least the workload's
``procs``). Each pays set-up and peak memory the way an ``anatomesh`` call
does, then times the workload's stages over fresh copies of the prepared
inputs, as many times as the workload's ``iterations``. Further interpreters
that only set up bring the set-up samples to ``SETUP_SAMPLES``. Every
iteration's outputs are checked: every stage artifact of every case, the
case counts, the accuracies, and a SHA-256 digest of the work directory
that must match across iterations.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` timed iterations, and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones: medians over iterations
(``wall_s``, ``written_mb``) or over processes (``setup_s``,
``peak_rss_mb``). With ``--trace 1`` one more process runs one iteration
traced, and the metrics are the per-layer ones derived from its spans. The
lines before it print every metric with its unit, the failed fraction, the
accuracies, the digest and the machine.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import shutil
import subprocess
import sys
import time

import spans
import stats
from workloads import PREP_PARTS, WORKLOADS, Workload, case_dirs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REP = os.path.join(ROOT, "perfbench", "rep.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# BLAS/OpenMP threads in every benchmark process: 1, so both commits of a
# comparison run alike whatever the machine's core count.
BLAS_THREADS = 1
# Set-up samples per run; set-up-only processes make up any shortfall.
SETUP_SAMPLES = 3
# No process starts once the run has taken START_BY_S; every process the
# run starts is killed once it has taken DEADLINE_S, so it ends within 180 s.
START_BY_S = 110
DEADLINE_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "written_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def machine() -> dict[str, object]:
    info: dict[str, object] = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    info["blas_threads"] = BLAS_THREADS
    return info


def _rep_argv(*args: str) -> list[str]:
    return [sys.executable, REP, *args]


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def prepare(w: Workload, seed: int, run_dir: str, deadline: float) -> tuple[str, str]:
    """Write the run config and the prepared work directory; return their paths."""
    cfg = os.path.join(run_dir, "run.cfg")
    base = os.path.join(run_dir, "base")
    os.makedirs(base)
    with open(cfg, "w") as f:
        f.write(w.config_text(seed))
    env = child_env()
    if "synth" in w.prep:
        parts = []
        for k in range(PREP_PARTS):
            part = os.path.join(run_dir, f"part{k}")
            os.makedirs(part)
            part_cfg = part + ".cfg"
            with open(part_cfg, "w") as f:
                f.write(w.config_text(
                    seed,
                    n_train=len(range(k, w.n_train, PREP_PARTS)),
                    n_test=len(range(k, w.n_test, PREP_PARTS)),
                    synth_seed=seed * PREP_PARTS + k,
                ))
            parts.append(part)
        procs = [
            subprocess.Popen(_rep_argv(p + ".cfg", p, "synth"), env=env, cwd=ROOT)
            for p in parts
        ]
        try:
            for p in procs:
                if p.wait(timeout=_left(deadline)) != 0:
                    raise RuntimeError("synth-gen preparation failed")
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        os.makedirs(os.path.join(base, "cases"))
        for split in ("train", "test"):
            dirs = [d for part in parts for d in case_dirs(part, split)]
            for i, d in enumerate(dirs):
                os.rename(d, os.path.join(base, "cases", f"{split}_{i:04d}"))
    rest = [s for s in w.prep if s != "synth"]
    if rest:
        subprocess.run(
            _rep_argv(cfg, base, ",".join(rest)), env=env, cwd=ROOT,
            check=True, timeout=_left(deadline),
        )
    return cfg, base


def run_process(
    w: Workload, cfg: str, base: str, run_dir: str, i: int, k: int, traced: bool,
    deadline: float,
) -> dict:
    """Run k timed iterations (0: set-up only) in a fresh interpreter; return its measurements.

    A process that fails or times out counts every iteration it was to run,
    and at least one, as failed.
    """
    result_path = os.path.join(run_dir, f"rep{i}.json")
    trace_path = os.path.join(run_dir, f"rep{i}.spans.json")
    argv = [cfg, base, ",".join(w.timed), "--workload", w.name, "--iterations", str(k),
            "--result", result_path]
    if traced:
        argv += ["--trace", trace_path]
    failed = {"traced": traced, "iterations": [{"problems": ["process failed"]}] * max(k, 1)}
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            _rep_argv(*argv, "--spawn", repr(spawn)),
            env=child_env(), cwd=ROOT, timeout=_left(deadline),
        )
    except subprocess.TimeoutExpired:
        print(f"process {i}: timed out", file=sys.stderr)
        return {**failed, "elapsed_s": time.monotonic() - spawn}
    elapsed = time.monotonic() - spawn
    if proc.returncode != 0:
        print(f"process {i}: exit code {proc.returncode}", file=sys.stderr)
        return {**failed, "elapsed_s": elapsed}
    with open(result_path) as f:
        out = json.load(f)
    if traced:
        with open(trace_path) as f:
            out["spans"] = json.load(f)["spans"]
    for it in out["iterations"]:
        for p in it["problems"]:
            print(f"process {i}: {p}", file=sys.stderr)
    return {**out, "traced": traced, "elapsed_s": elapsed}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "anatomesh", "__init__.py")):
        print("perfbench: no src/anatomesh package in this checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    run_dir = os.path.join(WORK_ROOT, f"{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    try:
        cfg, base = prepare(w, args.seed, run_dir, deadline)
        procs: list[dict] = []
        measured = 0.0
        while len(procs) < w.procs or (
            measured < args.seconds and time.monotonic() - started < START_BY_S
        ):
            procs.append(
                run_process(w, cfg, base, run_dir, len(procs), w.iterations, False, deadline)
            )
            measured += procs[-1]["elapsed_s"]
        while len(procs) < SETUP_SAMPLES and time.monotonic() - started < START_BY_S:
            procs.append(run_process(w, cfg, base, run_dir, len(procs), 0, False, deadline))
        if args.trace:
            procs.append(run_process(w, cfg, base, run_dir, len(procs), 1, True, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    iters = [it for p in procs for it in p["iterations"]]
    digest = next((it["digest"] for it in iters if not it["problems"]), None)
    for it in iters:
        it["ok"] = not it["problems"] and it["digest"] == digest
        if not it["problems"] and not it["ok"]:
            print(f"work-dir digest {it['digest']} differs from {digest}", file=sys.stderr)
    ok = [it for it in iters if it["ok"]]
    failed = len(iters) - len(ok)
    plain = [p for p in procs if not p["traced"] and "setup_s" in p]
    plain_ok = [it for p in plain for it in p["iterations"] if it["ok"]]
    # Peak memory counts only processes that ran the workload.
    workers = [p for p in plain if p["iterations"]]
    traced = [p for p in procs if p["traced"] and "spans" in p and p["iterations"][0]["ok"]]

    env = next((p["env"] for p in procs if "env" in p), {})
    print(f"machine {json.dumps({**machine(), **env})}")
    print(f"workload {w.name} seed {args.seed}: {len(procs)} processes, "
          f"{len(iters)} timed iterations ({len(plain_ok)} untraced and correct)")
    samples = {
        "wall_s": [it["wall_s"] for it in plain_ok],
        "setup_s": [p["setup_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in workers],
        "written_mb": [it["written_mb"] for it in plain_ok],
    }
    e2e = {}
    if plain_ok:
        for name, unit in END_TO_END.items():
            values = samples[name]
            e2e[name] = stats.median(values)
            each = " ".join(f"{v:.4f}" for v in values)
            print(f"{name} {e2e[name]:.4f} {unit}  (median of {len(values)}: {each})")
    print(f"failed_frac {failed / len(iters):.4f}  ({failed}/{len(iters)})")
    if ok and "accuracy" in ok[0]:
        print(" ".join(f"{k}_acc {v:.4f}" for k, v in sorted(ok[0]["accuracy"].items())))
    if digest:
        print(f"digest {digest}")

    metrics: dict[str, dict] = {}
    if args.trace and traced and plain_ok:
        t = traced[0]
        layer = spans.layer_metrics(
            t["spans"], w.n_train + w.n_test, t["template_s"],
            t["iterations"][0]["wall_s"] - e2e["wall_s"],
        )
        for name, unit in spans.PER_LAYER.items():
            print(f"{name} {layer[name]:.6g} {unit}")
            metrics[name] = {"value": layer[name], "unit": unit}
    elif not args.trace and plain_ok:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": len(iters), "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
