"""One benchmark process: run pipeline stages over a work directory.

Usage: rep.py CONFIG WORKDIR STAGES [--workload W --iterations K --result FILE --spawn T [--trace FILE]]

STAGES is a comma-separated list of stage names (synth, prototype, fit,
zones, features, train, classify, eval) or ``pipeline`` for ``run_pipeline``.

Without ``--result`` the stages run once in WORKDIR (untimed preparation).

With ``--result`` the process is one repetition of workload W. It measures
set-up from T, the parent's ``time.monotonic()`` just before it started this
interpreter, through ``import anatomesh`` to the return of
``template_mesh_arrays()``. Then, K times (none for a set-up sample), it
copies WORKDIR, times the stages over the copy, and checks and digests what
they wrote (untimed). It writes the measurements as JSON to FILE. With ``--trace`` it records a span
per call into the program's public functions and writes them to that file
when the stages end.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("work")
    ap.add_argument("stages")
    ap.add_argument("--workload")
    ap.add_argument("--iterations", type=int, default=1)
    ap.add_argument("--result")
    ap.add_argument("--spawn", type=float)
    ap.add_argument("--trace")
    args = ap.parse_args()

    import anatomesh.cli  # noqa: F401  imports every module of the package
    from anatomesh import pipeline
    from anatomesh.config import load_config
    from anatomesh.template import template_mesh_arrays

    def run_stages(cfg, work):
        if args.stages == "pipeline":
            pipeline.run_pipeline(cfg, work)
        else:
            for stage in args.stages.split(","):
                getattr(pipeline, f"stage_{stage}")(cfg, work)

    if args.result is None:
        run_stages(load_config(args.config), args.work)
        return 0

    t_import = time.monotonic()
    template_mesh_arrays()
    t_setup = time.monotonic()

    import stats
    from workloads import WORKLOADS, check_outputs, read_accuracies

    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cfg = load_config(args.config)
    iterations = []
    for k in range(args.iterations):
        work = f"{args.work}-{os.getpid()}-{k}"
        shutil.copytree(args.work, work)
        before = stats.tree_bytes(work)
        if tracer is not None:
            tracer.run = f"{w.name}-{os.getpid()}-{k}"
        it: dict = {"problems": []}
        t0 = time.perf_counter()
        try:
            run_stages(cfg, work)
        except Exception:  # a failed iteration is counted, the next one still runs
            it["problems"].append(traceback.format_exc())
        t1 = time.perf_counter()
        it["wall_s"] = t1 - t0
        it["written_mb"] = (stats.tree_bytes(work) - before) / 1e6
        if not it["problems"]:
            it["problems"] = check_outputs(w, work)
        if "eval" in w.stages_done and not it["problems"]:
            it["accuracy"] = read_accuracies(work)
        it["digest"] = stats.tree_digest(work)
        shutil.rmtree(work)
        iterations.append(it)
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace, "w") as f:
            json.dump({"spans": tracer.spans}, f)
    result = {
        "setup_s": t_setup - args.spawn,
        "template_s": t_setup - t_import,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _versions(),
        "iterations": iterations,
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


if __name__ == "__main__":
    sys.exit(main())
