"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload geometry --seeds 1 2 3 4 5 [--seconds 15]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric its median over the runs and its quartile spread
(third minus first quartile, as a share of the median), next to the bound
``BENCHMARK.json`` fixes for it. The benchmark is steady on a machine when
every spread, other than ``setup_s``'s, stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        spread = stats.quartile_spread(v) if len(v) > 1 else 0.0
        print(f"{args.workload} {m['name']}: median {stats.median(v):.4f} {m['unit']}, "
              f"spread {spread:.4f}, bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
