"""Command-line entry point wiring the pipeline stages."""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import __version__
from .config import load_config
from .pipeline import STAGES, run_pipeline, write_manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anatomesh",
        description="Anatomical mesh modeling and mass classification pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise errors with their traceback instead of a one-line message",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = [(name, f"run the {name} stage over a work directory") for name, _ in STAGES]
    for name, text in commands + [("pipeline", "run all stages end-to-end")]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="work/output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # The objects left by the imports live as long as the process: keep the
    # collector from walking them in every full collection the stages set off.
    gc.freeze()
    try:
        cfg = load_config(args.config)
        if args.command == "pipeline":
            accs = run_pipeline(cfg, args.out)
            for k in sorted(accs):
                print(f"{k} accuracy: {accs[k]:.4f}")
            return 0
        os.makedirs(args.out, exist_ok=True)
        dict(STAGES)[args.command](cfg, args.out)
        write_manifest(cfg, args.out, [args.command])
        return 0
    except Exception as exc:  # single-line diagnostic, nonzero exit
        if args.debug:
            raise
        print(f"anatomesh: {args.command}: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.unfreeze()  # an in-process caller gets its objects back


if __name__ == "__main__":
    sys.exit(main())
