"""Summary statistics and work-directory digests shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import math
import os
import statistics

# Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), q) - 1]


def _rank(n: int, q: float) -> int:
    # 1-based nearest rank; the tolerance keeps 99.9% of 10000 at rank 9990.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def tail(values: list[float]) -> tuple[float, float]:
    """(q, value) for the highest ladder percentile with at least 10 samples beyond it.

    A sample too small for any ladder percentile falls back to the median
    (q = 50); the caller reports the sample count next to it.
    """
    n = len(values)
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _manifest_bytes(path: str) -> bytes:
    # The manifest names the config file by absolute path, which differs between
    # checkouts; every other line is compared as written.
    with open(path, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b"config "))


def tree_digest(root: str) -> str:
    """SHA-256 over every file's relative path and contents, in sorted path order.

    The ``config <path>`` line of ``manifest.txt`` is left out, so runs of the
    same inputs in different directories digest alike.
    """
    entries = []
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel == "manifest.txt":
                data = _manifest_bytes(path)
            else:
                with open(path, "rb") as f:
                    data = f.read()
            entries.append((rel, hashlib.sha256(data).hexdigest()))
    h = hashlib.sha256()
    for rel, digest in sorted(entries):
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


def tree_bytes(root: str) -> int:
    """Total size of the regular files under root."""
    total = 0
    for base, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total
