"""Span tracing from outside the program, and the per-layer metrics derived from spans.

A :class:`Tracer` replaces public functions of the ``anatomesh`` modules with
wrappers that record one span per call: name, start, end, the enclosing span,
the run it belongs to and optional attributes (such as fit iterations or
bytes read). Spans stay in
memory until the traced process ends. :func:`layer_metrics` turns them into the
per-layer counts, times and ratios listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import stats

# One span is [name, start, end, parent index or -1, run id, attrs or None].
NAME, START, END, PARENT, RUN, ATTRS = range(6)

STAGES = ("synth", "prototype", "fit", "zones", "features", "train", "classify", "eval")


def _volume_bytes(args, result):
    return {"bytes": int(result.data.nbytes)}


def _saved_bytes(args, result):
    return {"bytes": int(args[0].data.nbytes)}


def _fit_iters(args, result):
    return {"iters": len(result[1])}


def _organ_voxels(args, result):
    return {"voxels": int(args[1].sum())}


# (module, attribute or Class.method, span name, attribute hook)
TARGETS = [
    *(("anatomesh.pipeline", f"stage_{s}", f"pipeline.{s}", None) for s in STAGES),
    ("anatomesh.synth", "gen_dataset", "synth.gen_dataset", None),
    ("anatomesh.synth", "gen_case", "synth.gen_case", None),
    ("anatomesh.synth", "gen_organ", "synth.gen_organ", None),
    ("anatomesh.synth", "implant_mass", "synth.implant_mass", None),
    ("anatomesh.synth", "soften", "synth.soften", None),
    ("anatomesh.synth", "save_case", "synth.save_case", None),
    ("anatomesh.synth", "load_case", "synth.load_case", None),
    ("anatomesh.volume", "load_volume", "volume.load", _volume_bytes),
    ("anatomesh.volume", "save_volume", "volume.save", _saved_bytes),
    ("anatomesh.prototype", "mean_shape", "prototype.mean_shape", None),
    ("anatomesh.prototype", "build_prototype", "prototype.build", None),
    ("anatomesh.prototype", "assign_regions", "prototype.assign_regions", None),
    ("anatomesh.mesh", "edges_from_faces", "mesh.edges_from_faces", None),
    ("anatomesh.mesh", "load_mesh", "mesh.load", None),
    ("anatomesh.mesh", "save_mesh", "mesh.save", None),
    ("anatomesh.meshfit", "fit_mesh", "meshfit.fit_mesh", _fit_iters),
    ("anatomesh.meshfit", "edge_regularizers", "meshfit.edge_regularizers", None),
    ("anatomesh.meshfit", "SurfaceIndex.nearest", "meshfit.nearest", None),
    ("anatomesh.zones", "render_zones", "zones.render", _organ_voxels),
    ("anatomesh.zones", "vertex_labels", "zones.vertex_labels", None),
    ("anatomesh.features", "pool_features", "features.pool", None),
    ("anatomesh.features", "save_features", "features.save", None),
    ("anatomesh.features", "load_features", "features.load", None),
    ("anatomesh.graphnet", "train", "graphnet.train", None),
    ("anatomesh.graphnet", "forward", "graphnet.forward", None),
    ("anatomesh.graphnet", "backward", "graphnet.backward", None),
    ("anatomesh.graphnet", "save_params", "graphnet.save_params", None),
    ("anatomesh.graphnet", "load_params", "graphnet.load_params", None),
    ("anatomesh.evaluate", "management_report", "evaluate.management_report", None),
    ("anatomesh.evaluate", "detection_table", "evaluate.detection_table", None),
]


class Tracer:
    """Records a span for every call of the functions it wraps.

    Each span carries the tracer's ``run`` at the time of the call; set it
    before each timed run so the spans of one run share an identifier.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.run = ""
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), None, open_[-1] if open_ else -1, self.run, None])
            open_.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][END] = clock()
                open_.pop()
            if attrs is not None:
                try:
                    spans[i][ATTRS] = attrs(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the attribute, not the call
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "anatomesh", targets=TARGETS) -> None:
        """Wrap each target wherever the package's modules hold a reference to it.

        A function imported by name into another module is replaced there too,
        and so is any tuple of (name, function) pairs that lists it, such as
        the pipeline's stage table. A method is replaced on its class. A
        target the program no longer has is skipped; its metrics read 0.
        """
        swap: dict[int, object] = {}
        for module, qualname, name, attrs in targets:
            owner = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, attrs)
            if path:
                self._set(owner, attr, traced)
            else:
                swap[id(original)] = traced
        modules = [
            m for n, m in list(sys.modules.items())
            if n == package or n.startswith(package + ".")
        ]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                new = _substitute(value, swap)
                if new is not value:
                    self._set(mod, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _substitute(value, swap: dict[int, object]):
    if isinstance(value, tuple):
        new = tuple(_substitute(v, swap) for v in value)
        return new if any(a is not b for a, b in zip(new, value)) else value
    return swap.get(id(value), value)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def _under(spans: list[list], i: int, ancestor: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == ancestor:
            return True
        p = spans[p][PARENT]
    return False


# Per-layer metric name -> unit, in report order. layer_metrics emits exactly these.
PER_LAYER: dict[str, str] = {
    **{f"pipeline.{s}_s": "s" for s in STAGES},
    **{f"pipeline.{s}_self_s": "s" for s in STAGES},
    "synth.gen_case_ms_p50": "ms",
    "synth.gen_case_ms_tail": "ms",
    "synth.gen_case_tail_pct": "%",
    "synth.gen_case_n": "count",
    "synth.organ_attempts_per_case": "ratio",
    "synth.implant_attempts_per_case": "ratio",
    "synth.soften_ms_p50": "ms",
    "template.build_s": "s",
    "prototype.mean_shape_s": "s",
    "prototype.build_s": "s",
    "volume.load_calls": "count",
    "volume.loads_per_case": "ratio",
    "volume.load_s": "s",
    "volume.save_calls": "count",
    "volume.save_s": "s",
    "volume.bytes_read": "B",
    "volume.bytes_written": "B",
    "mesh.edge_builds": "count",
    "mesh.edge_builds_per_fit_iter": "ratio",
    "mesh.load_s": "s",
    "mesh.save_s": "s",
    "meshfit.fit_ms_p50": "ms",
    "meshfit.fit_ms_tail": "ms",
    "meshfit.fit_tail_pct": "%",
    "meshfit.fit_n": "count",
    "meshfit.iters_per_fit": "ratio",
    "meshfit.regularizer_evals_per_iter": "ratio",
    "meshfit.nearest_calls": "count",
    "zones.render_ms_p50": "ms",
    "zones.render_ms_tail": "ms",
    "zones.render_tail_pct": "%",
    "zones.render_n": "count",
    "zones.organ_voxels_per_ms": "voxels/ms",
    "zones.vertex_labels_ms_p50": "ms",
    "features.pool_ms_p50": "ms",
    "features.pool_n": "count",
    "features.save_ms_p50": "ms",
    "features.load_ms_p50": "ms",
    "graphnet.backward_calls": "count",
    "graphnet.backward_ms_p50": "ms",
    "graphnet.backward_ms_tail": "ms",
    "graphnet.backward_tail_pct": "%",
    "graphnet.forward_calls": "count",
    "graphnet.forward_ms_p50": "ms",
    "graphnet.train_s": "s",
    "graphnet.params_io_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(
    spans: list[list], n_cases: int, template_s: float, overhead_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; layers that did no work read 0."""
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
    own = self_times(spans)

    def durs(name: str) -> list[float]:
        return [spans[i][END] - spans[i][START] for i in by_name[name]]

    def total(name: str) -> float:
        return float(sum(durs(name)))

    def count(name: str) -> int:
        return len(by_name[name])

    def attr_sum(name: str, key: str) -> int:
        return sum((spans[i][ATTRS] or {}).get(key, 0) for i in by_name[name])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def p50_ms(name: str) -> float:
        d = durs(name)
        return 1e3 * stats.percentile(d, 50.0) if d else 0.0

    m: dict[str, float] = {}

    def timing(prefix: str, name: str) -> None:
        d = [1e3 * x for x in durs(name)]
        q, value = stats.tail(d) if d else (0.0, 0.0)
        m[f"{prefix}_ms_p50"] = stats.percentile(d, 50.0) if d else 0.0
        m[f"{prefix}_ms_tail"] = value
        m[f"{prefix}_tail_pct"] = q

    for s in STAGES:
        m[f"pipeline.{s}_s"] = total(f"pipeline.{s}")
    for s in STAGES:
        m[f"pipeline.{s}_self_s"] = float(sum(own[i] for i in by_name[f"pipeline.{s}"]))

    timing("synth.gen_case", "synth.gen_case")
    m["synth.gen_case_n"] = count("synth.gen_case")
    m["synth.organ_attempts_per_case"] = ratio(count("synth.gen_organ"), count("synth.gen_case"))
    m["synth.implant_attempts_per_case"] = ratio(
        count("synth.implant_mass"), count("synth.gen_case")
    )
    m["synth.soften_ms_p50"] = p50_ms("synth.soften")
    m["template.build_s"] = template_s
    m["prototype.mean_shape_s"] = total("prototype.mean_shape")
    m["prototype.build_s"] = total("prototype.build")

    m["volume.load_calls"] = count("volume.load")
    m["volume.loads_per_case"] = ratio(count("volume.load"), n_cases)
    m["volume.load_s"] = total("volume.load")
    m["volume.save_calls"] = count("volume.save")
    m["volume.save_s"] = total("volume.save")
    m["volume.bytes_read"] = attr_sum("volume.load", "bytes")
    m["volume.bytes_written"] = attr_sum("volume.save", "bytes")

    fit_iters = attr_sum("meshfit.fit_mesh", "iters")
    in_fit = [
        i for i in by_name["mesh.edges_from_faces"] if _under(spans, i, "meshfit.fit_mesh")
    ]
    regs_in_fit = [
        i for i in by_name["meshfit.edge_regularizers"]
        if _under(spans, i, "meshfit.fit_mesh")
    ]
    m["mesh.edge_builds"] = count("mesh.edges_from_faces")
    m["mesh.edge_builds_per_fit_iter"] = ratio(len(in_fit), fit_iters)
    m["mesh.load_s"] = total("mesh.load")
    m["mesh.save_s"] = total("mesh.save")

    timing("meshfit.fit", "meshfit.fit_mesh")
    m["meshfit.fit_n"] = count("meshfit.fit_mesh")
    m["meshfit.iters_per_fit"] = ratio(fit_iters, count("meshfit.fit_mesh"))
    m["meshfit.regularizer_evals_per_iter"] = ratio(len(regs_in_fit), fit_iters)
    m["meshfit.nearest_calls"] = count("meshfit.nearest")

    timing("zones.render", "zones.render")
    m["zones.render_n"] = count("zones.render")
    m["zones.organ_voxels_per_ms"] = ratio(
        attr_sum("zones.render", "voxels"), 1e3 * total("zones.render")
    )
    m["zones.vertex_labels_ms_p50"] = p50_ms("zones.vertex_labels")

    m["features.pool_ms_p50"] = p50_ms("features.pool")
    m["features.pool_n"] = count("features.pool")
    m["features.save_ms_p50"] = p50_ms("features.save")
    m["features.load_ms_p50"] = p50_ms("features.load")

    m["graphnet.backward_calls"] = count("graphnet.backward")
    timing("graphnet.backward", "graphnet.backward")
    m["graphnet.forward_calls"] = count("graphnet.forward")
    m["graphnet.forward_ms_p50"] = p50_ms("graphnet.forward")
    m["graphnet.train_s"] = total("graphnet.train")
    m["graphnet.params_io_s"] = total("graphnet.save_params") + total("graphnet.load_params")

    m["trace.overhead_s"] = overhead_s
    return {name: float(m[name]) for name in PER_LAYER}
