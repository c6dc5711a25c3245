"""Tests for the benchmark's own helpers. Run with: python3 -m pytest perfbench -q"""

import json
import os
import sys
import types

import pytest

import run
import spans
import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPercentiles:
    @pytest.mark.parametrize(
        "n, q",
        [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
         (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_tail_is_highest_ladder_percentile_with_ten_beyond(self, n, q):
        got_q, _ = stats.tail([float(i) for i in range(n)])
        assert got_q == q
        assert stats.samples_beyond(n, got_q) >= 10
        higher = [p for p in stats.TAIL_LADDER if p > got_q]
        assert all(stats.samples_beyond(n, p) < 10 for p in higher)

    def test_small_sample_falls_back_to_median(self):
        assert stats.tail([5.0, 1.0, 3.0]) == (50.0, 3.0)

    def test_nearest_rank_values(self):
        values = [float(i) for i in range(1, 101)]  # 1..100, shuffled below
        values = values[::2] + values[1::2]
        assert stats.percentile(values, 50.0) == 50.0
        assert stats.percentile(values, 90.0) == 90.0
        assert stats.tail(values) == (90.0, 90.0)
        assert sum(v > 90.0 for v in values) == 10

    def test_quartile_spread(self):
        assert stats.quartile_spread([1.0] * 10) == 0.0
        assert stats.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class TestSelfTime:
    def test_nested_spans(self):
        # root 0-10 holds a (1-4) and b (5-8); a holds c (2-3); c holds d (2.5-2.75)
        s = [
            ["root", 0.0, 10.0, -1, "r", None],
            ["a", 1.0, 4.0, 0, "r", None],
            ["c", 2.0, 3.0, 1, "r", None],
            ["d", 2.5, 2.75, 2, "r", None],
            ["b", 5.0, 8.0, 0, "r", None],
        ]
        assert spans.self_times(s) == pytest.approx([4.0, 2.0, 0.75, 0.25, 3.0])

    def test_overlapping_children_count_once(self):
        s = [
            ["p", 0.0, 10.0, -1, "r", None],
            ["x", 1.0, 6.0, 0, "r", None],
            ["y", 4.0, 12.0, 0, "r", None],
        ]
        assert spans.self_times(s)[0] == pytest.approx(1.0)

    def test_tracer_records_parents_and_self_time(self):
        ticks = iter(float(t) for t in range(100))
        tracer = spans.Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
        tracer.run = "run-a"
        assert outer(1) == 4
        names = [(sp[spans.NAME], sp[spans.PARENT]) for sp in tracer.spans]
        assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
        # outer 0-5, inner 1-2 and 3-4
        assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]
        tracer.run = "run-b"
        inner(0)
        assert [sp[spans.RUN] for sp in tracer.spans] == ["run-a"] * 3 + ["run-b"]


def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return 2 * x

    class Index:
        def nearest(self, q):
            return q - 1

    core.work, core.Index = work, Index
    user.work = work
    user.TABLE = (("step", work), ("other", len))
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user, work


class TestTracerInstall:
    def test_replaces_by_name_imports_tables_and_methods(self, monkeypatch):
        core, user, work = _fake_package(monkeypatch)
        tracer = spans.Tracer()
        tracer.install("fakepkg", [
            ("fakepkg.core", "work", "core.work", lambda args, result: {"out": result}),
            ("fakepkg.core", "Index.nearest", "core.nearest", None),
        ])
        assert user.work(3) == 6 and core.work(4) == 8
        assert user.TABLE[0][1](5) == 10 and user.TABLE[1][1] is len
        assert core.Index().nearest(7) == 6
        assert [s[spans.NAME] for s in tracer.spans] == ["core.work"] * 3 + ["core.nearest"]
        assert tracer.spans[0][spans.ATTRS] == {"out": 6}
        tracer.uninstall()
        assert core.work is work and user.work is work and user.TABLE[0][1] is work
        assert "nearest" in vars(core.Index) and core.Index().nearest(1) == 0

    def test_missing_target_and_failing_hook_leave_the_program_alone(self, monkeypatch):
        core, user, work = _fake_package(monkeypatch)
        tracer = spans.Tracer()
        tracer.install("fakepkg", [
            ("fakepkg.core", "gone", "core.gone", None),
            ("fakepkg.core", "Gone.method", "core.gone_method", None),
            ("fakepkg.core", "work", "core.work", lambda args, result: {"n": args[5]}),
        ])
        assert user.work(2) == 4
        assert tracer.spans[0][spans.NAME] == "core.work" and tracer.spans[0][spans.ATTRS] is None
        tracer.uninstall()

    def test_empty_trace_gives_every_layer_metric(self):
        m = spans.layer_metrics([], n_cases=4, template_s=3.5, overhead_s=0.1)
        assert list(m) == list(spans.PER_LAYER)
        assert m["template.build_s"] == 3.5 and m["volume.load_calls"] == 0


class TestTreeDigest:
    def _tree(self, root, files):
        for rel, data in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(data)

    def test_same_contents_same_digest(self, tmp_path):
        files = {"a.txt": b"1", "cases/x/b.raw": b"\x00\x01", "report/c.csv": b"z"}
        self._tree(tmp_path / "one", files)
        self._tree(tmp_path / "two", dict(reversed(list(files.items()))))
        assert stats.tree_digest(tmp_path / "one") == stats.tree_digest(tmp_path / "two")

    def test_any_byte_or_name_change_shows(self, tmp_path):
        self._tree(tmp_path / "a", {"x/y.raw": b"abc"})
        self._tree(tmp_path / "b", {"x/y.raw": b"abd"})
        self._tree(tmp_path / "c", {"x/z.raw": b"abc"})
        digests = {stats.tree_digest(tmp_path / d) for d in "abc"}
        assert len(digests) == 3

    def test_manifest_config_path_is_ignored(self, tmp_path):
        body = b"version 0.1.0\nconfig %s\nconfig_sha256 abc\nstage eval\n"
        self._tree(tmp_path / "a", {"manifest.txt": body % b"/one/run.cfg"})
        self._tree(tmp_path / "b", {"manifest.txt": body % b"/two/run.cfg"})
        self._tree(tmp_path / "c", {"manifest.txt": (body % b"/one/run.cfg").replace(b"abc", b"abd")})
        assert stats.tree_digest(tmp_path / "a") == stats.tree_digest(tmp_path / "b")
        assert stats.tree_digest(tmp_path / "a") != stats.tree_digest(tmp_path / "c")

    def test_tree_bytes(self, tmp_path):
        self._tree(tmp_path, {"a": b"12345", "d/b": b"678"})
        assert stats.tree_bytes(tmp_path) == 8


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
