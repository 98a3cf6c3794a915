"""Tests of the benchmark's own code: self time, input generation, digest gate.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, generate_sky  # noqa: E402


def span(name, start, end, parent=None, counts=None):
    return Span(name, start, end, parent, 0, counts or {})


class TestSelfTime:
    def test_nested_tree(self):
        spans = [
            span("cli.main", 0.0, 10.0),
            span("cli.cmd_caf", 1.0, 9.0, 0),
            span("caf.channel_caf", 2.0, 5.0, 1),
            span("caf.corr_doppler", 3.0, 4.0, 2),
            span("cli.ResultTable.to_csv", 6.0, 8.5, 1),
        ]
        assert self_times(spans) == pytest.approx([2.0, 2.5, 2.0, 1.0, 2.5])

    def test_children_overlapping_or_overrunning_are_counted_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 6.0, 0),
            span("b", 4.0, 8.0, 0),  # overlaps a over [4, 6]
            span("c", 9.0, 12.0, 0),  # runs past the parent's end
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)

    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span("x", 1.25, 1.75)]) == [0.5]

    def test_layer_totals(self):
        spans = [
            span("cli.main", 0.0, 10.0),
            span("cli.cmd_caf", 0.0, 9.0, 0),
            span("caf.channel_caf", 1.0, 4.0, 1, {"cells": 6}),
            span("caf.channel_caf", 5.0, 7.0, 1, {"cells": 2}),
        ]
        totals = run.layer_totals(spans)
        assert totals["cli.cmd.self_s"] == pytest.approx(4.0)
        assert totals["cli.self_s"] == pytest.approx(5.0)
        assert totals["caf.channel_caf.self_s"] == pytest.approx(5.0)
        assert totals["caf.channel_caf.calls"] == 2
        assert totals["caf.channel_caf.cells"] == 8


class TestTracer:
    def test_wrap_records_parent_and_counts(self):
        tracer = Tracer(op=7)
        inner = tracer.wrap("caf.superpose_and_argmax", lambda grids: len(grids))
        outer = tracer.wrap("cli.cmd_caf", lambda: inner([]))
        assert outer() == 0
        names = [(s.name, s.parent, s.op) for s in tracer.spans]
        assert names == [("cli.cmd_caf", None, 7), ("caf.superpose_and_argmax", 0, 7)]
        assert tracer.spans[1].counts == {"cells": 0}

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap("mc.boom", boom)()
        assert tracer.spans[0].end >= tracer.spans[0].start
        assert tracer.wrap("mc.ok", lambda: 1)() == 1
        assert tracer.spans[1].parent is None


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        pa = WORKLOADS["caf-velocity"].scenarios(5, a)
        pb = WORKLOADS["caf-velocity"].scenarios(5, b)
        assert Path(pa[0]).read_bytes() == Path(pb[0]).read_bytes()

    def test_other_seed_other_geometry_and_biases(self):
        one, two = generate_sky(1, 4, 1, False, []), generate_sky(2, 4, 1, False, [])
        for key in ("elevation_deg", "azimuth_deg"):
            assert [s[key] for s in one["satellites"]] != [s[key] for s in two["satellites"]]
        biases = [[p.get("delay_chips") for s in d["satellites"] for p in s["paths"]]
                  for d in (one, two)]
        assert biases[0] != biases[1]

    def test_matches_the_scenario_schema_and_loads(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from dpe_multipath import cli

        path = WORKLOADS["caf-velocity"].scenarios(3, tmp_path)[0]
        jsonschema.validate(json.loads(Path(path).read_text()), cli.SCENARIO_SCHEMA)
        scenario = cli.load_scenario(path)
        assert len(scenario.satellites) == 4


class TestDigestGate:
    def test_one_byte_change_is_caught(self, tmp_path):
        (tmp_path / "caf_velocity.csv").write_bytes(b"offset_e[m/s],offset_n[m/s],caf[1]\n1,2,3\n")
        (tmp_path / "report.json").write_bytes(b'{"all_passed": true}\n')
        gate = run.DigestGate(run.file_digests(tmp_path))
        assert gate.check(run.file_digests(tmp_path)) is None
        data = bytearray((tmp_path / "caf_velocity.csv").read_bytes())
        data[-2] ^= 1
        (tmp_path / "caf_velocity.csv").write_bytes(bytes(data))
        error = gate.check(run.file_digests(tmp_path))
        assert error is not None and "caf_velocity.csv" in error
        assert "report.json" not in error

    def test_missing_or_extra_file_is_caught(self, tmp_path):
        (tmp_path / "a.csv").write_text("x\n")
        gate = run.DigestGate(run.file_digests(tmp_path))
        (tmp_path / "b.csv").write_text("y\n")
        assert "b.csv" in gate.check(run.file_digests(tmp_path))

    def test_without_a_record_the_first_output_sets_the_reference(self, tmp_path):
        (tmp_path / "a.csv").write_text("x\n")
        gate = run.DigestGate(None)
        assert gate.check(run.file_digests(tmp_path)) is None
        (tmp_path / "a.csv").write_text("z\n")
        assert gate.check(run.file_digests(tmp_path)) is not None


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
