"""Scenario file I/O, CLI subcommands, exit codes, output stability."""
import argparse
import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from dpe_multipath import caf, cli, gridtext, mc, tables
from dpe_multipath.caf import scenario_caf
from dpe_multipath.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CANT_CREATE,
    EXIT_COMPUTE,
    EXIT_GEOMETRY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_USAGE,
    SCENARIO_SCHEMA,
    ScenarioParseError,
    ScenarioSchemaError,
    _scenario_from_dict,
    load_scenario,
    main,
)
from dpe_multipath.geom import EcefVector, LookAngles
from dpe_multipath.model import (
    DEFAULT_GRIDS,
    SPEED_OF_LIGHT,
    Columns,
    Grid2D,
    GridSpec,
    PathKind,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
)
from dpe_multipath.scmb import center_line, center_lines, enumerate_intersections
from dpe_multipath.tables import ResultTable
from scenario_helpers import (
    BUNDLED,
    ECEF_SCENARIO,
    authored_receiver,
    channel,
    column_rows,
    count_intersections,
    csv_digit_tables_by_strings,
    enu_from_angles,
    enu_to_ecef,
    fixture_with,
    grid_values,
    mutated_fixtures,
    tuple_row_text,
)

# The reference the bundled fixtures encode: receiver truth, satellite look
# angles (deg), and per-case bias-circle radii, equal in m and m/s.
REFERENCE_RECEIVER = EcefVector(-2851838.0, 4653607.0, 3289209.0)
REFERENCE_ANGLES = {10: (35.4, 320.2), 18: (42.8, 213.8), 23: (66.7, 336.1), 24: (69.8, 45.1)}
CASE_RADII = {
    "case1": {10: 0.0, 18: 40.0, 23: 0.0, 24: 0.0},
    "case2": {10: 40.0, 18: 40.0, 23: 40.0, 24: 40.0},
    "case3": {10: 60.0, 18: 40.0, 23: 30.0, 24: 15.0},
}


def dump_variant(tmp_path: Path, name: str, mutate) -> Path:
    path = tmp_path / "variant.scenario"
    path.write_text(json.dumps(fixture_with(name, mutate)) + "\n")
    return path


def run_module(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter with the package on its path and
    ``env`` over this one's environment."""
    child = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), **env}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          encoding="utf-8", env=child)


class TestScenarioIO:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_fixtures_load(self, name):
        s = load_scenario(f"{name}.scenario")
        assert len(s.satellites) >= 2

    def test_fixtures_encode_reference(self):
        los = (SignalPath(PathKind.LOS),)
        for name in BUNDLED:
            s = load_scenario(f"{name}.scenario")
            assert (authored_receiver(f"{name}.scenario"), s.signal, s.grids, s.noise_sigma,
                    s.seed) == (
                REFERENCE_RECEIVER, SignalConfig(), DEFAULT_GRIDS, 0.0, 1)
            for ch in s.satellites:
                assert ch.angles == LookAngles.from_degrees(*REFERENCE_ANGLES[ch.prn])
            prns = [ch.prn for ch in s.satellites]
            if name == "table1":
                assert prns == [10, 18, 23, 24]
                assert all(ch.paths == los for ch in s.satellites)
            elif name == "table6":
                assert prns == [18, 23]
                assert channel(s, 18).paths == (SignalPath(PathKind.NLOS, 1.0, 1.0, 120.3),)
                assert channel(s, 23).paths == los
            else:
                assert prns == sorted(CASE_RADII[name])
                for ch in s.satellites:
                    radius = CASE_RADII[name][ch.prn]
                    kind = PathKind.LOS if radius == 0.0 else PathKind.NLOS
                    assert [(p.kind, p.amplitude) for p in ch.paths] == [(kind, 1.0)]
                    for space in Space:
                        line = center_line(ch, 0, space, s.signal)
                        assert line.radius == pytest.approx(radius, rel=1e-12)

    def test_omitted_keys_take_the_model_defaults(self, tmp_path):
        def strip(raw):
            for key in ("signal", "grid", "noise_sigma", "seed"):
                del raw[key]
            for path in (p for sat in raw["satellites"] for p in sat["paths"]):
                for key in ("amplitude", "delay_chips", "doppler_hz"):
                    path.pop(key, None)

        s = load_scenario(dump_variant(tmp_path, "case3", strip))
        model = Scenario(satellites=s.satellites)
        assert (s.signal, s.noise_sigma, s.seed) == (model.signal, model.noise_sigma, model.seed)
        assert [s.grid_for(space) for space in Space] == [model.grid_for(space) for space in Space]
        paths = [p for ch in s.satellites for p in ch.paths]
        assert paths == [SignalPath(p.kind) for p in paths]

    def test_velocity_grid_alone_keeps_the_default_position_grid(self, tmp_path):
        velocity = {"space": "velocity", "half_extent": 5.0, "step": 0.5}
        s = load_scenario(dump_variant(tmp_path, "case3", lambda raw: raw.update(grid=[velocity])))
        assert s.grid_for(Space.VELOCITY) == GridSpec(Space.VELOCITY, 5.0, 0.5)
        assert s.grid_for(Space.POSITION) == Scenario(satellites=s.satellites).grid_for(
            Space.POSITION)

    def test_missing_file(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("/no/such/file.scenario")
        with pytest.raises(ScenarioParseError):
            load_scenario("nosuch.scenario")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("{broken")
        with pytest.raises(ScenarioParseError):
            load_scenario(p)

    def test_undecodable_file_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.scenario"
        p.write_bytes(cli._bundled_scenario("case3.scenario").read_bytes() + b"\xff\n")
        with pytest.raises(ScenarioParseError, match="codec can't decode"):
            load_scenario(p)
        assert main(["caf", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"parse error: cannot read scenario {p}: ")

    def test_directory_is_parse_error(self, tmp_path, capsys):
        assert main(["caf", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")]) == (
            EXIT_PARSE)
        assert capsys.readouterr().err.startswith(
            f"parse error: cannot read scenario {tmp_path}: ")
        assert not (tmp_path / "out").exists()

    def test_no_io_takes_the_locale_encoding(self, tmp_path):
        # EncodingWarning marks every open, read or write that names no encoding
        p = dump_variant(tmp_path, "table6", _tiny_grids)
        for argv in (["project", "--scenario", str(p)],
                     ["project", "--scenario", "table6.scenario"],
                     ["caf", "--scenario", str(p)], ["report"]):
            done = run_module(["-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                               "-m", "dpe_multipath", *argv, "--out", str(tmp_path / "out")])
            assert (done.returncode, "Traceback" in done.stderr) == (EXIT_OK, False), argv

    def test_scenario_read_as_utf8_in_an_ascii_locale(self, tmp_path):
        raw = fixture_with("table6", lambda raw: raw.update({"cl\u00e9": 1}))
        p = tmp_path / "accent.scenario"
        p.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
        done = run_module(["-X", "utf8=0", "-m", "dpe_multipath", "project", "--scenario", str(p),
                           "--out", str(tmp_path / "out")], LC_ALL="C", PYTHONIOENCODING="utf-8")
        assert done.returncode == EXIT_SCHEMA
        assert done.stderr == ("schema error: (root): Additional properties are not allowed"
                               " ('cl\u00e9' was unexpected)\n")

    def test_schema_error_names_field(self, tmp_path):
        p = dump_variant(
            tmp_path, "table6", lambda raw: raw["satellites"][0]["paths"][0].update(
                {"kind": "bounce"}
            )
        )
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(p)
        assert "satellites.0.paths.0.kind" in str(err.value)

    def test_wrong_schema_version(self, tmp_path):
        p = dump_variant(tmp_path, "table6", lambda raw: raw.update({"schema_version": 2}))
        with pytest.raises(ScenarioSchemaError):
            load_scenario(p)

    def test_los_bias_rejected_with_path_location(self, tmp_path):
        p = dump_variant(
            tmp_path, "table6",
            lambda raw: raw["satellites"][1]["paths"][0].update({"delay_chips": 0.5}),
        )
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(p)
        assert "satellites.1.paths.0" in str(err.value)

    def test_satellite_needs_position_or_angles(self, tmp_path):
        def strip(raw):
            raw["satellites"][0].pop("elevation_deg")
            raw["satellites"][0].pop("azimuth_deg")

        p = dump_variant(tmp_path, "table6", strip)
        with pytest.raises(ScenarioSchemaError,
                           match=r"^satellites\.0: PRN 18: need a position or look angles$"):
            load_scenario(p)

    def test_angles_must_come_in_pairs(self, tmp_path):
        p = dump_variant(
            tmp_path, "table6", lambda raw: raw["satellites"][0].pop("azimuth_deg")
        )
        with pytest.raises(ScenarioSchemaError):
            load_scenario(p)

    def test_zenith_elevation_is_schema_error(self, tmp_path):
        p = dump_variant(
            tmp_path, "table6",
            lambda raw: raw["satellites"][0].update({"elevation_deg": 89.9}),
        )
        with pytest.raises(ScenarioSchemaError):
            load_scenario(p)

    def test_duplicate_prn_is_schema_error(self, tmp_path):
        p = dump_variant(
            tmp_path, "table6", lambda raw: raw["satellites"][0].update({"prn": 23})
        )
        with pytest.raises(ScenarioSchemaError):
            load_scenario(p)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
        assert block is not None
        p = tmp_path / "readme.scenario"
        p.write_text(block.group(1))
        s = load_scenario(p)
        assert s.satellites

    def test_position_only_satellite_gets_angles_derived(self, tmp_path):
        base = load_scenario("table6.scenario")

        def positionize(raw):
            for sat in raw["satellites"]:
                ch = next(c for c in base.satellites if c.prn == sat["prn"])
                p = enu_to_ecef(enu_from_angles(ch.angles, 2.2e7), REFERENCE_RECEIVER)
                sat["position_ecef"] = [p.x, p.y, p.z]
                del sat["elevation_deg"], sat["azimuth_deg"]

        p = dump_variant(tmp_path, "table6", positionize)
        s = load_scenario(p)
        for ch, ref in zip(s.satellites, base.satellites):
            assert ch.angles.elevation == pytest.approx(ref.angles.elevation, abs=1e-9)
            assert ch.angles.azimuth == pytest.approx(ref.angles.azimuth, abs=1e-9)


def _non_finite_columns(n: int) -> Columns:
    """Integer and float columns of ``n`` rows, with NaN, infinities and -0.0."""
    floats = np.resize([math.nan, math.inf, -math.inf, -0.0, 0.1, -2.5e-7, 1e300], n)
    return Columns((np.arange(n), floats, floats[::-1] * 3.0, np.arange(n) * -(10**15)))


class TestResultTable:
    def test_csv_six_significant_digits(self):
        t = ResultTable(("a", "b[m]"), ((1, 39.94007471783003), (2, 0.000123456789)))
        assert t.to_csv() == "a,b[m]\n1,39.9401\n2,0.000123457\n"

    def test_csv_uses_lf_only(self):
        t = ResultTable(("x",), ((1.5,), (2.5,)))
        assert "\r" not in t.to_csv()

    def test_json_full_precision(self):
        t = ResultTable(("x",), ((39.94007471783003,),), note="n")
        loaded = json.loads(t.to_json())
        assert loaded["rows"][0][0] == 39.94007471783003
        assert loaded["note"] == "n"

    @pytest.mark.parametrize("rows", [
        ((math.nan, math.inf, -math.inf, -0.0), (5e-324, True, False, 2**70 + 1)),
        (('say "hi"', "back\\slash", "caf\u00e9 \u03a9 \u2192 \U0001f6f0", ""),),
        (),
        # about the JSON part of a 4-column table
        *(_non_finite_columns(tables._JSON_PART_CELLS // 4 + d) for d in (-1, 0, 1)),
        Grid2D(GridSpec(Space.POSITION, 2.0, 1.0),
               (np.arange(20.0).reshape(4, 5) - 12.0,
                np.array([[math.nan, math.inf, -math.inf, -0.0, 1e300]]))),
    ], ids=["numbers", "strings", "no-rows", "columns-part-less-1", "columns-one-part",
            "columns-part-plus-1", "grid"])
    def test_json_is_json_dumps(self, rows):
        if isinstance(rows, Grid2D):  # written without the argmax fold, which stops at NaN
            axis = rows.spec.axis().tolist()
            listed = [(e, n, v) for n, row in zip(axis, grid_values(rows).tolist())
                      for e, v in zip(axis, row)]
        else:
            listed = column_rows(rows) if isinstance(rows, Columns) else rows
        columns = ("a", "b[m]", "c", "d")[:len(listed[0]) if listed else 4]
        t = ResultTable(columns, rows, note='a "note" \u00e9')
        payload = {"note": t.note, "columns": list(t.columns), "rows": listed}
        assert t.to_json() == json.dumps(payload, indent=2) + "\n"

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), ((1,),))

    def test_grid_rows_checked(self):
        grid = Grid2D(GridSpec(Space.POSITION, 1.0, 1.0), (np.zeros((3, 3)),))
        with pytest.raises(ValueError):
            ResultTable(("e", "n"), grid)

    @pytest.mark.parametrize("arrays", [(np.zeros(3),), (np.zeros(3), np.zeros(2, int))],
                             ids=["too-few", "unequal-lengths"])
    def test_columns_checked(self, arrays):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), Columns(arrays))


def _ulp_neighbours(v: float) -> list[float]:
    """``v`` and the doubles 1 and 2 ulps either side of it."""
    up, down = math.nextafter(v, math.inf), math.nextafter(v, -math.inf)
    return [math.nextafter(down, -math.inf), down, v, up, math.nextafter(up, math.inf)]


# Doubles where a grid cell could plausibly part from format(v, ".6g"):
# signed zero, non-finite values, subnormal and normal extremes,
# integer-valued floats, the edges of the fixed-point form, and ties at the
# sixth significant digit: for each decade X in -5..6, the doubles nearest
# (M + 0.5) * 10**(X - 5) and their neighbours 1 and 2 ulps away.
EDGE_FLOATS = (
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
    sys.float_info.min, sys.float_info.max, 1234567.0, -1234567.0, 123456.0, 1e16,
    0.0001234565, 9.999995, 0.5, 1e-5, 1e-4, 999999.5, 2.5e-7,
    9.999995e-5, 99999.95, 123000.0, 12340.0, 1.0, 100.0,
) + tuple(
    sign * v
    for x in range(-5, 7) for m in (100000, 123456, 314159, 999999)
    for v in _ulp_neighbours((m + 0.5) * 10.0 ** (x - 5)) for sign in (1.0, -1.0)
)


def _random_doubles(n: int, seed: int = 20250718) -> np.ndarray:
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    return bits.view(np.float64)


def _mostly_zero_position_grid() -> np.ndarray:
    """table1's summed position-space CAF on a +/-5 km grid: narrow code
    ridges among exact zeros."""
    grid = GridSpec(Space.POSITION, 5000.0, 50.0)
    values = grid_values(scenario_caf(replace(load_scenario("table1.scenario"), grids=(grid,)),
                                      Space.POSITION))
    assert (values == 0.0).mean() >= 0.9
    return values


def _exponent_form_doubles(n: int, seed: int = 15) -> np.ndarray:
    """Doubles that ``.6g`` spells with an exponent: 0 < |v| < 1e-4 or |v| >= 1e6."""
    rng = np.random.default_rng(seed)
    exponents = np.concatenate([rng.uniform(-323.0, -4.001, n // 2),
                                rng.uniform(6.0, 308.0, n - n // 2)])
    return 10.0 ** exponents * rng.choice([-1.0, 1.0], n)


def _hypothesis_doubles() -> np.ndarray:
    """Doubles drawn by a derandomized Hypothesis ``floats()`` run."""
    drawn = []

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    def draw(values):
        drawn.extend(values)

    draw()
    return np.array(drawn)


class TestArrayTable:
    """Grid tables spell every float cell as ``_csv_cell`` spells it in a tuple row."""

    @pytest.mark.parametrize("values", [
        np.array(EDGE_FLOATS), _random_doubles(20000), _mostly_zero_position_grid(),
        _exponent_form_doubles(4000), _hypothesis_doubles(),
    ], ids=["edge", "random-bits", "mostly-zero-position-grid", "exponent-form",
            "hypothesis-floats"])
    def test_template_matches_csv_cell(self, values):
        n = (math.isqrt(len(values) - 1) + 1) | 1  # the least odd n with n * n >= len(values)
        values = np.resize(values, (n, n))
        grid = Grid2D(GridSpec(Space.POSITION, n // 2, 1.0), (values,))
        axis = grid.spec.axis().tolist()
        cell = tables._csv_cell
        expected = "e,n,v\n" + "".join(
            f"{cell(axis[j])},{cell(axis[i])},{cell(float(values[i, j]))}\n"
            for i in range(n) for j in range(n))
        assert ResultTable(("e", "n", "v"), grid).to_csv() == expected

    def test_writer_holds_one_block(self, tmp_path):
        # a 1001^2 grid table: beyond the grid, the writer holds one block of
        # rows and its text, not the 19 MB of the file
        spec = GridSpec(Space.VELOCITY, 100.0, 0.2)
        assert spec.n == 1001
        table = ResultTable(("e", "n", "v"), Grid2D(
            spec, (np.random.default_rng(8).standard_normal((spec.n, spec.n)),)))
        gridtext._csv_digit_tables()  # built once per process
        tracemalloc.start()
        try:
            tables.write_table(table, tmp_path, "grid", "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# Integer columns about the kernel's limits: it spells an integer below 1e6
# in magnitude as the float it equals, and ``_csv_cell`` spells the rest.  An
# integer field takes two words up to 14 digits and a sign, three beyond.
# With two float columns, a CSV part holds 2,709 rows of records with a
# two-word integer and 2,322 with a three-word one.  The three-word lists,
# where a long integer's third word must not outlive its part, have lengths
# prime to 2,322, so a row's record holds a short integer in one part and a
# long one in another.
EDGE_INTS = {
    "below-1e6": [0, 1, -1, 9, 10, 999, 1000, -1000, 100000, 999999, -999999],
    "at-1e6": [0, 7, -12, 1000000, -1000000, 1000001, 123456789],
    "two-words": [0, 5, 10**14 - 1, -(10**14 - 1), 999999, 10**6, -1],
    "three-words": [0, -5, 10**14, -(10**14), 2**53 + 1, -(2**62), 42],
    "int64-extremes": [0, 1, np.iinfo(np.int64).max, np.iinfo(np.int64).min, -3],
}


class TestColumnTable:
    """Column tables write the bytes of the tuple-row writer, in CSV and JSON."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("layout", ["int-first", "int-last"])
    @pytest.mark.parametrize("ints", EDGE_INTS.values(), ids=EDGE_INTS.keys())
    @pytest.mark.parametrize("floats", [
        np.array(EDGE_FLOATS), _exponent_form_doubles(3000), _random_doubles(9000),
        np.zeros(0),
    ], ids=["edge", "exponent-form", "random-bits", "no-rows"])
    def test_matches_tuple_row_writer(self, floats, ints, layout, fmt):
        ints = np.resize(np.array(ints, dtype=np.int64), len(floats))
        if layout == "int-first":  # as montecarlo writes: the floats end their rows
            arrays = (ints, floats, floats[::-1].copy())
        else:  # as fig11 does: an integer ends each row
            arrays = (floats, floats[::-1].copy(), ints)
        columns = ("a", "b[m]", "c")
        table = ResultTable(columns, Columns(arrays), note="n")
        assert len(table.rows) == len(floats)
        text = table.to_csv() if fmt == "csv" else table.to_json()
        assert text == tuple_row_text(columns, column_rows(table.rows), "n", fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_holds_one_part(self, tmp_path, fmt):
        # a 200,000-trial montecarlo table: beyond its columns, the writer
        # holds one part of rows and its text, not the file's 7 MB (CSV) or 16 MB
        rep = mc.run_random_azimuth_mc(60.0, 40.0, 200_000, 1)
        table = ResultTable(rep.columns, rep.rows)
        gridtext._csv_digit_tables()  # built once per process
        tracemalloc.start()
        try:
            tables.write_table(table, tmp_path, "montecarlo", fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_csv_parts_keep_to_the_block_budget(self, monkeypatch):
        # every record buffer of a CSV part, of a grid or a column table, is
        # at most _CSV_BLOCK_BYTES, under glibc's 128 KiB mmap threshold
        sizes = []

        def recorded(size):
            sizes.append(size)
            return bytearray(size)

        monkeypatch.setattr(gridtext, "bytearray", recorded, raising=False)
        for spec in (GridSpec(Space.POSITION, 100.0, 1.0), GridSpec(Space.VELOCITY, 100.0, 0.2),
                     GridSpec(Space.VELOCITY, 100.0, 0.1)):
            blocks = (np.zeros((min(8, spec.n - lo), spec.n)) for lo in range(0, spec.n, 8))
            for _ in gridtext._csv_grid_texts(Grid2D(spec, blocks)):
                pass
        trials = mc.run_random_azimuth_mc(60.0, 40.0, 10_000, 1).rows
        x = np.linspace(-1.0, 1.0, 10_000)
        for columns in (trials, Columns((np.full(x.size, 10**14), x, x))):
            for _ in gridtext._csv_column_texts(columns):
                pass
        assert len(sizes) == 5
        assert max(sizes) <= gridtext._CSV_BLOCK_BYTES, sizes


class TestDigitWords:
    """The CSV kernel's digit words, built by word arithmetic, against string spellings."""

    def test_digit_tables_match_string_spelling(self):
        high, low, *_ = gridtext._csv_digit_tables()
        expected_high, expected_low = csv_digit_tables_by_strings()
        assert (high.shape, low.shape) == ((8000,), (6000,))
        assert high.dtype == low.dtype == expected_high.dtype == expected_low.dtype
        assert high.tolist() == expected_high.tolist()
        assert low.tolist() == expected_low.tolist()


class TestGridStream:
    """Grid tables are spelled a block at a time, as the blocks are drawn."""

    @pytest.mark.parametrize("texts", [gridtext._csv_grid_texts, tables._json_grid_texts],
                             ids=["csv", "json"])
    def test_non_finite_block_raises_before_it_is_spelled(self, texts):
        spec = GridSpec(Space.POSITION, 2.0, 1.0)
        blocks = [np.zeros((2, spec.n)), np.ones((1, spec.n)), np.full((2, spec.n), np.nan)]
        fold = caf._ArgmaxFold(spec)
        spelled = []
        with pytest.raises(ValueError, match="not finite"):
            spelled.extend(texts(Grid2D(spec, map(fold.add, blocks))))
        # the cells of the three finite rows, and nothing of the NaN block
        text = "".join(spelled)
        assert text.count("\n" if texts is gridtext._csv_grid_texts else "    [") == 3 * spec.n
        assert "nan" not in text.lower()

    @pytest.mark.parametrize("cells, width", [
        *(pytest.param(cells, None, id=str(cells)) for cells in (1, 2, 3, 5)),
        *(pytest.param(cells, width, id=f"{cells}-columns-{width}")
          for width in (3, 4) for cells in (1, 2, 3, 5))])
    def test_json_rows_in_parts(self, monkeypatch, cells, width):
        # a grid row wider than a part is spelled a part at a time, and a column
        # part holds whole rows, one if a row is wider than the part: the same bytes
        monkeypatch.setattr(tables, "_JSON_PART_CELLS", cells)
        if width is None:
            spec = GridSpec(Space.POSITION, 2.0, 1.0)
            values = np.arange(25.0).reshape(5, 5) / 7.0
            values[2, 1:4] = math.nan, math.inf, -0.0
            axis = spec.axis().tolist()
            rows = Grid2D(spec, (values,))
            listed = [[e, n, v] for n, row in zip(axis, values.tolist()) for e, v in zip(axis, row)]
        else:
            rows = Columns(_non_finite_columns(11).arrays[:width])
            listed = column_rows(rows)
        columns = ("e", "n", "v", "w")[:width or 3]
        payload = {"note": "n", "columns": list(columns), "rows": listed}
        table = ResultTable(columns, rows, note="n")
        assert table.to_json() == json.dumps(payload, indent=2) + "\n"

    def test_blocks_are_spelled_before_the_next_is_drawn(self):
        # a stream that reuses one array, as the fill does, writes every row
        spec = GridSpec(Space.POSITION, 3.0, 1.0)
        values = np.arange(spec.n * spec.n, dtype=float).reshape(spec.n, spec.n)
        reused = np.empty((3, spec.n))

        def blocks():
            for lo in range(0, spec.n, 3):
                part = reused[:len(values[lo:lo + 3])]
                part[:] = values[lo:lo + 3]
                yield part

        for fmt in ("csv", "json"):
            table = ResultTable(("e", "n", "v"), Grid2D(spec, blocks()), note="n")
            expected = ResultTable(("e", "n", "v"), Grid2D(spec, (values,)), note="n")
            assert "".join(table._pieces(fmt)) == "".join(expected._pieces(fmt))


# Rows per ``%`` application of the old array writer below.
_COLUMN_STACK_CHUNK_ROWS = 1 << 16


def _column_stack_pieces(columns, rows: np.ndarray, note: str, fmt: str):
    """The table writer before grid rows, for rows held in one 2-D array.

    CSV: one ``%.6g`` template per ``_COLUMN_STACK_CHUNK_ROWS`` rows.  JSON: ``json``'s
    ``indent=2`` encoding of ``{"note", "columns", "rows": rows.tolist()}``
    plus a newline, which is ``json.dumps``; the row lists are made as the
    encoder reaches them, so a 1001^2 grid does not hold a million at once.
    """
    if fmt == "csv":
        yield ",".join(columns) + "\n"
        template = ",".join(["%.6g"] * rows.shape[1]) + "\n"
        for i in range(0, len(rows), _COLUMN_STACK_CHUNK_ROWS):
            c = rows[i:i + _COLUMN_STACK_CHUNK_ROWS]
            yield (template * len(c)) % tuple(c.ravel().tolist())
        return

    class RowLists(list):  # encodes as rows.tolist(): json iterates it like a list
        def __len__(self):
            return len(rows)

        def __iter__(self):
            return (r.tolist() for r in rows)

    payload = {"note": note, "columns": list(columns), "rows": RowLists()}
    yield from json.JSONEncoder(indent=2).iterencode(payload)
    yield "\n"


def _grid_as_column_stack(axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    east, north = np.meshgrid(axis, axis)
    return np.column_stack((east.ravel(), north.ravel(), values.ravel()))


def _digest(pieces) -> str:
    h = hashlib.sha256()
    for piece in pieces:
        h.update(piece.encode())
    return h.hexdigest()


class TestGridRows:
    """Grid tables write the bytes of the old meshgrid + column_stack table."""

    COLUMNS = ("offset_e[m/s]", "offset_n[m/s]", "caf[1]")

    @pytest.mark.parametrize("half_extent, step", [
        (2.0, 0.1), (3.0, 0.2), (4.5, 0.3), (5e-6, 2.5e-7), (1.0, 1.0),
        (128.0, 1.0),
    ], ids=["step-0.1", "step-0.2", "step-0.3", "step-2.5e-7", "n-3", "longer-than-a-chunk"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_column_stack_writer(self, half_extent, step, fmt):
        spec = GridSpec(Space.VELOCITY, half_extent, step)
        axis = spec.axis()
        n = len(axis)
        # finite values at several magnitudes, plus random bit patterns
        # (NaN, infinities, subnormals) in the small grids
        values = np.random.default_rng(n).standard_normal((n, n)) * 10.0 ** (np.arange(n) % 9 - 4)
        if n < 100:
            values.ravel()[::3] = _random_doubles(len(values.ravel()[::3]), seed=n)
        table = ResultTable(self.COLUMNS, Grid2D(spec, (values,)), note="n")
        expected = "".join(_column_stack_pieces(
            self.COLUMNS, _grid_as_column_stack(axis, values), "n", fmt))
        assert (table.to_csv() if fmt == "csv" else table.to_json()) == expected
        if half_extent == 128.0:
            assert n * n > _COLUMN_STACK_CHUNK_ROWS
        if step == 2.5e-7:
            assert "e-06," in expected  # labels in exponent form

    # sha256 of the ``json.dumps`` reference writer's bytes for the noisy
    # case3 grids below (seed 7; 201^2 position, 1001^2 velocity).  Running
    # that writer live takes seconds per grid.  The noise draws tie these
    # digests to the numpy build, as ``perfbench/digests.json`` is tied.
    JSON_WRITER_DIGESTS = {
        Space.POSITION: "e64e0bcdc2c0ba638dae9a47c319e9778af4b63fbc29d0eb29b56d841ac6b67c",
        Space.VELOCITY: "47c70bc77cc29f791b29b4c9ee85c92e9bb9c4753cfe18975ac114cba4bceb46",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_caf_files_match_column_stack_writer(self, tmp_path, fmt):
        def noisy(raw):
            raw["grid"] = [{"space": "position", "half_extent": 100.0, "step": 1.0},
                           {"space": "velocity", "half_extent": 100.0, "step": 0.2}]
            raw["noise_sigma"] = 0.05

        p = dump_variant(tmp_path, "case3", noisy)
        assert main(["caf", "--scenario", str(p), "--seed", "7", "--format", fmt,
                     "--out", str(tmp_path)]) == EXIT_OK
        s = replace(load_scenario(p), seed=7)
        for space, unit, n in ((Space.POSITION, "m", 201), (Space.VELOCITY, "m/s", 1001)):
            written = (tmp_path / f"caf_{space.value}.{fmt}").read_bytes()
            if fmt == "json":
                assert hashlib.sha256(written).hexdigest() == self.JSON_WRITER_DIGESTS[space]
                continue
            total = grid_values(scenario_caf(s, space))
            axis = s.grid_for(space).axis()
            assert len(axis) == n
            expected = _column_stack_pieces(
                (f"offset_e[{unit}]", f"offset_n[{unit}]", "caf[1]"),
                _grid_as_column_stack(axis, total),
                f"superposed {space.value}-space correlation grid", fmt)
            assert hashlib.sha256(written).hexdigest() == _digest(expected)


class TestCommands:
    def test_project_writes_expected_values(self, tmp_path, capsys):
        assert main(["project", "--scenario", "table1.scenario",
                     "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "project.csv").read_text()
        assert text.splitlines()[0] == "prn,elevation[deg],range_bias[m],range_rate_bias[m/s]"
        assert "18,42.8,39.9401,41.6766" in text

    def test_project_json_format(self, tmp_path):
        assert main(["project", "--scenario", "table1.scenario", "--out", str(tmp_path),
                     "--format", "json"]) == EXIT_OK
        rows = json.loads((tmp_path / "project.json").read_text())["rows"]
        assert rows[1][2] == pytest.approx(39.94007471783003, rel=1e-12)

    def test_project_biases_are_the_center_line_radii(self, tmp_path):
        # 41.3 deg does not survive a degrees round trip, and the biases
        # still equal the radii intersect uses, bit for bit; each path
        # carries the flags' default bias
        def at_41_3(raw):
            for sat in raw["satellites"]:
                sat["elevation_deg"] = 41.3
                sat["paths"][0].update(delay_chips=1.0, doppler_hz=120.0)

        p = dump_variant(tmp_path, "case3", at_41_3)
        assert main(["project", "--scenario", str(p), "--format", "json",
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = json.loads((tmp_path / "project.json").read_text())["rows"]
        s = load_scenario(p)
        assert [row[0] for row in rows] == [ch.prn for ch in s.satellites]
        for row, ch in zip(rows, s.satellites):
            assert row[2:] == [center_line(ch, 0, space, s.signal).radius for space in Space]

    def test_project_scales_with_the_bias_flags(self, tmp_path):
        rows = []
        for flags in ([], ["--delay-chips", "2", "--doppler-hz", "60"]):
            out = tmp_path / f"flags{len(flags)}"
            assert main(["project", "--scenario", "table1.scenario", "--format", "json",
                         "--out", str(out), *flags]) == EXIT_OK
            rows.append(json.loads((out / "project.json").read_text())["rows"])
        for one, scaled in zip(*rows, strict=True):
            assert scaled[:2] == one[:2]
            assert scaled[2] == pytest.approx(2.0 * one[2], rel=1e-12)
            assert scaled[3] == pytest.approx(0.5 * one[3], rel=1e-12)

    def test_stdout_echoes_the_first_40_rows_of_the_file(self, tmp_path, capsys):
        def eight_satellites(raw):
            paths = [{"kind": "los"}, {"kind": "nlos", "delay_chips": 0.5, "doppler_hz": 40.0},
                     {"kind": "nlos", "delay_chips": 1.0, "doppler_hz": 90.0}]
            raw["satellites"] = [{"prn": k + 1, "elevation_deg": 20.0 + 6.0 * k,
                                  "azimuth_deg": 10.0 + 37.0 * k, "paths": paths}
                                 for k in range(8)]

        p = dump_variant(tmp_path, "case3", eight_satellites)
        assert main(["intersect", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "intersect.csv").read_text().splitlines()
        assert len(lines) == 1 + 450  # 2 spaces x (28 pairs x 9 path pairs - 27 merged LOS)
        assert capsys.readouterr().out.splitlines() == lines[:41] + [
            "... (450 rows total)", f"wrote {tmp_path / 'intersect.csv'}"]

    def test_intersect_counts_pairs(self, tmp_path):
        assert main(["intersect", "--scenario", "case3.scenario", "--space", "position",
                     "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "intersect.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header + C(4,2) cross-satellite points

    def test_intersect_of_one_satellite_writes_an_empty_table(self, tmp_path):
        p = dump_variant(tmp_path, "case3", lambda raw: raw.update(satellites=raw["satellites"][:1]))
        for fmt in ("csv", "json"):
            assert main(["intersect", "--scenario", str(p), "--format", fmt,
                         "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "intersect.csv").read_text()
        assert header.startswith("space,prn_i,") and header.count("\n") == 1
        assert '\n  "rows": []\n}\n' in (tmp_path / "intersect.json").read_text()

    def test_bounds_case3(self, tmp_path, capsys):
        assert main(["bounds", "--radii", "60,40,30,15", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "CASE3, lower 30 (attained)" in out

    @pytest.mark.parametrize("radii, csv_row, json_row", [
        ("60,40,30,15", "3,30,1,60", [3, 30.0, 1, pytest.approx(60.0)]),
        ("0,0,9.3", "1,0,1,90", [1, 0.0, 1, 90.0]),
        ("40,40", "2,40,0,", [2, 40.0, 0, ""]),
    ], ids=["case3", "two-los", "case2-open"])
    def test_bounds_columns(self, tmp_path, radii, csv_row, json_row):
        columns = ["case", "lower[m|m/s]", "attained", "attained_at[deg]"]
        for fmt in ("csv", "json"):
            assert main(["bounds", "--radii", radii, "--format", fmt,
                         "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "bounds.csv").read_text().splitlines() == [",".join(columns), csv_row]
        table = json.loads((tmp_path / "bounds.json").read_text())
        assert (table["columns"], table["rows"]) == (columns, [json_row])

    def test_bounds_bad_radii_is_usage_error(self, tmp_path):
        assert main(["bounds", "--radii", "60,forty", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_caf_argmax_summary(self, tmp_path, capsys):
        assert main(["caf", "--scenario", "table6.scenario", "--space", "position",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert "argmax offset (43, 19) m" in capsys.readouterr().out
        header = (tmp_path / "caf_position.csv").read_text().splitlines()[0]
        assert header == "offset_e[m],offset_n[m],caf[1]"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_caf_velocity_matches_per_cell_loop(self, tmp_path, fmt):
        def small_noisy(raw):
            raw["grid"] = [{"space": "velocity", "half_extent": 3.0, "step": 0.2}]
            raw["noise_sigma"] = 0.05
            raw["seed"] = 0

        p = dump_variant(tmp_path, "case3", small_noisy)
        assert main(["caf", "--scenario", str(p), "--space", "velocity", "--seed", "7",
                     "--format", fmt, "--out", str(tmp_path)]) == EXIT_OK

        # the writer as it was: field-by-field seed override, one tuple per cell
        s = load_scenario(p)
        s = Scenario(
            signal=s.signal,
            satellites=s.satellites,
            grids=s.grids,
            noise_sigma=s.noise_sigma,
            seed=7,
        )
        spec = s.grid_for(Space.VELOCITY)
        total = grid_values(scenario_caf(s, Space.VELOCITY))
        axis = spec.axis()
        rows = []
        for i in range(spec.n):
            for j in range(spec.n):
                rows.append((float(axis[j]), float(axis[i]), float(total[i, j])))
        table = ResultTable(
            ("offset_e[m/s]", "offset_n[m/s]", "caf[1]"),
            tuple(rows),
            note="superposed velocity-space correlation grid",
        )
        expected = table.to_csv() if fmt == "csv" else table.to_json()
        assert spec.n == 31
        assert (tmp_path / f"caf_velocity.{fmt}").read_text() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_caf_holds_no_grid(self, tmp_path, fmt):
        # four channels on a 1001^2 velocity grid: beyond start-up, the
        # command holds a few blocks of rows and their text, not the 8 MB grid
        def velocity_grid(half_extent):
            def mutate(raw):
                raw["grid"] = [{"space": "velocity", "half_extent": half_extent, "step": 0.2}]
            return mutate

        def caf_velocity(half_extent):
            p = dump_variant(tmp_path, "case3", velocity_grid(half_extent))
            return main(["caf", "--space", "velocity", "--scenario", str(p), "--format", fmt,
                         "--out", str(tmp_path / "out")])

        assert caf_velocity(1.0) == EXIT_OK  # first-use imports and tables
        tracemalloc.start()
        try:
            assert caf_velocity(100.0) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert load_scenario(tmp_path / "variant.scenario").grid_for(Space.VELOCITY).n == 1001
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_caf_integer_grid_literals(self, tmp_path, fmt):
        # an int literal and the equal float literal make the same grid and
        # the same file: labels are floats either way
        files = []
        for kind in (int, float):
            def grid(raw, kind=kind):
                raw["grid"] = [{"space": "position", "half_extent": kind(20), "step": kind(1)},
                               {"space": "velocity", "half_extent": kind(3), "step": kind(1)}]

            out = tmp_path / kind.__name__
            p = dump_variant(tmp_path, "case3", grid)
            assert ('"half_extent": 20,' in p.read_text()) == (kind is int)
            assert main(["caf", "--scenario", str(p), "--format", fmt,
                         "--out", str(out)]) == EXIT_OK
            files.append([(out / f"caf_{space}.{fmt}").read_bytes()
                          for space in ("position", "velocity")])
        assert files[0] == files[1]
        if fmt == "json":
            assert b"      -20.0,\n" in files[0][0]

    def test_integral_float_seed_and_prn(self, tmp_path):
        # the schema takes 2.0 as an integer, so the noise seed and the PRNs do too
        files = []
        for kind in (int, float):
            def noisy(raw, kind=kind):
                raw["grid"] = [{"space": "position", "half_extent": 20.0, "step": 2.0},
                               {"space": "velocity", "half_extent": 3.0, "step": 0.2}]
                raw["noise_sigma"] = 0.05
                raw["seed"] = kind(2)
                for sat in raw["satellites"]:
                    sat["prn"] = kind(sat["prn"])

            out = tmp_path / kind.__name__
            p = dump_variant(tmp_path, "case3", noisy)
            assert ('"seed": 2,' in p.read_text()) == (kind is int)
            for argv in (["caf"], ["project", "--format", "json"],
                         ["intersect", "--format", "json"]):
                assert main([*argv, "--scenario", str(p), "--out", str(out)]) == EXIT_OK
            files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert files[0] == files[1]
        assert sorted(files[0]) == ["caf_position.csv", "caf_velocity.csv", "intersect.json",
                                    "project.json"]

    def test_readme_synopsis_matches_parser(self):
        # each command's line in the README's synopsis lists the flags it
        # takes, besides the --out and --format that every command takes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.DOTALL).group(1)
        (commands,) = [a.choices for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        documented = {}
        for line in block.splitlines():
            name, _, flags = line.partition(" ")
            if name in commands:
                documented[name] = {*re.findall(r"--[a-z-]+", flags), "--out", "--format"}
        assert documented == {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in commands.items()}

    # sha256 of each file ``report --seed 1 --format json`` writes.  The CSV
    # tree's are read from ``perfbench/digests.json``.  As with
    # ``JSON_WRITER_DIGESTS``, the sines, cosines and random draws tie these
    # digests to the numpy build.
    REPORT_JSON_DIGESTS = {
        "case1_table.json": "b93d0c33c7f7ca1884932781a235f88bcf515ea7dc0fa272fb5b0c9b29c8497e",
        "case2_table.json": "9537a740a7785ed0539c44c869a8342a59f873c775b3227c77409ebe8bd63ecf",
        "case3_table.json": "f151d666d9f56075b9ceacb075bf0bc9e85081b76cb7890b89c50b46ca4bdeeb",
        "field_reference.json": "6fa1afb3cec1bd5ba719b512df915be3ca1b84a4eb52831f5b0a54146a500ce1",
        "fig11_data.json": "f8151d80070a78838e576685a47536532af7c069cde5a5398bed36baecdc8a7e",
        "fig7_data.json": "9315d74100ea6ccb3876bb41ff13b191876e80d04a9201d36914c6a428fe05b4",
        "fig8_data.json": "97c2bbcbb0b92c5cc5e953f1b5b7a4e673c54c4d8579e0edaa2cb4ca3e5ed273",
        "projection_table.json": "1fb357d84fcf65a12fb06a0da0383f32bce7f95d2ecccc72d37f5d53214a96e0",
        "report.json": "16f774b47285a3d1f1c0cc267ba56189b61ae67b70c09d3367aeadeddb287da2",
    }

    @pytest.mark.parametrize("fmt, decoy", [("csv", False), ("json", False), ("csv", True)],
                             ids=["csv", "json", "decoy"])
    def test_report_bytes_match_recorded_digests(self, tmp_path, monkeypatch, capsys, fmt,
                                                 decoy):
        out = tmp_path / "out"
        if decoy:  # a same-named fixture in the working directory, with PRN 10 turned by 5 deg
            def turn(raw):
                (sat,) = (sat for sat in raw["satellites"] if sat["prn"] == 10)
                sat["azimuth_deg"] += 5.0

            (tmp_path / "case1.scenario").write_text(json.dumps(fixture_with("case1", turn)))
            monkeypatch.chdir(tmp_path)
            bundled = load_scenario(cli._bundled_scenario("case1.scenario"))
            # a bare --scenario name still finds the working directory's file first
            assert channel(load_scenario("case1.scenario"), 10).angles.azimuth_deg == (
                pytest.approx(channel(bundled, 10).angles.azimuth_deg + 5.0))
        assert main(["report", "--seed", "1", "--format", fmt, "--out", str(out)]) == EXIT_OK
        if fmt == "csv":
            digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
            expected = json.loads(digests.read_text())["report"]["1"]
        else:
            expected = self.REPORT_JSON_DIGESTS
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in out.iterdir()} == expected
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(":")[0] for line in lines[:6]] == [
            f"criterion-{k} {name}" for k, name in enumerate(
                ("projection-table", "elevation-sweep-anchors", "case-tables-analytic",
                 "case-tables-grid-readout", "monte-carlo", "field-replay-theoretical"), 1)]
        assert lines[6:] == [f"report: PASS; details in {out / 'report.json'}"]

    # sha256 of the table ``project`` / ``intersect`` write for ``ECEF_SCENARIO``,
    # whose look angles come from ``geom.ecef_to_enu``'s plain-float dot
    # products: a rotation rounded otherwise moves the angles' last bits, and
    # with them the JSON digests (CSV's six digits hide them)
    ECEF_DIGESTS = {
        "project.csv": "12d77caf80b89d923f8d8b29ddb81f8d75ed2cdbd1b899256db163688ac79ea4",
        "project.json": "67f02632d196f316d84e8a7e5c112003ef09596e7f2485b5b0f326f0989d4a49",
        "intersect.csv": "bd2777007be25d3de3c2e1887a00777a4318a2e5e14c85f5c09ffed06d3e11fd",
        "intersect.json": "a77817c76682f304fff6dea256ec7c08d37ec3823bd0d4a5947d531b475dc739",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["project", "intersect"])
    def test_ecef_scenario_bytes_match_recorded_digests(self, tmp_path, command, fmt):
        scenario = tmp_path / "ecef.scenario"
        scenario.write_text(json.dumps(ECEF_SCENARIO))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scenario), "--format", fmt,
                     "--out", str(out)]) == EXIT_OK
        name = f"{command}.{fmt}"
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == self.ECEF_DIGESTS[name]

    @pytest.mark.parametrize("coretype", [None, "Sandybridge", "Haswell"])
    @pytest.mark.parametrize("command", ["project", "intersect"])
    def test_ecef_scenario_bytes_do_not_depend_on_the_blas_kernel(
            self, tmp_path, monkeypatch, command, coretype):
        # OpenBLAS picks its kernels by CPU unless ``OPENBLAS_CORETYPE`` names one;
        # its Sandybridge and Haswell kernels round a 3x3 matrix-vector product
        # differently, so a rotation through BLAS misses the digests under one
        monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        scenario = tmp_path / "ecef.scenario"
        scenario.write_text(json.dumps(ECEF_SCENARIO))
        env = {} if coretype is None else {"OPENBLAS_CORETYPE": coretype}
        done = run_module(["-m", "dpe_multipath", command, "--scenario", str(scenario),
                           "--format", "json", "--out", str(tmp_path)], **env)
        assert done.returncode == EXIT_OK, done.stderr
        name = f"{command}.json"
        assert (hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                == self.ECEF_DIGESTS[name])

    # sha256 of the table ``intersect --space both`` writes for each bundled
    # scenario and for ``_dense_sky()``, whose merged points carry several
    # contributors: any change to the crossing, merge or row order shows here
    INTERSECT_DIGESTS = {
        ("table1", "csv"): "90ac2f73e6bccda9de20d9c429aaaa3677310c1a7b4e6ccbae111d3f1963c75f",
        ("table1", "json"): "2f34e2883b13f287d0b6a0314e3ce16f10a483f6ee505c667b92775fe37be1c7",
        ("case1", "csv"): "d2f53a51f0fa6dba211aba2b0e9f5b5d206879fb6b067f488f211e782ec94f14",
        ("case1", "json"): "dcddc98131e03725dbf6fe8adb2fea6252c7b451ffbd3ab0a27168d93aa8d820",
        ("case2", "csv"): "332166d6bcdc63ee5b65701c45f61558752e2e61c8067259610ff7673a44d759",
        ("case2", "json"): "28f153ba9b69e0013c2c53dd8064dc179b8b5ad3f5251bfb603747d799ec97cd",
        ("case3", "csv"): "e1a9445304d88702a3b058bd337cd055e05fafc4ce66d3cae9d4bf5cd08bf078",
        ("case3", "json"): "1269dcb0ac8a33777273bcd39e13c98e7bbabd8eed68b63dc083327e0197e4c5",
        ("table6", "csv"): "f69f3696cae2bb9a7c6f8d5ee4253c0499b8c8ffefc0c9e3a40cc058a4aaeb7c",
        ("table6", "json"): "d8d6ccff3036c75dc70107bb15f825d7722dd87fa85ab2bd1ee607bf80f925d4",
        ("dense", "csv"): "c146ae45eddf8072dbe891a512b496c0eb0c9d744284611eceab9b7951ff7531",
        ("dense", "json"): "e5c0c147f213ab7c70906b665fc38fa1294ac5315792d8a9ca2b439b646f6736",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", [*BUNDLED, "dense"])
    def test_intersect_bytes_match_recorded_digests(self, tmp_path, name, fmt):
        if name == "dense":
            scenario = tmp_path / "dense.scenario"
            scenario.write_text(json.dumps(_dense_sky()))
        else:
            scenario = f"{name}.scenario"
        out = tmp_path / "out"
        assert main(["intersect", "--scenario", str(scenario), "--space", "both",
                     "--format", fmt, "--out", str(out)]) == EXIT_OK
        written = (out / f"intersect.{fmt}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == self.INTERSECT_DIGESTS[name, fmt]

    def test_dense_sky_has_merged_points_and_parallel_pairs(self):
        scenario = _scenario_from_dict(_dense_sky())
        for space in Space:
            lines = center_lines(scenario, space)
            found = enumerate_intersections(lines)
            merged = [len(res.contributors) for res in found if len(res.contributors) > 1]
            assert len(merged) >= 2  # the LOS lines at the truth, and the common NLOS point
            pairs = sum(len(res.contributors) for res in found)
            assert pairs < count_intersections([len(ch.paths) for ch in scenario.satellites])

    # sha256 of the table ``bounds`` writes, per radii and format
    BOUNDS_DIGESTS = {
        ("60,40,30,15", "csv"): "4dd53264a21988aa598fcabfa9beb36335b130d935a16afcb4dae2374263e860",
        ("60,40,30,15", "json"): "abba073d726a033a849b3678b75310a49b0a91f02312601b7452e964ebe51982",
        ("0,0,9.3", "csv"): "a98dbbd8edcb1ebfae5eaeee130f357e35d118c8e58e10d6e9ddc0f4c483c5d5",
        ("0,0,9.3", "json"): "6ebde5226c17be2429f8f5b23522a0f0e49961afa05e2641eb7f5ca31ebdea69",
        ("40,40", "csv"): "0d8e98042618c0c03c384b9dd74cbfa9a48d10abc7e69b3d8107cf2020983041",
        ("40,40", "json"): "a28a495bbafdf8075e0c1f975f384b5fce48a5d7e16224ab5ab01bf97d6092c7",
        ("0,40", "csv"): "f1656c9d3b93ecf7d8343230445d680a192c7a8e90c95df398ac7d1f9cc198cf",
        ("0,40", "json"): "5facc331a13691d832fc3ab42a2a54966b87657880aac17ad575224a0ce0d4d8",
        # the two smallest radii equal, the rest not: case 3, open
        ("40,40,60", "csv"): "3fce97a672972834460caf479e94cb5bba586cdb968da451027d9dcb2d8a9de3",
        ("40,40,60", "json"): "b569cd90056c79ca9653703e37ae3bf3c2d4a72ad6a462f2abf92335fb99825b",
        ("15,15.0000000001,60", "csv"):
            "dc4fe33b1b3e343767c54cdf1276a0a246280017d5d8cb023338dc32bbd5a3e1",
        ("15,15.0000000001,60", "json"):
            "d6deae0dd6c08ae086f53272c8d836080208ef7c65796bbc65aaf4b6c9e1f5b6",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("radii", ["60,40,30,15", "0,0,9.3", "40,40", "0,40", "40,40,60",
                                       "15,15.0000000001,60"])
    def test_bounds_bytes_match_recorded_digests(self, tmp_path, radii, fmt):
        assert main(["bounds", "--radii", radii, "--format", fmt,
                     "--out", str(tmp_path)]) == EXIT_OK
        written = (tmp_path / f"bounds.{fmt}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == self.BOUNDS_DIGESTS[radii, fmt]

    # sha256 over the files ``montecarlo`` writes, per radii and format, for each
    # seed of ``MONTECARLO_SEEDS`` and, within it, each trial count of
    # ``MONTECARLO_TRIALS``: 1e-7 spells its errors in exponent form, 1e300
    # overflows every error to inf
    MONTECARLO_SEEDS = (0, 1, 2**64, 2**128 - 1)
    MONTECARLO_TRIALS = (1, 3, 5, 10000)
    MONTECARLO_DIGESTS = {
        ("", "csv"): "2aab9bfe994cf930d4808e799d2ce39252241bf05e7a64066c80995ee3974769",
        ("", "json"): "11580fec66285e17d1d9d659244527c22953efeb9f1900a5c1666cfd6d8f7156",
        ("--rho-i 1e-7 --rho-j 0", "csv"):
            "4ed85131f8a0c3d26ae7cea8a0cb85de85e4e0d3c5d404afd309f83b90ec34b1",
        ("--rho-i 1e-7 --rho-j 0", "json"):
            "b71c9f8622b4051aaed4b4cd4bd0a283c8c946e72518691969cbffa38afad865",
        ("--rho-i 1e300 --rho-j 1e300", "csv"):
            "249006eb45a20dfe52b6cc9f37efdf15b8ca354ce513bc0c8004ae237938684c",
        ("--rho-i 1e300 --rho-j 1e300", "json"):
            "c2ef5b308af2178c3f0ed460418cf898fe61eb9e1cb6dd7f6d30b31c19e0c44e",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("radii", ["", "--rho-i 1e-7 --rho-j 0",
                                       "--rho-i 1e300 --rho-j 1e300"])
    def test_montecarlo_bytes_match_recorded_digests(self, tmp_path, capsys, radii, fmt):
        h = hashlib.sha256()
        for seed in self.MONTECARLO_SEEDS:
            for trials in self.MONTECARLO_TRIALS:
                assert main(["montecarlo", *radii.split(), "--seed", str(seed),
                             "--trials", str(trials), "--format", fmt,
                             "--out", str(tmp_path)]) == EXIT_OK
                h.update((tmp_path / f"montecarlo.{fmt}").read_bytes())
        assert h.hexdigest() == self.MONTECARLO_DIGESTS[radii, fmt]
        text = (tmp_path / f"montecarlo.{fmt}").read_text()  # of 10,000 trials
        assert ("e-07" in text) == ("1e-7" in radii)
        assert ("inf" in text.lower()) == ("1e300" in radii)

    def test_montecarlo_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["montecarlo", "--trials", "300", "--out", str(a)]) == EXIT_OK
        assert main(["montecarlo", "--trials", "300", "--out", str(b)]) == EXIT_OK
        assert (a / "montecarlo.csv").read_bytes() == (b / "montecarlo.csv").read_bytes()

    def test_montecarlo_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["montecarlo", "--trials", "50", "--seed", "1", "--out", str(a)]) == EXIT_OK
        assert main(["montecarlo", "--trials", "50", "--seed", "2", "--out", str(b)]) == EXIT_OK
        assert (a / "montecarlo.csv").read_text() != (b / "montecarlo.csv").read_text()


def _dense_sky() -> dict:
    """Ten satellites, each with one LOS and three NLOS paths, angles and biases
    drawn from a seeded stream.  Every LOS line passes through the truth, one
    NLOS line of each of satellites 0-3 is solved to pass through one common
    point per space, and satellite 9 faces satellite 0 (azimuths 180 deg
    apart): their lines never cross, and their LOS lines coincide, so every
    crossing of one is a crossing of the other."""
    rng = random.Random(20261020)
    rates = {space: SignalConfig().rate(space) for space in Space}
    common = {Space.POSITION: (37.5, -21.25), Space.VELOCITY: (-12.75, 44.5)}
    satellites = []
    for k in range(10):
        elevation = rng.uniform(10.0, 75.0)
        azimuth = ((satellites[0]["azimuth_deg"] + 180.0) % 360.0 if k == 9
                   else rng.uniform(0.0, 360.0))
        paths = [{"kind": "los"}]
        for m in range(3):
            bias = {space: rng.uniform(0.1, 1.2) * (1.0 if space is Space.POSITION else 90.0)
                    for space in Space}
            if k < 4 and m == 0:  # the offset whose line passes through ``common``
                for space, (e, n) in common.items():
                    a = math.radians(azimuth)
                    offset = -(math.sin(a) * e + math.cos(a) * n)
                    bias[space] = (offset * math.cos(math.radians(elevation)) * rates[space]
                                   / SPEED_OF_LIGHT)
            paths.append({"kind": "nlos", "amplitude": round(rng.uniform(0.2, 0.8), 3),
                          "delay_chips": bias[Space.POSITION],
                          "doppler_hz": bias[Space.VELOCITY]})
        satellites.append({"prn": 2 * k + 1, "elevation_deg": elevation,
                           "azimuth_deg": azimuth, "paths": paths})
    return {"schema_version": 1,
            "receiver": {"position_ecef": [-3957199.0, 3310205.0, 3737911.0]},
            "satellites": satellites}


def _set_path(raw, sat, path, **fields):
    raw["satellites"][sat]["paths"][path].update(fields)


MALFORMED = {
    "bad-kind-and-extra-key": lambda raw: _set_path(raw, 0, 0, kind="bounce", gain=2.0),
    "no-satellites": lambda raw: raw.update(satellites=[]),
    "version-and-receiver": lambda raw: (raw.update(schema_version=2), raw.pop("receiver")),
    "negative-step": lambda raw: raw["grid"][1].update(step=-0.1),
    "string-sigma-and-bad-prn": lambda raw: (
        raw.update(noise_sigma="0.1"), raw["satellites"][2].update(prn=-4)),
    "short-vector": lambda raw: raw["receiver"].update(position_ecef=[1.0, 2.0]),
    "short-velocity": lambda raw: raw["receiver"].update(velocity_ecef=[1.0]),
    "zero-sampling-rate": lambda raw: raw["signal"].update(sampling_rate_hz=0),
}


class TestSchemaValidation:
    def test_schema_is_a_valid_schema(self):
        # the loader builds its validator without checking the constant schema
        jsonschema.validators.validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
    def test_message_matches_jsonschema_validate(self, tmp_path, mutate):
        p = dump_variant(tmp_path, "case3", mutate)
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(json.loads(p.read_text()), SCENARIO_SCHEMA)
        where = ".".join(str(k) for k in ref.value.absolute_path) or "(root)"
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(p)
        assert str(err.value) == f"{where}: {ref.value.message}"
        assert main(["project", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_SCHEMA


class TestSchemaDifferential:
    """``_schema_errors`` against jsonschema, the reference it replaces."""

    @given(raw=mutated_fixtures())
    @example(raw=fixture_with("table1", lambda raw: raw.update(schema_version=True)))
    @example(raw=fixture_with("table1", lambda raw: raw["receiver"].update(
        position_ecef=[1.0, 2.0, 3.0, 4.0], velocity_ecef=[True, 0.0])))
    @example(raw=fixture_with("case3", lambda raw: raw.update(noise_sigma=-0.0, seed=-1.0)))
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    def test_errors_and_best_match_agree(self, tmp_path_factory, raw):
        validator = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)
        expected = [(tuple(e.absolute_path), e.message) for e in validator.iter_errors(raw)]
        assert list(cli._schema_errors(raw, SCENARIO_SCHEMA, ())) == expected
        best = jsonschema.exceptions.best_match(validator.iter_errors(raw))
        if best is None:
            return
        p = tmp_path_factory.getbasetemp() / "differential.scenario"
        p.write_text(json.dumps(raw))
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(p)
        where = ".".join(str(k) for k in best.absolute_path) or "(root)"
        assert str(err.value) == f"{where}: {best.message}"


NON_FINITE = {
    "nan-noise-sigma": ("noise_sigma", "NaN"),
    "infinite-half-extent": ("half_extent", "Infinity"),
    "negative-infinite-delay": ("delay_chips", "-Infinity"),
    "overflowing-delay": ("delay_chips", "1e400"),
    "oversized-int-half-extent": ("half_extent", "1" + "0" * 400),
    "oversized-int-elevation": ("elevation_deg", "1" + "0" * 400),
    "oversized-int-delay": ("delay_chips", "1" + "0" * 400),
    "oversized-int-noise-sigma": ("noise_sigma", "1" + "0" * 400),
}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("field, token", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_parse_error_exit(self, tmp_path, capsys, field, token):
        text = cli._bundled_scenario("case3.scenario").read_text()
        text, count = re.subn(rf'"{field}": [-0-9.e]+', f'"{field}": {token}', text, count=1)
        assert count == 1
        p = tmp_path / "nonfinite.scenario"
        p.write_text(text)
        with pytest.raises(ScenarioParseError, match=re.escape(token)):
            load_scenario(p)
        assert main(["caf", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        assert main(["project", "--scenario", "/missing.scenario",
                     "--out", str(tmp_path)]) == EXIT_PARSE

    def test_schema_error(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text('{"schema_version": 1, "receiver": {"position_ecef": [1, 2, 3]}, '
                       '"satellites": []}')
        assert main(["project", "--scenario", str(bad), "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_geometry_error(self, tmp_path):
        def clash(raw):
            # authored angles kept, but the position points 5 deg away
            el, az = raw["satellites"][0]["elevation_deg"], raw["satellites"][0]["azimuth_deg"]
            p = enu_to_ecef(
                enu_from_angles(LookAngles.from_degrees(el + 5.0, az - 5.0), 2.2e7),
                REFERENCE_RECEIVER,
            )
            raw["satellites"][0]["position_ecef"] = [p.x, p.y, p.z]

        p = dump_variant(tmp_path, "table6", clash)
        assert main(["project", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_GEOMETRY

    @pytest.mark.parametrize("mutate, prefix", [
        (lambda raw: raw["signal"].update(code_rate_hz=1e300), "signal: "),
        (lambda raw: raw["signal"].update(carrier_hz=1e6), "signal: "),
        (lambda raw: raw["grid"][1].update(half_extent=1.0, step=2.5), "grid.1: "),
        (lambda raw: raw["grid"][0].update(half_extent=1e300, step=1e-300), "grid.0: "),
        (lambda raw: raw["grid"][1].update(half_extent=50.0, step=1e-4), "grid.1: "),
        (lambda raw: _set_path(raw, 2, 0, delay_chips=1e308), "satellites.2.paths.0: "),
    ], ids=["huge-code-rate", "carrier-below-code-rate", "step-beyond-extent",
            "overflowing-grid-count", "grid-over-the-size-limit",
            "overflowing-projected-delay"])
    def test_signal_and_grid_domain_errors(self, tmp_path, capsys, mutate, prefix):
        p = dump_variant(tmp_path, "case3", mutate)
        with pytest.raises(ScenarioSchemaError, match=f"^{prefix}"):
            load_scenario(p)
        assert main(["project", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_SCHEMA
        assert f"schema error: {prefix}" in capsys.readouterr().err

    def test_usage_error(self, tmp_path):
        assert main(["project", "--bogus"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("command, flag, value", [
        ("project", "--doppler-hz", "-1.2e2"),
        ("project", "--delay-chips", "-.5"),
        ("project", "--delay-chips", "-2."),
        ("montecarlo", "--rho-i", "-6E+1"),
        ("montecarlo", "--rho-j", "-40"),
        ("bounds", "--radii", "-60,40"),
        ("bounds", "--radii", "-6e1,-4E+1,.3e2"),
    ])
    def test_negative_number_flag_values(self, tmp_path, command, flag, value):
        # the spaced form reads the value as the = form does, exponents included
        argv = [command, "--trials", "5"] if command == "montecarlo" else [command]
        written = []
        for form in ([flag, value], [f"{flag}={value}"]):
            out = tmp_path / str(len(form))
            assert main([*argv, *form, "--out", str(out)]) == EXIT_OK
            written.append((out / f"{command}.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("argv", [
        ["bounds", "--radii", "nan,1"],
        ["bounds", "--radii", "inf,2"],
        ["montecarlo", "--rho-i", "nan"],
        ["montecarlo", "--rho-j", "1e400"],
        ["project", "--delay-chips", "inf"],
        ["project", "--doppler-hz", "nan"],
        ["project", "--doppler-hz", "-inf"],
        ["montecarlo", "--rho-i", "-nan"],
        ["project", "--delay-chips", "1e308"],
        ["montecarlo", "--seed", "-1"],
        ["caf", "--scenario", "case3.scenario", "--seed", "-3"],
        ["montecarlo", "--trials", "0"],
        ["montecarlo", "--trials", "-5"],
        ["montecarlo", "--seed", str(2**128)],
        ["report", "--seed", str(2**128)],
        ["bounds", "--radii", "60"],
        ["bounds", "--radii", ""],
        ["bounds", "--radii", "0,0"],
        ["bounds", "--radii", "-inf,40"],
        ["bounds", "--radii", "-nan"],
        ["bounds", "--radii", "-x"],
    ], ids=["nan-radius", "inf-radius", "nan-rho-i", "overflowing-rho-j", "inf-delay",
            "nan-doppler", "spaced-negative-inf", "spaced-negative-nan",
            "overflowing-projected-delay",
            "negative-seed", "negative-caf-seed", "zero-trials", "negative-trials",
            "philox-key-range-montecarlo", "philox-key-range-report",
            "one-radius", "no-radii", "zero-radii", "spaced-negative-inf-radius",
            "spaced-negative-nan-radius", "spaced-flag-like-radius"])
    def test_flags_checked_like_scenario_numbers(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert [a for a in argv if a.startswith("--")][-1] in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["project", "--seed", "9"],
        ["intersect", "--seed", "9"],
        ["bounds", "--radii", "60,40", "--seed", "9"],
        ["bounds", "--radii", "60,40", "--scenario", "case3.scenario"],
        ["montecarlo", "--scenario", "case3.scenario"],
        ["report", "--scenario", "/no/such.scenario"],
    ], ids=["project-seed", "intersect-seed", "bounds-seed", "bounds-scenario",
            "montecarlo-scenario", "report-scenario"])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: unrecognized arguments: ")
        assert argv[-2] in err
        assert not out.exists()

    def test_overflowing_projected_doppler_flag(self, tmp_path, capsys):
        # the wavelength is below a meter, so only sec(elevation) can push
        # a finite Doppler flag past the largest double
        steep = dump_variant(tmp_path, "table6",
                             lambda raw: raw["satellites"][1].update(elevation_deg=85.0))
        out = tmp_path / "out"
        assert main(["project", "--scenario", str(steep), "--doppler-hz", "1e308",
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: --doppler-hz 1e+308: ")
        assert not out.exists()

    def test_seed_range_per_command(self, tmp_path):
        # montecarlo keys a Philox stream with the seed, so it stays below
        # 2**128; caf seeds default_rng, which takes any non-negative integer
        assert main(["montecarlo", "--trials", "5", "--seed", str(2**128 - 1),
                     "--out", str(tmp_path)]) == EXIT_OK
        noisy = dump_variant(tmp_path, "table6", lambda raw: raw.update(noise_sigma=0.1))
        assert main(["caf", "--scenario", str(noisy), "--space", "position",
                     "--seed", str(2**128), "--out", str(tmp_path)]) == EXIT_OK

    def test_huge_radii_curve_is_silent(self, tmp_path, capsys):
        # 1e308 overflows inside the law of cosines; the hypot fallback and
        # the division give the right values without a RuntimeWarning
        assert main(["montecarlo", "--rho-i", "1e308", "--rho-j", "1e308", "--trials", "3",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (tmp_path / "montecarlo.csv").read_text().splitlines()[1:] == [
            "0,54.6422,1.12556e+308", "1,152.768,inf", "2,28.1043,1.03085e+308"]

    def test_unaddressable_trial_count_is_compute_error(self, tmp_path, capsys):
        # 2**62 doubles are more bytes than an array may address, so numpy
        # refuses the draws' array before allocating anything
        assert main(["montecarlo", "--trials", str(2**62), "--out", str(tmp_path)]) == (
            EXIT_COMPUTE)
        assert capsys.readouterr().err.startswith("computation error: ")
        assert not (tmp_path / "montecarlo.csv").exists()

    def test_compute_error(self, tmp_path, capsys):
        # the biases project to finite radii, but two center lines cross
        # farther out than a double holds
        def far_crossing(raw):
            _set_path(raw, 2, 0, delay_chips=1e306)
            _set_path(raw, 0, 0, delay_chips=-1e306)

        p = dump_variant(tmp_path, "case3", far_crossing)
        out = tmp_path / "out"
        assert main(["intersect", "--scenario", str(p), "--out", str(out)]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith("computation error: position-space center lines of ")
        assert "PRN 10 path 0" in err and "PRN 23 path 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["bounds", "--radii", "60,40,30,15"], ["report"]],
                             ids=["bounds", "report"])
    @pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
    def test_unusable_out_dir(self, tmp_path, capsys, command, under):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        assert main(command + ["--out", str(out)]) == EXIT_CANT_CREATE
        err = capsys.readouterr().err
        assert err.startswith("cannot create output: ")
        assert str(blocker) in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
    def test_caf_checks_out_before_the_grids(self, tmp_path, capsys, monkeypatch, under):
        def unreached(scenario, space):
            raise AssertionError("grids built before --out was checked")

        monkeypatch.setattr(caf, "scenario_caf", unreached)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        assert main(["caf", "--scenario", "case3.scenario", "--out", str(out)]) == (
            EXIT_CANT_CREATE)
        assert capsys.readouterr().err.startswith("cannot create output: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 2.98 GiB for an array with shape (20001, 20001)"
                     " and data type float64"),
         "Unable to allocate 2.98 GiB for an array with shape (20001, 20001)"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_compute_error(self, tmp_path, capsys, monkeypatch, error, message):
        def exhausted(scenario, space):
            raise error

        monkeypatch.setattr(caf, "scenario_caf", exhausted)
        assert main(["caf", "--scenario", "case3.scenario", "--out", str(tmp_path)]) == (
            EXIT_COMPUTE)
        assert capsys.readouterr().err.startswith(f"computation error: {message}")

    def test_non_finite_caf_sum_is_compute_error(self, tmp_path, capsys):
        def huge_noise(raw):
            raw["grid"] = [{"space": "position", "half_extent": 5.0, "step": 1.0},
                           {"space": "velocity", "half_extent": 5.0, "step": 1.0}]
            raw["noise_sigma"] = 1e308

        p = dump_variant(tmp_path, "case3", huge_noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["caf", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith("computation error: summed CAF grid is not finite")
        assert "noise_sigma" in err
        assert not list(tmp_path.glob("caf_*"))

    def test_velocity_failure_keeps_the_position_table(self, tmp_path, capsys):
        # two paths of amplitude 1e308 delayed 50 chips: their code ridges lie
        # far off the position grid, which is all zeros, while their sincs
        # peak on the velocity grid and overflow there
        def velocity_overflow(raw):
            raw["grid"] = [{"space": "position", "half_extent": 5.0, "step": 1.0},
                           {"space": "velocity", "half_extent": 5.0, "step": 1.0}]
            raw["satellites"] = raw["satellites"][:1]
            raw["satellites"][0]["paths"] = [
                {"kind": "nlos", "amplitude": 1e308, "delay_chips": 50.0}] * 2

        p = dump_variant(tmp_path, "case3", velocity_overflow)
        both, alone = tmp_path / "both", tmp_path / "alone"
        assert main(["caf", "--scenario", str(p), "--out", str(both)]) == EXIT_COMPUTE
        assert "summed CAF grid is not finite" in capsys.readouterr().err
        assert main(["caf", "--scenario", str(p), "--space", "position",
                     "--out", str(alone)]) == EXIT_OK
        assert [f.name for f in both.iterdir()] == ["caf_position.csv"]
        assert (both / "caf_position.csv").read_bytes() == (
            alone / "caf_position.csv").read_bytes()

    @pytest.mark.parametrize("error, status", [
        (lambda: OSError(errno.ENOSPC, "No space left on device"), EXIT_CANT_CREATE),
        (MemoryError, EXIT_COMPUTE),
    ], ids=["write-error", "out-of-memory"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_failing_midway_is_removed(self, tmp_path, monkeypatch, capsys, error, status,
                                             fmt):
        # the default 201^2 grid: its first block's text fills the file's buffer
        def failing(scenario, space):
            grid = scenario_caf(scenario, space)

            def blocks():
                yield next(iter(grid.blocks))
                raise error()

            return replace(grid, blocks=blocks())

        monkeypatch.setattr(caf, "scenario_caf", failing)
        out = tmp_path / "out"
        assert main(["caf", "--scenario", "table6.scenario", "--space", "position",
                     "--format", fmt, "--out", str(out)]) == status
        assert not any(out.iterdir())
        if status == EXIT_CANT_CREATE:  # the message names the file
            assert str(out / f"caf_position.{fmt}") in capsys.readouterr().err

    def test_report_json_failing_midway_is_removed(self, tmp_path, monkeypatch, capsys):
        # the disk fills while report.json is written: an error that names no file
        real_open = Path.open

        def open_on_full_disk(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            if path.name == "report.json":
                def write(text):
                    io.TextIOWrapper.write(f, text[:100])
                    f.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")

                f.write = write
            return f

        monkeypatch.setattr(Path, "open", open_on_full_disk)
        out = tmp_path / "out"
        assert main(["report", "--out", str(out)]) == EXIT_CANT_CREATE
        assert str(out / "report.json") in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert (out / "field_reference.csv").exists()

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_ends_quietly(self, tmp_path, unbuffered):
        # the reader of stdout is gone before anything is printed, as with `| head -0`
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "dpe_multipath", "bounds", "--radii", "60,40,30,15",
                 "--out", str(tmp_path)], stdout=write, stderr=subprocess.PIPE, text=True,
                env=env)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (EXIT_BROKEN_PIPE, "")
        assert (tmp_path / "bounds.csv").read_text().startswith("case,")

    @pytest.mark.parametrize("args, status", [
        (["bounds", "--radii", "60,40"], EXIT_OK),
        (["bounds", "--radii", "60,forty"], EXIT_USAGE),
    ], ids=["ok", "usage-error"])
    @pytest.mark.parametrize("entry", ["python-m", "console-script"])
    def test_process_entry_freezes_the_heap(self, tmp_path, capsys, entry, args, status):
        # the process leaves its heap to the OS: gc.freeze() runs after the
        # command, so the count is read at exit; output, files and status are
        # those of an in-process main(), which freezes nothing
        if entry == "python-m":
            start = "runpy.run_module('dpe_multipath', run_name='__main__', alter_sys=True)"
        else:  # as the script that pip writes for [project.scripts] calls its target
            pyproject = (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text()
            module, name = re.search(r'^dpe-multipath = "([\w.]+):(\w+)"$', pyproject,
                                     re.MULTILINE).groups()
            start = f"from {module} import {name}; sys.exit({name}())"
        code = ("import atexit, gc, runpy, sys; "
                "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); " + start)
        argv = [*args, "--out", str(tmp_path)]
        done = run_module(["-c", code, *argv])
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        err, _, frozen = done.stderr.rstrip("\n").rpartition("\n")
        assert done.returncode == status
        assert int(frozen) > 0

        assert main(argv) == status
        assert gc.get_freeze_count() == 0
        captured = capsys.readouterr()
        assert (done.stdout, err) == (captured.out, captured.err.rstrip("\n"))
        assert written == {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def test_channel_overflow_prints_only_the_error(self, tmp_path):
        # one satellite whose two unbiased paths of amplitude 1e308 overflow
        # within the channel: numpy's warning must not reach stderr
        def huge_paths(raw):
            raw["grid"] = [{"space": "position", "half_extent": 5.0, "step": 1.0},
                           {"space": "velocity", "half_extent": 5.0, "step": 1.0}]
            raw["satellites"] = raw["satellites"][:1]
            raw["satellites"][0]["paths"] = [{"kind": "nlos", "amplitude": 1e308}] * 2

        p = dump_variant(tmp_path, "case3", huge_paths)
        done = run_module(["-m", "dpe_multipath", "caf", "--scenario", str(p),
                           "--out", str(tmp_path / "out")])
        assert done.returncode == EXIT_COMPUTE
        (line,) = done.stderr.splitlines()
        assert line.startswith("computation error: summed CAF grid is not finite")


def _tiny_grids(raw):
    raw["grid"] = [{"space": "position", "half_extent": 3.0, "step": 1.0},
                   {"space": "velocity", "half_extent": 0.6, "step": 0.2}]


FUZZ_COMMANDS = (("caf", "--space", "position"), ("caf", "--space", "velocity"),
                 ("project",), ("intersect",))
DOCUMENTED_EXITS = {EXIT_OK, EXIT_PARSE, EXIT_SCHEMA, EXIT_GEOMETRY, EXIT_USAGE, EXIT_COMPUTE,
                    EXIT_CANT_CREATE}


class TestMainFuzz:
    """``main`` on mutated bundled fixtures with tiny grids: documented exits only."""

    @given(raw=mutated_fixtures(_tiny_grids), command=st.sampled_from(FUZZ_COMMANDS),
           fmt=st.sampled_from(["csv", "json"]))
    @example(raw=fixture_with("case3", lambda raw: raw.update(
        grid=[{"space": "velocity", "half_extent": 50.0, "step": 1e-4}])),
        command=FUZZ_COMMANDS[1], fmt="csv")
    @example(raw=fixture_with("table6", lambda raw: (_tiny_grids(raw), raw["satellites"][1].update(
        paths=[{"kind": "nlos", "amplitude": 1e308}] * 2))), command=FUZZ_COMMANDS[0], fmt="json")
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_exits_are_documented_and_leave_no_table_on_failure(self, raw, command, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "fuzz.scenario"
            p.write_text(json.dumps(raw))
            if command[0] == "caf":  # keep to tiny grids: a dropped grid falls back to 2001^2
                try:
                    n = load_scenario(p).grid_for(Space(command[2])).n
                except (ScenarioParseError, ScenarioSchemaError, ValueError):
                    n = 0  # main fails the same way
                assume(n <= 201)
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main([*command, "--scenario", str(p), "--format", fmt,
                               "--out", str(out)])
            event(f"{command[0]} exits {status}")
            assert status in DOCUMENTED_EXITS
            assert "Traceback" not in err.getvalue()
            tables = sorted(f.name for f in out.iterdir()) if out.exists() else []
            if status == EXIT_OK:
                name = f"caf_{command[2]}" if command[0] == "caf" else command[0]
                assert tables == [f"{name}.{fmt}"]
            else:
                assert tables == []
