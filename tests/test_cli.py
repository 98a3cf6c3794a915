"""Scenario file I/O, CLI subcommands, exit codes, output stability."""
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dpe_multipath import cli
from dpe_multipath.caf import (
    DEFAULT_GRIDS,
    GridSpec,
    PathKind,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    scenario_caf,
    superpose_and_argmax,
)
from dpe_multipath.cli import (
    EXIT_COMPUTE,
    EXIT_GEOMETRY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_USAGE,
    SCENARIO_SCHEMA,
    GridRows,
    ResultTable,
    ScenarioParseError,
    ScenarioSchemaError,
    load_scenario,
    main,
)
from dpe_multipath.geom import EcefVector, LookAngles
from dpe_multipath.scmb import center_line
from scenario_helpers import authored_receiver, channel

BUNDLED = ("table1", "case1", "case2", "case3", "table6")

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
    raw = json.loads(cli._bundled_scenario(f"{name}.scenario").read_text())
    mutate(raw)
    path = tmp_path / "variant.scenario"
    path.write_text(json.dumps(raw) + "\n")
    return path


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
        with pytest.raises(ScenarioSchemaError):
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
            from dpe_multipath.geom import enu_from_angles, enu_to_ecef

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

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), ((1,),))

    def test_array_rows_must_be_2d(self):
        with pytest.raises(ValueError):
            ResultTable(("a",), np.zeros(3))
        with pytest.raises(ValueError):
            ResultTable(("a",), np.zeros((2, 1, 1)))

    def test_array_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), np.zeros((2, 3)))

    def test_array_rows_must_be_float(self):
        # integer cells would print as %.6g floats, not as str(int)
        with pytest.raises(ValueError):
            ResultTable(("a",), np.arange(3).reshape(3, 1))

    def test_grid_rows_checked(self):
        axis = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            GridRows(axis, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            GridRows(axis.reshape(3, 1), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridRows(np.arange(3), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridRows(axis, np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError):
            ResultTable(("e", "n"), GridRows(axis, np.zeros((3, 3))))
        assert len(GridRows(axis, np.zeros((3, 3)))) == 9


# Doubles where %.6g could plausibly part from format(v, ".6g"): signed
# zero, non-finite values, subnormal and normal extremes, integer-valued
# floats and ties at the sixth significant digit.
EDGE_FLOATS = (
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
    sys.float_info.min, sys.float_info.max, 1234567.0, -1234567.0, 123456.0, 1e16,
    0.0001234565, 9.999995, 0.5, 1e-5, 1e-4, 999999.5, 2.5e-7,
)


def _random_doubles(n: int, seed: int = 20250718) -> np.ndarray:
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    return bits.view(np.float64)


class TestArrayTable:
    """Array-backed tables write the same bytes as the same rows as Python floats."""

    @pytest.mark.parametrize("values", [
        np.array(EDGE_FLOATS), _random_doubles(20000),
    ], ids=["edge", "random-bits"])
    def test_template_matches_csv_cell(self, values):
        arr = ResultTable(("v",), values.reshape(-1, 1))
        expected = "v\n" + "".join(cli._csv_cell(float(v)) + "\n" for v in values)
        assert arr.to_csv() == expected

    @pytest.mark.parametrize("n_rows", [0, 1, cli._CSV_CHUNK_ROWS + cli._CSV_CHUNK_ROWS // 2 + 1])
    def test_same_bytes_as_tuple_rows(self, n_rows):
        values = _random_doubles(3 * n_rows, seed=n_rows).reshape(n_rows, 3)
        columns = ("a[m]", "b", "c[1]")
        arr = ResultTable(columns, values, note="n")
        tup = ResultTable(columns, tuple(map(tuple, values.tolist())), note="n")
        assert len(arr.rows) == n_rows
        assert arr.to_csv() == tup.to_csv()
        assert arr.to_json() == tup.to_json()


def _column_stack_pieces(columns, rows: np.ndarray, note: str, fmt: str):
    """The table writer before grid rows, for rows held in one 2-D array.

    CSV: one ``%.6g`` template per ``_CSV_CHUNK_ROWS`` rows.  JSON: ``json``'s
    ``indent=2`` encoding of ``{"note", "columns", "rows": rows.tolist()}``
    plus a newline, which is ``json.dumps``; the row lists are made as the
    encoder reaches them, so a 1001^2 grid does not hold a million at once.
    """
    if fmt == "csv":
        yield ",".join(columns) + "\n"
        template = ",".join(["%.6g"] * rows.shape[1]) + "\n"
        for i in range(0, len(rows), cli._CSV_CHUNK_ROWS):
            c = rows[i:i + cli._CSV_CHUNK_ROWS]
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
        axis = GridSpec(Space.VELOCITY, half_extent, step).axis()
        n = len(axis)
        # finite values at several magnitudes, plus random bit patterns
        # (NaN, infinities, subnormals) in the small grids
        values = np.random.default_rng(n).standard_normal((n, n)) * 10.0 ** (np.arange(n) % 9 - 4)
        if n < 100:
            values.ravel()[::3] = _random_doubles(len(values.ravel()[::3]), seed=n)
        table = ResultTable(self.COLUMNS, GridRows(axis, values), note="n")
        expected = "".join(_column_stack_pieces(
            self.COLUMNS, _grid_as_column_stack(axis, values), "n", fmt))
        assert (table.to_csv() if fmt == "csv" else table.to_json()) == expected
        if half_extent == 128.0:
            assert n * n > cli._CSV_CHUNK_ROWS
        if step == 2.5e-7:
            assert "e-06," in expected  # labels in exponent form

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_array_rows_match_column_stack_writer(self, fmt):
        values = _random_doubles(3 * 1000, seed=5).reshape(1000, 3)
        table = ResultTable(self.COLUMNS, values, note="n")
        expected = "".join(_column_stack_pieces(self.COLUMNS, values, "n", fmt))
        assert (table.to_csv() if fmt == "csv" else table.to_json()) == expected

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
            _, _, total = superpose_and_argmax(scenario_caf(s, space))
            axis = s.grid_for(space).axis()
            assert len(axis) == n
            expected = _column_stack_pieces(
                (f"offset_e[{unit}]", f"offset_n[{unit}]", "caf[1]"),
                _grid_as_column_stack(axis, total),
                f"superposed {space.value}-space correlation grid", fmt)
            written = (tmp_path / f"caf_{space.value}.{fmt}").read_bytes()
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

    def test_intersect_counts_pairs(self, tmp_path):
        assert main(["intersect", "--scenario", "case3.scenario", "--space", "position",
                     "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "intersect.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header + C(4,2) cross-satellite points

    def test_bounds_case3(self, tmp_path, capsys):
        assert main(["bounds", "--radii", "60,40,30,15", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "CASE3, lower 30 (attained)" in out

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
        grids = scenario_caf(s, Space.VELOCITY)
        total = grids[0].values.copy()
        for g in grids[1:]:
            total += g.values
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

    def test_run_experiments_prints_every_driver_summary(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env)
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout.splitlines() == [
            "elevation sweep: PASS (4/4 checks, 171 rows)",
            "azimuth monte carlo: PASS (3/3 checks, 10000 rows)",
            "case study case1: PASS (14/14 checks, 12 rows)",
            "case study case2: PASS (20/20 checks, 12 rows)",
            "case study case3: PASS (16/16 checks, 12 rows)",
            "case study table6: PASS (6/6 checks, 2 rows)",
            "oracle compare case1 (position): PASS (1/1 checks, 5 rows)",
            "oracle compare case3 (position): PASS (1/1 checks, 7 rows)",
            "oracle compare table6 (position): PASS (1/1 checks, 2 rows)",
        ]

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
            from dpe_multipath.geom import LookAngles, enu_from_angles, enu_to_ecef

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
        (lambda raw: _set_path(raw, 2, 0, delay_chips=1e308), "satellites.2.paths.0: "),
    ], ids=["huge-code-rate", "carrier-below-code-rate", "step-beyond-extent",
            "overflowing-grid-count", "overflowing-projected-delay"])
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

    @pytest.mark.parametrize("argv", [
        ["bounds", "--radii", "nan,1"],
        ["bounds", "--radii", "inf,2"],
        ["montecarlo", "--rho-i", "nan"],
        ["montecarlo", "--rho-j", "1e400"],
        ["project", "--delay-chips", "inf"],
        ["project", "--doppler-hz", "nan"],
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
    ], ids=["nan-radius", "inf-radius", "nan-rho-i", "overflowing-rho-j", "inf-delay",
            "nan-doppler", "overflowing-projected-delay",
            "negative-seed", "negative-caf-seed", "zero-trials", "negative-trials",
            "philox-key-range-montecarlo", "philox-key-range-report",
            "one-radius", "no-radii", "zero-radii"])
    def test_flags_checked_like_scenario_numbers(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert [a for a in argv if a.startswith("--")][-1] in err
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize("script, argv", [
        ("run_experiments.py", ["--trials", "0"]),
        ("run_experiments.py", ["--seed", "-1"]),
    ])
    def test_script_flags_checked_like_cli(self, tmp_path, script, argv):
        path = Path(__file__).resolve().parents[1] / "scripts" / script
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, str(path), *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("usage: ")
        assert f"argument {argv[0]}: expected an integer" in done.stderr
        assert "Traceback" not in done.stderr
        assert not any(tmp_path.iterdir())

    def test_huge_radii_curve_is_silent(self, tmp_path, capsys):
        # 1e308 overflows inside the law of cosines; the hypot fallback and
        # the division give the right values without a RuntimeWarning
        assert main(["montecarlo", "--rho-i", "1e308", "--rho-j", "1e308", "--trials", "3",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (tmp_path / "montecarlo.csv").read_text().splitlines()[1:] == [
            "0,54.6422,1.12556e+308", "1,152.768,inf", "2,28.1043,1.03085e+308"]

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
