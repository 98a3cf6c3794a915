"""Batch command-line surface: scenario files in, stable CSV/JSON tables out.

Scenario files are JSON (angles in degrees, all other units as in the
schema); computation is delegated to the geom/caf/scmb/mc modules.  Output
files are byte-stable for identical invocations and seeds: CSV cells carry 6
significant digits, JSON keeps full float precision.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator

import jsonschema
import numpy as np

from . import mc
from .caf import (
    DEFAULT_GRIDS,
    GeometryMismatchError,
    GridSpec,
    PathKind,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    make_channel,
    scenario_caf,
    superpose_and_argmax,
)
from .geom import EcefVector, GeometryError
from .scmb import case_bound, center_line, center_lines, enumerate_intersections

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_GEOMETRY = 4
EXIT_USAGE = 64
EXIT_COMPUTE = 70

SCHEMA_VERSION = 1

_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "receiver", "satellites"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "receiver": {
            "type": "object",
            "required": ["position_ecef"],
            "additionalProperties": False,
            "properties": {"position_ecef": _VEC3, "velocity_ecef": _VEC3},
        },
        "signal": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "code_rate_hz": _POSITIVE,
                "carrier_hz": _POSITIVE,
                "coherent_integration_s": _POSITIVE,
                "sampling_rate_hz": _POSITIVE,
            },
        },
        "grid": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["space", "half_extent", "step"],
                "additionalProperties": False,
                "properties": {
                    "space": {"enum": ["position", "velocity"]},
                    "half_extent": _POSITIVE,
                    "step": _POSITIVE,
                },
            },
        },
        "noise_sigma": {"type": "number", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "satellites": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["prn", "paths"],
                "additionalProperties": False,
                "properties": {
                    "prn": {"type": "integer", "minimum": 0},
                    "position_ecef": _VEC3,
                    "velocity_ecef": _VEC3,
                    "elevation_deg": {"type": "number"},
                    "azimuth_deg": {"type": "number"},
                    "paths": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["kind"],
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": ["los", "nlos"]},
                                "amplitude": {"type": "number", "minimum": 0},
                                "delay_chips": {"type": "number"},
                                "doppler_hz": {"type": "number"},
                            },
                        },
                    },
                },
            },
        },
    },
}


class UsageError(Exception):
    """Bad flags or arguments."""


class ScenarioParseError(Exception):
    """Scenario file missing or not parseable as JSON."""


class ScenarioSchemaError(Exception):
    """Scenario JSON violates the schema or a domain constraint."""


def _bundled_scenario(name: str):
    return resources.files("dpe_multipath.scenarios").joinpath(name)


def _read_scenario_text(path: str | Path) -> str:
    p = Path(path)
    if p.exists():
        return p.read_text()
    if p.name == str(path):  # bare name: fall back to the bundled fixtures
        res = _bundled_scenario(p.name)
        if res.is_file():
            return res.read_text()
    raise ScenarioParseError(f"scenario file not found: {path}")


def load_scenario(path: str | Path) -> Scenario:
    """Read, validate, and construct a scenario.

    ``path`` may be a filesystem path or the bare name of a bundled fixture.
    Satellites authored as ECEF get their angles derived, and cross-checked
    when the file carries both; only the direction is used.  The
    ``velocity_ecef`` and ``sampling_rate_hz`` keys are schema-checked and
    then ignored: nothing in the model reads them.
    """
    text = _read_scenario_text(path)
    try:
        raw = json.loads(text, parse_constant=_reject_non_finite, parse_float=_finite_float,
                         parse_int=_finite_int)
    except ValueError as e:  # json.JSONDecodeError or a non-finite number
        raise ScenarioParseError(f"invalid JSON in {path}: {e}") from e
    error = jsonschema.exceptions.best_match(_scenario_validator().iter_errors(raw))
    if error is not None:
        where = ".".join(str(k) for k in error.absolute_path) or "(root)"
        raise ScenarioSchemaError(f"{where}: {error.message}") from error
    return _scenario_from_dict(raw)


def _reject_non_finite(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a double")
    return value


def _finite_int(text: str) -> int:
    """An integer literal, rejected like a float when it overflows a double."""
    _finite_float(text)
    return int(text)


@functools.cache
def _scenario_validator():
    """The schema validator, checked and built once per process.

    Same validator class and error choice as ``jsonschema.validate``,
    which re-checks the schema itself on every call.
    """
    cls = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
    cls.check_schema(SCENARIO_SCHEMA)
    return cls(SCENARIO_SCHEMA)


def _scenario_from_dict(raw: dict) -> Scenario:
    receiver = EcefVector.from_array(raw["receiver"]["position_ecef"])
    sig = raw.get("signal", {})
    defaults = SignalConfig()
    try:
        signal = SignalConfig(
            code_rate=sig.get("code_rate_hz", defaults.code_rate),
            carrier=sig.get("carrier_hz", defaults.carrier),
            coherent_integration=sig.get("coherent_integration_s", defaults.coherent_integration),
        )
    except ValueError as e:
        raise ScenarioSchemaError(f"signal: {e}") from e
    grids = []
    for k, g in enumerate(raw.get("grid", [])):
        try:
            grids.append(GridSpec(Space(g["space"]), g["half_extent"], g["step"]))
        except ValueError as e:
            raise ScenarioSchemaError(f"grid.{k}: {e}") from e
    satellites = []
    for i, sat in enumerate(raw["satellites"]):
        where = f"satellites.{i}"
        has_angles = "elevation_deg" in sat or "azimuth_deg" in sat
        if has_angles and not ("elevation_deg" in sat and "azimuth_deg" in sat):
            raise ScenarioSchemaError(f"{where}: elevation_deg and azimuth_deg go together")
        if "position_ecef" not in sat and not has_angles:
            raise ScenarioSchemaError(
                f"{where}: need position_ecef or elevation_deg/azimuth_deg"
            )
        paths = []
        for j, p in enumerate(sat["paths"]):
            try:
                paths.append(
                    SignalPath(
                        kind=PathKind(p["kind"]),
                        amplitude=p.get("amplitude", 1.0),
                        delay_chips=p.get("delay_chips", 0.0),
                        doppler_hz=p.get("doppler_hz", 0.0),
                    )
                )
            except ValueError as e:
                raise ScenarioSchemaError(f"{where}.paths.{j}: {e}") from e
        try:
            satellites.append(
                make_channel(
                    receiver,
                    sat["prn"],
                    paths,
                    position=(
                        EcefVector.from_array(sat["position_ecef"])
                        if "position_ecef" in sat
                        else None
                    ),
                    angles_deg=(
                        (sat["elevation_deg"], sat["azimuth_deg"]) if has_angles else None
                    ),
                )
            )
        except GeometryMismatchError:
            raise
        except ValueError as e:
            raise ScenarioSchemaError(f"{where}: {e}") from e
        for j in range(len(paths)):
            for space in Space:
                if not math.isfinite(center_line(satellites[-1], j, space, signal).offset):
                    raise ScenarioSchemaError(
                        f"{where}.paths.{j}: the {space.value}-space projection of the bias"
                        " overflows a double"
                    )
    try:
        return Scenario(
            signal=signal,
            satellites=tuple(satellites),
            grids=tuple(grids) or DEFAULT_GRIDS,
            noise_sigma=raw.get("noise_sigma", 0.0),
            seed=raw.get("seed", 0),
        )
    except ValueError as e:
        raise ScenarioSchemaError(str(e)) from e


# Rows per ``%`` application when writing an array table: bounds the
# temporary tuple of Python floats to about 200k cells at three columns.
_CSV_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class GridRows:
    """The rows ``(east, north, value)`` of a square grid over one axis.

    ``values[i, j]`` is the cell at east ``axis[j]``, north ``axis[i]``, as
    in ``caf.Grid2D``; rows run with north as the outer index and east as
    the inner one.  Tables write each axis label once per grid row instead
    of once per cell.
    """

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = len(self.axis)
        if (self.axis.ndim != 1 or self.values.shape != (n, n)
                or self.axis.dtype.kind != "f" or self.values.dtype.kind != "f"):
            raise ValueError(
                f"grid rows need a 1-D float axis and square float values of its length,"
                f" got {self.axis.dtype} axis of shape {self.axis.shape} and"
                f" {self.values.dtype} values of shape {self.values.shape}"
            )

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ResultTable:
    """Serialized table: named+united columns, uniform rows, one-line note.

    ``rows`` is a tuple of row tuples, whose cells are scalars of any type;
    a 2-D float ``np.ndarray`` of shape ``(n_rows, len(columns))``; or, for
    three columns, a :class:`GridRows`.  CSV writes float cells of arrays
    and grids with ``%.6g``, which gives the same text as the
    ``format(v, '.6g')`` used for float cells of tuple rows; JSON writes them
    as ``json`` does, at full precision.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...] | np.ndarray | GridRows
    note: str = ""

    def __post_init__(self):
        if isinstance(self.rows, GridRows):
            if len(self.columns) != 3:
                raise ValueError(f"grid rows need 3 columns, got {len(self.columns)}")
            return
        if isinstance(self.rows, np.ndarray):
            if (self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns)
                    or self.rows.dtype.kind != "f"):
                raise ValueError(
                    f"array rows must be 2-D floats with {len(self.columns)} columns,"
                    f" got {self.rows.dtype} of shape {self.rows.shape}"
                )
            return
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("row width differs from column count")

    def to_csv(self) -> str:
        return "".join(self._pieces("csv"))

    def to_json(self) -> str:
        return "".join(self._pieces("json"))

    def _pieces(self, fmt: str) -> Iterator[str]:
        """The file text in order, a header, row or row chunk at a time."""
        if fmt == "csv":
            yield ",".join(self.columns) + "\n"
            yield from _row_texts(self.rows, _CSV)
            return
        # json.dumps(..., indent=2) of the whole payload, with the rows
        # spliced in where the empty list stands
        head = json.dumps({"note": self.note, "columns": list(self.columns), "rows": []},
                          indent=2)
        rows = _row_texts(self.rows, _JSON)
        last = next(rows, None)
        if last is None:
            yield head + "\n"
            return
        yield head[:-len("]\n}")] + "\n"
        for text in rows:
            yield last
            last = text
        yield last[:-len(",\n")] + "\n  ]\n}\n"


@dataclass(frozen=True)
class _Layout:
    """How one output format spells cells and rows.

    ``cell`` spells one scalar; ``number`` is the ``%`` conversion that
    spells a finite float the same way; ``non_finite`` maps what ``number``
    writes for NaN and infinities to what ``cell`` writes.  A row is
    ``row_start``, its cells joined by ``cell_sep``, then ``row_end``.
    """

    cell: Callable[[object], str]
    number: str
    non_finite: tuple[tuple[str, str], ...]
    row_start: str
    cell_sep: str
    row_end: str


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _json_cell(v):
    if isinstance(v, (Space, PathKind)):
        return v.value
    raise TypeError(f"not JSON serializable: {type(v)}")


_CSV = _Layout(_csv_cell, "%.6g", (), "", ",", "\n")
# One row of the ``rows`` list under ``indent=2``; the last row's ``,\n`` is
# replaced when the list is closed.  ``json`` writes finite floats as
# ``float.__repr__``, which is what ``%r`` gives.
_JSON = _Layout(functools.partial(json.dumps, default=_json_cell), "%r",
                (("nan", "NaN"), ("inf", "Infinity")), "    [\n      ", ",\n      ", "\n    ],\n")


def _row_texts(rows: tuple[tuple, ...] | np.ndarray | GridRows, layout: _Layout) -> Iterator[str]:
    """The rows spelled in ``layout``, one grid row, array chunk or tuple row at a time."""
    if isinstance(rows, GridRows):
        # the axis labels are spelled once; each grid row fills the north
        # label into one template and formats only its values
        labels = [layout.cell(x) for x in rows.axis.tolist()]
        template = "".join(layout.row_start + x + layout.cell_sep + "\0" + layout.cell_sep
                           + layout.number + layout.row_end for x in labels)
        for label, values in zip(labels, rows.values):
            yield _fill(template.replace("\0", label), values, layout)
    elif isinstance(rows, np.ndarray):
        template = (layout.row_start + layout.cell_sep.join([layout.number] * rows.shape[1])
                    + layout.row_end)
        for i in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[i:i + _CSV_CHUNK_ROWS]
            yield _fill(template * len(chunk), chunk, layout)
    else:
        for row in rows:
            yield layout.row_start + layout.cell_sep.join(map(layout.cell, row)) + layout.row_end


def _fill(template: str, values: np.ndarray, layout: _Layout) -> str:
    """``template`` with its ``layout.number`` conversions filled from ``values``."""
    text = template % tuple(values.ravel().tolist())
    if layout.non_finite and not np.isfinite(values).all():
        for spelled, wanted in layout.non_finite:
            text = text.replace(spelled, wanted)
    return text


def _write_table(table: ResultTable, outdir: Path, stem: str, fmt: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{stem}.{fmt}"
    with path.open("w") as f:
        f.writelines(table._pieces(fmt))
    return path


def _print_table(table: ResultTable) -> None:
    print(",".join(table.columns))
    print("".join(_row_texts(table.rows[:40], _CSV)), end="")
    if len(table.rows) > 40:
        print(f"... ({len(table.rows)} rows total)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_number(text: str) -> float:
    """A number flag; NaN and infinities are usage errors, as in scenario files."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _integer_at_least(low: int, text: str) -> int:
    """An integer flag of at least ``low``."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


# A seed is non-negative, as the schema requires of ``seed``; a trial count positive.
_seed = functools.partial(_integer_at_least, 0)
_trials = functools.partial(_integer_at_least, 1)


def _driver_seed(seed: int | None) -> int:
    """The Monte Carlo seed of ``montecarlo`` and ``report``: ``--seed``, else the reference one.

    It keys a Philox stream, so it must be below 2**128; ``caf`` takes any
    non-negative seed.
    """
    if seed is None:
        return mc.REFERENCE_SEED
    if seed >= 2 ** 128:
        raise UsageError(f"argument --seed: a Monte Carlo seed must be below 2**128, got {seed}")
    return seed


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--scenario", default="table1.scenario",
                        help="scenario file path or bundled fixture name")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=_seed, default=None,
                        help="override the scenario/driver seed")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table file format")

    parser = _Parser(prog="dpe-multipath",
                     description="Multipath bias geometry for direct position estimation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("project", parents=[common],
                       help="project a delay/Doppler bias to range/range-rate biases")
    p.add_argument("--delay-chips", type=_finite_number, default=1.0)
    p.add_argument("--doppler-hz", type=_finite_number, default=120.0)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("intersect", parents=[common],
                       help="enumerate center-line intersection points")
    p.add_argument("--space", choices=("position", "velocity", "both"), default="both")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("bounds", parents=[common],
                       help="radial-error bound for a set of per-satellite radii")
    p.add_argument("--radii", required=True,
                   help="comma-separated radii, e.g. 60,40,30,15")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("caf", parents=[common],
                       help="superposed correlation grid and its argmax")
    p.add_argument("--space", choices=("position", "velocity", "both"), default="both")
    p.set_defaults(func=cmd_caf)

    p = sub.add_parser("montecarlo", parents=[common],
                       help="uniform random azimuth-separation trials")
    p.add_argument("--rho-i", type=_finite_number, default=60.0)
    p.add_argument("--rho-j", type=_finite_number, default=40.0)
    p.add_argument("--trials", type=_trials, default=10000)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("report", parents=[common],
                       help="run all bundled reproductions and diff against references")
    p.set_defaults(func=cmd_report)

    return parser


def _spaces(arg: str) -> list[Space]:
    return [Space.POSITION, Space.VELOCITY] if arg == "both" else [Space(arg)]


def cmd_project(args) -> int:
    scenario = load_scenario(args.scenario)
    rep = mc.run_elevation_sweep(
        args.delay_chips,
        args.doppler_hz,
        [ch.angles.elevation_deg for ch in scenario.satellites],
        scenario.signal,
    )
    for flag, value, column in (("--delay-chips", args.delay_chips, 1),
                                ("--doppler-hz", args.doppler_hz, 2)):
        if not all(math.isfinite(row[column]) for row in rep.rows):
            raise UsageError(f"{flag} {value:g}: its projection overflows a double")
    rows = tuple(
        (ch.prn,) + row for ch, row in zip(scenario.satellites, rep.rows)
    )
    table = ResultTable(
        ("prn",) + rep.columns,
        rows,
        note=f"bias projection at {args.delay_chips} chips / {args.doppler_hz} Hz",
    )
    path = _write_table(table, Path(args.out), "project", args.format)
    _print_table(table)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_intersect(args) -> int:
    scenario = load_scenario(args.scenario)
    rows = []
    for space in _spaces(args.space):
        for res in enumerate_intersections(center_lines(scenario, space)):
            rows.append(
                (
                    space.value,
                    res.pair[0],
                    res.pair[1],
                    res.pair[2],
                    res.pair[3],
                    math.degrees(res.delta_theta),
                    res.point.e,
                    res.point.n,
                    res.dr,
                    len(res.contributors),
                )
            )
    table = ResultTable(
        (
            "space",
            "prn_i",
            "path_i",
            "prn_j",
            "path_j",
            "delta_theta[deg]",
            "offset_e[m|m/s]",
            "offset_n[m|m/s]",
            "radial_error[m|m/s]",
            "contributors",
        ),
        tuple(rows),
        note="cross-satellite center-line intersections (merged within 1e-6)",
    )
    path = _write_table(table, Path(args.out), "intersect", args.format)
    _print_table(table)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        radii = [_finite_number(tok) for tok in args.radii.split(",") if tok.strip() != ""]
    except argparse.ArgumentTypeError as e:
        raise UsageError(f"--radii expects comma-separated numbers: {e}") from None
    try:
        bound = case_bound(radii)
    except ValueError as e:  # fewer than two radii, or every radius zero
        raise UsageError(f"--radii {args.radii!r}: {e}") from None
    table = ResultTable(
        ("case", "lower[m|m/s]", "attained", "attained_at[deg]", "upper"),
        (
            (
                bound.case,
                bound.lower,
                int(bound.attained),
                math.degrees(bound.attained_at) if bound.attained_at is not None else "",
                bound.upper,
            ),
        ),
        note=f"radial-error bound for radii {radii}",
    )
    path = _write_table(table, Path(args.out), "bounds", args.format)
    _print_table(table)
    print(f"CASE{bound.case}, lower {bound.lower:g}"
          f"{' (attained)' if bound.attained else ' (open)'}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_caf(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    written = []
    for space in _spaces(args.space):
        offset, peak, total = superpose_and_argmax(scenario_caf(scenario, space))
        unit = "m" if space is Space.POSITION else "m/s"
        table = ResultTable(
            (f"offset_e[{unit}]", f"offset_n[{unit}]", "caf[1]"),
            GridRows(scenario.grid_for(space).axis(), total),
            note=f"superposed {space.value}-space correlation grid",
        )
        written.append(_write_table(table, Path(args.out), f"caf_{space.value}", args.format))
        print(
            f"{space.value}: argmax offset ({offset.e:g}, {offset.n:g}) {unit}, peak {peak:.6g}"
        )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    seed = _driver_seed(args.seed)
    rep = mc.run_random_azimuth_mc(args.rho_i, args.rho_j, args.trials, seed)
    table = ResultTable(rep.columns, rep.rows, f"radii ({args.rho_i}, {args.rho_j}), seed {seed}")
    path = _write_table(table, Path(args.out), "montecarlo", args.format)
    s = rep.summary
    print(
        f"min radial error {s['min_radial_error']:.6g} at "
        f"{s['argmin_separation_deg']:.4g} deg (trial {s['argmin_trial']}); "
        f"{s['below_floor']} samples below the floor {s['floor']:g}"
    )
    print(f"wrote {path}")
    return EXIT_OK


def _criterion_line(cid: int, name: str, checks) -> tuple[bool, str]:
    ok = all(c.passed for c in checks)
    n_pass = sum(1 for c in checks if c.passed)
    status = "PASS" if ok else "FAIL"
    return ok, f"criterion-{cid} {name}: {status} ({n_pass}/{len(checks)} checks)"


def cmd_report(args) -> int:
    outdir = Path(args.out)
    fmt = args.format
    seed = _driver_seed(args.seed)
    criteria: list[tuple[int, str, tuple]] = []

    # 1: projection of the reference biases at the four reference elevations
    proj = mc.run_elevation_sweep(1.0, 120.0, sorted(mc.EXPECTED_PROJECTION))
    _write_table(
        ResultTable(proj.columns, proj.rows, "bias projection at reference elevations"),
        outdir, "projection_table", fmt,
    )
    criteria.append((1, "projection-table", tuple(
        c for c in proj.checks if c.name.startswith("projection:"))))

    # 3 and 4: case studies, analytic and grid-readout columns
    theo_checks: list = []
    sim_checks: list = []
    for case in ("case1", "case2", "case3"):
        scenario = load_scenario(f"{case}.scenario")
        rep = mc.run_case_study(scenario, case)
        _write_table(
            ResultTable(rep.columns, rep.rows, f"pair biases, {case}"), outdir, f"{case}_table",
            fmt
        )
        theo_checks += [c for c in rep.checks if c.name.endswith(":theoretical")]
        sim_checks += [c for c in rep.checks if c.name.endswith(":simulated")]
    criteria.append((3, "case-tables-analytic", tuple(theo_checks)))

    # 6 computed before 4 so the field replay's grid readouts join criterion 4
    t6 = load_scenario("table6.scenario")
    rep6 = mc.run_case_study(t6, "table6")
    sim_checks += [c for c in rep6.checks if c.name.endswith(":simulated")]
    criteria.append((4, "case-tables-grid-readout", tuple(sim_checks)))

    # 2: full elevation sweep, zero-elevation anchors and monotonicity;
    # 5: Monte Carlo over random azimuth separations.  Built after the grids
    # of the case studies are freed, so the trial rows do not add to the peak.
    sweep = mc.run_elevation_sweep()
    mcrep = mc.run_random_azimuth_mc(60.0, 40.0, 10000, seed)
    thetas_deg = 0.5 * np.arange(1, 360)
    thetas = np.radians(thetas_deg)
    _write_table(ResultTable(sweep.columns, sweep.rows, "bias projection sweep over elevation"),
                 outdir, "fig7_data", fmt)
    _write_table(
        ResultTable(
            ("delta_theta[deg]", "single_nlos_40[m]", "equal_pair_40[m]"),
            np.column_stack((
                thetas_deg,
                mc.pair_error_curve(40.0, 0.0, thetas),
                mc.pair_error_curve(40.0, 40.0, thetas),
            )),
            note="pair radial error vs azimuth separation",
        ),
        outdir, "fig8_data", fmt,
    )
    _write_table(
        ResultTable(
            ("delta_theta[deg]", "radial_error[m]", "trial"),
            tuple((r[1], r[2], r[0]) for r in mcrep.rows),
            note="random azimuth-separation trials, radii (60, 40)",
        ),
        outdir, "fig11_data", fmt,
    )
    criteria.append((2, "elevation-sweep-anchors", sweep.checks))
    criteria.append((5, "monte-carlo", mcrep.checks))

    # 6: field replay, theoretical column (the measured column is reference-only)
    checks6 = tuple(c for c in rep6.checks if not c.name.endswith(":simulated"))
    quantities = {
        "range_bias[m]": "table6:prn18:position:radius",
        "range_rate_bias[m/s]": "table6:prn18:velocity:radius",
        "radial_error[m]": "table6:OB:position:theoretical",
        "radial_rate_error[m/s]": "table6:OB:velocity:theoretical",
    }
    by_name = {c.name: c for c in rep6.checks}
    field_rows = tuple(
        (q, by_name[n].actual, mc.FIELD_MEASURED[q]) for q, n in quantities.items()
    )
    _write_table(
        ResultTable(
            ("quantity", "theoretical", "field_measured"),
            field_rows,
            note="field replay; measured column is documentation, not a check",
        ),
        outdir, "field_reference", fmt,
    )
    criteria.append((6, "field-replay-theoretical", checks6))

    all_ok = True
    payload = []
    for cid, name, checks in sorted(criteria):
        ok, line = _criterion_line(cid, name, checks)
        all_ok &= ok
        print(line)
        payload.append(
            {"id": cid, "name": name, "passed": ok, "checks": [asdict(c) for c in checks]}
        )
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(
        json.dumps({"all_passed": all_ok, "criteria": payload}, indent=2) + "\n"
    )
    print(f"report: {'PASS' if all_ok else 'FAIL'}; details in {outdir / 'report.json'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioSchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except GeometryMismatchError as e:
        print(f"geometry inconsistency: {e}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (GeometryError, ValueError, KeyError) as e:
        print(f"computation error: {e}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
