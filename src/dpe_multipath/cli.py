"""Batch command-line surface: scenario files in, stable CSV/JSON tables out.

Scenario files are JSON (angles in degrees, all other units as in the
schema).  This module reads and validates them, parses the command line and
runs the commands; computation is delegated to the geom/model/scmb/caf/mc
modules, and every table is written by :mod:`tables`.

Start-up needs no numpy: this module imports only the numpy-free model,
geometry and table writer, so ``bounds``, ``project`` and ``intersect`` run
without it.  ``caf`` imports the grid kernels, and ``montecarlo`` and
``report`` import ``mc``, when they start; only their CSV runs import
``gridtext``, the CSV word kernel.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path
from typing import Iterator

from .geom import EcefVector, GeometryError
from .model import (
    REFERENCE_BIAS,
    REFERENCE_RADII,
    REFERENCE_SEED,
    REFERENCE_TRIALS,
    GeometryMismatchError,
    Columns,
    GridSpec,
    PathKind,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    make_channel,
)
from .scmb import case_bound, center_line, center_lines, enumerate_intersections, project_bias
from .tables import ResultTable, print_table, write_table, write_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_GEOMETRY = 4
EXIT_USAGE = 64
EXIT_COMPUTE = 70
EXIT_CANT_CREATE = 73
EXIT_BROKEN_PIPE = 141  # as a shell reports a filter killed by SIGPIPE: 128 + 13

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
    try:
        if p.exists():
            return p.read_text(encoding="utf-8")
        if p.name == str(path):  # bare name: fall back to the bundled fixtures
            res = _bundled_scenario(p.name)
            if res.is_file():
                return res.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:  # a directory, unreadable or not text
        raise ScenarioParseError(f"cannot read scenario {path}: {e}") from e
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
    # jsonschema's best match: the shallowest error, then the greatest path, then the first.
    # (Its type-match tie-break never decides: one subschema applies at each path.)
    error = max(_schema_errors(raw, SCENARIO_SCHEMA, ()), default=None,
                key=lambda e: (-len(e[0]), e[0]))
    if error is not None:
        where = ".".join(map(str, error[0])) or "(root)"
        raise ScenarioSchemaError(f"{where}: {error[1]}")
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


_SCHEMA_TYPES = {"number": (int, float), "integer": int, "array": list, "object": dict}


def _is_type(value, name: str) -> bool:
    """Draft 2020-12 typing: a boolean is no number, and an integral float is an integer."""
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return not isinstance(value, bool) and isinstance(value, _SCHEMA_TYPES[name])


def _schema_errors(value, schema: dict, path: tuple) -> Iterator[tuple[tuple, str]]:
    """``(path, message)`` for each way ``value`` at ``path`` breaks ``schema``.

    Covers the keywords ``SCENARIO_SCHEMA`` uses, visited in the schema's
    order, each with jsonschema 4.x's message.
    """
    number, array, obj = _is_type(value, "number"), isinstance(value, list), isinstance(value, dict)
    for key, rule in schema.items():
        message = None
        if key == "type" and not _is_type(value, rule):
            message = f"{value!r} is not of type {rule!r}"
        elif key == "const" and (isinstance(value, bool) or value != rule):
            message = f"{rule!r} was expected"
        elif key == "enum" and value not in rule:
            message = f"{value!r} is not one of {rule!r}"
        elif key == "minimum" and number and value < rule:
            message = f"{value!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum" and number and value <= rule:
            message = f"{value!r} is less than or equal to the minimum of {rule!r}"
        elif key == "minItems" and array and len(value) < rule:
            message = f"{value!r} " + ("should be non-empty" if rule == 1 else "is too short")
        elif key == "maxItems" and array and len(value) > rule:
            message = f"{value!r} is too long"  # jsonschema words maxItems 0 otherwise
        elif key == "required" and obj:
            for name in rule:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and not rule and obj and (
                extras := sorted(set(value) - set(schema.get("properties", ())))):
            message = (f"Additional properties are not allowed ({', '.join(map(repr, extras))}"
                       f" {'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "properties" and obj:
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, (*path, name))
        elif key == "items" and array:
            for k, item in enumerate(value):
                yield from _schema_errors(item, rule, (*path, k))
        if message:
            yield path, message


@contextlib.contextmanager
def _field(prefix: str):
    """Report a model constructor's ``ValueError`` as a schema error under ``prefix``.

    A :class:`GeometryMismatchError`, also a ``ValueError``, keeps its own exit code.
    """
    try:
        yield
    except GeometryMismatchError:
        raise
    except ValueError as e:
        raise ScenarioSchemaError(f"{prefix}{e}") from e


# scenario file key -> SignalConfig field; ``sampling_rate_hz`` has no field
_SIGNAL_FIELDS = {"code_rate_hz": "code_rate", "carrier_hz": "carrier",
                  "coherent_integration_s": "coherent_integration"}


def _scenario_from_dict(raw: dict) -> Scenario:
    """Build the model from a schema-valid file, passing only the keys the file
    sets: every omitted key takes the model's own default."""
    receiver = EcefVector.from_array(raw["receiver"]["position_ecef"])
    with _field("signal: "):
        signal = SignalConfig(**{_SIGNAL_FIELDS[k]: v for k, v in raw.get("signal", {}).items()
                                 if k in _SIGNAL_FIELDS})
    grids = []
    for k, g in enumerate(raw.get("grid", [])):
        with _field(f"grid.{k}: "):
            grids.append(GridSpec(Space(g["space"]), g["half_extent"], g["step"]))
    satellites = []
    for i, sat in enumerate(raw["satellites"]):
        where = f"satellites.{i}"
        has_angles = "elevation_deg" in sat or "azimuth_deg" in sat
        if has_angles and not ("elevation_deg" in sat and "azimuth_deg" in sat):
            raise ScenarioSchemaError(f"{where}: elevation_deg and azimuth_deg go together")
        paths = []
        for j, p in enumerate(sat["paths"]):
            with _field(f"{where}.paths.{j}: "):  # the schema's path keys are SignalPath's fields
                paths.append(SignalPath(**{**p, "kind": PathKind(p["kind"])}))
        with _field(f"{where}: "):
            satellites.append(make_channel(
                receiver,
                int(sat["prn"]),  # an integral float passes the schema too
                paths,
                position=(
                    EcefVector.from_array(sat["position_ecef"]) if "position_ecef" in sat else None
                ),
                angles_deg=(sat["elevation_deg"], sat["azimuth_deg"]) if has_angles else None,
            ))
        for j in range(len(paths)):
            for space in Space:
                if not math.isfinite(center_line(satellites[-1], j, space, signal).offset):
                    raise ScenarioSchemaError(
                        f"{where}.paths.{j}: the {space.value}-space projection of the bias"
                        " overflows a double"
                    )
    # the schema lets 2.0 through as an integer seed
    given = {k: cast(raw[k]) for k, cast in (("noise_sigma", float), ("seed", int)) if k in raw}
    with _field(""):
        return Scenario(signal=signal, satellites=tuple(satellites), grids=tuple(grids), **given)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no flag looks like numbers: -1.2e2 and -60,40 are values, as argparse takes -12
        number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(,[-+]?{number})*$")

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


def _mc_seed(text: str) -> int:
    """A Monte Carlo seed: it keys a Philox stream, so it must be below 2**128."""
    seed = _seed(text)
    if seed >= 2 ** 128:
        raise argparse.ArgumentTypeError(f"a Monte Carlo seed must be below 2**128, got {seed}")
    return seed


def _build_parser() -> _Parser:
    # one parent per flag group; a command takes only the groups it reads,
    # so a flag it would ignore is a usage error
    output = _Parser(add_help=False)
    output.add_argument("--out", default="out", help="output directory")
    output.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table file format")
    scenario = _Parser(add_help=False)
    scenario.add_argument("--scenario", default="table1.scenario",
                          help="scenario file path or bundled fixture name")
    mc_seed = _Parser(add_help=False)
    mc_seed.add_argument("--seed", type=_mc_seed, default=REFERENCE_SEED,
                         help="Monte Carlo seed")

    parser = _Parser(prog="dpe-multipath",
                     description="Multipath bias geometry for direct position estimation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("project", parents=[scenario, output],
                       help="project a delay/Doppler bias to range/range-rate biases")
    p.add_argument("--delay-chips", type=_finite_number, default=REFERENCE_BIAS[0])
    p.add_argument("--doppler-hz", type=_finite_number, default=REFERENCE_BIAS[1])
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("intersect", parents=[scenario, output],
                       help="enumerate center-line intersection points")
    p.add_argument("--space", choices=("position", "velocity", "both"), default="both")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("bounds", parents=[output],
                       help="position-space (code-triangle) radial-error bound for"
                       " per-satellite radii; velocity-space estimates may land below it")
    p.add_argument("--radii", required=True,
                   help="comma-separated radii, e.g. 60,40,30,15")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("caf", parents=[scenario, output],
                       help="superposed correlation grid and its argmax")
    p.add_argument("--seed", type=_seed, help="override the scenario seed")
    p.add_argument("--space", choices=("position", "velocity", "both"), default="both")
    p.set_defaults(func=cmd_caf)

    p = sub.add_parser("montecarlo", parents=[output, mc_seed],
                       help="uniform random azimuth-separation trials")
    p.add_argument("--rho-i", type=_finite_number, default=REFERENCE_RADII[0])
    p.add_argument("--rho-j", type=_finite_number, default=REFERENCE_RADII[1])
    p.add_argument("--trials", type=_trials, default=REFERENCE_TRIALS)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("report", parents=[output, mc_seed],
                       help="run all bundled reproductions and diff against references")
    p.set_defaults(func=cmd_report)

    return parser


def _spaces(arg: str) -> list[Space]:
    return [Space.POSITION, Space.VELOCITY] if arg == "both" else [Space(arg)]


def cmd_project(args) -> int:
    scenario = load_scenario(args.scenario)
    rate = scenario.signal.rate
    # center_line's projection, so the biases are the radii intersect uses
    rows = tuple((ch.prn, ch.angles.elevation_deg,
                  project_bias(args.delay_chips, ch.angles.elevation, rate(Space.POSITION)),
                  project_bias(args.doppler_hz, ch.angles.elevation, rate(Space.VELOCITY)))
                 for ch in scenario.satellites)
    for flag, value, column in (("--delay-chips", args.delay_chips, 2),
                                ("--doppler-hz", args.doppler_hz, 3)):
        if not all(math.isfinite(row[column]) for row in rows):
            raise UsageError(f"{flag} {value:g}: its projection overflows a double")
    table = ResultTable(
        ("prn", "elevation[deg]", "range_bias[m]", "range_rate_bias[m/s]"),
        rows,
        note=f"bias projection at {args.delay_chips} chips / {args.doppler_hz} Hz",
    )
    path = write_table(table, Path(args.out), "project", args.format)
    print_table(table)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_intersect(args) -> int:
    scenario = load_scenario(args.scenario)
    rows = tuple((space.value, *res.contributors[0], math.degrees(res.delta_theta),
                  *res.point, math.hypot(*res.point), len(res.contributors))
                 for space in _spaces(args.space)
                 for res in enumerate_intersections(center_lines(scenario, space)))
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
        rows,
        note="cross-satellite center-line intersections (merged within 1e-6)",
    )
    path = write_table(table, Path(args.out), "intersect", args.format)
    print_table(table)
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
    attained = bound.attained_at is not None
    table = ResultTable(
        ("case", "lower[m|m/s]", "attained", "attained_at[deg]"),
        ((bound.case, bound.lower, int(attained),
          math.degrees(bound.attained_at) if attained else ""),),
        note=f"radial-error bound for radii {radii}",
    )
    path = write_table(table, Path(args.out), "bounds", args.format)
    print_table(table)
    print(f"CASE{bound.case}, lower {bound.lower:g}{' (attained)' if attained else ' (open)'}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_caf(args) -> int:
    from .caf import _ArgmaxFold, scenario_caf

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the grids
    written = []
    for space in _spaces(args.space):
        grid = scenario_caf(scenario, space)
        # the argmax sees each block, and raises on a non-finite one, before it is spelled
        fold = _ArgmaxFold(grid.spec)
        unit = "m" if space is Space.POSITION else "m/s"
        table = ResultTable(
            (f"offset_e[{unit}]", f"offset_n[{unit}]", "caf[1]"),
            replace(grid, blocks=map(fold.add, grid.blocks)),
            note=f"superposed {space.value}-space correlation grid",
        )
        written.append(write_table(table, Path(args.out), f"caf_{space.value}", args.format))
        (e, n), peak = fold.result()
        print(f"{space.value}: argmax offset ({e:g}, {n:g}) {unit}, peak {peak:.6g}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    from . import mc

    rep = mc.run_random_azimuth_mc(args.rho_i, args.rho_j, args.trials, args.seed)
    path = write_table(replace(rep, note=f"radii ({args.rho_i}, {args.rho_j}), seed {args.seed}"),
                       Path(args.out), "montecarlo", args.format)
    s = rep.summary
    print(
        f"min radial error {s['min_radial_error']:.6g} at "
        f"{s['argmin_separation_deg']:.4g} deg (trial {s['argmin_trial']}); "
        f"{s['below_floor']} samples below the floor {s['floor']:g}"
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_report(args) -> int:
    from . import mc

    outdir = Path(args.out)

    def write(stem: str, note: str, table: ResultTable) -> None:
        write_table(replace(table, note=note), outdir, stem, args.format)

    proj = mc.run_elevation_sweep(sorted(mc.EXPECTED_PROJECTION))
    write("projection_table", "bias projection at reference elevations", proj)
    cases = {}
    for case in mc.EXPECTED_CASE_BIAS:  # the package's fixtures, never a same-named local file
        scenario = load_scenario(_bundled_scenario(f"{case}.scenario"))
        rep = mc.run_case_study(scenario)
        cases[case] = scenario, rep
        if case != mc.FIELD_CASE:  # the field replay writes only its reference table
            write(f"{case}_table", f"pair biases, {case}", rep)
    sweep = mc.run_elevation_sweep()
    mcrep = mc.run_random_azimuth_mc(*REFERENCE_RADII, REFERENCE_TRIALS, args.seed)
    write("fig7_data", "bias projection sweep over elevation", sweep)
    write("fig8_data", "pair radial error vs azimuth separation", mc.pair_error_rows(40.0))
    trial, separation, error = mcrep.rows.arrays
    write("fig11_data",
          "random azimuth-separation trials, radii ({:g}, {:g})".format(*REFERENCE_RADII),
          ResultTable(("delta_theta[deg]", "radial_error[m]", "trial"),
                      Columns((separation, error, trial))))
    criteria, field = mc.reference_criteria(proj, sweep, mcrep, cases)
    write("field_reference", "field replay; measured column is documentation, not a check", field)

    all_ok = all(c.passed for c in criteria)
    for c in criteria:
        print(f"criterion-{c.id} {c.name}: {'PASS' if c.passed else 'FAIL'}"
              f" ({sum(k.passed for k in c.checks)}/{len(c.checks)} checks)")
    payload = [{"id": c.id, "name": c.name, "passed": c.passed,
                "checks": [asdict(k) for k in c.checks]} for c in criteria]
    path = write_text(outdir, "report.json",
                       (json.dumps({"all_passed": all_ok, "criteria": payload}, indent=2), "\n"))
    print(f"report: {'PASS' if all_ok else 'FAIL'}; details in {path}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:  # stdout's reader left, as ``| head`` does: end quietly
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
    except MemoryError as e:  # numpy's message names the shape it could not allocate
        print(f"computation error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as e:  # scenario reads raise ScenarioParseError, so this is --out
        print(f"cannot create output: {e}", file=sys.stderr)
        return EXIT_CANT_CREATE
