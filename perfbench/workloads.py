"""Benchmark workloads: seeded inputs, CLI argv, work-item counts, output checks.

Every operation is one ``python -m dpe_multipath <argv>`` invocation.  The
generated scenarios are plain JSON in the schema ``cli.SCENARIO_SCHEMA``
accepts, written here without the package's own ``write_scenario`` so that a
change to the writer cannot change a workload.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EARTH_RADIUS_M = 6_371_000.0

# caf-velocity grid: the default +/-100 m/s window at twice the default
# 0.1 m/s step, i.e. 1001^2 cells per channel, so one run holds about ten
# operations (the default 2001^2 grid takes 11-13 s per operation on a
# 2-vCPU Xeon VM).
CAF_VELOCITY_GRID = {"space": "velocity", "half_extent": 100.0, "step": 0.2}
CAF_CELLS = (2 * round(CAF_VELOCITY_GRID["half_extent"] / CAF_VELOCITY_GRID["step"]) + 1) ** 2

REPORT_SCENARIOS = ("case1.scenario", "case2.scenario", "case3.scenario", "table6.scenario")


def _r(x: float) -> float:
    return round(x, 6)


def _receiver(rng: random.Random) -> list[float]:
    lat = math.radians(rng.uniform(-60.0, 60.0))
    lon = math.radians(rng.uniform(-180.0, 180.0))
    return [
        _r(EARTH_RADIUS_M * math.cos(lat) * math.cos(lon)),
        _r(EARTH_RADIUS_M * math.cos(lat) * math.sin(lon)),
        _r(EARTH_RADIUS_M * math.sin(lat)),
    ]


def _nlos(rng: random.Random, amplitude: float) -> dict:
    return {
        "kind": "nlos",
        "amplitude": amplitude,
        "delay_chips": _r(rng.uniform(0.05, 1.5)),
        "doppler_hz": _r(rng.uniform(-120.0, 120.0)),
    }


def generate_sky(seed: int, satellites: int, nlos_per_satellite: int, with_los: bool,
                 grid: list[dict]) -> dict:
    """A random sky as a scenario dict: angles-only satellites with biased paths.

    The same (seed, shape) always gives the same dict; the seed alone picks
    receiver, PRNs, elevations, azimuths, amplitudes and biases.
    """
    rng = random.Random(f"perfbench:{satellites}:{nlos_per_satellite}:{with_los}:{seed}")
    sats = []
    for prn in sorted(rng.sample(range(1, 33), satellites)):
        paths = [{"kind": "los", "amplitude": 1.0}] if with_los else []
        for _ in range(nlos_per_satellite):
            paths.append(_nlos(rng, _r(rng.uniform(0.2, 0.8)) if with_los else 1.0))
        sats.append({
            "prn": prn,
            "elevation_deg": _r(rng.uniform(10.0, 75.0)),
            "azimuth_deg": _r(rng.uniform(0.0, 360.0)),
            "paths": paths,
        })
    return {
        "schema_version": 1,
        "receiver": {"position_ecef": _receiver(rng)},
        "grid": grid,
        "satellites": sats,
    }


def write_json(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


@dataclass(frozen=True)
class Workload:
    """One kind of operation.

    ``scenarios(seed, workdir)`` writes the generated inputs and returns the
    scenario arguments the operation loads (paths or bundled names);
    ``argv(seed, scenarios)`` is the CLI command line without ``--out``.
    One operation does ``items`` work items, counted in ``item`` (plural).
    """

    name: str
    item: str
    items: int
    scenarios: Callable[[int, Path], list[str]]
    argv: Callable[[int, list[str]], list[str]]
    check: Callable[[Path], str | None] = lambda out: None


def _caf_scenarios(seed: int, workdir: Path) -> list[str]:
    doc = generate_sky(seed, 4, 1, False, [CAF_VELOCITY_GRID])
    return [str(write_json(doc, workdir / "caf-velocity.scenario"))]


def _report_check(out: Path) -> str | None:
    try:
        passed = json.loads((out / "report.json").read_text()).get("all_passed")
    except (OSError, ValueError) as e:
        return f"report.json unreadable: {e}"
    return None if passed is True else "report.json all_passed is not true"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="report",
            item="reproductions",
            items=1,
            scenarios=lambda seed, workdir: list(REPORT_SCENARIOS),
            argv=lambda seed, scenarios: ["report", "--seed", str(seed)],
            check=_report_check,
        ),
        Workload(
            name="caf-velocity",
            item="grid cells written",
            items=CAF_CELLS,
            scenarios=_caf_scenarios,
            argv=lambda seed, scenarios: ["caf", "--space", "velocity",
                                          "--scenario", scenarios[0]],
        ),
    )
}
