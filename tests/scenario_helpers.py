"""Test-side helpers: the bundled scenarios' authored receiver and channels,
geometry that only the tests read (fixture building and reference formulas),
the tuple-row table writer, and the grid oracle: a whole-grid argmax, a
single-point CAF value and their comparison against the enumerated line
intersections."""
import json
import math
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from dpe_multipath.caf import _add_channel, _ArgmaxFold, scenario_caf
from dpe_multipath.cli import _bundled_scenario, _csv_cell
from dpe_multipath.geom import EcefVector, EnuVector, LookAngles, _enu_rotation, geodetic_latlon
from dpe_multipath.mc import ExperimentReport
from dpe_multipath.model import Columns, Grid2D, Scenario, SignalConfig, Space
from dpe_multipath.scmb import CenterLine, center_lines, enumerate_intersections, intersect_lines

BUNDLED = ("table1", "case1", "case2", "case3", "table6")

# Satellites authored by ECEF position alone, so loading derives their look
# angles through ``geom.ecef_to_enu``'s plain-float rotation; every bundled
# scenario authors angles instead.  LOS + NLOS, LOS-only and NLOS-only channels.
ECEF_SCENARIO = {
    "schema_version": 1,
    "receiver": {"position_ecef": [-3957199.0, 3310205.0, 3737911.0]},
    "satellites": [
        {"prn": 3, "position_ecef": [-12644060.3, -9320843.3, 19517488.2],
         "paths": [{"kind": "los"},
                   {"kind": "nlos", "amplitude": 0.5, "delay_chips": 0.4, "doppler_hz": -35.0}]},
        {"prn": 9, "position_ecef": [-23902264.7, 9789710.0, 10386998.8],
         "paths": [{"kind": "los"}]},
        {"prn": 14, "position_ecef": [-8282660.6, 24878960.6, 3456548.1],
         "paths": [{"kind": "nlos", "delay_chips": 0.7, "doppler_hz": 52.5}]},
        {"prn": 27, "position_ecef": [-2569698.9, 16529230.1, 21268804.2],
         "paths": [{"kind": "los"},
                   {"kind": "nlos", "amplitude": 0.3, "delay_chips": 1.1, "doppler_hz": 80.0}]},
    ],
}

# the default signal plan's rate in each space, as ``scmb.project_bias`` takes it
CODE_RATE, CARRIER = (SignalConfig().rate(space) for space in Space)


def authored_receiver(name: str = "table1.scenario") -> EcefVector:
    """The receiver position a bundled scenario file authors."""
    raw = json.loads(_bundled_scenario(name).read_text())
    return EcefVector.from_array(raw["receiver"]["position_ecef"])


def channel(scenario, prn: int):
    """The channel of satellite ``prn`` in ``scenario``."""
    return next(ch for ch in scenario.satellites if ch.prn == prn)


def enu_to_ecef(local: EnuVector, origin: EcefVector) -> EcefVector:
    """Inverse of ``geom.ecef_to_enu``: the rotation's transpose, then the origin."""
    e, n, u = _enu_rotation(*geodetic_latlon(origin))
    return EcefVector(*(o + (e[k] * local.e + n[k] * local.n + u[k] * local.u)
                        for k, o in enumerate((origin.x, origin.y, origin.z))))


def enu_from_angles(angles: LookAngles, range_m: float) -> EnuVector:
    """ENU vector of length ``range_m`` pointing along ``angles``."""
    ce = math.cos(angles.elevation)
    return EnuVector(
        range_m * ce * math.sin(angles.azimuth),
        range_m * ce * math.cos(angles.azimuth),
        range_m * math.sin(angles.elevation),
    )


def column_rows(columns: Columns) -> tuple[tuple, ...]:
    """A column table's rows as tuples of Python ints and floats."""
    return tuple(zip(*(a.tolist() for a in columns.arrays)))


def tuple_row_text(columns: Sequence[str], rows: Sequence[tuple], note: str, fmt: str) -> str:
    """The file text of the tuple-row table writer, the reference for numpy rows:
    CSV cells joined as ``cli._csv_cell`` spells them, JSON as ``json.dumps(indent=2)``."""
    if fmt == "csv":
        return "".join([",".join(columns) + "\n",
                        *(",".join(map(_csv_cell, row)) + "\n" for row in rows)])
    payload = {"note": note, "columns": list(columns), "rows": rows}
    return "".join(json.JSONEncoder(indent=2).iterencode(payload)) + "\n"


def grid_values(grid) -> np.ndarray:
    """A grid's blocks as one ``(n, n)`` array, of copies: a block may be
    reused once the next is drawn."""
    return np.concatenate([block.copy() for block in grid.blocks])


def tangent_point(line: CenterLine) -> EnuVector:
    """Foot of the perpendicular from the truth point to ``line`` (the tangency point)."""
    ne, nn = line.normal
    return EnuVector(line.constant * ne, line.constant * nn, 0.0)


def pair_radial_error(rho_i: float, rho_j: float, theta_i: float, theta_j: float,
                      space: Space = Space.POSITION) -> float:
    """Radial error of the crossing of two satellites' center lines with radii
    ``rho_i``, ``rho_j`` and azimuths ``theta_i``, ``theta_j``, solved by
    ``scmb.intersect_lines``; the lines must cross.

    In closed form it is sqrt(rho_i**2 + rho_j**2 - 2*rho_i*rho_j*cos(dt)) /
    sin(dt), with dt the folded azimuth separation.
    """
    point = intersect_lines(CenterLine(space, theta_i, rho_i, (0, 0)),
                            CenterLine(space, theta_j, rho_j, (1, 0)))
    assert point is not None, "the lines do not cross"
    return point.horizontal_norm()


def count_intersections(path_counts: Sequence[int]) -> int:
    """Cross-satellite line-pair count: half of (sum N)**2 - sum N**2."""
    total = sum(path_counts)
    return (total * total - sum(k * k for k in path_counts)) // 2


def fixture_with(name: str, mutate) -> dict:
    """The bundled fixture ``name`` as a JSON dict, changed in place by ``mutate``."""
    raw = json.loads(_bundled_scenario(f"{name}.scenario").read_text())
    mutate(raw)
    return raw


def grid_argmax(grid: Grid2D) -> tuple[EnuVector, float]:
    """Locate the maximum of a grid, drawing its blocks once, each read
    before the next is drawn (a block is valid only until then).

    Exact value ties resolve to the smallest offset norm, then to the
    lexicographically smallest (row, col).  Returns the winning offset (the
    ``u`` component is always 0) and the peak value.  Raises ``ValueError``
    when the grid holds a NaN or an infinity.
    """
    fold = _ArgmaxFold(grid.spec)
    for block in grid.blocks:
        fold.add(block)
    return fold.result()


def caf_value_at(scenario: Scenario, space: Space, e: float, n: float) -> float:
    """Summed multi-channel correlation value at one exact offset point.

    Each channel goes through ``caf._add_channel``, the evaluator of
    :func:`caf.scenario_caf`, into its own subtotal, and the subtotals are
    added in channel order as :func:`caf.scenario_caf` adds the channel
    blocks: at a grid node the value equals the summed noiseless grid's cell
    bit for bit, multipath included.
    """
    total = 0.0
    for ch in scenario.satellites:
        value = np.zeros(())
        _add_channel(value, ch, scenario.signal, space, e, n)
        total += float(value)
    return total


def run_oracle_compare(scenario: Scenario, space: Space = Space.POSITION) -> ExperimentReport:
    """Grid argmax vs analytic intersection points for a noiseless scenario.

    Candidates are the truth point plus every enumerated cross-satellite
    intersection; the best candidate is the one with the highest exact
    summed correlation.  ``summary["argmax_within_one_step"]`` records whether
    the summed-grid argmax falls within one grid step of it; disagreement is
    reported, not raised.
    """
    if scenario.noise_sigma != 0.0:
        raise ValueError("oracle comparison requires a noiseless scenario")
    spec = scenario.grid_for(space)
    points = enumerate_intersections(center_lines(scenario, space))
    candidates = [("truth", (0, 0, 0, 0), 0.0, 0.0, 0.0)]
    for res in points:
        candidates.append(
            ("intersection", res.contributors[0], math.degrees(res.delta_theta), res.point.e,
             res.point.n)
        )
    scored = [
        (kind, pair, dth, e, n, caf_value_at(scenario, space, e, n))
        for kind, pair, dth, e, n in candidates
    ]
    best = max(scored, key=lambda r: (r[5], -math.hypot(r[3], r[4])))
    offset, peak = grid_argmax(scenario_caf(scenario, space))
    gap = math.hypot(offset.e - best[3], offset.n - best[4])
    rows = []
    for entry in scored:
        kind, pair, dth, e, n, value = entry
        rows.append(
            (kind, "-".join(map(str, pair)), dth, e, n, math.hypot(e, n), value, int(entry is best))
        )
    return ExperimentReport(
        columns=(
            "kind",
            "pair",
            "delta_theta[deg]",
            "offset_e",
            "offset_n",
            "radial_error",
            "caf_value",
            "is_best",
        ),
        rows=tuple(rows),
        summary={
            "space": space.value,
            "argmax_e": offset.e,
            "argmax_n": offset.n,
            "argmax_peak": peak,
            "best_e": best[3],
            "best_n": best[4],
            "best_value": best[5],
            "argmax_to_best": gap,
            "grid_step": spec.step,
            "argmax_within_one_step": gap <= spec.step + 1e-9,
        },
    )


# Values that mutations write into a fixture: every JSON type, with the
# numbers and strings near the schema's bounds and enums.
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([2.0, -0.0, 0.5, -1.5, 1e300])
    | st.sampled_from(["", "los", "nlos", "position", "velocity", "1"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "prn", "step", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _json_nodes(value, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_nodes(child, (*path, key))


@st.composite
def mutated_fixtures(draw, prepare=lambda raw: None):
    """A bundled fixture, changed in place by ``prepare``, with one to three
    values replaced (a number also by a nearby one), keys deleted or added,
    or items appended."""
    raw = fixture_with(draw(st.sampled_from(BUNDLED)), prepare)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_nodes(raw))))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else raw
        action = draw(st.sampled_from(["replace", "nudge", "delete", "add", "append"]))
        if action in ("replace", "nudge") or (action == "delete" and not path):
            number = type(node) in (int, float)
            value = draw(st.sampled_from([0, -node, node - 1, node + 0.5, float(node), bool(node)])
                         if action == "nudge" and number else _JSON_VALUES)
            if path:
                parent[path[-1]] = value
            else:
                raw = value
        elif action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["x", "seed", "grid", "kind", "prn"]))] = draw(_JSON_VALUES)
        elif action == "append" and isinstance(node, list):
            node.append(json.loads(json.dumps(node[-1])) if node and draw(st.booleans())
                        else draw(_JSON_VALUES))
    return raw
