"""Deterministic sweep and Monte Carlo drivers over the bias geometry.

Reproduces the reference tables and figure data bundled with the package:
elevation sweeps of the bias projection, uniform random azimuth-separation
trials, grid-vs-analytic case studies, and an oracle comparison pitting the
summed-grid argmax against the enumerated line intersections.  Every driver
returns an :class:`ExperimentReport` whose rows are plain tuples; the cli
module does all serialization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .caf import (
    DEFAULT_GRIDS,
    EcefVector,
    EnuVector,
    Grid2D,
    PathKind,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    SPEED_OF_LIGHT,
    _correlate,
    channel_caf,
    make_channel,
    mismatch,
    scenario_caf,
    superpose_and_argmax,
)
from .scmb import (
    EPS_PARALLEL,
    ParallelLinesError,
    _cramer,
    center_line,
    center_lines,
    enumerate_intersections,
    fold_azimuth_separation,
    intersect_lines,
    project_to_range,
    project_to_range_rate,
)

# Reference fixture: receiver truth and satellite geometry shared by the
# bundled scenarios (urban driving dataset the reference tables were built
# from).
REFERENCE_RECEIVER = EcefVector(-2851838.0, 4653607.0, 3289209.0)
REFERENCE_VELOCITY = EcefVector(-5.5, -4.7, 1.9)
REFERENCE_ANGLES = {10: (35.4, 320.2), 18: (42.8, 213.8), 23: (66.7, 336.1), 24: (69.8, 45.1)}
REFERENCE_SEED = 1

# Per-case bias-circle radii, meters in position space and m/s in velocity
# space (the reference uses the same magnitudes in both).
CASE_RADII = {
    "case1": {10: 0.0, 18: 40.0, 23: 0.0, 24: 0.0},
    "case2": {10: 40.0, 18: 40.0, 23: 40.0, 24: 40.0},
    "case3": {10: 60.0, 18: 40.0, 23: 30.0, 24: 15.0},
}

# Intersection-point labels of the reference satellite pairs.
PAIR_LABELS = {"OA": (10, 24), "OB": (18, 23), "OC": (10, 18), "OD": (23, 24), "OE": (10, 23)}

# Expected reference values.  All are printed rounded to one decimal in the
# source tables, so fixture checks compare at that precision.
EXPECTED_PROJECTION = {  # elevation deg -> (range bias m, range-rate bias m/s) at 1 chip / 120 Hz
    35.4: (36.0, 37.5),
    42.8: (39.9, 41.7),
    66.7: (74.0, 77.2),
    69.8: (84.8, 88.5),
}
EXPECTED_ZERO_ELEVATION = (29.3, 30.6)  # (m, m/s) at 1 chip / 120 Hz, sec(0) = 1
EXPECTED_CASE_BIAS = {  # case -> pair label -> (position m, velocity m/s)
    "case1": {"OB": (47.3, 47.3), "OC": (41.7, 41.7)},
    "case2": {
        "OA": (54.2, 54.2),
        "OB": (82.9, 82.9),
        "OC": (66.7, 66.7),
        "OD": (48.5, 48.5),
        "OE": (40.4, 40.4),
    },
    "case3": {"OA": (60.8, 60.8), "OB": (72.8, 72.8), "OC": (84.4, 84.4), "OD": (30.3, 30.3)},
    "table6": {"OB": (47.2, 49.5)},
}
EXPECTED_RADII = {"table6": {18: (39.9, 41.8)}}  # prn -> (m, m/s)
FIXTURE_TOL = 0.1
FIXTURE_TOL_OA = 0.4  # the reference prints 85.1 deg for the OA separation; its
# azimuths give 84.9 deg, so this pair gets a wider band
EXPECTED_MC_MIN = 60.0
EXPECTED_MC_MIN_RTOL = 0.005
EXPECTED_MC_ARGMIN_DEG = 48.2
EXPECTED_MC_ARGMIN_TOL_DEG = 1.0

# Field-measured reference values (same dataset); not reproducible from the
# simulation and therefore never checked, only reported alongside.
FIELD_MEASURED = {
    "range_bias[m]": 39.7,
    "radial_error[m]": 46.1,
    "range_rate_bias[m/s]": 41.8,
    "radial_rate_error[m/s]": 47.6,
}


@dataclass(frozen=True)
class CheckResult:
    """One expected-vs-computed comparison with its tolerance."""

    name: str
    expected: float
    actual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Rows plus summary statistics and fixture checks of one driver run."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: dict
    checks: tuple[CheckResult, ...] = ()

    def __post_init__(self):
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("row width differs from column count")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def fixture_check(name: str, expected: float, actual: float, tol: float,
                  decimals: int | None = 1) -> CheckResult:
    """Compare a computed value against a rounded printed reference.

    ``decimals`` is the precision the reference was printed at; the computed
    value is rounded to it before the tolerance applies.  Pass ``None`` for
    exact (unrounded) references.
    """
    probe = actual if decimals is None else round(actual, decimals)
    return CheckResult(name, expected, actual, tol, bool(abs(probe - expected) <= tol + 1e-12))


def make_reference_scenario(name: str) -> Scenario:
    """Bundled reference scenarios by fixture name.

    ``table1``: the four reference satellites, all LOS.  ``case1/2/3``: the
    same satellites with a single pure-NLOS path each, path biases chosen so
    the projected radii equal CASE_RADII in both spaces.  ``table6``: PRN#18
    with the field-observed NLOS biases (1 chip, 120.3 Hz) paired with LOS
    PRN#23.
    """
    signal = SignalConfig()

    def channels(prns, paths_for):
        return tuple(
            make_channel(
                REFERENCE_RECEIVER,
                prn,
                paths_for(prn),
                angles_deg=REFERENCE_ANGLES[prn],
            )
            for prn in prns
        )

    if name == "table1":
        sats = channels(sorted(REFERENCE_ANGLES), lambda prn: [SignalPath(PathKind.LOS)])
    elif name in CASE_RADII:
        radii = CASE_RADII[name]

        def paths_for(prn):
            radius = radii[prn]
            if radius == 0.0:
                return [SignalPath(PathKind.LOS)]
            cos_el = math.cos(math.radians(REFERENCE_ANGLES[prn][0]))
            return [
                SignalPath(
                    PathKind.NLOS,
                    amplitude=1.0,
                    delay_chips=radius * cos_el * signal.code_rate / SPEED_OF_LIGHT,
                    doppler_hz=radius * cos_el * signal.carrier / SPEED_OF_LIGHT,
                )
            ]

        sats = channels(sorted(REFERENCE_ANGLES), paths_for)
    elif name == "table6":
        sats = channels(
            [18, 23],
            lambda prn: [SignalPath(PathKind.NLOS, 1.0, 1.0, 120.3)]
            if prn == 18
            else [SignalPath(PathKind.LOS)],
        )
    else:
        raise KeyError(f"unknown reference scenario {name!r}")
    return Scenario(
        receiver_position=REFERENCE_RECEIVER,
        receiver_velocity=REFERENCE_VELOCITY,
        signal=signal,
        satellites=sats,
        grids=DEFAULT_GRIDS,
        noise_sigma=0.0,
        seed=REFERENCE_SEED,
    )


def pair_error_curve(rho_i: float, rho_j: float, delta_theta_rad: np.ndarray) -> np.ndarray:
    """Radial error of a line pair over azimuth separations (vectorized).

    Law of cosines over the sine; separations whose sine falls below the
    parallel-line threshold yield +inf (no finite intersection).  Where
    the squared chord rounds below zero (tiny or nearly equal radii) the
    cancellation-free ``hypot(rho_i - rho_j*cos, rho_j*sin)`` takes its
    place.  Not computed through ``scmb.pair_bias``: of the 10,000
    reference Monte Carlo values that route changes the last bits of
    4,880 (the recorded minimum among them), the cancellation-free form
    everywhere 3,445, and either changes ``report.json``.
    """
    t = np.asarray(delta_theta_rad, dtype=float)
    c = np.cos(t)
    s = np.sin(t)
    num = np.hypot(rho_i - rho_j * c, rho_j * s, out=np.empty_like(t))
    sq = rho_i * rho_i + rho_j * rho_j - 2.0 * rho_i * rho_j * c
    np.sqrt(sq, out=num, where=sq >= 0.0)
    out = np.full_like(num, np.inf)
    np.divide(num, s, out=out, where=s >= EPS_PARALLEL)
    return out


def run_elevation_sweep(
    delay_chips: float = 1.0,
    doppler_hz: float = 120.0,
    elevations_deg: Sequence[float] | None = None,
    signal: SignalConfig = SignalConfig(),
) -> ExperimentReport:
    """Project a fixed delay/Doppler bias over a set of elevations.

    Defaults sweep 0..85 deg in half-degree steps.  Fixture checks attach to
    the zero-elevation anchor and to rows landing on the reference
    elevations when the biases are the reference (1 chip, 120 Hz).
    """
    if elevations_deg is None:
        elevations_deg = 0.5 * np.arange(171)
    elevations_deg = np.asarray(list(elevations_deg), dtype=float)
    rows = []
    for el in elevations_deg:
        phi = math.radians(float(el))
        rows.append(
            (
                float(el),
                project_to_range(delay_chips, phi, signal.code_rate),
                project_to_range_rate(doppler_hz, phi, signal.carrier),
            )
        )
    ranges = [r[1] for r in rows]
    rates = [r[2] for r in rows]
    increasing_range = all(b > a for a, b in zip(ranges, ranges[1:]))
    increasing_rate = all(b > a for a, b in zip(rates, rates[1:]))
    checks = []
    is_reference_bias = (delay_chips, doppler_hz) == (1.0, 120.0)
    if len(rows) > 1 and delay_chips > 0.0 and doppler_hz > 0.0:
        checks.append(
            fixture_check("range_bias_strictly_increasing", 1.0, float(increasing_range), 0.0, None)
        )
        checks.append(
            fixture_check("range_rate_bias_strictly_increasing", 1.0, float(increasing_rate), 0.0, None)
        )
    for el, rng, rate in rows:
        if is_reference_bias and el == 0.0:
            checks.append(
                fixture_check("zero_elevation:range_bias", EXPECTED_ZERO_ELEVATION[0], rng, FIXTURE_TOL)
            )
            checks.append(
                fixture_check("zero_elevation:range_rate_bias", EXPECTED_ZERO_ELEVATION[1], rate, FIXTURE_TOL)
            )
        if is_reference_bias and el in EXPECTED_PROJECTION:
            exp_rng, exp_rate = EXPECTED_PROJECTION[el]
            checks.append(fixture_check(f"projection:{el}:range_bias", exp_rng, rng, FIXTURE_TOL))
            checks.append(
                fixture_check(f"projection:{el}:range_rate_bias", exp_rate, rate, FIXTURE_TOL)
            )
    return ExperimentReport(
        columns=("elevation[deg]", "range_bias[m]", "range_rate_bias[m/s]"),
        rows=tuple(rows),
        summary={
            "points": len(rows),
            "range_bias_strictly_increasing": increasing_range,
            "range_rate_bias_strictly_increasing": increasing_rate,
        },
        checks=tuple(checks),
    )


def run_random_azimuth_mc(
    rho_i: float = 60.0,
    rho_j: float = 40.0,
    trials: int = 10000,
    seed: int = REFERENCE_SEED,
) -> ExperimentReport:
    """Uniform random azimuth-separation trials for one radius pair.

    Trial k draws the k-th value of the counter-based Philox stream keyed
    by ``seed``, so its row depends only on (seed, k): a shorter run is a
    prefix of a longer one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    draws = np.random.Generator(np.random.Philox(key=seed)).uniform(0.0, 1.0, trials)
    thetas = math.pi * draws
    errors = pair_error_curve(rho_i, rho_j, thetas)
    imin = int(np.argmin(errors))
    floor = max(abs(rho_i), abs(rho_j))
    below = int(np.count_nonzero(errors < floor - 1e-9))
    rows = tuple(
        (k, math.degrees(float(thetas[k])), float(errors[k])) for k in range(trials)
    )
    checks = [fixture_check("radial_error_floor_violations", 0.0, float(below), 0.0, None)]
    if (rho_i, rho_j, trials) == (60.0, 40.0, 10000):
        checks.append(
            fixture_check(
                "min_radial_error",
                EXPECTED_MC_MIN,
                float(errors[imin]),
                EXPECTED_MC_MIN_RTOL * EXPECTED_MC_MIN,
                None,
            )
        )
        checks.append(
            fixture_check(
                "argmin_separation_deg",
                EXPECTED_MC_ARGMIN_DEG,
                math.degrees(float(thetas[imin])),
                EXPECTED_MC_ARGMIN_TOL_DEG,
                None,
            )
        )
    return ExperimentReport(
        columns=("trial", "delta_theta[deg]", "radial_error[m]"),
        rows=rows,
        summary={
            "trials": trials,
            "rho_i": rho_i,
            "rho_j": rho_j,
            "min_radial_error": float(errors[imin]),
            "argmin_trial": imin,
            "argmin_separation_deg": math.degrees(float(thetas[imin])),
            "floor": floor,
            "below_floor": below,
        },
        checks=tuple(checks),
    )


def _ridge_line_fit(grid: Grid2D) -> tuple[float, float, float]:
    """Implicit line (a, b, c) with a*e + b*n = c fitted to a grid's ridge.

    Grid-only readout: per-scanline argmax nodes, scanlines whose peak sits
    on the boundary or below half the global maximum dropped (rejects sinc
    sidelobes), least squares over both scan orientations, better residual
    wins.  The normal (a, b) comes out unit length.
    """
    axis = grid.spec.axis()
    v = grid.values
    n = len(axis)
    vmax = float(v.max())
    if vmax <= 0.0:
        raise ValueError("grid has no positive ridge")
    fits = []
    for per_column in (True, False):
        if per_column:
            idx, peaks = _column_argmax(v)
        else:
            idx = v.argmax(axis=1)
            peaks = v[np.arange(n), idx]
        keep = (idx > 0) & (idx < n - 1) & (peaks >= 0.5 * vmax)
        if np.count_nonzero(keep) < 8:
            continue
        t = axis[keep]
        s = axis[idx[keep]]
        slope, intercept = np.polyfit(t, s, 1)
        resid = float(np.sqrt(np.mean((s - (slope * t + intercept)) ** 2)))
        norm = math.hypot(slope, 1.0)
        if per_column:  # n = slope*e + intercept
            abc = (slope / norm, -1.0 / norm, -intercept / norm)
        else:  # e = slope*n + intercept
            abc = (1.0 / norm, -slope / norm, intercept / norm)
        fits.append((resid, abc))
    if not fits:
        raise ValueError("no usable ridge scanlines in grid")
    return min(fits)[1]


def _column_argmax(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``v.argmax(axis=0)`` and the column maxima, for ``v`` without NaN.

    Compares against the maxima instead of calling ``argmax(axis=0)``,
    which copies ``v`` transposed; the first maximal row still wins.
    """
    peaks = v.max(axis=0)
    return (v == peaks).argmax(axis=0), peaks


def _pair_label(prn_i: int, prn_j: int) -> str:
    for label, (a, b) in PAIR_LABELS.items():
        if {a, b} == {prn_i, prn_j}:
            return label
    return f"{prn_i}-{prn_j}"


def run_case_study(scenario: Scenario, case_id: str | None = None) -> ExperimentReport:
    """Analytic vs grid-readout pair errors for a one-path-per-satellite scenario.

    The analytic column intersects the exact center lines; the simulated
    column reads each channel's ridge off its own noiseless grid (scanline
    argmax + least squares) and intersects the fitted lines.  ``case_id``
    attaches the matching reference-table checks; simulated values are
    checked against the analytic ones within 1.5 grid steps for in-window
    points regardless.
    """
    for ch in scenario.satellites:
        if len(ch.paths) != 1:
            raise ValueError("case study expects exactly one path per satellite")
    expected = EXPECTED_CASE_BIAS.get(case_id, {}) if case_id else {}
    expected_radii = EXPECTED_RADII.get(case_id, {}) if case_id else {}
    rows = []
    checks = []
    for space_index, space in enumerate((Space.POSITION, Space.VELOCITY)):
        grid = scenario.grid_for(space)
        lines = {ch.prn: center_line(ch, 0, space, scenario.signal) for ch in scenario.satellites}
        fitted = {
            ch.prn: _ridge_line_fit(channel_caf(grid, ch, scenario))
            for ch in scenario.satellites
        }
        for prn, (exp_pos, exp_vel) in expected_radii.items():
            exp = (exp_pos, exp_vel)[space_index]
            checks.append(
                fixture_check(
                    f"{case_id}:prn{prn}:{space.value}:radius", exp, lines[prn].radius, FIXTURE_TOL
                )
            )
        prns = [ch.prn for ch in scenario.satellites]
        for a in range(len(prns)):
            for b in range(a + 1, len(prns)):
                pi, pj = prns[a], prns[b]
                label = _pair_label(pi, pj)
                li, lj = lines[pi], lines[pj]
                dth = fold_azimuth_separation(li.azimuth, lj.azimuth)
                try:
                    point = intersect_lines(li, lj)
                except ParallelLinesError:
                    rows.append((space.value, label, pi, pj, math.degrees(dth),
                                 math.inf, math.inf, 0))
                    continue
                analytic = point.horizontal_norm()
                in_window = int(
                    abs(point.e) <= grid.half_extent and abs(point.n) <= grid.half_extent
                )
                sim_point = _cramer(fitted[pi], fitted[pj])
                simulated = math.hypot(*sim_point) if sim_point is not None else math.inf
                rows.append(
                    (space.value, label, pi, pj, math.degrees(dth), analytic, simulated, in_window)
                )
                if label in expected:
                    tol = FIXTURE_TOL_OA if label == "OA" else FIXTURE_TOL
                    checks.append(
                        fixture_check(
                            f"{case_id}:{label}:{space.value}:theoretical",
                            expected[label][space_index],
                            analytic,
                            tol,
                        )
                    )
                if in_window and sim_point is not None:
                    checks.append(
                        fixture_check(
                            f"{case_id or 'case'}:{label}:{space.value}:simulated",
                            analytic,
                            simulated,
                            1.5 * grid.step,
                            None,
                        )
                    )
    return ExperimentReport(
        columns=(
            "space",
            "pair",
            "prn_i",
            "prn_j",
            "delta_theta[deg]",
            "theoretical[m|m/s]",
            "simulated[m|m/s]",
            "in_window",
        ),
        rows=tuple(rows),
        summary={
            "case_id": case_id or "",
            "satellites": len(scenario.satellites),
            "grid_step_position": scenario.grid_for(Space.POSITION).step,
            "grid_step_velocity": scenario.grid_for(Space.VELOCITY).step,
        },
        checks=tuple(checks),
    )


def caf_value_at(scenario: Scenario, space: Space, e: float, n: float) -> float:
    """Summed multi-channel correlation value at one exact offset point.

    Evaluates the same correlation kernel as :func:`channel_caf`, adding the
    paths one by one in channel order.
    """
    total = 0.0
    offset = EnuVector(e, n, 0.0)
    for ch in scenario.satellites:
        m = mismatch(ch, scenario.signal, space, offset)
        corr = np.array([m + path.bias(space) for path in ch.paths])
        _correlate(corr, space, scenario.signal.coherent_integration)
        for path, c in zip(ch.paths, corr.tolist()):
            total += path.amplitude * c
    return total


def run_oracle_compare(scenario: Scenario, space: Space = Space.POSITION) -> ExperimentReport:
    """Grid argmax vs analytic intersection points for a noiseless scenario.

    Candidates are the truth point plus every enumerated cross-satellite
    intersection; the best candidate is the one with the highest exact
    summed correlation.  The check passes when the summed-grid argmax falls
    within one grid step of it; disagreement is reported, not raised.
    """
    if scenario.noise_sigma != 0.0:
        raise ValueError("oracle comparison requires a noiseless scenario")
    spec = scenario.grid_for(space)
    points = enumerate_intersections(center_lines(scenario, space))
    candidates = [("truth", (0, 0, 0, 0), 0.0, 0.0, 0.0)]
    for res in points:
        candidates.append(
            ("intersection", res.pair, math.degrees(res.delta_theta), res.point.e, res.point.n)
        )
    scored = [
        (kind, pair, dth, e, n, caf_value_at(scenario, space, e, n))
        for kind, pair, dth, e, n in candidates
    ]
    best = max(scored, key=lambda r: (r[5], -math.hypot(r[3], r[4])))
    offset, peak, _ = superpose_and_argmax(scenario_caf(scenario, space))
    gap = math.hypot(offset.e - best[3], offset.n - best[4])
    agree = gap <= spec.step + 1e-9
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
        },
        checks=(fixture_check("argmax_within_one_step", 1.0, float(agree), 0.0, None),),
    )
