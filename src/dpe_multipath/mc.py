"""Deterministic sweep and Monte Carlo drivers over the bias geometry.

Reproduces the reference tables and figure data bundled with the package:
elevation sweeps of the projection of :data:`model.REFERENCE_BIAS`, uniform
random azimuth-separation trials, and case studies that set the analytic
center-line crossings against those of the ridge lines :mod:`caf` fits.
Every driver returns the :class:`tables.ResultTable` it fills, with a
summary that no format writes; the cli module sets its note and writes it.
The expected reference values live here, and :func:`reference_criteria`
builds every check of ``report`` from the drivers' rows.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .caf import ridge_line
from .geom import fold_azimuth_separation
from .model import REFERENCE_BIAS, Columns, Scenario, SignalConfig, Space
from .scmb import EPS_PARALLEL, center_line, line_crossing, project_bias
from .tables import ResultTable

# Intersection-point labels of the reference satellite pairs.
PAIR_LABELS = {"OA": (10, 24), "OB": (18, 23), "OC": (10, 18), "OD": (23, 24), "OE": (10, 23)}

# Expected reference values.  All are printed rounded to one decimal in the
# source tables, so fixture checks compare at that precision.
EXPECTED_PROJECTION = {  # elevation deg -> (range bias m, range-rate bias m/s) at REFERENCE_BIAS
    35.4: (36.0, 37.5),
    42.8: (39.9, 41.7),
    66.7: (74.0, 77.2),
    69.8: (84.8, 88.5),
}
EXPECTED_ZERO_ELEVATION = (29.3, 30.6)  # (m, m/s) at REFERENCE_BIAS, sec(0) = 1
EXPECTED_CASE_BIAS = {  # case -> pair label -> (position m, velocity m/s), in report order
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
FIELD_CASE = "table6"  # the field replay: checked, but written only as its reference table
FIELD_PRN = 18  # its biased satellite
EXPECTED_FIELD_RADII = (39.9, 41.8)  # (m, m/s) of its center lines
FIXTURE_TOL = 0.1
FIXTURE_TOL_OA = 0.4  # the reference prints 85.1 deg for the OA separation; its
# azimuths give 84.9 deg, so this pair gets a wider band
EXPECTED_MC_MIN = 60.0
EXPECTED_MC_MIN_RTOL = 0.005
EXPECTED_MC_ARGMIN_DEG = 48.2
EXPECTED_MC_ARGMIN_TOL_DEG = 1.0

# Field-measured reference values (same dataset), in the field reference
# table's order; not reproducible from the simulation and therefore never
# checked, only reported alongside.
FIELD_MEASURED = {
    "range_bias[m]": 39.7,
    "range_rate_bias[m/s]": 41.8,
    "radial_error[m]": 46.1,
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
class Criterion:
    """One numbered ``report`` criterion; it passes when all its checks do."""

    id: int
    name: str
    checks: tuple[CheckResult, ...]

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


def reference_criteria(
    projection: ResultTable,
    sweep: ResultTable,
    monte_carlo: ResultTable,
    cases: dict[str, tuple[Scenario, ResultTable]],
) -> tuple[tuple[Criterion, ...], ResultTable]:
    """The criteria of ``report``, in order, and the field reference table.

    Every check is built from the drivers' rows and summaries: ``projection``
    is the sweep at the reference elevations, ``sweep`` the default one and
    ``monte_carlo`` the run at the reference radii; ``cases`` maps each case
    of :data:`EXPECTED_CASE_BIAS`, :data:`FIELD_CASE` among them, to (scenario,
    case study).  A pair is checked against its reference bias when its label
    has one, and its grid readout against its analytic value, within 1.5 grid
    steps, when the crossing lies in the grid window and the readout is finite.
    """
    projection_checks = []
    for el, rng, rate in projection.rows:
        if el in EXPECTED_PROJECTION:
            exp_rng, exp_rate = EXPECTED_PROJECTION[el]
            projection_checks += [
                fixture_check(f"projection:{el}:range_bias", exp_rng, rng, FIXTURE_TOL),
                fixture_check(f"projection:{el}:range_rate_bias", exp_rate, rate, FIXTURE_TOL),
            ]
    monotone = ("range_bias_strictly_increasing", "range_rate_bias_strictly_increasing")
    sweep_checks = [fixture_check(k, 1.0, float(sweep.summary[k]), 0.0, None) for k in monotone]
    zero = next(row[1:] for row in sweep.rows if row[0] == 0.0)
    sweep_checks += [
        fixture_check(f"zero_elevation:{k}", expected, actual, FIXTURE_TOL)
        for k, expected, actual in zip(("range_bias", "range_rate_bias"),
                                       EXPECTED_ZERO_ELEVATION, zero)
    ]
    s = monte_carlo.summary
    mc_checks = (
        fixture_check("radial_error_floor_violations", 0.0, float(s["below_floor"]), 0.0, None),
        fixture_check("min_radial_error", EXPECTED_MC_MIN, s["min_radial_error"],
                      EXPECTED_MC_MIN_RTOL * EXPECTED_MC_MIN, None),
        fixture_check("argmin_separation_deg", EXPECTED_MC_ARGMIN_DEG,
                      s["argmin_separation_deg"], EXPECTED_MC_ARGMIN_TOL_DEG, None),
    )
    analytic, readout, radii, field_biases = [], [], [], []
    for case, (scenario, rep) in cases.items():
        for space, expected_radius in zip(Space, EXPECTED_FIELD_RADII):
            theoretical, simulated = _pair_checks(case, scenario, rep.rows, space)
            readout += simulated
            if case != FIELD_CASE:
                analytic += theoretical
                continue
            (ch,) = (ch for ch in scenario.satellites if ch.prn == FIELD_PRN)
            radii.append(fixture_check(f"{case}:prn{FIELD_PRN}:{space.value}:radius",
                                       expected_radius,
                                       center_line(ch, 0, space, scenario.signal).radius,
                                       FIXTURE_TOL))
            field_biases += theoretical
    field = ResultTable(("quantity", "theoretical", "field_measured"), tuple(
        (q, c.actual, measured) for (q, measured), c in
        zip(FIELD_MEASURED.items(), radii + field_biases, strict=True)))
    return (
        Criterion(1, "projection-table", tuple(projection_checks)),
        Criterion(2, "elevation-sweep-anchors", tuple(sweep_checks)),
        Criterion(3, "case-tables-analytic", tuple(analytic)),
        Criterion(4, "case-tables-grid-readout", tuple(readout)),
        Criterion(5, "monte-carlo", mc_checks),
        # per space, the PRN 18 radius and then the OB bias
        Criterion(6, "field-replay-theoretical",
                  tuple(itertools.chain(*zip(radii, field_biases, strict=True)))),
    ), field


def _pair_checks(case: str, scenario: Scenario, rows, space: Space) -> tuple[list, list]:
    """Reference-bias and grid-readout checks of a case study's rows in ``space``."""
    expected = EXPECTED_CASE_BIAS[case]
    k = list(Space).index(space)
    theoretical, simulated = [], []
    for row_space, label, _, _, _, analytic, readout, in_window in rows:
        if row_space != space.value:
            continue
        if label in expected:
            tol = FIXTURE_TOL_OA if label == "OA" else FIXTURE_TOL
            theoretical.append(fixture_check(f"{case}:{label}:{space.value}:theoretical",
                                             expected[label][k], analytic, tol))
        if in_window and math.isfinite(readout):
            simulated.append(fixture_check(f"{case}:{label}:{space.value}:simulated", analytic,
                                           readout, 1.5 * scenario.grid_for(space).step, None))
    return theoretical, simulated


def pair_error_curve(rho_i: float, rho_j: float, delta_theta_rad: np.ndarray) -> np.ndarray:
    """Radial error of a line pair over azimuth separations (vectorized).

    Law of cosines over the sine; separations whose sine falls below the
    parallel-line threshold yield +inf (no finite intersection).  Where
    the squared chord rounds below the smallest normal double (tiny or
    nearly equal radii: it underflows, goes subnormal or cancels below
    zero) the cancellation-free ``hypot(rho_i - rho_j*cos, rho_j*sin)``
    takes its place.  Not computed through ``scmb.line_crossing`` (as the
    tests' ``scenario_helpers.pair_radial_error`` does): of the 10,000
    reference Monte Carlo values that route changes the last bits of
    4,880 (the recorded minimum among them), the cancellation-free form
    everywhere 3,445, and either changes ``report.json``.
    """
    t = np.asarray(delta_theta_rad, dtype=float)
    c = np.cos(t)
    s = np.sin(t)
    # radii near the largest double overflow to inf (or inf - inf = NaN),
    # which the hypot fallback and the final division resolve; hypot runs only
    # where it is taken, and in place, which saves a third of time and memory
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sq = rho_i * rho_i + rho_j * rho_j - 2.0 * rho_i * rho_j * c
        low = ~(sq >= np.finfo(float).tiny)  # NaN too
        num = np.sqrt(sq, out=sq)
        num[low] = np.hypot(rho_i - rho_j * c[low], rho_j * s[low])
        num /= s
    num[~(s >= EPS_PARALLEL)] = np.inf
    return num


def pair_error_rows(rho: float) -> ResultTable:
    """The columns ``(separation deg, single, pair)`` at each half-degree separation in (0, 180)
    deg: :func:`pair_error_curve` of one NLOS satellite of radius ``rho``, and of two."""
    thetas_deg = 0.5 * np.arange(1, 360)
    thetas = np.radians(thetas_deg)
    return ResultTable(
        ("delta_theta[deg]", f"single_nlos_{rho:g}[m]", f"equal_pair_{rho:g}[m]"),
        Columns((thetas_deg, pair_error_curve(rho, 0.0, thetas),
                 pair_error_curve(rho, rho, thetas))))


def run_elevation_sweep(elevations_deg: Sequence[float] | None = None) -> ResultTable:
    """Project :data:`REFERENCE_BIAS` over a set of elevations.

    Defaults sweep 0..85 deg in half-degree steps.  ``summary`` records
    whether each bias column strictly increases with elevation.
    """
    if elevations_deg is None:
        elevations_deg = 0.5 * np.arange(171)
    (delay_chips, doppler_hz), signal = REFERENCE_BIAS, SignalConfig()
    rows = tuple((el, project_bias(delay_chips, math.radians(el), signal.code_rate),
                  project_bias(doppler_hz, math.radians(el), signal.carrier))
                 for el in map(float, elevations_deg))
    increasing_range, increasing_rate = (all(b[k] > a[k] for a, b in zip(rows, rows[1:]))
                                         for k in (1, 2))
    return ResultTable(
        columns=("elevation[deg]", "range_bias[m]", "range_rate_bias[m/s]"),
        rows=rows,
        summary={
            "range_bias_strictly_increasing": increasing_range,
            "range_rate_bias_strictly_increasing": increasing_rate,
        },
    )


# Philox4x64-10 (Salmon et al., SC'11): the round multipliers, the key increments,
# and the blocks computed at once, which bound the temporaries of a long draw.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_BLOCKS = 1 << 13


def _philox_uniform(seed: int, n: int) -> np.ndarray:
    """``Generator(Philox(key=seed)).uniform(0.0, 1.0, n)`` bit for bit, without
    ``numpy.random``: block b (from 0) is counter ``(b + 1, 0, 0, 0)`` under key
    ``(seed mod 2**64, seed >> 64)``, its 4 words in order, and a word x draws
    ``(x >> 11) * 2**-53``."""
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"a Philox key must lie in [0, 2**128), got {seed}")
    out, blocks, low = np.empty(n), -(-n // 4), np.uint64(0xFFFFFFFF)
    mh, ml = _PHILOX_M >> 32, _PHILOX_M & low
    for start in range(0, blocks, _PHILOX_BLOCKS):
        c = np.zeros((4, min(_PHILOX_BLOCKS, blocks - start)), dtype=np.uint64)
        c[0] = np.arange(start + 1, start + 1 + c.shape[1], dtype=np.uint64)
        key = np.array([[seed % 2 ** 64], [seed >> 64]], dtype=np.uint64)
        for _ in range(10):  # (c0, c2) times the multipliers, high words from 32-bit halves
            ch, cl = c[::2] >> 32, c[::2] & low
            ll, lh, hl = ml * cl, ml * ch, mh * cl
            hi = mh * ch + (lh >> 32) + (hl >> 32) + ((ll >> 32) + (lh & low) + (hl & low) >> 32)
            lo = _PHILOX_M * c[::2]
            c = np.stack((hi[1] ^ c[1] ^ key[0], lo[1], hi[0] ^ c[3] ^ key[1], lo[0]))
            key += _PHILOX_BUMP
        words = c.T.ravel()[:n - 4 * start]
        out[4 * start:4 * start + words.size] = (words >> 11) * 2.0 ** -53
    return out


def run_random_azimuth_mc(rho_i: float, rho_j: float, trials: int, seed: int) -> ResultTable:
    """Uniform random azimuth-separation trials for one radius pair.

    Trial k's separation is pi times draw k of :func:`_philox_uniform`, so its
    row depends only on (seed, k): a shorter run is a prefix of a longer one.
    The rows are ``Columns`` of the trial index, separation (deg) and radial
    error; no row tuple is built.  No ``numpy.random`` is loaded, which keeps
    6 MB off ``report``'s peak RSS of 32 MB.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    thetas = math.pi * _philox_uniform(seed, trials)
    errors = pair_error_curve(rho_i, rho_j, thetas)
    imin = int(np.argmin(errors))
    floor = max(abs(rho_i), abs(rho_j))  # case_bound's, and 0 at radii 0, 0, which it rejects
    # relative slack: an absolute one would exceed a tiny floor
    below = int(np.count_nonzero(errors < floor * (1.0 - 1e-9)))
    return ResultTable(
        columns=("trial", "delta_theta[deg]", "radial_error[m]"),
        rows=Columns((np.arange(trials), np.degrees(thetas), errors)),
        summary={
            "trials": trials,
            "min_radial_error": float(errors[imin]),
            "argmin_trial": imin,
            "argmin_separation_deg": math.degrees(float(thetas[imin])),
            "floor": floor,
            "below_floor": below,
        },
    )


def _pair_label(prn_i: int, prn_j: int) -> str:
    for label, (a, b) in PAIR_LABELS.items():
        if {a, b} == {prn_i, prn_j}:
            return label
    return f"{prn_i}-{prn_j}"


def run_case_study(scenario: Scenario) -> ResultTable:
    """Analytic vs grid-readout pair errors for a one-path-per-satellite scenario.

    The analytic column crosses the exact center lines' forms, and the
    simulated column the lines :func:`caf.ridge_line` fits to each channel's
    ridge on its own noiseless grid, read from a few certified cells per
    scanline, so a scenario with noise raises ``ValueError``; both solve with
    :func:`scmb.line_crossing`.  ``in_window`` is 1 when the analytic
    crossing lies in the grid.  Parallel lines read infinite, and so does a
    crossing beyond a double.  ``summary`` holds per space the readout
    counts and per PRN the fit's RMS residual and scanlines kept (columns,
    rows).
    """
    if scenario.noise_sigma > 0.0:
        raise ValueError("case study requires a noiseless scenario")
    for ch in scenario.satellites:
        if len(ch.paths) != 1:
            raise ValueError("case study expects exactly one path per satellite")
    rows = []
    summary = {}
    for space in Space:
        grid = scenario.grid_for(space)
        lines = {ch.prn: center_line(ch, 0, space, scenario.signal) for ch in scenario.satellites}
        stats = Counter()
        fitted, residual, kept = {}, {}, {}
        for ch in scenario.satellites:
            fitted[ch.prn], residual[ch.prn], kept[ch.prn] = ridge_line(
                grid, ch, scenario.signal, stats)
        summary[space.value] = {**stats, "residual": residual, "kept": kept}
        for pi, pj in itertools.combinations(lines, 2):  # PRN pairs in satellite order
            li, lj = lines[pi], lines[pj]
            point = line_crossing(li.form, lj.form)
            if point is None:
                analytic, simulated, in_window = math.inf, math.inf, 0
            else:
                analytic = math.hypot(*point)
                sim_point = line_crossing(fitted[pi], fitted[pj])
                simulated = math.inf if sim_point is None else math.hypot(*sim_point)
                in_window = int(max(map(abs, point)) <= grid.half_extent)
            rows.append((space.value, _pair_label(pi, pj), pi, pj,
                         math.degrees(fold_azimuth_separation(li.azimuth, lj.azimuth)),
                         analytic, simulated, in_window))
    return ResultTable(
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
        summary=summary,
    )
