"""Acceptance gate: every bundled reference reproduction at its stated tolerance.

Each criterion records one visible pass/fail line (printed in the terminal
summary via conftest) and then asserts, so a red criterion is both readable
and fatal.  Reference values are printed rounded to one decimal in the source
tables; comparisons round the computed value to that precision first.
"""
import math
import subprocess
import sys
from pathlib import Path

from dpe_multipath import mc
from dpe_multipath.cli import load_scenario
from dpe_multipath.scmb import pair_bias, pair_bias_velocity, project_to_range, project_to_range_rate

TESTS_DIR = Path(__file__).resolve().parent

AZ = {10: 320.2, 18: 213.8, 23: 336.1, 24: 45.1}
CASE_RADII = {
    "case1": {10: 0.0, 18: 40.0, 23: 0.0, 24: 0.0},
    "case2": {10: 40.0, 18: 40.0, 23: 40.0, 24: 40.0},
    "case3": {10: 60.0, 18: 40.0, 23: 30.0, 24: 15.0},
}
PAIRS = {"OA": (10, 24), "OB": (18, 23), "OC": (10, 18), "OD": (23, 24), "OE": (10, 23)}

# pair label -> expected radial error, identical magnitude in m and m/s
EXPECTED_PAIRS = {
    "case1": {"OB": 47.3, "OC": 41.7},
    "case2": {"OA": 54.2, "OB": 82.9, "OC": 66.7, "OD": 48.5, "OE": 40.4},
    "case3": {"OA": 60.8, "OB": 72.8, "OC": 84.4, "OD": 30.3},
}


def close(actual: float, expected: float, tol: float = 0.1) -> bool:
    """Printed-reference comparison: round to one decimal, then apply tol."""
    return abs(round(actual, 1) - expected) <= tol + 1e-12


def test_criterion_1_projection_table(acceptance_log):
    expected = {
        35.4: (36.0, 37.5),
        42.8: (39.9, 41.7),
        66.7: (74.0, 77.2),
        69.8: (84.8, 88.5),
    }
    rows = []
    ok = True
    for el, (exp_rng, exp_rate) in sorted(expected.items()):
        phi = math.radians(el)
        rng = project_to_range(1.0, phi)
        rate = project_to_range_rate(120.0, phi)
        ok &= close(rng, exp_rng) and close(rate, exp_rate)
        rows.append(f"{el}: ({rng:.4f}, {rate:.4f}) vs ({exp_rng}, {exp_rate})")
    assert acceptance_log.record(
        1, "projection table at reference elevations, +/-0.1", ok
    ), "; ".join(rows)


def test_criterion_2_sweep_anchors(acceptance_log):
    rep = mc.run_elevation_sweep()
    zero = next(r for r in rep.rows if r[0] == 0.0)
    ok = abs(zero[1] - 29.3) <= 0.1 and abs(zero[2] - 30.6) <= 0.1
    ok &= rep.summary["range_bias_strictly_increasing"]
    ok &= rep.summary["range_rate_bias_strictly_increasing"]
    assert acceptance_log.record(
        2, "zero-elevation anchors 29.3/30.6 +/-0.1, strictly increasing sweep", ok,
        f"anchors ({zero[1]:.4f}, {zero[2]:.4f})",
    )


def test_criterion_3_case_tables_theoretical(acceptance_log):
    ok = True
    worst = ""
    for case, pairs in EXPECTED_PAIRS.items():
        radii = CASE_RADII[case]
        for label, expected in pairs.items():
            i, j = PAIRS[label]
            tol = 0.4 if label == "OA" else 0.1
            pos = pair_bias(radii[i], radii[j], math.radians(AZ[i]), math.radians(AZ[j])).dr
            vel = pair_bias_velocity(
                radii[i], radii[j], math.radians(AZ[i]), math.radians(AZ[j])
            ).dr
            good = close(pos, expected, tol) and close(vel, expected, tol)
            if not good:
                worst = f"{case}:{label} {pos:.4f} vs {expected}"
            ok &= good
    assert acceptance_log.record(
        3, "case-table pair errors +/-0.1 (OA +/-0.4), both spaces", ok, worst
    )


def test_criterion_4_case_tables_simulated(acceptance_log):
    ok = True
    checked = 0
    step = {"position": 1.0, "velocity": 0.1}
    for case in ("case1", "case2", "case3"):
        rep = mc.run_case_study(load_scenario(f"{case}.scenario"), case)
        for space, _, _, _, _, analytic, simulated, in_window in rep.rows:
            if in_window:
                checked += 1
                ok &= abs(simulated - analytic) <= 1.5 * step[space]
    assert checked >= 20
    assert acceptance_log.record(
        4, "grid-readout columns within 1.5 steps of analytic", ok,
        f"{checked} in-window readouts",
    )


def test_criterion_5_monte_carlo(acceptance_log):
    rep = mc.run_random_azimuth_mc(60.0, 40.0, 10000, mc.REFERENCE_SEED)
    s = rep.summary
    ok = abs(s["min_radial_error"] - 60.0) <= 0.005 * 60.0
    ok &= abs(s["argmin_separation_deg"] - 48.2) <= 1.0
    ok &= s["below_floor"] == 0
    assert acceptance_log.record(
        5, "10k-trial minimum near 60 at 48.2 deg, none below the floor", ok,
        f"min {s['min_radial_error']:.4f} at {s['argmin_separation_deg']:.2f} deg",
    )


def test_criterion_6_field_replay_theoretical(acceptance_log):
    phi = math.radians(42.8)
    d_rho = project_to_range(1.0, phi)
    d_rho_dot = project_to_range_rate(120.3, phi)
    d_r = pair_bias(d_rho, 0.0, math.radians(AZ[18]), math.radians(AZ[23])).dr
    d_r_dot = pair_bias_velocity(
        d_rho_dot, 0.0, math.radians(AZ[18]), math.radians(AZ[23])
    ).dr
    ok = (
        close(d_rho, 39.9)
        and close(d_rho_dot, 41.8)
        and close(d_r, 47.2)
        and close(d_r_dot, 49.5)
    )
    # the measured column ships as a documented fixture and is never compared
    assert set(mc.FIELD_MEASURED) == {
        "range_bias[m]", "radial_error[m]", "range_rate_bias[m/s]", "radial_rate_error[m/s]"
    }
    assert acceptance_log.record(
        6, "field replay theoretical 39.9/41.8/47.2/49.5 +/-0.1", ok,
        f"({d_rho:.4f}, {d_rho_dot:.4f}, {d_r:.4f}, {d_r_dot:.4f})",
    )


def test_criterion_7_property_suite(acceptance_log, property_run):
    """Every property test passed, and at least one ran.

    When this session ran the whole property suite (conftest orders this
    test after it), its results are read from the session; otherwise the
    suite runs in a subprocess.
    """
    if property_run.complete:
        ok = property_run.green
        tail = f"{len(property_run.passed)}/{len(property_run.selected)} passed in this session"
        failed = sorted((property_run.selected - property_run.passed) | property_run.failed)
        assert acceptance_log.record(7, "property suite green", ok, tail), failed
        return
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(TESTS_DIR / "test_properties.py"), "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    assert acceptance_log.record(7, "property suite green", ok, tail), proc.stdout


def test_criterion_8_report_exits_zero(acceptance_log, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dpe_multipath", "report", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    assert acceptance_log.record(
        8, "report command exits 0 on unmodified checkout", ok,
        f"exit {proc.returncode}",
    ), proc.stdout + proc.stderr
