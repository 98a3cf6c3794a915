"""Experiment drivers: sweeps, Monte Carlo, case studies, oracle comparison."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dpe_multipath import mc
from dpe_multipath.caf import GridSpec, PathKind, Scenario, SignalPath, Space, channel_caf
from dpe_multipath.cli import load_scenario
from dpe_multipath.mc import (
    EXPECTED_MC_ARGMIN_DEG,
    EXPECTED_MC_MIN,
    REFERENCE_SEED,
    _column_argmax,
    caf_value_at,
    fixture_check,
    pair_error_curve,
    run_case_study,
    run_elevation_sweep,
    run_oracle_compare,
    run_random_azimuth_mc,
)
from dpe_multipath.scmb import project_to_range, project_to_range_rate
from scenario_helpers import channel


class TestFixtureCheck:
    def test_rounding_matches_printed_reference(self):
        # the reference prints one decimal; a computed 77.3094 rounds to 77.3,
        # within 0.1 of the printed 77.2
        assert fixture_check("x", 77.2, 77.3094, 0.1).passed
        assert not fixture_check("x", 77.2, 77.3606, 0.1).passed

    def test_exact_mode(self):
        assert fixture_check("x", 1.0, 1.0, 0.0, None).passed
        assert not fixture_check("x", 1.0, 1.0 + 1e-6, 0.0, None).passed

    def test_records_raw_actual(self):
        c = fixture_check("x", 39.9, 39.94007471783003, 0.1)
        assert c.actual == 39.94007471783003


class TestElevationSweep:
    def test_default_sweep_checks_pass(self):
        rep = run_elevation_sweep()
        assert rep.passed
        assert rep.summary["points"] == 171
        assert rep.summary["range_bias_strictly_increasing"]
        assert rep.summary["range_rate_bias_strictly_increasing"]
        names = {c.name for c in rep.checks}
        assert "zero_elevation:range_bias" in names
        assert "zero_elevation:range_rate_bias" in names

    def test_reference_elevation_checks_pass(self):
        rep = run_elevation_sweep(1.0, 120.0, [35.4, 42.8, 66.7, 69.8])
        proj = [c for c in rep.checks if c.name.startswith("projection:")]
        assert len(proj) == 8
        assert all(c.passed for c in proj)

    def test_rows_match_projection(self):
        rep = run_elevation_sweep(2.0, 60.0, [10.0, 50.0])
        for el, rng, rate in rep.rows:
            phi = math.radians(el)
            assert rng == pytest.approx(project_to_range(2.0, phi), rel=1e-12)
            assert rate == pytest.approx(project_to_range_rate(60.0, phi), rel=1e-12)

    def test_no_reference_checks_for_other_biases(self):
        rep = run_elevation_sweep(2.0, 60.0, [35.4, 0.0])
        assert not any(c.name.startswith("projection:") for c in rep.checks)
        assert not any(c.name.startswith("zero_elevation:") for c in rep.checks)


class TestRandomAzimuthMc:
    def test_reference_run_passes(self):
        rep = run_random_azimuth_mc(60.0, 40.0, 10000, REFERENCE_SEED)
        assert rep.passed
        s = rep.summary
        assert s["below_floor"] == 0
        assert s["min_radial_error"] >= 60.0
        assert s["min_radial_error"] == pytest.approx(EXPECTED_MC_MIN, rel=0.005)
        assert s["argmin_separation_deg"] == pytest.approx(EXPECTED_MC_ARGMIN_DEG, abs=1.0)

    def test_floor_holds_for_any_radii(self):
        rep = run_random_azimuth_mc(25.0, 70.0, 2000, seed=42)
        assert rep.summary["below_floor"] == 0
        assert min(r[2] for r in rep.rows) >= 70.0 - 1e-9

    @pytest.mark.parametrize("rho_i, rho_j", [(1e-170, 1e-170), (1e-170, 3e-170)])
    def test_floor_holds_for_tiny_radii(self, rho_i, rho_j, monkeypatch):
        # rho**2 underflows to 0, and an absolute slack would exceed the floor
        floor = max(rho_i, rho_j)
        rep = run_random_azimuth_mc(rho_i, rho_j, 2000, seed=1)
        assert min(r[2] for r in rep.rows) >= floor * (1.0 - 1e-9)
        assert rep.summary["below_floor"] == 0

        def planted(*args):
            errors = pair_error_curve(*args)
            errors[7] = 0.5 * floor
            return errors

        monkeypatch.setattr(mc, "pair_error_curve", planted)
        assert run_random_azimuth_mc(rho_i, rho_j, 2000, seed=1).summary["below_floor"] == 1

    def test_seed_changes_draws(self):
        a = run_random_azimuth_mc(60.0, 40.0, 100, seed=1)
        b = run_random_azimuth_mc(60.0, 40.0, 100, seed=2)
        assert a.rows != b.rows

    def test_rows_are_pure_function_of_trial_index(self):
        long = run_random_azimuth_mc(60.0, 40.0, 300, seed=9)
        short = run_random_azimuth_mc(60.0, 40.0, 120, seed=9)
        assert long.rows[:120] == short.rows

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            run_random_azimuth_mc(60.0, 40.0, 0)


def _stream_from(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles ``start .. start+count`` of the Philox stream keyed by ``seed``,
    drawn by a generator whose counter starts at ``start`` (4 words per block)."""
    aligned = 4 * (start // 4)
    bitgen = np.random.Philox(key=seed, counter=[aligned // 4, 0, 0, 0])
    return np.random.Generator(bitgen).uniform(0.0, 1.0, count + start - aligned)[start - aligned:]


class TestUniformStream:
    def test_offset_slices_align(self):
        # trial k draws word k of the stream keyed by the seed, whatever
        # the run length: a generator started at trial 13's counter
        # reproduces trials 13..49
        rows = run_random_azimuth_mc(60.0, 40.0, 64, seed=11).rows
        expected = [math.degrees(float(math.pi * u)) for u in _stream_from(11, 13, 37)]
        assert [r[1] for r in rows[13:50]] == expected

    def test_range(self):
        separations = [r[1] for r in run_random_azimuth_mc(60.0, 40.0, 1000, seed=2).rows]
        assert min(separations) >= 0.0 and max(separations) < 180.0


class TestCaseStudies:
    @pytest.mark.parametrize("case", ["case1", "case2", "case3"])
    def test_reference_cases_pass(self, case):
        rep = run_case_study(load_scenario(f"{case}.scenario"), case)
        assert rep.passed
        assert len(rep.rows) == 12  # 6 pairs x 2 spaces

    def test_radii_project_to_case_values(self):
        s = load_scenario("case3.scenario")
        radii = {10: 60.0, 18: 40.0, 23: 30.0, 24: 15.0}
        for ch in s.satellites:
            path = ch.paths[0]
            radius = radii[ch.prn]
            assert project_to_range(
                path.delay_chips, ch.angles.elevation
            ) == pytest.approx(radius, rel=1e-12)
            assert project_to_range_rate(
                path.doppler_hz, ch.angles.elevation
            ) == pytest.approx(radius, rel=1e-12)

    def test_simulated_column_tracks_analytic(self):
        rep = run_case_study(load_scenario("case2.scenario"), "case2")
        step = {"position": 1.0, "velocity": 0.1}
        for space, _, _, _, _, analytic, simulated, in_window in rep.rows:
            if in_window:
                assert abs(simulated - analytic) <= 1.5 * step[space]

    def test_requires_single_path_channels(self):
        base = load_scenario("table1.scenario")
        two_paths = replace(
            channel(base, 18),
            paths=(SignalPath(PathKind.LOS), SignalPath(PathKind.NLOS, delay_chips=1.0)),
        )
        lone = channel(base, 23)
        s = Scenario(satellites=(two_paths, lone))
        with pytest.raises(ValueError):
            run_case_study(s, None)

    def test_table6_field_case(self):
        rep = run_case_study(load_scenario("table6.scenario"), "table6")
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["table6:prn18:position:radius"].actual == pytest.approx(
            39.94007471783003, rel=1e-9
        )
        assert by_name["table6:OB:position:theoretical"].actual == pytest.approx(
            47.25171911003219, rel=1e-9
        )


class TestOracleCompare:
    @pytest.mark.parametrize("case", ["case1", "case3", "table6"])
    def test_argmax_agrees_on_reference_cases(self, case):
        rep = run_oracle_compare(load_scenario(f"{case}.scenario"))
        assert rep.passed
        assert rep.summary["argmax_to_best"] <= rep.summary["grid_step"] + 1e-9

    def test_noise_rejected(self):
        s = load_scenario("case1.scenario")
        noisy = Scenario(
            signal=s.signal,
            satellites=s.satellites,
            grids=s.grids,
            noise_sigma=0.1,
            seed=1,
        )
        with pytest.raises(ValueError):
            run_oracle_compare(noisy)

    def test_truth_wins_without_multipath(self):
        rep = run_oracle_compare(load_scenario("table1.scenario"))
        best = [r for r in rep.rows if r[-1] == 1]
        assert len(best) == 1
        assert best[0][0] == "truth"


class TestPairErrorCurve:
    def test_matches_scalar_formula(self):
        thetas = np.radians(np.array([10.0, 48.2, 90.0, 122.3, 170.0]))
        vals = pair_error_curve(60.0, 40.0, thetas)
        for t, v in zip(thetas, vals):
            expect = math.sqrt(60.0**2 + 40.0**2 - 2 * 60 * 40 * math.cos(t)) / math.sin(t)
            assert v == pytest.approx(expect, rel=1e-12)

    def test_degenerate_separations_are_inf(self):
        vals = pair_error_curve(60.0, 40.0, np.array([0.0, math.pi]))
        assert np.all(np.isinf(vals))

    @pytest.mark.parametrize("ri, rj", [(40.0, 0.0), (40.0, 40.0), (60.0, 40.0)])
    def test_reference_curves_are_law_of_cosines_bits(self, ri, rj):
        # the fig8 separations and the reference Monte Carlo draws
        draws = np.random.Generator(np.random.Philox(key=REFERENCE_SEED)).uniform(0.0, 1.0, 10000)
        for t in (np.radians(0.5 * np.arange(1, 360)), math.pi * draws):
            num = np.sqrt(ri * ri + rj * rj - 2.0 * ri * rj * np.cos(t))
            np.testing.assert_array_equal(pair_error_curve(ri, rj, t), num / np.sin(t))

    def test_tiny_equal_radii_stay_finite(self):
        # rho**2 underflows, so the law-of-cosines argument rounds below zero
        rho = 1.14e-162
        t = math.pi * np.random.Generator(np.random.Philox(key=1)).uniform(0.0, 1.0, 2000)
        fixed = rho * rho + rho * rho - 2.0 * rho * rho * np.cos(t) < 0.0
        assert np.any(fixed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = pair_error_curve(rho, rho, t)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        hypot = np.hypot(rho - rho * np.cos(t), rho * np.sin(t)) / np.sin(t)
        for v, h in zip(vals[fixed], hypot[fixed]):
            assert v == pytest.approx(h, rel=1e-12)


class TestColumnArgmax:
    def test_matches_argmax_with_ties(self):
        rng = np.random.default_rng(3)
        v = rng.integers(0, 4, size=(301, 257)).astype(float)  # many tied maxima
        idx, peaks = _column_argmax(v)
        np.testing.assert_array_equal(idx, v.argmax(axis=0))
        np.testing.assert_array_equal(peaks, v[v.argmax(axis=0), np.arange(v.shape[1])])

    def test_matches_argmax_on_caf_grid(self):
        s = load_scenario("case3.scenario")
        spec = GridSpec(Space.VELOCITY, 100.0, 0.5)
        for g in (channel_caf(spec, ch, s) for ch in s.satellites):
            np.testing.assert_array_equal(_column_argmax(g.values)[0], g.values.argmax(axis=0))


class TestCafValueAt:
    GRIDS = {Space.POSITION: GridSpec(Space.POSITION, 100.0, 1.0),
             Space.VELOCITY: GridSpec(Space.VELOCITY, 100.0, 0.5)}

    def nodes(self, spec, total):
        """The argmax node plus 150 fixed-seed random nodes of the summed grid."""
        rng = np.random.default_rng(5)
        picks = [np.unravel_index(total.argmax(), total.shape)]
        picks += [tuple(ij) for ij in rng.integers(0, spec.n, size=(150, 2))]
        axis = spec.axis()
        return [(i, j, float(axis[j]), float(axis[i])) for i, j in picks]

    @staticmethod
    def summed(scenario, spec):
        grids = [channel_caf(spec, ch, scenario) for ch in scenario.satellites]
        total = grids[0].values.copy()
        for g in grids[1:]:
            total += g.values
        return total

    @pytest.mark.parametrize("case", ["case1", "case2", "case3", "table6"])
    @pytest.mark.parametrize("space", list(Space))
    def test_bit_equal_to_grid_nodes_single_path(self, case, space):
        s = load_scenario(f"{case}.scenario")
        spec = self.GRIDS[space]
        total = self.summed(s, spec)
        for i, j, e, n in self.nodes(spec, total):
            assert caf_value_at(s, space, e, n) == total[i, j]

    @pytest.mark.parametrize("space", list(Space))
    def test_multipath_close_to_grid_nodes(self, space):
        base = load_scenario("case3.scenario")
        extra = SignalPath(PathKind.NLOS, 0.4, -0.6, -75.0)
        s = Scenario(
            signal=base.signal,
            satellites=[replace(ch, paths=ch.paths + (extra,)) for ch in base.satellites],
        )
        spec = self.GRIDS[space]
        total = self.summed(s, spec)
        for i, j, e, n in self.nodes(spec, total):
            assert caf_value_at(s, space, e, n) == pytest.approx(total[i, j], rel=1e-12)
