"""Experiment drivers: sweeps, Monte Carlo, case studies, oracle comparison."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dpe_multipath.caf import GridSpec, PathKind, Scenario, SignalPath, Space, channel_caf
from dpe_multipath.mc import (
    CASE_RADII,
    EXPECTED_MC_ARGMIN_DEG,
    EXPECTED_MC_MIN,
    ExperimentConfig,
    ExperimentKind,
    REFERENCE_ANGLES,
    REFERENCE_RECEIVER,
    REFERENCE_SEED,
    _column_argmax,
    _uniform_stream,
    caf_value_at,
    fixture_check,
    make_reference_scenario,
    pair_error_curve,
    run_case_study,
    run_elevation_sweep,
    run_oracle_compare,
    run_random_azimuth_mc,
)
from dpe_multipath.scmb import project_to_range, project_to_range_rate


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

    def test_chunked_bit_identity(self):
        serial = run_random_azimuth_mc(60.0, 40.0, 997, seed=3, chunks=1)
        parallel = run_random_azimuth_mc(60.0, 40.0, 997, seed=3, chunks=7)
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

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
        with pytest.raises(ValueError):
            run_random_azimuth_mc(60.0, 40.0, 10, chunks=11)


class TestUniformStream:
    def test_splice_bit_identity(self):
        whole = _uniform_stream(5, 0, 100)
        spliced = np.concatenate([_uniform_stream(5, 0, 37), _uniform_stream(5, 37, 63)])
        np.testing.assert_array_equal(whole, spliced)

    def test_offset_slices_align(self):
        whole = _uniform_stream(11, 0, 64)
        np.testing.assert_array_equal(whole[13:50], _uniform_stream(11, 13, 37))

    def test_range(self):
        v = _uniform_stream(2, 0, 1000)
        assert v.min() >= 0.0 and v.max() < 1.0


class TestCaseStudies:
    @pytest.mark.parametrize("case", ["case1", "case2", "case3"])
    def test_reference_cases_pass(self, case):
        rep = run_case_study(make_reference_scenario(case), case)
        assert rep.passed
        assert len(rep.rows) == 12  # 6 pairs x 2 spaces

    def test_radii_project_to_case_values(self):
        s = make_reference_scenario("case3")
        for ch in s.satellites:
            path = ch.paths[0]
            radius = CASE_RADII["case3"][ch.prn]
            assert project_to_range(
                path.delay_chips, ch.angles.elevation
            ) == pytest.approx(radius, rel=1e-12)
            assert project_to_range_rate(
                path.doppler_hz, ch.angles.elevation
            ) == pytest.approx(radius, rel=1e-12)

    def test_simulated_column_tracks_analytic(self):
        rep = run_case_study(make_reference_scenario("case2"), "case2")
        step = {"position": 1.0, "velocity": 0.1}
        for space, _, _, _, _, analytic, simulated, in_window in rep.rows:
            if in_window:
                assert abs(simulated - analytic) <= 1.5 * step[space]

    def test_requires_single_path_channels(self):
        from dpe_multipath.caf import make_channel

        two_paths = make_channel(
            REFERENCE_RECEIVER,
            18,
            [SignalPath(PathKind.LOS), SignalPath(PathKind.NLOS, delay_chips=1.0)],
            angles_deg=REFERENCE_ANGLES[18],
        )
        lone = make_channel(
            REFERENCE_RECEIVER, 23, [SignalPath(PathKind.LOS)],
            angles_deg=REFERENCE_ANGLES[23],
        )
        s = Scenario(receiver_position=REFERENCE_RECEIVER, satellites=(two_paths, lone))
        with pytest.raises(ValueError):
            run_case_study(s, None)

    def test_table6_field_case(self):
        rep = run_case_study(make_reference_scenario("table6"), "table6")
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
        rep = run_oracle_compare(make_reference_scenario(case))
        assert rep.passed
        assert rep.summary["argmax_to_best"] <= rep.summary["grid_step"] + 1e-9

    def test_noise_rejected(self):
        s = make_reference_scenario("case1")
        noisy = Scenario(
            receiver_position=s.receiver_position,
            receiver_velocity=s.receiver_velocity,
            signal=s.signal,
            satellites=s.satellites,
            grids=s.grids,
            noise_sigma=0.1,
            seed=1,
        )
        with pytest.raises(ValueError):
            run_oracle_compare(noisy)

    def test_truth_wins_without_multipath(self):
        rep = run_oracle_compare(make_reference_scenario("table1"))
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


class TestExperimentConfig:
    def test_dispatch(self):
        assert ExperimentConfig(kind=ExperimentKind.ELEVATION_SWEEP).run().kind is (
            ExperimentKind.ELEVATION_SWEEP
        )
        assert ExperimentConfig(
            kind=ExperimentKind.AZIMUTH_MC, trials=50
        ).run().kind is ExperimentKind.AZIMUTH_MC
        assert ExperimentConfig(
            kind=ExperimentKind.CASE_STUDY,
            scenario=make_reference_scenario("table6"),
            case_id="table6",
        ).run().passed
        assert ExperimentConfig(
            kind=ExperimentKind.ORACLE_COMPARE, scenario=make_reference_scenario("case1")
        ).run().passed

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind=ExperimentKind.AZIMUTH_MC, trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind=ExperimentKind.ELEVATION_SWEEP, sweep_step_deg=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                kind=ExperimentKind.ELEVATION_SWEEP, sweep_start_deg=10.0, sweep_stop_deg=5.0
            )

    def test_unknown_reference_scenario(self):
        with pytest.raises(KeyError):
            make_reference_scenario("table9")


class TestColumnArgmax:
    def test_matches_argmax_with_ties(self):
        rng = np.random.default_rng(3)
        v = rng.integers(0, 4, size=(301, 257)).astype(float)  # many tied maxima
        idx, peaks = _column_argmax(v)
        np.testing.assert_array_equal(idx, v.argmax(axis=0))
        np.testing.assert_array_equal(peaks, v[v.argmax(axis=0), np.arange(v.shape[1])])

    def test_matches_argmax_on_caf_grid(self):
        s = make_reference_scenario("case3")
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
        s = make_reference_scenario(case)
        spec = self.GRIDS[space]
        total = self.summed(s, spec)
        for i, j, e, n in self.nodes(spec, total):
            assert caf_value_at(s, space, e, n) == total[i, j]

    @pytest.mark.parametrize("space", list(Space))
    def test_multipath_close_to_grid_nodes(self, space):
        base = make_reference_scenario("case3")
        extra = SignalPath(PathKind.NLOS, 0.4, -0.6, -75.0)
        s = Scenario(
            receiver_position=base.receiver_position,
            signal=base.signal,
            satellites=[replace(ch, paths=ch.paths + (extra,)) for ch in base.satellites],
        )
        spec = self.GRIDS[space]
        total = self.summed(s, spec)
        for i, j, e, n in self.nodes(spec, total):
            assert caf_value_at(s, space, e, n) == pytest.approx(total[i, j], rel=1e-12)
