"""Experiment drivers: sweeps, Monte Carlo, case studies, oracle comparison, and the
reference criteria built from their rows."""
import functools
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dpe_multipath import caf, mc
from dpe_multipath.caf import scenario_caf
from dpe_multipath.cli import _bundled_scenario, load_scenario
from dpe_multipath.mc import (
    EXPECTED_CASE_BIAS,
    EXPECTED_MC_ARGMIN_DEG,
    EXPECTED_MC_MIN,
    EXPECTED_PROJECTION,
    FIELD_CASE,
    fixture_check,
    pair_error_curve,
    reference_criteria,
    run_case_study,
    run_elevation_sweep,
    run_random_azimuth_mc,
)
from dpe_multipath.model import (
    REFERENCE_BIAS,
    REFERENCE_RADII,
    REFERENCE_SEED,
    REFERENCE_TRIALS,
    GridSpec,
    PathKind,
    Scenario,
    SignalPath,
    Space,
)
from dpe_multipath.scmb import project_bias
from scenario_helpers import (CARRIER, CODE_RATE, caf_value_at, channel, column_rows,
                              grid_values, run_oracle_compare)


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


@functools.cache
def reference_runs() -> dict:
    """The driver runs ``report`` checks, from ``mc``'s own plan at the reference
    seed, by argument name of :func:`reference_criteria`.  The literal reference
    values stay in ``test_acceptance``, the independent oracle."""
    return {
        "projection": run_elevation_sweep(sorted(EXPECTED_PROJECTION)),
        "sweep": run_elevation_sweep(),
        "monte_carlo": run_random_azimuth_mc(*REFERENCE_RADII, REFERENCE_TRIALS, REFERENCE_SEED),
        "cases": {case: (s := load_scenario(_bundled_scenario(f"{case}.scenario")),
                         run_case_study(s)) for case in EXPECTED_CASE_BIAS},
    }


def criteria_of(**runs) -> dict:
    """The reference criteria by id, from ``runs`` over the reference runs; given
    ``cases`` without the field replay keep the reference one, last."""
    reference = reference_runs()
    if "cases" in runs:
        cases = runs["cases"]
        runs["cases"] = {**cases, FIELD_CASE: cases.get(FIELD_CASE,
                                                        reference["cases"][FIELD_CASE])}
    criteria, _ = reference_criteria(**{**reference, **runs})
    return {c.id: c for c in criteria}


class TestReferenceCriteria:
    def test_reference_runs_pass_in_report_order(self):
        criteria, field = reference_criteria(**reference_runs())
        assert [(c.id, c.passed, len(c.checks)) for c in criteria] == [
            (1, True, 8), (2, True, 4), (3, True, 22), (4, True, 30), (5, True, 3), (6, True, 4)]
        assert field.columns == ("quantity", "theoretical", "field_measured")
        assert [row[0] for row in field.rows] == [
            "range_bias[m]", "range_rate_bias[m/s]", "radial_error[m]", "radial_rate_error[m/s]"]

    def test_failed_check_fails_its_criterion(self):
        mc_run = run_random_azimuth_mc(60.0, 40.0, 3, REFERENCE_SEED)
        criteria = criteria_of(monte_carlo=mc_run)
        assert not criteria[5].passed
        assert [c.passed for c in criteria[5].checks] == [True, False, False]
        assert all(criteria[k].passed for k in (1, 2, 3, 4, 6))

    def test_simulated_check_needs_window_and_finite_readout(self):
        scenario, rep = reference_runs()["cases"]["case1"]
        rows = list(rep.rows)
        rows[0] = rows[0][:6] + (math.inf, 1)  # in the window, no fitted crossing
        rows[1] = rows[1][:7] + (0,)  # a finite readout outside the window
        criteria = criteria_of(cases={"case1": (scenario, replace(rep, rows=tuple(rows)))})
        assert criteria[4].passed
        names = [c.name for c in criteria[4].checks]  # case1's, then table6's 2
        assert len(names) == 8 + 2 and "case1:OC:position:simulated" not in names
        assert "case1:OE:position:simulated" not in names
        assert "case1:OE:velocity:simulated" in names


class TestElevationSweep:
    def test_default_sweep_checks_pass(self):
        rep = run_elevation_sweep()
        criterion = criteria_of(sweep=rep)[2]
        assert criterion.passed
        assert len(rep.rows) == 171
        assert rep.summary["range_bias_strictly_increasing"]
        assert rep.summary["range_rate_bias_strictly_increasing"]
        names = {c.name for c in criterion.checks}
        assert "zero_elevation:range_bias" in names
        assert "zero_elevation:range_rate_bias" in names

    def test_reference_elevation_checks_pass(self):
        rep = run_elevation_sweep([35.4, 42.8, 66.7, 69.8])
        proj = criteria_of(projection=rep)[1].checks
        assert len(proj) == 8
        assert all(c.name.startswith("projection:") for c in proj)
        assert all(c.passed for c in proj)

    def test_rows_match_projection(self):
        delay_chips, doppler_hz = REFERENCE_BIAS
        rep = run_elevation_sweep([10.0, 50.0])
        for el, rng, rate in rep.rows:
            phi = math.radians(el)
            assert rng == pytest.approx(project_bias(delay_chips, phi, CODE_RATE), rel=1e-12)
            assert rate == pytest.approx(project_bias(doppler_hz, phi, CARRIER), rel=1e-12)


class TestRandomAzimuthMc:
    def test_reference_run_passes(self):
        rep = run_random_azimuth_mc(60.0, 40.0, 10000, REFERENCE_SEED)
        assert criteria_of(monte_carlo=rep)[5].passed
        s = rep.summary
        assert s["below_floor"] == 0
        assert s["min_radial_error"] >= 60.0
        assert s["min_radial_error"] == pytest.approx(EXPECTED_MC_MIN, rel=0.005)
        assert s["argmin_separation_deg"] == pytest.approx(EXPECTED_MC_ARGMIN_DEG, abs=1.0)

    def test_floor_holds_for_any_radii(self):
        rep = run_random_azimuth_mc(25.0, 70.0, 2000, seed=42)
        assert rep.summary["below_floor"] == 0
        assert min(r[2] for r in column_rows(rep.rows)) >= 70.0 - 1e-9

    @pytest.mark.parametrize("rho_i, rho_j", [(1e-170, 1e-170), (1e-170, 3e-170)])
    def test_floor_holds_for_tiny_radii(self, rho_i, rho_j, monkeypatch):
        # rho**2 underflows to 0, and an absolute slack would exceed the floor
        floor = max(rho_i, rho_j)
        rep = run_random_azimuth_mc(rho_i, rho_j, 2000, seed=1)
        assert min(r[2] for r in column_rows(rep.rows)) >= floor * (1.0 - 1e-9)
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
        assert column_rows(a.rows) != column_rows(b.rows)

    def test_rows_are_pure_function_of_trial_index(self):
        long = run_random_azimuth_mc(60.0, 40.0, 300, seed=9)
        short = run_random_azimuth_mc(60.0, 40.0, 120, seed=9)
        assert column_rows(long.rows)[:120] == column_rows(short.rows)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            run_random_azimuth_mc(60.0, 40.0, 0, REFERENCE_SEED)


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
        rows = column_rows(run_random_azimuth_mc(60.0, 40.0, 64, seed=11).rows)
        expected = [math.degrees(float(math.pi * u)) for u in _stream_from(11, 13, 37)]
        assert [r[1] for r in rows[13:50]] == expected

    def test_range(self):
        rows = column_rows(run_random_azimuth_mc(60.0, 40.0, 1000, seed=2).rows)
        separations = [r[1] for r in rows]
        assert min(separations) >= 0.0 and max(separations) < 180.0


class TestPhiloxUniform:
    @pytest.mark.parametrize("seed", [0, 1, REFERENCE_SEED, 2**64 - 1, 2**64, 2**128 - 1])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 10000, 4 * mc._PHILOX_BLOCKS + 3])
    def test_equals_numpy_generator(self, seed, n):
        # the last length ends 3 draws into the second chunk of blocks
        expected = np.random.Generator(np.random.Philox(key=seed)).uniform(0.0, 1.0, n)
        assert mc._philox_uniform(seed, n).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed, first", [
        (1, ["0x1.36da89edd58a0p-2", "0x1.b289f407757c1p-1", "0x1.3fc3972bb8304p-3",
             "0x1.fda5da5a81200p-6", "0x1.cceffc977a08ap-1", "0x1.aa87b74ada3c0p-5",
             "0x1.7d7c2595a1d69p-1", "0x1.f85a55eaafb0cp-3"]),
        (2**128 - 1, ["0x1.b51b3039c7c2ep-2", "0x1.249d42d27f351p-1", "0x1.fb86be0331922p-1",
                      "0x1.694623e2f54cap-1", "0x1.9f84b07bfe378p-2", "0x1.a1dd86108ae1ep-2",
                      "0x1.6d5e5792b5020p-5", "0x1.28364fcba4881p-1"]),
    ], ids=["seed-1", "seed-2**128-1"])
    def test_first_draws_are_pinned(self, seed, first):
        # held as literals, so the stream stays put whatever numpy's Generator does
        assert [x.hex() for x in mc._philox_uniform(seed, 8).tolist()] == first

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_key_out_of_range(self, seed):
        with pytest.raises(ValueError, match=r"2\*\*128"):
            mc._philox_uniform(seed, 4)


class TestCaseStudies:
    @pytest.mark.parametrize("case", ["case1", "case2", "case3"])
    def test_reference_cases_pass(self, case):
        s = load_scenario(f"{case}.scenario")
        rep = run_case_study(s)
        criteria = criteria_of(cases={case: (s, rep)})
        assert criteria[3].passed and criteria[4].passed
        assert {c.name.partition(":")[0] for c in criteria[3].checks} == {case}
        assert len(rep.rows) == 12  # 6 pairs x 2 spaces

    def test_radii_project_to_case_values(self):
        s = load_scenario("case3.scenario")
        radii = {10: 60.0, 18: 40.0, 23: 30.0, 24: 15.0}
        for ch in s.satellites:
            path = ch.paths[0]
            radius = radii[ch.prn]
            assert project_bias(
                path.delay_chips, ch.angles.elevation, CODE_RATE
            ) == pytest.approx(radius, rel=1e-12)
            assert project_bias(
                path.doppler_hz, ch.angles.elevation, CARRIER
            ) == pytest.approx(radius, rel=1e-12)

    def test_simulated_column_tracks_analytic(self):
        rep = run_case_study(load_scenario("case2.scenario"))
        step = {"position": 1.0, "velocity": 0.1}
        for space, _, _, _, _, analytic, simulated, in_window in rep.rows:
            if in_window:
                assert abs(simulated - analytic) <= 1.5 * step[space]

    def test_ridge_fits_have_unit_normals(self):
        # line_crossing's determinant is |sin| of the azimuth separation, the
        # quantity EPS_PARALLEL bounds, only for unit normals
        fits = [caf.ridge_line(s.grid_for(space), ch, s.signal, Counter())[0]
                for case in EXPECTED_CASE_BIAS
                for s in [load_scenario(_bundled_scenario(f"{case}.scenario"))]
                for space in Space for ch in s.satellites]
        assert len(fits) == 28
        for a, b, _ in fits:
            assert abs(math.hypot(a, b) - 1.0) <= 2.0**-51

    def test_requires_single_path_channels(self):
        base = load_scenario("table1.scenario")
        two_paths = replace(
            channel(base, 18),
            paths=(SignalPath(PathKind.LOS), SignalPath(PathKind.NLOS, delay_chips=1.0)),
        )
        lone = channel(base, 23)
        s = Scenario(satellites=(two_paths, lone))
        with pytest.raises(ValueError):
            run_case_study(s)

    def test_noise_rejected(self):
        s = load_scenario("case1.scenario")
        with pytest.raises(ValueError, match="noiseless"):
            run_case_study(replace(s, noise_sigma=0.1, seed=1))

    def test_reads_ridges_without_grids(self, monkeypatch):
        # the report's 14 channels evaluate under 1 % of the cells of their
        # 28 grids, and no grid is filled
        def unreached(*args):
            raise AssertionError("scenario_caf called")

        monkeypatch.setattr(caf, "scenario_caf", unreached)
        assert not hasattr(mc, "scenario_caf")
        cells = full = 0
        runs = {}
        for case in ("case1", "case2", "case3", "table6"):
            s = load_scenario(f"{case}.scenario")
            rep = runs[case] = run_case_study(s)
            for space in Space:
                stats = rep.summary[space.value]
                n = s.grid_for(space).n
                assert stats["certified"] + stats["off_grid"] + stats["full"] == (
                    2 * n * len(s.satellites))
                assert set(stats["kept"]) == set(stats["residual"]) == {
                    ch.prn for ch in s.satellites}
                cells += stats["cells"]
                full += n * n * len(s.satellites)
        assert full == 14 * 2001**2 + 14 * 201**2
        assert cells < 0.01 * full
        cases = {case: (load_scenario(f"{case}.scenario"), rep) for case, rep in runs.items()}
        assert all(c.passed for c in criteria_of(cases=cases).values())

    def test_two_window_reads_per_channel_and_space(self, monkeypatch):
        # one window batch per scan orientation; no scanline needs the full
        # readout, so the fallback evaluates nothing
        calls = []
        add = caf._add_channel

        def counted(out, *args):
            calls.append(out.size)
            add(out, *args)

        monkeypatch.setattr(caf, "_add_channel", counted)
        runs = {}
        for case in ("case1", "case2", "case3", "table6"):
            s = load_scenario(f"{case}.scenario")
            calls.clear()
            runs[case] = s, run_case_study(s)
            assert len(calls) == 2 * len(Space) * len(s.satellites)
            assert all(calls)
        assert all(c.passed for c in criteria_of(cases=runs).values())

    @pytest.mark.parametrize("case, work", [
        ("case1", {"position": (11256, 1574, 34, 0), "velocity": (112056, 14819, 1189, 0)}),
        ("case2", {"position": (11256, 1533, 75, 0), "velocity": (112056, 13623, 2385, 0)}),
        ("case3", {"position": (11256, 1500, 108, 0), "velocity": (112056, 13444, 2564, 0)}),
        ("table6", {"position": (5628, 770, 34, 0), "velocity": (56028, 6794, 1210, 0)}),
    ])
    def test_readout_work_per_space(self, case, work):
        # (cells, certified, off_grid, full): a window that lands elsewhere
        # shows here even where no output byte changes
        summary = run_case_study(load_scenario(f"{case}.scenario")).summary
        assert {space: tuple(summary[space][k] for k in ("cells", "certified", "off_grid", "full"))
                for space in work} == work

    def test_narrow_windows_still_hold_the_crossing(self, monkeypatch):
        # 3-cell windows certify nearly every scanline only when each is centred
        # on its crossing: one read a cell off, or scaled by n rather than n - 1,
        # sends hundreds of scanlines to the full readout.  A bound, not pins: the
        # velocity-space full reads are near-ties that another sine kernel may flip.
        monkeypatch.setattr(caf, "_WINDOW", 1)
        for case in EXPECTED_CASE_BIAS:
            summary = run_case_study(load_scenario(f"{case}.scenario")).summary
            full = {space.value: summary[space.value]["full"] for space in Space}
            assert max(full.values()) <= 2, (case, full)

    def test_table6_field_case(self):
        criteria, field = reference_criteria(**reference_runs())
        by_id = {c.id: c for c in criteria}
        assert by_id[6].passed and by_id[4].passed  # the grid readouts join criterion 4
        by_name = {c.name: c for c in by_id[6].checks}
        assert by_name["table6:prn18:position:radius"].actual == pytest.approx(
            39.94007471783003, rel=1e-9
        )
        assert by_name["table6:OB:position:theoretical"].actual == pytest.approx(
            47.25171911003219, rel=1e-9
        )
        assert [row[1] for row in field.rows] == [
            by_name[f"table6:{name}"].actual for name in (
                "prn18:position:radius", "prn18:velocity:radius",
                "OB:position:theoretical", "OB:velocity:theoretical")]


class TestOracleCompare:
    @pytest.mark.parametrize("case", ["case1", "case3", "table6"])
    def test_argmax_agrees_on_reference_cases(self, case):
        rep = run_oracle_compare(load_scenario(f"{case}.scenario"))
        assert rep.summary["argmax_within_one_step"]
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

    def test_holds_no_grid(self):
        # a 1001^2 velocity grid over four channels: the argmax draws the
        # grid a block at a time and holds no more than a few blocks
        s = load_scenario("case3.scenario")
        run_oracle_compare(replace(s, grids=(GridSpec(Space.VELOCITY, 1.0, 0.2),)), Space.VELOCITY)
        wide = replace(s, grids=(GridSpec(Space.VELOCITY, 100.0, 0.2),))
        assert wide.grid_for(Space.VELOCITY).n == 1001
        tracemalloc.start()
        try:
            rep = run_oracle_compare(wide, Space.VELOCITY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rep.summary["argmax_e"], rep.summary["argmax_n"]) == (84.4, -5.800000000000001)
        assert peak < 2 * 2**20

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
        return grid_values(scenario_caf(replace(scenario, grids=(spec,)), spec.space))

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
            assert caf_value_at(s, space, e, n) == total[i, j]
