"""Correlation model, mismatch linearization, and grid argmax."""
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_multipath import caf
from dpe_multipath.caf import (
    DEFAULT_GRIDS,
    RIDGE_OFFSET_SIGN,
    SPEED_OF_LIGHT,
    GeometryMismatchError,
    GridSpec,
    Grid2D,
    PathKind,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    channel_caf,
    make_channel,
    mismatch,
    scenario_caf,
    superpose_and_argmax,
)
from dpe_multipath.cli import load_scenario
from dpe_multipath.geom import EnuVector, enu_to_ecef, enu_from_angles
from scenario_helpers import authored_receiver, channel

TABLE1 = load_scenario("table1.scenario")
REFERENCE_RECEIVER = authored_receiver()


def reference_channel(prn, paths):
    """A satellite of the bundled reference geometry with the given paths."""
    return replace(channel(TABLE1, prn), paths=tuple(paths))


def two_sat_scenario(paths18, paths23):
    return Scenario(
        satellites=(reference_channel(18, paths18), reference_channel(23, paths23)),
    )


def code(delta_tau_chips):
    """Code correlation of a delay mismatch in chips, through the grid kernel."""
    out = np.array(delta_tau_chips, dtype=float)
    caf._correlate(out, Space.POSITION, 0.0)
    return out[()]


def doppler(delta_f_hz, coherent_integration_s):
    """Doppler correlation of a frequency mismatch in Hz, through the grid kernel."""
    out = np.array(delta_f_hz, dtype=float)
    caf._correlate(out, Space.VELOCITY, coherent_integration_s)
    return out[()]


class TestCorrelators:
    def test_code_triangle(self):
        assert code(0.0) == 1.0
        assert code(0.5) == 0.5
        assert code(-0.25) == 0.75
        assert code(1.0) == 0.0
        assert code(-3.7) == 0.0

    def test_code_vectorized(self):
        x = np.array([-2.0, -0.5, 0.0, 0.25, 1.5])
        np.testing.assert_allclose(code(x), [0.0, 0.5, 1.0, 0.75, 0.0])

    def test_doppler_sinc_values(self):
        t = 0.020
        assert doppler(0.0, t) == 1.0
        # a quarter of the first null: sinc(1/2) = 2/pi
        assert doppler(25.0, t) == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert doppler(50.0, t) == pytest.approx(0.0, abs=1e-15)
        assert doppler(120.0, t) == pytest.approx(0.12613778810677617, rel=1e-12)

    def test_doppler_even(self):
        t = 0.020
        f = np.linspace(0.0, 200.0, 41)
        np.testing.assert_allclose(doppler(f, t), doppler(-f, t))


class TestMismatch:
    def test_delay_mismatch_along_azimuth(self):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        ch = channel(s, 18)
        az = ch.angles.azimuth
        offset = EnuVector(100.0 * math.sin(az), 100.0 * math.cos(az), 0.0)
        assert mismatch(ch, s.signal, Space.POSITION, offset) == pytest.approx(
            2.5037509495533827, rel=1e-12)
        assert mismatch(ch, s.signal, Space.VELOCITY, offset) == pytest.approx(
            287.931359198639, rel=1e-12)

    def test_mismatch_zero_across_azimuth(self):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        ch = channel(s, 18)
        az = ch.angles.azimuth
        offset = EnuVector(50.0 * math.cos(az), -50.0 * math.sin(az), 0.0)
        assert mismatch(ch, s.signal, Space.POSITION, offset) == pytest.approx(0.0, abs=1e-12)
        assert mismatch(ch, s.signal, Space.VELOCITY, offset) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_mismatch_linear_in_offset(self, e, n, scale):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        ch = channel(s, 23)
        base = mismatch(ch, s.signal, Space.POSITION, EnuVector(e, n, 0.0))
        scaled = mismatch(ch, s.signal, Space.POSITION, EnuVector(scale * e, scale * n, 0.0))
        assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)

    def test_mismatch_additive_in_offset(self):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        ch = channel(s, 18)
        a, b = EnuVector(13.0, -7.0, 0.0), EnuVector(-2.0, 41.0, 0.0)
        ab = EnuVector(a.e + b.e, a.n + b.n, 0.0)
        assert mismatch(ch, s.signal, Space.VELOCITY, ab) == pytest.approx(
            mismatch(ch, s.signal, Space.VELOCITY, a) + mismatch(ch, s.signal, Space.VELOCITY, b),
            rel=1e-12,
        )

    def test_mismatch_depends_only_on_angles(self):
        # Satellites authored in ECEF along one direction at different ranges
        # produce the same mismatch: the linearization sees only the direction.
        def at_range(range_m):
            local = enu_from_angles(channel(TABLE1, 18).angles, range_m)
            return make_channel(REFERENCE_RECEIVER, 18, [SignalPath(PathKind.LOS)],
                                position=enu_to_ecef(local, REFERENCE_RECEIVER))

        near, far = at_range(1.5e7), at_range(3.0e7)
        s = Scenario(satellites=(near,))
        t = Scenario(satellites=(far,))
        offset = EnuVector(37.0, -12.0, 0.0)
        assert (mismatch(near, s.signal, Space.POSITION, offset)
                == mismatch(far, t.signal, Space.POSITION, offset))


class TestChannels:
    def test_los_path_cannot_carry_bias(self):
        with pytest.raises(ValueError):
            SignalPath(PathKind.LOS, delay_chips=0.5)
        with pytest.raises(ValueError):
            SignalPath(PathKind.LOS, doppler_hz=10.0)

    def test_los_must_come_first_and_be_unique(self):
        nlos = SignalPath(PathKind.NLOS, delay_chips=1.0)
        los = SignalPath(PathKind.LOS)
        with pytest.raises(ValueError):
            reference_channel(18, [nlos, los])
        with pytest.raises(ValueError):
            reference_channel(18, [los, los])
        reference_channel(18, [los, nlos])

    def test_channel_needs_position_or_angles(self):
        with pytest.raises(ValueError):
            make_channel(REFERENCE_RECEIVER, 18, [SignalPath(PathKind.LOS)])

    def test_angles_position_consistency(self):
        angles_deg = (42.8, 213.8)  # PRN 18 of the bundled fixtures
        from dpe_multipath.geom import LookAngles

        direction = enu_from_angles(LookAngles.from_degrees(*angles_deg), 2.2e7)
        position = enu_to_ecef(direction, REFERENCE_RECEIVER)
        ch = make_channel(
            REFERENCE_RECEIVER, 18, [SignalPath(PathKind.LOS)],
            position=position, angles_deg=angles_deg,
        )
        assert ch.angles.elevation_deg == pytest.approx(angles_deg[0], abs=1e-6)
        with pytest.raises(GeometryMismatchError):
            make_channel(
                REFERENCE_RECEIVER, 18, [SignalPath(PathKind.LOS)],
                position=position, angles_deg=(angles_deg[0] + 0.2, angles_deg[1]),
            )

    def test_scenario_rejects_duplicate_prns(self):
        ch = reference_channel(18, [SignalPath(PathKind.LOS)])
        with pytest.raises(ValueError):
            Scenario(satellites=(ch, ch))

    def test_scenario_needs_satellites(self):
        with pytest.raises(ValueError):
            Scenario(satellites=())


class TestGrids:
    def test_axis_is_centered_and_odd(self):
        spec = GridSpec(Space.POSITION, 100.0, 1.0)
        assert spec.n == 201
        axis = spec.axis()
        assert axis[0] == -100.0 and axis[-1] == 100.0 and axis[100] == 0.0

    def test_default_grids(self):
        pos, vel = DEFAULT_GRIDS
        assert (pos.space, pos.half_extent, pos.step) == (Space.POSITION, 100.0, 1.0)
        assert (vel.space, vel.half_extent, vel.step) == (Space.VELOCITY, 100.0, 0.1)
        assert vel.n == 2001

    def test_grid_shape_checked(self):
        spec = GridSpec(Space.POSITION, 10.0, 1.0)
        with pytest.raises(ValueError):
            Grid2D(spec, np.zeros((3, 3)))

    def test_los_channel_peaks_at_truth(self):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        spec = s.grid_for(Space.POSITION)
        g = channel_caf(spec, channel(s, 18), s)
        i, j = np.unravel_index(np.argmax(g.values), g.values.shape)
        # the whole ridge line hits 1.0; the truth node is on it
        assert g.values[spec.n // 2, spec.n // 2] == pytest.approx(1.0, abs=1e-12)
        assert g.values.max() <= 1.0 + 1e-12
        assert g.values[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_nlos_ridge_sits_at_tangent_point(self):
        # PRN 18, 1 chip of delay: the ridge is tangent to the bias circle at
        # -radius * normal, i.e. displaced away from the satellite azimuth.
        s = two_sat_scenario(
            [SignalPath(PathKind.NLOS, delay_chips=1.0)], [SignalPath(PathKind.LOS)]
        )
        spec = s.grid_for(Space.POSITION)
        g = channel_caf(spec, channel(s, 18), s)
        axis = spec.axis()
        i, j = np.unravel_index(np.argmax(g.values), g.values.shape)
        east, north = float(axis[j]), float(axis[i])
        # the peak node lies on the displaced ridge line u_hat . p = -radius
        az = channel(s, 18).angles.azimuth
        line_offset = math.sin(az) * east + math.cos(az) * north
        assert line_offset == pytest.approx(-39.94007471783003, abs=spec.step)
        # and the truth node no longer reaches the ridge value
        assert g.values[spec.n // 2, spec.n // 2] < 0.1

    def test_superposed_argmax_lands_on_pair_intersection(self):
        s = two_sat_scenario(
            [SignalPath(PathKind.NLOS, delay_chips=1.0)], [SignalPath(PathKind.LOS)]
        )
        offset, peak, _ = superpose_and_argmax(scenario_caf(s, Space.POSITION))
        # frozen analytic intersection of the two center lines
        assert math.hypot(offset.e - 43.20007108796537, offset.n - 19.143636458314802) <= 1.5
        assert peak > 1.9

    def test_velocity_space_peak(self):
        s = two_sat_scenario(
            [SignalPath(PathKind.NLOS, doppler_hz=120.0)], [SignalPath(PathKind.LOS)]
        )
        g = channel_caf(s.grid_for(Space.VELOCITY), channel(s, 18), s)
        assert g.values.max() <= 1.0 + 1e-12
        assert g.values.max() > 0.999

    def test_argmax_tie_resolves_to_smallest_norm(self):
        spec = GridSpec(Space.POSITION, 5.0, 1.0)
        flat = Grid2D(spec, np.ones((spec.n, spec.n)))
        offset, peak, _ = superpose_and_argmax([flat])
        assert (offset.e, offset.n, peak) == (0.0, 0.0, 1.0)

    def test_superpose_requires_matching_specs(self):
        a = Grid2D(GridSpec(Space.POSITION, 5.0, 1.0), np.zeros((11, 11)))
        b = Grid2D(GridSpec(Space.POSITION, 5.0, 0.5), np.zeros((21, 21)))
        with pytest.raises(ValueError):
            superpose_and_argmax([a, b])

    @pytest.mark.parametrize("cells", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1e308, 1e308), (math.inf, -math.inf),
    ], ids=["nan", "inf", "minus-inf", "overflowing-sum", "inf-minus-inf"])
    def test_superpose_rejects_non_finite_sum(self, cells):
        spec = GridSpec(Space.POSITION, 1.0, 1.0)
        grids = []
        for v in cells:
            values = np.zeros((3, 3))
            values[1, 2] = v
            grids.append(Grid2D(spec, values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                superpose_and_argmax(grids)


class TestNoise:
    def noisy(self, seed):
        s = load_scenario("case1.scenario")
        return Scenario(
            signal=s.signal,
            satellites=s.satellites,
            grids=s.grids,
            noise_sigma=0.05,
            seed=seed,
        )

    def test_noise_reproducible(self):
        a = channel_caf(DEFAULT_GRIDS[0], self.noisy(7).satellites[0], self.noisy(7))
        b = channel_caf(DEFAULT_GRIDS[0], self.noisy(7).satellites[0], self.noisy(7))
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_varies_with_seed_prn_space(self):
        s = self.noisy(7)
        t = self.noisy(8)
        a = channel_caf(DEFAULT_GRIDS[0], s.satellites[0], s)
        b = channel_caf(DEFAULT_GRIDS[0], s.satellites[1], s)
        c = channel_caf(DEFAULT_GRIDS[0], t.satellites[0], t)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noiseless_is_default(self):
        s = load_scenario("case1.scenario")
        assert s.noise_sigma == 0.0


class TestSignalConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SignalConfig(code_rate=0.0)
        with pytest.raises(ValueError):
            SignalConfig(carrier=1e6)  # below the code rate
        with pytest.raises(ValueError):
            SignalConfig(coherent_integration=0.0)


def seed_caf(grid, channel, scenario):
    """The whole-grid formula the block kernel must reproduce bit for bit."""
    axis = grid.axis()
    east = axis[np.newaxis, :]
    north = axis[:, np.newaxis]
    a = channel.angles
    rate = scenario.signal.code_rate if grid.space is Space.POSITION else scenario.signal.carrier
    coef = -RIDGE_OFFSET_SIGN * rate / SPEED_OF_LIGHT * math.cos(a.elevation)
    base = coef * (math.sin(a.azimuth) * east + math.cos(a.azimuth) * north)
    values = np.zeros((grid.n, grid.n))
    for path in channel.paths:
        m = base + path.bias(grid.space)
        if grid.space is Space.POSITION:
            values += path.amplitude * np.maximum(0.0, 1.0 - np.abs(m))
        else:
            values += path.amplitude * np.sinc(m * scenario.signal.coherent_integration)
    if scenario.noise_sigma > 0.0:
        key = 0 if grid.space is Space.POSITION else 1
        rng = np.random.default_rng([scenario.seed, channel.prn, key])
        values += scenario.noise_sigma * rng.standard_normal((grid.n, grid.n))
    return values


def multipath_scenario(noise_sigma=0.0):
    """Reference geometry with up to three paths per channel."""
    nlos = PathKind.NLOS
    return Scenario(
        satellites=(
            reference_channel(10, [SignalPath(PathKind.LOS),
                                   SignalPath(nlos, 0.6, 0.8, 35.0),
                                   SignalPath(nlos, 0.3, -1.7, -120.0)]),
            reference_channel(18, [SignalPath(nlos, 1.0, 1.0, 120.0)]),
            reference_channel(23, [SignalPath(PathKind.LOS), SignalPath(nlos, 0.5, 0.25, 10.0)]),
        ),
        noise_sigma=noise_sigma,
        seed=11,
    )


def odd_grid(space, n):
    step = 1.0 if space is Space.POSITION else 0.1
    return GridSpec(space, (n // 2) * step, step)


class TestBlockKernel:
    @pytest.mark.parametrize("n", [21, 127, 129, 257])
    @pytest.mark.parametrize("space", list(Space))
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_bytes_match_whole_grid_formula(self, n, space, noise):
        s = multipath_scenario(noise)
        grid = odd_grid(space, n)
        assert grid.n == n
        for ch in s.satellites:
            got = channel_caf(grid, ch, s).values
            assert got.tobytes() == seed_caf(grid, ch, s).tobytes()

    @pytest.mark.parametrize("space", list(Space))
    def test_default_grid_matches_whole_grid_formula(self, space):
        s = load_scenario("case3.scenario")
        grid = s.grid_for(space)
        for ch in s.satellites[:2]:
            assert channel_caf(grid, ch, s).values.tobytes() == seed_caf(grid, ch, s).tobytes()

    @pytest.mark.parametrize("space", list(Space))
    def test_bytes_independent_of_worker_count(self, space, monkeypatch):
        s = multipath_scenario(0.1)
        grid = odd_grid(space, 4 * caf._BLOCK_ROWS + 1)  # five blocks, the last one row
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 3, 7):  # 7: more threads than blocks and than CPUs
                monkeypatch.setattr(caf, "_worker_count", lambda n_blocks, k=workers: k)
                out[workers] = [channel_caf(grid, ch, s).values.tobytes() for ch in s.satellites]
        finally:
            sys.setswitchinterval(interval)
        assert out[2] == out[1] and out[3] == out[1] and out[7] == out[1]

    def test_worker_count_bounds(self):
        assert caf._worker_count(1) == 1
        assert 1 <= caf._worker_count(1000) <= 1000

    def test_worker_exception_reaches_caller(self):
        done = []

        def fill(share):
            if share == 1:
                raise MemoryError("share 1")
            done.append(share)

        with pytest.raises(MemoryError, match="share 1"):
            caf._run_shares(3, fill)
        assert sorted(done) == [0, 2]


class TestCorrelatorBits:
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             50.0, -50.0, 100.0, -150.0, 25.0, 1e6, -1e6, 1e300, -1e300]

    def test_doppler_is_np_sinc(self):
        t = 0.020
        rng = np.random.default_rng(20250718)
        f = np.concatenate([self.EDGES, rng.standard_normal(20000) * 300.0])
        assert doppler(f, t).tobytes() == np.sinc(f * t).tobytes()
        for x in self.EDGES:
            assert doppler(x, t).tobytes() == np.sinc(np.float64(x) * t).tobytes()

    def test_code_is_triangle_formula(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([self.EDGES, rng.standard_normal(20000) * 2.0])
        assert code(x).tobytes() == np.maximum(0.0, 1.0 - np.abs(x)).tobytes()
