"""Correlation model, mismatch linearization, and grid argmax."""
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_multipath import caf, model
from dpe_multipath.caf import mismatch, scenario_caf
from dpe_multipath.cli import load_scenario
from dpe_multipath.model import (
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
    make_channel,
)
from scenario_helpers import (
    authored_receiver,
    channel,
    enu_from_angles,
    enu_to_ecef,
    grid_argmax,
    grid_values,
)

TABLE1 = load_scenario("table1.scenario")
REFERENCE_RECEIVER = authored_receiver()


def reference_channel(prn, paths):
    """A satellite of the bundled reference geometry with the given paths."""
    return replace(channel(TABLE1, prn), paths=tuple(paths))


def two_sat_scenario(paths18, paths23):
    return Scenario(
        satellites=(reference_channel(18, paths18), reference_channel(23, paths23)),
    )


def channel_grid(scenario, prn, space):
    """The grid values of satellite ``prn`` alone, from a one-satellite copy of ``scenario``."""
    return grid_values(
        scenario_caf(replace(scenario, satellites=(channel(scenario, prn),)), space))


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
        offset = (100.0 * math.sin(az), 100.0 * math.cos(az))
        assert mismatch(ch, s.signal, Space.POSITION, *offset) == pytest.approx(
            2.5037509495533827, rel=1e-12)
        assert mismatch(ch, s.signal, Space.VELOCITY, *offset) == pytest.approx(
            287.931359198639, rel=1e-12)

    def test_mismatch_zero_across_azimuth(self):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        ch = channel(s, 18)
        az = ch.angles.azimuth
        offset = (50.0 * math.cos(az), -50.0 * math.sin(az))
        assert mismatch(ch, s.signal, Space.POSITION, *offset) == pytest.approx(0.0, abs=1e-12)
        assert mismatch(ch, s.signal, Space.VELOCITY, *offset) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_mismatch_linear_in_offset(self, e, n, scale):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        ch = channel(s, 23)
        base = mismatch(ch, s.signal, Space.POSITION, e, n)
        scaled = mismatch(ch, s.signal, Space.POSITION, scale * e, scale * n)
        assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)

    def test_mismatch_additive_in_offset(self):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        ch = channel(s, 18)
        a, b = (13.0, -7.0), (-2.0, 41.0)
        ab = (a[0] + b[0], a[1] + b[1])
        assert mismatch(ch, s.signal, Space.VELOCITY, *ab) == pytest.approx(
            mismatch(ch, s.signal, Space.VELOCITY, *a) + mismatch(ch, s.signal, Space.VELOCITY, *b),
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
        assert (mismatch(near, s.signal, Space.POSITION, 37.0, -12.0)
                == mismatch(far, t.signal, Space.POSITION, 37.0, -12.0))


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

    def test_grid_size_limit(self):
        # checked on the spec alone: no grid of that size is filled
        assert GridSpec(Space.VELOCITY, 1000.0, 0.1).n == model.MAX_GRID_N == 20001
        with pytest.raises(ValueError, match="^grid has 20003 samples per axis, more than 20001$"):
            GridSpec(Space.VELOCITY, 1000.1, 0.1)
        with pytest.raises(ValueError, match="1000001 samples"):
            GridSpec(Space.VELOCITY, 50.0, 1e-4)

    def test_default_grids(self):
        pos, vel = DEFAULT_GRIDS
        assert (pos.space, pos.half_extent, pos.step) == (Space.POSITION, 100.0, 1.0)
        assert (vel.space, vel.half_extent, vel.step) == (Space.VELOCITY, 100.0, 0.1)
        assert vel.n == 2001

    def test_los_channel_peaks_at_truth(self):
        s = two_sat_scenario([SignalPath(PathKind.LOS)], [SignalPath(PathKind.LOS)])
        spec = s.grid_for(Space.POSITION)
        g = channel_grid(s, 18, Space.POSITION)
        i, j = np.unravel_index(np.argmax(g), g.shape)
        # the whole ridge line hits 1.0; the truth node is on it
        assert g[spec.n // 2, spec.n // 2] == pytest.approx(1.0, abs=1e-12)
        assert g.max() <= 1.0 + 1e-12
        assert g[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_nlos_ridge_sits_at_tangent_point(self):
        # PRN 18, 1 chip of delay: the ridge is tangent to the bias circle at
        # -radius * normal, i.e. displaced away from the satellite azimuth.
        s = two_sat_scenario(
            [SignalPath(PathKind.NLOS, delay_chips=1.0)], [SignalPath(PathKind.LOS)]
        )
        spec = s.grid_for(Space.POSITION)
        g = channel_grid(s, 18, Space.POSITION)
        axis = spec.axis()
        i, j = np.unravel_index(np.argmax(g), g.shape)
        east, north = float(axis[j]), float(axis[i])
        # the peak node lies on the displaced ridge line u_hat . p = -radius
        az = channel(s, 18).angles.azimuth
        line_offset = math.sin(az) * east + math.cos(az) * north
        assert line_offset == pytest.approx(-39.94007471783003, abs=spec.step)
        # and the truth node no longer reaches the ridge value
        assert g[spec.n // 2, spec.n // 2] < 0.1

    def test_superposed_argmax_lands_on_pair_intersection(self):
        s = two_sat_scenario(
            [SignalPath(PathKind.NLOS, delay_chips=1.0)], [SignalPath(PathKind.LOS)]
        )
        offset, peak = grid_argmax(scenario_caf(s, Space.POSITION))
        # frozen analytic intersection of the two center lines
        assert math.hypot(offset.e - 43.20007108796537, offset.n - 19.143636458314802) <= 1.5
        assert peak > 1.9

    def test_velocity_space_peak(self):
        s = two_sat_scenario(
            [SignalPath(PathKind.NLOS, doppler_hz=120.0)], [SignalPath(PathKind.LOS)]
        )
        g = channel_grid(s, 18, Space.VELOCITY)
        assert g.max() <= 1.0 + 1e-12
        assert g.max() > 0.999

    def test_argmax_tie_resolves_to_smallest_norm(self):
        spec = GridSpec(Space.POSITION, 5.0, 1.0)  # offsets -5..5 m on both axes
        axis = spec.axis().tolist()

        def peaks(*cells, level=1.0):
            """A zero grid with ``level`` at each (east, north) offset of ``cells``."""
            values = np.zeros((spec.n, spec.n))
            for e, n in cells:
                values[axis.index(n), axis.index(e)] = level
            return values

        row = peaks(*((e, 4.0) for e in axis), level=0.5)
        for values, winner in (
            (np.ones((spec.n, spec.n)), (0.0, 0.0)),  # flat
            (np.zeros((spec.n, spec.n)), (0.0, 0.0)),  # flat at zero: no ridge in the window
            (peaks((3.0, -2.0), (-3.0, 2.0)), (3.0, -2.0)),  # mirror images: lower row wins
            (peaks((-3.0, 2.0), (3.0, 2.0)), (-3.0, 2.0)),  # mirror images in one row
            (peaks((4.0, -4.0), (1.0, 1.0)), (1.0, 1.0)),  # the norm comes before the row
            (row, (0.0, 4.0)),  # ties along one row
        ):
            offset, peak = grid_argmax(Grid2D(spec, (values,)))
            assert (offset.e, offset.n, peak) == (*winner, values.max())

    def test_argmax_holds_one_block_of_ties(self):
        # a flat 1001^2 grid ties every cell: beyond the grid, the argmax holds
        # one block of rows, not index arrays and norms of every tied cell (32 MB)
        spec = GridSpec(Space.VELOCITY, 100.0, 0.2)
        grid = Grid2D(spec, (np.zeros((spec.n, spec.n)),))
        assert spec.n == 1001
        tracemalloc.start()
        try:
            offset, peak = grid_argmax(grid)
            _, held = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (offset.e, offset.n, peak) == (0.0, 0.0, 0.0)
        assert held < 2**20

    @pytest.mark.parametrize("cells", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1e308, 1e308), (math.inf, -math.inf),
    ], ids=["nan", "inf", "minus-inf", "overflowing-sum", "inf-minus-inf"])
    def test_superpose_rejects_non_finite_sum(self, cells):
        # cells that path amplitudes can give are the unbiased paths of one
        # satellite, summed by the fill (the triangle is near 1 on the grid);
        # the others are held, already summed, by a grid
        spec = GridSpec(Space.POSITION, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if all(v >= 0.0 and math.isfinite(v) for v in cells):
                paths = [SignalPath(PathKind.NLOS, v) for v in cells]
                s = Scenario(satellites=(reference_channel(18, paths),), grids=(spec,))
                grid = scenario_caf(s, Space.POSITION)
            else:
                values = np.zeros((3, 3))
                values[1, 2] = sum(cells)
                grid = Grid2D(spec, (values,))
            with pytest.raises(ValueError, match="not finite"):
                grid_argmax(grid)

    @pytest.mark.parametrize("space", list(Space))
    def test_overflow_across_channels_is_not_finite(self, space):
        # two finite channels whose sum overflows: the fill stays silent and
        # the argmax reports it
        path = SignalPath(PathKind.NLOS, 1e308)
        sats = (reference_channel(18, [path]), reference_channel(23, [path]))
        s = Scenario(satellites=sats, grids=(GridSpec(space, 5.0, 1.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = scenario_caf(s, space)
            with pytest.raises(ValueError, match="not finite"):
                grid_argmax(grid)

    def test_fill_holds_one_block(self):
        # eight channels on the default 201^2 position grid: the fill holds
        # a summed block and a scratch block, not the grid or one grid per channel
        angles = [(10.0 + 8.0 * k, 45.0 * k) for k in range(8)]
        sats = tuple(
            make_channel(REFERENCE_RECEIVER, k + 1,
                         [SignalPath(PathKind.LOS), SignalPath(PathKind.NLOS, 0.5, 0.7, 40.0)],
                         angles_deg=a)
            for k, a in enumerate(angles)
        )
        s = Scenario(satellites=sats, noise_sigma=0.1, seed=3)
        n = s.grid_for(Space.POSITION).n
        assert n == 201
        # a first fill imports numpy's random module, which is not the fill's memory
        grid_argmax(scenario_caf(replace(s, grids=(GridSpec(Space.POSITION, 1.0, 1.0),)),
                                 Space.POSITION))
        tracemalloc.start()
        try:
            rows = sum(len(block) for block in scenario_caf(s, Space.POSITION).blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == n
        assert peak < n * n * 8 // 4


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
        assert self.noisy(7).grid_for(Space.POSITION) == DEFAULT_GRIDS[0]
        a = channel_grid(self.noisy(7), 10, Space.POSITION)
        b = channel_grid(self.noisy(7), 10, Space.POSITION)
        np.testing.assert_array_equal(a, b)

    def test_noise_varies_with_seed_prn_space(self):
        s = self.noisy(7)
        t = self.noisy(8)
        a = channel_grid(s, 10, Space.POSITION)
        b = channel_grid(s, 18, Space.POSITION)
        c = channel_grid(t, 10, Space.POSITION)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

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


def seed_sum(grid, scenario):
    """The channels' whole-grid formulas summed in channel order."""
    first, *rest = scenario.satellites
    total = seed_caf(grid, first, scenario)
    for ch in rest:
        total += seed_caf(grid, ch, scenario)
    return total


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
    @pytest.mark.parametrize("n", [21, 127, 129, 257, 4 * caf._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("space", list(Space))
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_bytes_match_whole_grid_formula(self, n, space, noise):
        s = multipath_scenario(noise)
        grid = odd_grid(space, n)
        assert grid.n == n
        got = grid_values(scenario_caf(replace(s, grids=(grid,)), space))
        assert got.tobytes() == seed_sum(grid, s).tobytes()

    @pytest.mark.parametrize("space", list(Space))
    def test_default_grid_matches_whole_grid_formula(self, space):
        s = load_scenario("case3.scenario")
        s = replace(s, satellites=s.satellites[:2])
        grid = s.grid_for(space)
        assert grid_values(scenario_caf(s, space)).tobytes() == seed_sum(grid, s).tobytes()


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
