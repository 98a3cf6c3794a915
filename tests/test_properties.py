"""Property suite: geometric invariants under randomized inputs.

Everything here is deterministic: hypothesis tests run derandomized, and the
bulk-draw tests use fixed generator seeds.
"""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpe_multipath.caf import _scanline_readout, scenario_caf
from dpe_multipath.geom import EnuVector, LookAngles, fold_azimuth_separation
from dpe_multipath.mc import pair_error_curve, run_random_azimuth_mc
from dpe_multipath.model import (
    Grid2D,
    GridSpec,
    PathKind,
    SatelliteChannel,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    SPEED_OF_LIGHT,
    make_channel,
)
from dpe_multipath.scmb import (
    CenterLine,
    center_lines,
    enumerate_intersections,
    intersect_lines,
)
from scenario_helpers import (
    authored_receiver,
    column_rows,
    count_intersections,
    grid_argmax,
    grid_values,
    pair_radial_error,
    run_oracle_compare,
    tangent_point,
)

REFERENCE_RECEIVER = authored_receiver()
D = dict(derandomize=True, deadline=None)


def examples(cases):
    """Hypothesis's ``@example`` of each keyword dict in ``cases``."""
    def add(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return add


azimuths = st.floats(0.0, 2.0 * math.pi - 1e-9)
radii = st.floats(0.0, 100.0)
positive_radii = st.floats(0.5, 100.0)
separations = st.floats(math.radians(1.0), math.radians(179.0))


class TestTangency:
    @given(azimuths, st.floats(-100.0, 100.0))
    @settings(max_examples=300, **D)
    def test_tangent_point_distance_equals_radius(self, az, offset):
        ln = CenterLine(Space.POSITION, az, offset)
        t = tangent_point(ln)
        assert t.horizontal_norm() == pytest.approx(ln.radius, rel=1e-9, abs=1e-9)

    @given(azimuths, st.floats(-100.0, 100.0), st.floats(-200.0, 200.0))
    @settings(max_examples=300, **D)
    def test_tangent_point_is_closest_point_of_line(self, az, offset, along):
        # any other point of the line is farther from the truth point
        ln = CenterLine(Space.POSITION, az, offset)
        t = tangent_point(ln)
        ne, nn = ln.normal
        other = (t.e + along * nn, t.n - along * ne)  # move along the line direction
        assert math.hypot(*other) >= ln.radius - 1e-9


class TestRadialErrorFloor:
    def test_error_never_below_larger_radius_100k_draws(self):
        # 100 random radius pairs x 1000 random separations each
        rng = np.random.default_rng(20260814)
        for _ in range(100):
            ri, rj = rng.uniform(0.0, 100.0, 2)
            theta = rng.uniform(1e-6, math.pi - 1e-6, 1000)
            errs = pair_error_curve(ri, rj, theta)
            assert np.all(errs >= max(ri, rj) - 1e-9)

    @given(positive_radii, radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_error_floor_pointwise(self, ri, rj, base, sep):
        dr = pair_radial_error(ri, rj, base, base + sep)
        assert dr >= max(ri, rj) - 1e-9


class TestClosedFormReductions:
    @given(positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_single_radius_reduction(self, r, base, sep):
        # one vanishing radius: dr = r / sin(separation)
        dr = pair_radial_error(r, 0.0, base, base + sep)
        assert dr == pytest.approx(r / math.sin(sep), rel=1e-12)

    @given(positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_equal_radii_reduction(self, r, base, sep):
        # equal radii: dr = r / cos(separation / 2)
        dr = pair_radial_error(r, r, base, base + sep)
        assert dr == pytest.approx(r / math.cos(sep / 2.0), rel=1e-12)

    @given(positive_radii, positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_chord_identity(self, ri, rj, base, sep):
        # the segment between the two tangency points is the chord of the
        # closed form; the intersection sits chord / sin(separation) out
        li = CenterLine(Space.POSITION, base, ri)
        lj = CenterLine(Space.POSITION, base + sep, rj)
        a, b = tangent_point(li), tangent_point(lj)
        chord = math.hypot(a.e - b.e, a.n - b.n)
        expect = math.sqrt(ri * ri + rj * rj - 2.0 * ri * rj * math.cos(sep))
        assert chord == pytest.approx(expect, rel=1e-12, abs=1e-12)
        dr = pair_radial_error(ri, rj, base, base + sep)
        assert dr == pytest.approx(chord / math.sin(sep), rel=1e-12, abs=1e-12)


class TestSymmetryAndDivergence:
    @given(positive_radii, positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_radius_order_symmetric(self, ri, rj, base, sep):
        a = pair_radial_error(ri, rj, base, base + sep)
        b = pair_radial_error(rj, ri, base, base + sep)
        assert a == pytest.approx(b, rel=1e-12)

    @given(positive_radii, positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_reflected_separation_symmetric(self, ri, rj, base, sep):
        # delta theta and 2 pi - delta theta give the same radial error
        a = pair_radial_error(ri, rj, base, base + sep)
        b = pair_radial_error(ri, rj, base, base + 2.0 * math.pi - sep)
        assert fold_azimuth_separation(base, base + sep) == pytest.approx(
            fold_azimuth_separation(base, base + 2.0 * math.pi - sep), rel=1e-9)
        assert a == pytest.approx(b, rel=1e-9)

    def test_divergence_toward_alignment_log_spaced(self):
        # fixed positive radii: the error grows monotonically without bound
        # as the separation collapses toward 0 or stretches toward pi
        seps_down = [math.radians(10.0) * 10.0**-k for k in range(5)]
        down = [pair_radial_error(60.0, 40.0, 0.0, s) for s in seps_down]
        assert all(b > a for a, b in zip(down, down[1:]))
        seps_up = [math.pi - math.radians(10.0) * 10.0**-k for k in range(5)]
        up = [pair_radial_error(60.0, 40.0, 0.0, s) for s in seps_up]
        assert all(b > a for a, b in zip(up, up[1:]))
        assert down[-1] > 1e5 and up[-1] > 1e5


class TestAllLosTruth:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_noiseless_all_los_argmax_is_truth_node(self, count):
        angles = [(35.4, 320.2), (42.8, 213.8), (66.7, 336.1), (69.8, 45.1)]
        sats = tuple(
            make_channel(
                REFERENCE_RECEIVER, prn + 1, [SignalPath(PathKind.LOS)],
                angles_deg=angles[prn],
            )
            for prn in range(count)
        )
        s = Scenario(satellites=sats)
        for space in (Space.POSITION, Space.VELOCITY):
            offset, peak = grid_argmax(scenario_caf(s, space))
            assert (offset.e, offset.n) == (0.0, 0.0)
            assert peak == pytest.approx(float(count), rel=1e-12)


def dense_argmax(spec, values):
    """The argmax rule on a whole array: the global maximum, then the
    (norm, row, col)-least cell holding it."""
    if not np.isfinite(values).all():
        raise ValueError("not finite")
    axis = spec.axis()
    rows, cols = np.nonzero(values == values.max())
    k = np.lexsort((cols, rows, axis[cols] ** 2 + axis[rows] ** 2))[0]
    return float(axis[cols[k]]), float(axis[rows[k]]), float(values.max())


@st.composite
def split_grids(draw):
    """A small grid of few distinct levels (so ties abound), at most one
    non-finite cell, and the rows where its blocks start."""
    spec = GridSpec(Space.POSITION, float(draw(st.integers(1, 6))), 1.0)
    values = draw(arrays(np.float64, (spec.n, spec.n),
                         elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])))
    if draw(st.booleans()):
        cell = draw(st.integers(0, spec.n - 1)), draw(st.integers(0, spec.n - 1))
        values[cell] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    cuts = sorted(draw(st.sets(st.integers(1, spec.n - 1))))
    return spec, values, cuts


def _seven(cells, level=1.0, fill=0.0):
    """A 7 x 7 grid of ``fill`` with ``level`` at each (row, col) of ``cells``."""
    values = np.full((7, 7), fill)
    for cell in cells:
        values[cell] = level
    return values


SEVEN = GridSpec(Space.POSITION, 3.0, 1.0)


class TestArgmaxFold:
    @given(split_grids())
    @example((SEVEN, _seven([(1, 3), (5, 3)]), [3]))  # mirror ties either side of a cut
    @example((SEVEN, _seven([(0, 0), (4, 3)]), [2]))  # the later block's tie is nearer
    @example((SEVEN, _seven([(6, 6)], 2.0, fill=1.0), [2, 4]))  # a later, higher peak
    @example((SEVEN, np.zeros((7, 7)), [1, 2, 3]))  # flat
    @example((SEVEN, _seven([(6, 0)], math.nan), [3]))  # NaN in a later block only
    @example((SEVEN, _seven([(5, 2)], math.inf), [1, 4]))  # an infinity in a later block only
    @settings(max_examples=300, **D)
    def test_block_fold_equals_the_dense_rule(self, case):
        spec, values, cuts = case
        try:
            expected = dense_argmax(spec, values)
        except ValueError:
            with pytest.raises(ValueError, match="summed CAF grid is not finite"):
                grid_argmax(Grid2D(spec, iter(np.split(values, cuts))))
            return
        offset, peak = grid_argmax(Grid2D(spec, iter(np.split(values, cuts))))
        assert (offset.e, offset.n, peak) == expected


class TestIntersectionCount:
    @given(
        st.lists(st.integers(1, 3), min_size=2, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, **D)
    def test_enumeration_matches_count_formula(self, path_counts, seed):
        # satellites get azimuths spread over < 180 deg so no cross-satellite
        # pair is parallel; radii are generic so no two points merge
        rng = np.random.default_rng(seed)
        k = len(path_counts)
        lines = []
        for sat, n_paths in enumerate(path_counts):
            az = math.radians(sat * (170.0 / k) + rng.uniform(-2.0, 2.0))
            for p in range(n_paths):
                lines.append(
                    CenterLine(Space.POSITION, az, rng.uniform(5.0, 80.0), (sat, p))
                )
        found = enumerate_intersections(lines)
        assert sum(len(f.contributors) for f in found) == count_intersections(path_counts)

    def test_brute_force_pair_count(self):
        for counts in ([1, 1], [2, 1], [3, 2, 1], [2, 2, 2, 2]):
            total = sum(counts)
            owners = [i for i, c in enumerate(counts) for _ in range(c)]
            brute = sum(
                1
                for i in range(total)
                for j in range(i + 1, total)
                if owners[i] != owners[j]
            )
            assert count_intersections(counts) == brute


def random_two_satellite_scenario(rng) -> tuple[Scenario, EnuVector]:
    """Noiseless two-satellite scenario whose biased argmax is analytic.

    Radii <= 20 m and separations in [60, 120] deg keep the line intersection
    well inside the +/-100 m grid window AND keep the summed-triangle peak
    well conditioned: at shallow crossings (sin separation small) the level
    sets stretch like 1/sin and the winning grid node can sit more than one
    step from the exact intersection even though it is the true maximum.
    """
    signal = SignalConfig()
    el = rng.uniform(10.0, 55.0, 2)
    base_az = rng.uniform(0.0, 360.0)
    sep = rng.uniform(60.0, 120.0)
    az = np.array([base_az, base_az + sep]) % 360.0
    radius = rng.uniform(5.0, 20.0, 2)
    sats = []
    for prn in (0, 1):
        delay = radius[prn] * math.cos(math.radians(el[prn])) * signal.code_rate / SPEED_OF_LIGHT
        sats.append(
            make_channel(
                REFERENCE_RECEIVER,
                prn + 1,
                [SignalPath(PathKind.NLOS, 1.0, delay, 0.0)],
                angles_deg=(float(el[prn]), float(az[prn])),
            )
        )
    scenario = Scenario(satellites=tuple(sats))
    expected = intersect_lines(*center_lines(scenario, Space.POSITION))
    return scenario, expected


class TestArgmaxMatchesAnalytic:
    def test_fifty_random_two_satellite_scenarios(self):
        rng = np.random.default_rng(7)
        step = 1.0
        for _ in range(50):
            scenario, expected = random_two_satellite_scenario(rng)
            offset, peak = grid_argmax(scenario_caf(scenario, Space.POSITION))
            assert math.hypot(offset.e - expected.e, offset.n - expected.n) <= step + 1e-9
            assert peak == pytest.approx(2.0, abs=0.15)
            rep = run_oracle_compare(scenario)
            assert rep.summary["argmax_within_one_step"]


class TestMismatchLinearity:
    @given(
        st.floats(1.0, 85.0),
        st.floats(0.0, 360.0),
        st.floats(-80.0, 80.0),
        st.floats(-80.0, 80.0),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=300, **D)
    def test_finite_difference_slope_constant(self, el_deg, az_deg, e, n, scale):
        from dpe_multipath.caf import mismatch

        ch = make_channel(
            REFERENCE_RECEIVER, 1, [SignalPath(PathKind.LOS)], angles_deg=(el_deg, az_deg)
        )
        s = Scenario(satellites=(ch,))
        for space in (Space.POSITION, Space.VELOCITY):
            base = mismatch(ch, s.signal, space, e, n)
            # homogeneity
            assert mismatch(ch, s.signal, space, scale * e, scale * n) == (
                pytest.approx(scale * base, rel=1e-9, abs=1e-12)
            )
            # additivity against a fixed probe offset
            probe = (11.0, -23.0)
            both = (e + probe[0], n + probe[1])
            assert mismatch(ch, s.signal, space, *both) == pytest.approx(
                base + mismatch(ch, s.signal, space, *probe), rel=1e-9, abs=1e-12
            )


class TestWindowedRidgeReadout:
    # position space with the ridge line pushed off the grid: the windows
    # against the grid edge are all zero, at the code triangle's floor
    OFF_GRID = dict(space=Space.POSITION, quadrant=0, tilt=1e-6, el_deg=30.0, amplitude=1.0,
                    push=1.2, step=1.0, half_steps=50)

    @given(
        st.sampled_from(list(Space)),
        st.integers(0, 3),
        st.floats(-1e-6, 1e-6),
        st.floats(5.0, 85.0),
        st.floats(0.1, 2.0),
        st.floats(-1.5, 1.5),
        st.sampled_from((0.1, 0.5, 1.0)),
        st.integers(1, 200),
    )
    @example(**OFF_GRID)
    # ridges parallel to a scan axis: a scanline on the ridge crosses it at
    # NaN, and one beside it at +-inf
    @examples(dict(space=space, quadrant=quadrant, tilt=0.0, el_deg=30.0, amplitude=1.0,
                   push=push, step=1.0, half_steps=50)
              for space in Space for quadrant in range(4) for push in (0.0, 0.7))
    @settings(max_examples=150, **D)
    def test_matches_full_grid_argmax(self, space, quadrant, tilt, el_deg, amplitude, push,
                                      step, half_steps):
        self.check_readouts(space, quadrant, tilt, el_deg, amplitude, push, step, half_steps)

    def test_off_grid_scanlines_read_minus_inf(self):
        readouts = self.check_readouts(**self.OFF_GRID)
        assert any((peaks == -np.inf).any() for _, peaks in readouts)

    @staticmethod
    def check_readouts(space, quadrant, tilt, el_deg, amplitude, push, step, half_steps):
        """Both scan orientations' readouts, checked against the full grid."""
        # azimuths within 1e-6 rad of an axis make one scan orientation
        # nearly parallel to the ridge; |push| > 1 moves the ridge line off
        # the grid, leaving only its tails on it
        az = (quadrant * math.pi / 2.0 + tilt) % (2.0 * math.pi)
        el = math.radians(el_deg)
        signal = SignalConfig()
        rate = signal.code_rate if space is Space.POSITION else signal.carrier
        spec = GridSpec(space, half_steps * step, step)
        bias = push * spec.half_extent * rate / SPEED_OF_LIGHT * math.cos(el)
        path = (SignalPath(PathKind.NLOS, amplitude, delay_chips=bias) if space is Space.POSITION
                else SignalPath(PathKind.NLOS, amplitude, doppler_hz=bias))
        ch = SatelliteChannel(1, (path,), LookAngles(el, az))
        v = grid_values(scenario_caf(Scenario(signal=signal, satellites=(ch,), grids=(spec,)),
                                     space))
        vmax = v.max()
        readouts = [_scanline_readout(spec, ch, signal, per_column, Counter())
                    for per_column in (True, False)]
        assert max(peaks.max() for _, peaks in readouts) == vmax
        n = spec.n
        for axis, (idx, peaks) in enumerate(readouts):  # columns, then rows
            full_idx = v.argmax(axis=axis)
            full_peaks = np.take_along_axis(v, np.expand_dims(full_idx, axis), axis).ravel()
            kept = (full_idx > 0) & (full_idx < n - 1) & (full_peaks >= 0.5 * vmax)
            np.testing.assert_array_equal((idx > 0) & (idx < n - 1) & (peaks >= 0.5 * vmax), kept)
            # a scanline read as -inf lies below the fit's cut; every other
            # one carries the full grid's argmax and peak bits
            read = peaks > -np.inf
            assert np.all(full_peaks[~read] < 0.5 * vmax)
            np.testing.assert_array_equal(idx[read], full_idx[read])
            np.testing.assert_array_equal(peaks[read].view(np.int64),
                                          full_peaks[read].view(np.int64))
        return readouts


class TestMonteCarloPrefix:
    @given(st.integers(0, 2**16), st.integers(1, 256), st.integers(1, 256))
    @settings(max_examples=25, **D)
    def test_shorter_run_is_a_prefix(self, seed, a, b):
        short, long = sorted((a, b))
        assert (column_rows(run_random_azimuth_mc(60.0, 40.0, short, seed).rows)
                == column_rows(run_random_azimuth_mc(60.0, 40.0, long, seed).rows)[:short])
