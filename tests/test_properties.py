"""Property suite: geometric invariants under randomized inputs.

Everything here is deterministic: hypothesis tests run derandomized, and the
bulk-draw tests use fixed generator seeds.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_multipath.caf import (
    PathKind,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    SPEED_OF_LIGHT,
    make_channel,
    scenario_caf,
    superpose_and_argmax,
)
from dpe_multipath.geom import EnuVector
from dpe_multipath.mc import (
    pair_error_curve,
    run_oracle_compare,
    run_random_azimuth_mc,
)
from dpe_multipath.scmb import (
    CenterLine,
    center_lines,
    count_intersections,
    enumerate_intersections,
    intersect_lines,
    pair_bias,
)
from scenario_helpers import authored_receiver

REFERENCE_RECEIVER = authored_receiver()
D = dict(derandomize=True, deadline=None)

azimuths = st.floats(0.0, 2.0 * math.pi - 1e-9)
radii = st.floats(0.0, 100.0)
positive_radii = st.floats(0.5, 100.0)
separations = st.floats(math.radians(1.0), math.radians(179.0))


class TestTangency:
    @given(azimuths, st.floats(-100.0, 100.0))
    @settings(max_examples=300, **D)
    def test_tangent_point_distance_equals_radius(self, az, offset):
        ln = CenterLine(Space.POSITION, az, offset)
        t = ln.tangent_point()
        assert t.horizontal_norm() == pytest.approx(ln.radius, rel=1e-9, abs=1e-9)

    @given(azimuths, st.floats(-100.0, 100.0), st.floats(-200.0, 200.0))
    @settings(max_examples=300, **D)
    def test_tangent_point_is_closest_point_of_line(self, az, offset, along):
        # any other point of the line is farther from the truth point
        ln = CenterLine(Space.POSITION, az, offset)
        t = ln.tangent_point()
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
        res = pair_bias(ri, rj, base, base + sep)
        assert res.dr >= max(ri, rj) - 1e-9


class TestClosedFormReductions:
    @given(positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_single_radius_reduction(self, r, base, sep):
        # one vanishing radius: dr = r / sin(separation)
        res = pair_bias(r, 0.0, base, base + sep)
        assert res.dr == pytest.approx(r / math.sin(sep), rel=1e-12)

    @given(positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_equal_radii_reduction(self, r, base, sep):
        # equal radii: dr = r / cos(separation / 2)
        res = pair_bias(r, r, base, base + sep)
        assert res.dr == pytest.approx(r / math.cos(sep / 2.0), rel=1e-12)

    @given(positive_radii, positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_chord_identity(self, ri, rj, base, sep):
        # the segment between the two tangency points is the chord of the
        # closed form; the intersection sits chord / sin(separation) out
        li = CenterLine(Space.POSITION, base, ri)
        lj = CenterLine(Space.POSITION, base + sep, rj)
        a, b = li.tangent_point(), lj.tangent_point()
        chord = math.hypot(a.e - b.e, a.n - b.n)
        expect = math.sqrt(ri * ri + rj * rj - 2.0 * ri * rj * math.cos(sep))
        assert chord == pytest.approx(expect, rel=1e-12, abs=1e-12)
        res = pair_bias(ri, rj, base, base + sep)
        assert res.dr == pytest.approx(chord / math.sin(sep), rel=1e-12, abs=1e-12)


class TestSymmetryAndDivergence:
    @given(positive_radii, positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_radius_order_symmetric(self, ri, rj, base, sep):
        a = pair_bias(ri, rj, base, base + sep)
        b = pair_bias(rj, ri, base, base + sep)
        assert a.dr == pytest.approx(b.dr, rel=1e-12)

    @given(positive_radii, positive_radii, azimuths, separations)
    @settings(max_examples=300, **D)
    def test_reflected_separation_symmetric(self, ri, rj, base, sep):
        # delta theta and 2 pi - delta theta give the same radial error
        a = pair_bias(ri, rj, base, base + sep)
        b = pair_bias(ri, rj, base, base + 2.0 * math.pi - sep)
        assert a.delta_theta == pytest.approx(b.delta_theta, rel=1e-9)
        assert a.dr == pytest.approx(b.dr, rel=1e-9)

    def test_divergence_toward_alignment_log_spaced(self):
        # fixed positive radii: the error grows monotonically without bound
        # as the separation collapses toward 0 or stretches toward pi
        seps_down = [math.radians(10.0) * 10.0**-k for k in range(5)]
        down = [pair_bias(60.0, 40.0, 0.0, s).dr for s in seps_down]
        assert all(b > a for a, b in zip(down, down[1:]))
        seps_up = [math.pi - math.radians(10.0) * 10.0**-k for k in range(5)]
        up = [pair_bias(60.0, 40.0, 0.0, s).dr for s in seps_up]
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
            offset, peak, _ = superpose_and_argmax(scenario_caf(s, space))
            assert (offset.e, offset.n) == (0.0, 0.0)
            assert peak == pytest.approx(float(count), rel=1e-12)


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
            offset, peak, _ = superpose_and_argmax(scenario_caf(scenario, Space.POSITION))
            assert math.hypot(offset.e - expected.e, offset.n - expected.n) <= step + 1e-9
            assert peak == pytest.approx(2.0, abs=0.15)
            rep = run_oracle_compare(scenario)
            assert rep.passed


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
            base = mismatch(ch, s.signal, space, EnuVector(e, n, 0.0))
            # homogeneity
            assert mismatch(ch, s.signal, space, EnuVector(scale * e, scale * n, 0.0)) == (
                pytest.approx(scale * base, rel=1e-9, abs=1e-12)
            )
            # additivity against a fixed probe offset
            probe = EnuVector(11.0, -23.0, 0.0)
            both = EnuVector(e + probe.e, n + probe.n, 0.0)
            assert mismatch(ch, s.signal, space, both) == pytest.approx(
                base + mismatch(ch, s.signal, space, probe), rel=1e-9, abs=1e-12
            )


class TestMonteCarloPrefix:
    @given(st.integers(0, 2**16), st.integers(1, 256), st.integers(1, 256))
    @settings(max_examples=25, **D)
    def test_shorter_run_is_a_prefix(self, seed, a, b):
        short, long = sorted((a, b))
        assert (run_random_azimuth_mc(60.0, 40.0, short, seed).rows
                == run_random_azimuth_mc(60.0, 40.0, long, seed).rows[:short])
