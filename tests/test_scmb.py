"""Bias projection, center-line intersections, critical points, case bounds."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpe_multipath.caf import RIDGE_OFFSET_SIGN, Space
from dpe_multipath.geom import GeometryError
from dpe_multipath.cli import load_scenario
from dpe_multipath.scmb import (
    CenterLine,
    ParallelLinesError,
    UndefinedCriticalPointError,
    case_bound,
    center_lines,
    count_intersections,
    critical_points,
    enumerate_intersections,
    fold_azimuth_separation,
    intersect_lines,
    pair_bias,
    pair_bias_velocity,
    project_to_range,
    project_to_range_rate,
)

# Reference geometry: azimuths (deg) and the projected case-3 radii (m).
AZ = {10: 320.2, 18: 213.8, 23: 336.1, 24: 45.1}
R3 = {10: 60.0, 18: 40.0, 23: 30.0, 24: 15.0}
PAIRS = {"OA": (10, 24), "OB": (18, 23), "OC": (10, 18), "OD": (23, 24), "OE": (10, 23)}


class TestProjection:
    def test_zero_elevation_anchors(self):
        assert project_to_range(1.0, 0.0) == pytest.approx(29.30522561094819, rel=1e-15)
        assert project_to_range_rate(120.0, 0.0) == pytest.approx(
            30.579365854902463, rel=1e-15
        )

    @pytest.mark.parametrize(
        "el, rng, rate",
        [
            (35.4, 35.95169464777659, 37.514811806375576),
            (42.8, 39.94007471783003, 41.67659970556178),
            (66.7, 74.08812746210718, 77.30935039524228),
            (69.8, 84.8693265587306, 88.55929727867542),
        ],
    )
    def test_reference_elevations(self, el, rng, rate):
        phi = math.radians(el)
        assert project_to_range(1.0, phi) == pytest.approx(rng, rel=1e-12)
        assert project_to_range_rate(120.0, phi) == pytest.approx(rate, rel=1e-12)

    def test_secant_scaling(self):
        phi = math.radians(60.0)
        assert project_to_range(1.0, phi) == pytest.approx(
            2.0 * project_to_range(1.0, 0.0), rel=1e-12
        )

    def test_sign_follows_bias(self):
        phi = math.radians(30.0)
        assert project_to_range(-1.0, phi) == -project_to_range(1.0, phi)
        assert project_to_range_rate(-120.0, phi) == -project_to_range_rate(120.0, phi)

    def test_elevation_domain(self):
        with pytest.raises(GeometryError):
            project_to_range(1.0, math.radians(-1.0))
        with pytest.raises(GeometryError):
            project_to_range(1.0, math.radians(89.9))
        with pytest.raises(GeometryError):
            project_to_range_rate(120.0, math.radians(90.0))


class TestCenterLine:
    def test_tangency(self):
        ln = CenterLine(Space.POSITION, math.radians(213.8), 39.94)
        t = ln.tangent_point()
        assert t.horizontal_norm() == pytest.approx(ln.radius, rel=1e-9)
        ne, nn = ln.normal
        assert ne * t.e + nn * t.n == pytest.approx(ln.constant, rel=1e-12)

    def test_offset_side_convention(self):
        # positive projected bias puts the tangent point on the opposite side
        # of the truth point from the satellite azimuth
        az = math.radians(45.0)
        ln = CenterLine(Space.POSITION, az, 10.0)
        t = ln.tangent_point()
        along = math.sin(az) * t.e + math.cos(az) * t.n
        assert along == pytest.approx(RIDGE_OFFSET_SIGN * 10.0, rel=1e-12)
        assert along < 0.0


class TestPairBias:
    def closed_form(self, ri, rj, dth):
        # ri^2 + rj^2 - 2 ri rj cos(dth), written without the cancellation that
        # drives it below zero for tiny near-equal radii
        return math.sqrt((ri - rj) ** 2 + 4.0 * ri * rj * math.sin(dth / 2.0) ** 2) / math.sin(dth)

    @given(
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(0.0, 360.0),
        st.floats(5.0, 175.0),
    )
    @example(ri=1.1437173035039815e-162, rj=1.1437173035039815e-162, base_az=0.0, sep_deg=5.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form(self, ri, rj, base_az, sep_deg):
        ti = math.radians(base_az)
        tj = ti + math.radians(sep_deg)
        res = pair_bias(ri, rj, ti, tj)
        dth = fold_azimuth_separation(ti, tj)
        assert res.delta_theta == pytest.approx(math.radians(sep_deg), rel=1e-12)
        assert res.dr == pytest.approx(self.closed_form(ri, rj, dth), rel=1e-12, abs=1e-9)

    def test_single_nonzero_radius_reduction(self):
        # rho_j = 0 collapses the closed form to rho_i / sin(separation)
        for sep in (30.0, 48.2, 90.0, 122.3):
            dth = math.radians(sep)
            res = pair_bias(40.0, 0.0, 0.0, dth)
            assert res.dr == pytest.approx(40.0 / math.sin(dth), rel=1e-12)

    def test_equal_radii_reduction(self):
        # rho_i = rho_j collapses to rho / cos(separation / 2)
        for sep in (30.0, 90.0, 150.0):
            dth = math.radians(sep)
            res = pair_bias(40.0, 40.0, 10.0, 10.0 + dth)
            assert res.dr == pytest.approx(40.0 / math.cos(dth / 2.0), rel=1e-12)

    @given(
        st.floats(0.5, 80.0),
        st.floats(0.5, 80.0),
        st.floats(0.0, 360.0),
        st.floats(5.0, 175.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_chord_identity(self, ri, rj, base_az, sep_deg):
        # the distance between the two tangency points is the chord
        # sqrt(ri^2 + rj^2 - 2 ri rj cos dth); the intersection offset is the
        # chord divided by sin dth
        ti = math.radians(base_az)
        tj = ti + math.radians(sep_deg)
        li = CenterLine(Space.POSITION, ti, ri)
        lj = CenterLine(Space.POSITION, tj, rj)
        a, b = li.tangent_point(), lj.tangent_point()
        chord = math.hypot(a.e - b.e, a.n - b.n)
        dth = fold_azimuth_separation(ti, tj)
        assert chord == pytest.approx(
            math.sqrt(ri * ri + rj * rj - 2.0 * ri * rj * math.cos(dth)),
            rel=1e-12,
            abs=1e-12,
        )
        res = pair_bias(ri, rj, ti, tj)
        assert res.dr == pytest.approx(chord / math.sin(dth), rel=1e-12, abs=1e-12)

    def test_point_lies_on_both_lines(self):
        li = CenterLine(Space.POSITION, math.radians(213.8), 39.94)
        lj = CenterLine(Space.POSITION, math.radians(336.1), 0.0)
        p = intersect_lines(li, lj)
        for ln in (li, lj):
            ne, nn = ln.normal
            assert ne * p.e + nn * p.n == pytest.approx(ln.constant, abs=1e-9)

    def test_parallel_lines_raise(self):
        li = CenterLine(Space.POSITION, 0.0, 10.0)
        for az in (0.0, math.pi):
            with pytest.raises(ParallelLinesError):
                intersect_lines(li, CenterLine(Space.POSITION, az, 20.0))
        with pytest.raises(ParallelLinesError):
            pair_bias(10.0, 20.0, 0.3, 0.3 + math.pi)

    def test_crossing_beyond_a_double_names_both_lines(self):
        li = CenterLine(Space.VELOCITY, 0.0, 1e306, (3, 1))
        lj = CenterLine(Space.VELOCITY, 0.01, -1e306, (5, 0))
        with pytest.raises(GeometryError, match="^velocity-space center lines of PRN 3 path 1"
                           " and PRN 5 path 0 cross beyond a double$") as e:
            intersect_lines(li, lj)
        assert not isinstance(e.value, ParallelLinesError)

    def test_cross_space_intersections_rejected(self):
        with pytest.raises(ValueError):
            intersect_lines(
                CenterLine(Space.POSITION, 0.0, 1.0), CenterLine(Space.VELOCITY, 1.0, 1.0)
            )

    def test_velocity_twin(self):
        res = pair_bias_velocity(41.78, 0.0, math.radians(213.8), math.radians(336.1))
        assert res.space is Space.VELOCITY
        assert res.dr == pytest.approx(
            41.78 / math.sin(math.radians(122.3)), rel=1e-12
        )

    def test_error_diverges_as_lines_align(self):
        errs = [
            pair_bias(60.0, 40.0, 0.0, math.radians(sep)).dr
            for sep in (10.0, 5.0, 2.0, 1.0, 0.5)
        ]
        assert all(b > a for a, b in zip(errs, errs[1:]))
        assert errs[-1] > 2000.0


class TestReferencePairs:
    @pytest.mark.parametrize(
        "label, dth_deg, dr",
        [
            ("OA", 84.9, 60.77978627170186),
            ("OB", 122.3, 72.7604017115132),
            ("OC", 106.4, 84.39826018005702),
            ("OD", 69.0, 30.34326797889335),
            ("OE", 15.9, 117.5862488572286),
        ],
    )
    def test_case3_pairs(self, label, dth_deg, dr):
        i, j = PAIRS[label]
        res = pair_bias(R3[i], R3[j], math.radians(AZ[i]), math.radians(AZ[j]))
        assert math.degrees(res.delta_theta) == pytest.approx(dth_deg, abs=1e-9)
        assert res.dr == pytest.approx(dr, rel=1e-12)

    def test_fold_azimuth_separation(self):
        assert fold_azimuth_separation(math.radians(350.0), math.radians(10.0)) == (
            pytest.approx(math.radians(20.0), rel=1e-12)
        )
        assert fold_azimuth_separation(0.0, math.radians(190.0)) == pytest.approx(
            math.radians(170.0), rel=1e-12
        )
        assert fold_azimuth_separation(1.0, 1.0) == 0.0


class TestCriticalPoints:
    def test_distinct_radii(self):
        cp = critical_points(60.0, 40.0)
        assert math.degrees(cp.delta_theta) == pytest.approx(48.18968510422141, rel=1e-12)
        assert cp.dr_min == 60.0
        assert cp.attained

    def test_order_invariant(self):
        assert critical_points(40.0, 60.0) == critical_points(60.0, 40.0)

    def test_zero_smaller_radius(self):
        cp = critical_points(0.0, 40.0)
        assert cp.delta_theta == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert cp.dr_min == 40.0
        assert cp.attained

    def test_equal_radii_infimum_open(self):
        cp = critical_points(40.0, 40.0)
        assert cp.dr_min == 40.0
        assert not cp.attained

    def test_both_zero_undefined(self):
        with pytest.raises(UndefinedCriticalPointError):
            critical_points(0.0, 0.0)

    @given(st.floats(1.0, 100.0), st.floats(1.0, 100.0))
    @example(ri=2.0, rj=2.00001)
    @settings(max_examples=100, deadline=None)
    def test_minimum_verified_by_sweep(self, ri, rj):
        # ri^2 + rj^2 - 2 ri rj cos t, written without the cancellation that
        # costs ~1e-12 relative at small separations of near-equal radii
        def radial_error(t):
            return math.sqrt((ri - rj) ** 2 + 4 * ri * rj * math.sin(t / 2) ** 2) / math.sin(t)

        cp = critical_points(ri, rj)
        seps = [x / 1000.0 * math.pi for x in range(1, 1000)]
        sweep = min(radial_error(t) for t in seps)
        assert sweep >= cp.dr_min - 1e-6
        if cp.attained:
            assert radial_error(cp.delta_theta) == pytest.approx(cp.dr_min, rel=1e-12)


class TestCaseBounds:
    def test_case1_single_nonzero(self):
        b = case_bound([0.0, 40.0, 0.0, 0.0])
        assert (b.case, b.lower, b.attained) == (1, 40.0, True)
        assert b.attained_at == pytest.approx(math.pi / 2.0)
        assert b.upper == math.inf

    def test_case2_all_equal(self):
        b = case_bound([40.0, 40.0, 40.0, 40.0])
        assert (b.case, b.lower, b.attained, b.attained_at) == (2, 40.0, False, None)

    def test_case3_mixed(self):
        b = case_bound([60.0, 40.0, 30.0, 15.0])
        assert (b.case, b.lower, b.attained) == (3, 30.0, True)
        assert math.degrees(b.attained_at) == pytest.approx(60.0, rel=1e-12)

    def test_case3_zeros_use_nonzero_radii_only(self):
        # documented resolution: zeros are LOS satellites and do not shrink
        # the bound; the two smallest nonzero radii set it
        b = case_bound([0.0, 30.0, 40.0])
        assert (b.case, b.lower) == (3, 40.0)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            case_bound([40.0])
        with pytest.raises(ValueError):
            case_bound([0.0, 0.0, 0.0])

    def test_negative_radii_folded(self):
        assert case_bound([-40.0, 0.0]).lower == 40.0


class TestEnumeration:
    def test_reference_scenario_counts(self):
        s = load_scenario("case3.scenario")
        lines = center_lines(s, Space.POSITION)
        found = enumerate_intersections(lines)
        assert len(found) == count_intersections([len(ch.paths) for ch in s.satellites])
        assert len(found) == 6

    def test_same_satellite_lines_skipped(self):
        s = load_scenario("table6.scenario")
        lines = center_lines(s, Space.POSITION)
        # add a second path line for PRN 18 manually
        extra = CenterLine(Space.POSITION, lines[0].azimuth, 10.0, (18, 1))
        found = enumerate_intersections(lines + [extra])
        # pairs: (18,0)x(23,0) and (18,1)x(23,0); the same-PRN pair drops out
        assert len(found) == count_intersections([2, 1]) == 2

    def test_coincident_points_merge(self):
        s = load_scenario("table1.scenario")  # all LOS: every line passes the origin
        found = enumerate_intersections(center_lines(s, Space.POSITION))
        assert len(found) == 1
        assert len(found[0].contributors) == 6
        assert found[0].dr == pytest.approx(0.0, abs=1e-12)

    def test_merge_tolerance_respected(self):
        # crossings within EPS_MERGE (1e-6) merge; 1.4e-4 apart they stay three
        a = CenterLine(Space.POSITION, math.radians(0.0), 0.0, (1, 0))
        b = CenterLine(Space.POSITION, math.radians(90.0), 0.0, (2, 0))
        near = CenterLine(Space.POSITION, math.radians(45.0), 1e-9, (3, 0))
        assert len(enumerate_intersections([a, b, near])) == 1
        far = CenterLine(Space.POSITION, math.radians(45.0), 1e-4, (3, 0))
        assert len(enumerate_intersections([a, b, far])) == 3

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            enumerate_intersections(
                [CenterLine(Space.POSITION, 0.0, 1.0), CenterLine(Space.VELOCITY, 1.0, 1.0)]
            )

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_count_formula(self, counts):
        total = sum(counts)
        brute = 0
        owners = [i for i, k in enumerate(counts) for _ in range(k)]
        for i in range(total):
            for j in range(i + 1, total):
                if owners[i] != owners[j]:
                    brute += 1
        assert count_intersections(counts) == brute
