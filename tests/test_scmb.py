"""Bias projection, center-line intersections, case bounds and their critical points."""
import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpe_multipath import scmb
from dpe_multipath.geom import EPS_ZENITH, GeometryError, LookAngles, fold_azimuth_separation
from dpe_multipath.cli import load_scenario
from dpe_multipath.model import RIDGE_OFFSET_SIGN, Space
from dpe_multipath.scmb import (
    EPS_MERGE,
    CenterLine,
    ErrorBound,
    case_bound,
    center_lines,
    enumerate_intersections,
    line_crossing,
    project_bias,
)
from scenario_helpers import (
    CARRIER,
    CODE_RATE,
    count_intersections,
    pair_radial_error,
    scan_intersections,
    tangent_point,
)

# A crossing coordinate near others: a multiple of EPS_MERGE / 2, so that
# points fall exactly EPS_MERGE apart and on the edges of the merge cells
# (side 2 * EPS_MERGE); -0.0; the far end of a double, and the clamp of the
# cell index; or anywhere within a few cells of the origin.
_NEAR = st.one_of(
    st.integers(-8, 8).map(lambda k: k * (EPS_MERGE / 2)),
    st.sampled_from([-0.0, 1e300, -1e300, math.nextafter(1e300, 0.0), 1.7e308,
                     2.0**62 * 2 * EPS_MERGE, math.nextafter(2.0**62 * 2 * EPS_MERGE, 0.0)]),
    st.floats(-1e-5, 1e-5),
)

# Reference geometry: azimuths (deg) and the projected case-3 radii (m).
AZ = {10: 320.2, 18: 213.8, 23: 336.1, 24: 45.1}
R3 = {10: 60.0, 18: 40.0, 23: 30.0, 24: 15.0}
PAIRS = {"OA": (10, 24), "OB": (18, 23), "OC": (10, 18), "OD": (23, 24), "OE": (10, 23)}


class TestProjection:
    def test_zero_elevation_anchors(self):
        assert project_bias(1.0, 0.0, CODE_RATE) == pytest.approx(29.30522561094819, rel=1e-15)
        assert project_bias(120.0, 0.0, CARRIER) == pytest.approx(
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
        assert project_bias(1.0, phi, CODE_RATE) == pytest.approx(rng, rel=1e-12)
        assert project_bias(120.0, phi, CARRIER) == pytest.approx(rate, rel=1e-12)

    def test_secant_scaling(self):
        phi = math.radians(60.0)
        assert project_bias(1.0, phi, CODE_RATE) == pytest.approx(
            2.0 * project_bias(1.0, 0.0, CODE_RATE), rel=1e-12
        )

    def test_sign_follows_bias(self):
        phi = math.radians(30.0)
        assert project_bias(-1.0, phi, CODE_RATE) == -project_bias(1.0, phi, CODE_RATE)
        assert project_bias(-120.0, phi, CARRIER) == -project_bias(120.0, phi, CARRIER)

    def test_elevation_domain(self):
        with pytest.raises(GeometryError, match=r"^elevation -1\.000 deg is below the horizon$"):
            project_bias(1.0, math.radians(-1.0), CODE_RATE)
        with pytest.raises(GeometryError, match=r"^elevation 89\.900 deg is within 0\.50 deg"):
            project_bias(1.0, math.radians(89.9), CODE_RATE)
        with pytest.raises(GeometryError, match=r"^elevation 90\.000 deg is within 0\.50 deg"):
            project_bias(120.0, math.radians(90.0), CARRIER)
        with pytest.raises(GeometryError):
            project_bias(1.0, math.nan, CODE_RATE)

    @pytest.mark.parametrize("elevation", [
        -1e-12, 0.0, math.nextafter(math.pi / 2 - EPS_ZENITH, 0.0), math.pi / 2 - EPS_ZENITH,
    ], ids=["below-horizon", "horizon", "last-below-zenith-band", "zenith-band"])
    def test_one_domain_for_look_angles_and_projection(self, elevation):
        def outcome(make):
            try:
                make()
            except GeometryError as e:
                return str(e)
            return None

        angles = outcome(lambda: LookAngles(elevation, 0.0))
        assert angles == outcome(lambda: project_bias(1.0, elevation, CODE_RATE))
        assert (angles is None) == (0.0 <= elevation < math.pi / 2 - EPS_ZENITH)


class TestCenterLine:
    def test_tangency(self):
        ln = CenterLine(Space.POSITION, math.radians(213.8), 39.94)
        e, n = tangent_point(ln)
        assert math.hypot(e, n) == pytest.approx(ln.radius, rel=1e-9)
        a, b, c = ln.form
        assert a * e + b * n == pytest.approx(c, rel=1e-12)

    def test_offset_side_convention(self):
        # positive projected bias puts the tangent point on the opposite side
        # of the truth point from the satellite azimuth
        az = math.radians(45.0)
        ln = CenterLine(Space.POSITION, az, 10.0)
        e, n = tangent_point(ln)
        along = math.sin(az) * e + math.cos(az) * n
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
        dr = pair_radial_error(ri, rj, ti, tj)
        dth = fold_azimuth_separation(ti, tj)
        assert dth == pytest.approx(math.radians(sep_deg), rel=1e-12)
        assert dr == pytest.approx(self.closed_form(ri, rj, dth), rel=1e-12, abs=1e-9)

    def test_single_nonzero_radius_reduction(self):
        # rho_j = 0 collapses the closed form to rho_i / sin(separation)
        for sep in (30.0, 48.2, 90.0, 122.3):
            dth = math.radians(sep)
            dr = pair_radial_error(40.0, 0.0, 0.0, dth)
            assert dr == pytest.approx(40.0 / math.sin(dth), rel=1e-12)

    def test_equal_radii_reduction(self):
        # rho_i = rho_j collapses to rho / cos(separation / 2)
        for sep in (30.0, 90.0, 150.0):
            dth = math.radians(sep)
            dr = pair_radial_error(40.0, 40.0, 10.0, 10.0 + dth)
            assert dr == pytest.approx(40.0 / math.cos(dth / 2.0), rel=1e-12)

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
        chord = math.dist(tangent_point(li), tangent_point(lj))
        dth = fold_azimuth_separation(ti, tj)
        assert chord == pytest.approx(
            math.sqrt(ri * ri + rj * rj - 2.0 * ri * rj * math.cos(dth)),
            rel=1e-12,
            abs=1e-12,
        )
        dr = pair_radial_error(ri, rj, ti, tj)
        assert dr == pytest.approx(chord / math.sin(dth), rel=1e-12, abs=1e-12)

    def test_point_lies_on_both_lines(self):
        li = CenterLine(Space.POSITION, math.radians(213.8), 39.94)
        lj = CenterLine(Space.POSITION, math.radians(336.1), 0.0)
        e, n = line_crossing(li.form, lj.form)
        for ln in (li, lj):
            a, b, c = ln.form
            assert a * e + b * n == pytest.approx(c, abs=1e-9)

    def test_parallel_lines_do_not_cross(self):
        li = CenterLine(Space.POSITION, 0.0, 10.0)
        for az in (0.0, math.pi):
            assert line_crossing(li.form, CenterLine(Space.POSITION, az, 20.0).form) is None
        assert line_crossing(CenterLine(Space.POSITION, 0.3, 10.0).form,
                             CenterLine(Space.POSITION, 0.3 + math.pi, 20.0).form) is None

    def test_crossing_beyond_a_double_names_both_lines(self):
        li = CenterLine(Space.VELOCITY, 0.0, 1e306, (3, 1))
        lj = CenterLine(Space.VELOCITY, 0.01, -1e306, (5, 0))
        with pytest.raises(GeometryError, match="^velocity-space center lines of PRN 3 path 1"
                           " and PRN 5 path 0 cross beyond a double$"):
            enumerate_intersections([li, lj])

    def test_velocity_twin(self):
        dr = pair_radial_error(41.78, 0.0, math.radians(213.8), math.radians(336.1),
                               space=Space.VELOCITY)
        assert dr == pytest.approx(
            41.78 / math.sin(math.radians(122.3)), rel=1e-12
        )

    def test_error_diverges_as_lines_align(self):
        errs = [
            pair_radial_error(60.0, 40.0, 0.0, math.radians(sep))
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
        ti, tj = math.radians(AZ[i]), math.radians(AZ[j])
        assert math.degrees(fold_azimuth_separation(ti, tj)) == pytest.approx(dth_deg, abs=1e-9)
        assert pair_radial_error(R3[i], R3[j], ti, tj) == pytest.approx(dr, rel=1e-12)

    def test_fold_azimuth_separation(self):
        assert fold_azimuth_separation(math.radians(350.0), math.radians(10.0)) == (
            pytest.approx(math.radians(20.0), rel=1e-12)
        )
        assert fold_azimuth_separation(0.0, math.radians(190.0)) == pytest.approx(
            math.radians(170.0), rel=1e-12
        )
        assert fold_azimuth_separation(1.0, 1.0) == 0.0


class TestCriticalPoints:
    # the separation at which case_bound's two smallest radii meet closest
    def test_distinct_radii(self):
        b = case_bound([60.0, 40.0])
        assert b.lower == 60.0
        assert b.attained_at == math.acos(40.0 / 60.0)
        assert math.degrees(b.attained_at) == pytest.approx(48.18968510422141, rel=1e-12)

    def test_order_invariant(self):
        assert case_bound([40.0, 60.0]) == case_bound([60.0, 40.0])
        assert case_bound([60.0, 15.0, 40.0, 30.0]) == case_bound([15.0, 30.0, 40.0, 60.0])

    def test_zero_smaller_radius(self):
        b = case_bound([0.0, 40.0])
        assert b.attained_at == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert b.lower == 40.0

    def test_equal_radii_infimum_open(self):
        b = case_bound([40.0, 40.0])
        assert (b.lower, b.attained_at) == (40.0, None)
        # the two smallest equal within EQUAL_RADII_RTOL but not all radii:
        # case 3, and still open
        for radii, lower in (([40.0, 40.0, 60.0], 40.0),
                             ([15.0, 15.0000000001, 60.0], 15.0000000001)):
            assert case_bound(radii) == ErrorBound(case=3, lower=lower, attained_at=None)

    def test_both_zero_undefined(self):
        with pytest.raises(ValueError, match="^all radii are zero; no multipath bound exists$"):
            case_bound([0.0, 0.0])

    @given(st.floats(1.0, 100.0), st.floats(1.0, 100.0))
    @example(ri=2.0, rj=2.00001)
    @settings(max_examples=100, deadline=None)
    def test_minimum_verified_by_sweep(self, ri, rj):
        # ri^2 + rj^2 - 2 ri rj cos t, written without the cancellation that
        # costs ~1e-12 relative at small separations of near-equal radii
        def radial_error(t):
            return math.sqrt((ri - rj) ** 2 + 4 * ri * rj * math.sin(t / 2) ** 2) / math.sin(t)

        b = case_bound([ri, rj])
        seps = [x / 1000.0 * math.pi for x in range(1, 1000)]
        sweep = min(radial_error(t) for t in seps)
        assert sweep >= b.lower - 1e-6
        if b.attained_at is not None:
            assert radial_error(b.attained_at) == pytest.approx(b.lower, rel=1e-12)


class TestCaseBounds:
    def test_case1_single_nonzero(self):
        b = case_bound([0.0, 40.0])
        assert (b.case, b.lower) == (1, 40.0)
        assert b.attained_at == pytest.approx(math.pi / 2.0)
        assert pair_radial_error(0.0, 40.0, 0.0, b.attained_at) == pytest.approx(b.lower)
        # with a second LOS satellite the two LOS lines cross at the truth
        b = case_bound([0.0, 40.0, 0.0, 0.0])
        assert (b.case, b.lower, b.attained_at) == (1, 0.0, math.pi / 2.0)

    def test_case2_all_equal(self):
        b = case_bound([40.0, 40.0, 40.0, 40.0])
        assert (b.case, b.lower, b.attained_at) == (2, 40.0, None)

    def test_case3_mixed(self):
        b = case_bound([60.0, 40.0, 30.0, 15.0])
        assert (b.case, b.lower) == (3, 30.0)
        assert math.degrees(b.attained_at) == pytest.approx(60.0, rel=1e-12)

    def test_case3_zero_radii_count(self):
        # a LOS satellite (radius 0) meets the line of radius r at
        # r / sin(separation) >= r, so the zero is one of the two smallest
        b = case_bound([0.0, 30.0, 40.0])
        assert (b.case, b.lower) == (3, 30.0)
        assert b.attained_at == pytest.approx(math.pi / 2.0)
        assert pair_radial_error(0.0, 30.0, 0.0, b.attained_at) == pytest.approx(30.0, rel=1e-12)
        b = case_bound([0.0, 0.0, 9.3])
        assert (b.case, b.lower, b.attained_at) == (1, 0.0, math.pi / 2.0)
        assert pair_radial_error(0.0, 0.0, 0.3, 1.9) == 0.0
        assert case_bound([30.0, 0.0, 40.0, 0.0]).lower == 0.0

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
        assert math.hypot(*found[0].point) == pytest.approx(0.0, abs=1e-12)

    def test_merge_tolerance_respected(self):
        # crossings within EPS_MERGE (1e-6) merge; 1.4e-4 apart they stay three
        a = CenterLine(Space.POSITION, math.radians(0.0), 0.0, (1, 0))
        b = CenterLine(Space.POSITION, math.radians(90.0), 0.0, (2, 0))
        near = CenterLine(Space.POSITION, math.radians(45.0), 1e-9, (3, 0))
        assert len(enumerate_intersections([a, b, near])) == 1
        far = CenterLine(Space.POSITION, math.radians(45.0), 1e-4, (3, 0))
        assert len(enumerate_intersections([a, b, far])) == 3

    @given(st.integers(2, 7).flatmap(
        lambda m: st.lists(st.none() | st.tuples(_NEAR, _NEAR), min_size=m * (m - 1) // 2,
                           max_size=m * (m - 1) // 2)))
    # the third point is EPS_MERGE from both others, which lie in the next
    # cell east and in its own: the earlier record wins, not the nearer cell
    @example([(4 * (EPS_MERGE / 2), 0.0), (0.0, 0.0), (2 * (EPS_MERGE / 2), 0.0)])
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_merge_matches_scan(self, crossings):
        # one line per satellite, each pair crossing where the draw puts it
        m = next(m for m in itertools.count(2) if m * (m - 1) // 2 == len(crossings))
        lines = [CenterLine(Space.POSITION, 0.1 * k, 0.0, (k, 0)) for k in range(m)]
        at = dict(zip(itertools.combinations([ln.form for ln in lines], 2), crossings))

        with mock.patch.object(scmb, "line_crossing", lambda p, q: at[p, q]):
            found, scanned = enumerate_intersections(lines), scan_intersections(lines)
        assert repr(found) == repr(scanned)

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
