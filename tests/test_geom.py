"""Geodetic frame transforms and look angles."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_multipath.geom import (
    EPS_ZENITH,
    EcefVector,
    EnuVector,
    GeometryError,
    LookAngles,
    ecef_to_enu,
    geodetic_latlon,
    look_angles,
)
from scenario_helpers import enu_from_angles, enu_to_ecef

RECEIVER = EcefVector(-2851838.0, 4653607.0, 3289209.0)

# Independent oracle: closed-form Bowring geodetic latitude, one trig pass.
WGS84_A = 6378137.0
WGS84_B = WGS84_A * (1.0 - 1.0 / 298.257223563)


def bowring_latlon(v: EcefVector) -> tuple[float, float]:
    p = math.hypot(v.x, v.y)
    e2 = 1.0 - (WGS84_B / WGS84_A) ** 2
    ep2 = (WGS84_A / WGS84_B) ** 2 - 1.0
    u = math.atan2(v.z * WGS84_A, p * WGS84_B)
    lat = math.atan2(
        v.z + ep2 * WGS84_B * math.sin(u) ** 3,
        p - e2 * WGS84_A * math.cos(u) ** 3,
    )
    return lat, math.atan2(v.y, v.x)


class TestGeodetic:
    def test_latlon_matches_bowring(self):
        lat, lon = geodetic_latlon(RECEIVER)
        blat, blon = bowring_latlon(RECEIVER)
        assert lat == pytest.approx(blat, abs=1e-9)
        assert lon == pytest.approx(blon, abs=1e-12)

    def test_origin_near_earth_center_rejected(self):
        with pytest.raises(GeometryError, match="^ENU origin must not be the geocenter$"):
            geodetic_latlon(EcefVector(0.0, 0.0, 0.0))

    @given(
        st.floats(-80.0, 80.0),
        st.floats(-180.0, 180.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_latlon_roundtrip_on_ellipsoid_surface(self, lat_deg, lon_deg):
        lat, lon = math.radians(lat_deg), math.radians(lon_deg)
        e2 = 1.0 - (WGS84_B / WGS84_A) ** 2
        nrad = WGS84_A / math.sqrt(1.0 - e2 * math.sin(lat) ** 2)
        point = EcefVector(
            nrad * math.cos(lat) * math.cos(lon),
            nrad * math.cos(lat) * math.sin(lon),
            nrad * (1.0 - e2) * math.sin(lat),
        )
        got_lat, got_lon = geodetic_latlon(point)
        assert got_lat == pytest.approx(lat, abs=1e-9)
        assert got_lon == pytest.approx(lon, abs=1e-12)


class TestEnuFrame:
    def test_origin_maps_to_zero(self):
        local = ecef_to_enu(RECEIVER, RECEIVER)
        assert (local.e, local.n, local.u) == (0.0, 0.0, 0.0)

    def test_small_north_displacement(self):
        # Nudging the origin along the local north axis must read back as
        # (0, 1, 0) to first order.
        lat, lon = geodetic_latlon(RECEIVER)
        point = EcefVector(
            RECEIVER.x - math.sin(lat) * math.cos(lon),
            RECEIVER.y - math.sin(lat) * math.sin(lon),
            RECEIVER.z + math.cos(lat),
        )
        local = ecef_to_enu(point, RECEIVER)
        assert local.e == pytest.approx(0.0, abs=1e-6)
        assert local.n == pytest.approx(1.0, abs=1e-6)
        assert local.u == pytest.approx(0.0, abs=1e-6)

    def test_up_axis_points_outward(self):
        lat, lon = geodetic_latlon(RECEIVER)
        point = EcefVector(
            RECEIVER.x + 5.0 * math.cos(lat) * math.cos(lon),
            RECEIVER.y + 5.0 * math.cos(lat) * math.sin(lon),
            RECEIVER.z + 5.0 * math.sin(lat),
        )
        local = ecef_to_enu(point, RECEIVER)
        assert local.u == pytest.approx(5.0, abs=1e-6)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_and_distance_preserved(self, e, n, u):
        local = EnuVector(e, n, u)
        point = enu_to_ecef(local, RECEIVER)
        back = ecef_to_enu(point, RECEIVER)
        assert back.e == pytest.approx(e, abs=1e-6)
        assert back.n == pytest.approx(n, abs=1e-6)
        assert back.u == pytest.approx(u, abs=1e-6)
        # rotation + translation: distances survive exactly up to roundoff
        distance = math.hypot(point.x - RECEIVER.x, point.y - RECEIVER.y, point.z - RECEIVER.z)
        assert distance == pytest.approx(math.hypot(e, n, u), rel=1e-12, abs=1e-9)


class TestLookAngles:
    @given(
        st.floats(0.5, 89.0),
        st.floats(0.0, 359.99),
        st.floats(1e4, 3e7),
    )
    @settings(max_examples=100, deadline=None)
    def test_construct_then_invert(self, el_deg, az_deg, rng):
        angles = LookAngles.from_degrees(el_deg, az_deg)
        local = enu_from_angles(angles, rng)
        got = look_angles(local)
        assert got.elevation_deg == pytest.approx(el_deg, abs=1e-9)
        assert got.azimuth_deg == pytest.approx(az_deg, abs=1e-9)
        assert math.hypot(local.e, local.n, local.u) == pytest.approx(rng, rel=1e-12)

    def test_azimuth_quadrants(self):
        for az, (e_sign, n_sign) in ((45.0, (1, 1)), (135.0, (1, -1)),
                                     (225.0, (-1, -1)), (315.0, (-1, 1))):
            v = enu_from_angles(LookAngles.from_degrees(30.0, az), 1000.0)
            assert math.copysign(1, v.e) == e_sign
            assert math.copysign(1, v.n) == n_sign

    def test_below_horizon_rejected(self):
        with pytest.raises(GeometryError):
            LookAngles.from_degrees(-1.0, 100.0)

    def test_zenith_band_rejected(self):
        with pytest.raises(GeometryError,
                           match=r"^elevation 89\.900 deg is within 0\.50 deg of zenith$"):
            LookAngles.from_degrees(89.9, 0.0)
        # just inside the allowed band
        LookAngles.from_degrees(math.degrees(math.pi / 2 - EPS_ZENITH) - 1e-9, 0.0)

    def test_vertical_direction_rejected(self):
        with pytest.raises(GeometryError,
                           match="^horizontal component vanishes; azimuth undefined$"):
            look_angles(EnuVector(0.0, 0.0, 1000.0))

    def test_azimuth_normalized(self):
        assert LookAngles.from_degrees(10.0, 400.0).azimuth_deg == pytest.approx(40.0)
        assert LookAngles.from_degrees(10.0, -90.0).azimuth_deg == pytest.approx(270.0)

    def test_nonfinite_ecef_rejected(self):
        with pytest.raises(ValueError):
            EcefVector(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            EcefVector(math.inf, 0.0, 0.0)
