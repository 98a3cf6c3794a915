"""Local-frame geometry: ECEF-to-ENU conversion and satellite look angles.

The local frame is East-North-Up anchored at the receiver truth point.
Azimuth is measured clockwise from geodetic North, elevation up from the
horizontal plane; both are kept in radians internally.  :func:`check_elevation`
states the one elevation domain that look angles and bias projections share.
Every geometry fault raises :class:`GeometryError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# WGS-84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

# Look angles closer to zenith than this are rejected: sec(elevation) and the
# azimuth direction both degenerate there.
EPS_ZENITH = math.radians(0.5)

_EPS_ORIGIN = 1e-6  # m, an ENU origin this close to the geocenter is invalid
_EPS_HORIZONTAL = 1e-9  # relative horizontal norm below which azimuth is undefined


class GeometryError(ValueError):
    """Degenerate or inconsistent geometry."""


def check_elevation(elevation: float) -> None:
    """Raise :class:`GeometryError` unless ``elevation`` (radians) lies in
    [0, pi/2 - EPS_ZENITH), the domain of every look angle and projection."""
    if not elevation >= 0.0:  # NaN is rejected here too
        raise GeometryError(f"elevation {math.degrees(elevation):.3f} deg is below the horizon")
    if elevation >= math.pi / 2.0 - EPS_ZENITH:
        raise GeometryError(
            f"elevation {math.degrees(elevation):.3f} deg is within "
            f"{math.degrees(EPS_ZENITH):.2f} deg of zenith"
        )


@dataclass(frozen=True)
class EcefVector:
    """Earth-centered Earth-fixed vector; meters, or m/s for velocities."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise GeometryError("ECEF components must be finite")

    @classmethod
    def from_array(cls, a) -> "EcefVector":
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)


@dataclass(frozen=True)
class EnuVector:
    """East-North-Up vector relative to the receiver truth point (offset-plane
    points, where center lines cross and grids peak, are plain ``(e, n)`` pairs)."""

    e: float
    n: float
    u: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.e, self.n, self.u)):
            raise GeometryError("ENU components must be finite")


@dataclass(frozen=True)
class LookAngles:
    """Satellite look angles from the receiver.

    Attributes
    ----------
    elevation : float
        Elevation above the horizontal plane, radians, in
        [0, pi/2 - EPS_ZENITH) (see :func:`check_elevation`).
    azimuth : float
        Azimuth clockwise from North, radians, normalized to [0, 2*pi).
    """

    elevation: float
    azimuth: float

    def __post_init__(self):
        if not (math.isfinite(self.elevation) and math.isfinite(self.azimuth)):
            raise GeometryError("look angles must be finite")
        check_elevation(self.elevation)
        object.__setattr__(self, "azimuth", self.azimuth % (2.0 * math.pi))

    @classmethod
    def from_degrees(cls, elevation_deg: float, azimuth_deg: float) -> "LookAngles":
        return cls(math.radians(elevation_deg), math.radians(azimuth_deg))

    @property
    def elevation_deg(self) -> float:
        return math.degrees(self.elevation)

    @property
    def azimuth_deg(self) -> float:
        return math.degrees(self.azimuth)


def fold_azimuth_separation(theta_i: float, theta_j: float) -> float:
    """Azimuth separation folded into [0, pi]."""
    d = abs(theta_i - theta_j) % (2.0 * math.pi)
    return 2.0 * math.pi - d if d > math.pi else d


def geodetic_latlon(origin: EcefVector) -> tuple[float, float]:
    """Geodetic latitude and longitude (radians) of an ECEF point.

    Fixed-point iteration on the latitude; converges well below 1e-12 rad
    for terrestrial points in a handful of iterations.
    """
    if origin.norm() < _EPS_ORIGIN:
        raise GeometryError("ENU origin must not be the geocenter")
    p = math.hypot(origin.x, origin.y)
    lon = math.atan2(origin.y, origin.x)
    lat = math.atan2(origin.z, p * (1.0 - WGS84_E2))
    for _ in range(10):
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * math.sin(lat) ** 2)
        lat = math.atan2(origin.z + WGS84_E2 * n * math.sin(lat), p)
    return lat, lon


def _enu_rotation(lat: float, lon: float) -> tuple[tuple[float, float, float], ...]:
    """Rotation matrix rows e, n, u, each expressed in ECEF axes."""
    sl, cl = math.sin(lat), math.cos(lat)
    so, co = math.sin(lon), math.cos(lon)
    return (-so, co, 0.0), (-sl * co, -sl * so, cl), (cl * co, cl * so, sl)


def ecef_to_enu(point: EcefVector, origin: EcefVector) -> EnuVector:
    """Express ``point`` in the ENU frame anchored at ``origin``.

    Each component is the dot product of a rotation row with the ECEF
    difference, summed left to right in plain floats, so the bits do not
    depend on the CPU (no BLAS kernel, no fused multiply-add).
    """
    rows = _enu_rotation(*geodetic_latlon(origin))
    d = (point.x - origin.x, point.y - origin.y, point.z - origin.z)
    return EnuVector(*(r[0] * d[0] + r[1] * d[1] + r[2] * d[2] for r in rows))


def look_angles(sat_enu: EnuVector) -> LookAngles:
    """Elevation and azimuth of a satellite given in the receiver ENU frame."""
    h = math.hypot(sat_enu.e, sat_enu.n)
    if h < _EPS_HORIZONTAL * max(1.0, abs(sat_enu.u)):
        raise GeometryError("horizontal component vanishes; azimuth undefined")
    elevation = math.atan2(sat_enu.u, h)
    azimuth = math.atan2(sat_enu.e, sat_enu.n)
    return LookAngles(elevation, azimuth)

