"""Tangent-circle geometry of multipath-biased grid solutions.

Each path's elevation-projected bias defines a circle around the truth point
whose radius is the range (range-rate) error; the path's correlation ridge is
a straight center line tangent to that circle, perpendicular distance equal
to the radius.  Candidate biased solutions are intersections of center lines
from different satellites; this module computes those intersections, the
resulting radial errors, their critical points, and per-case lower bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .caf import (
    RIDGE_OFFSET_SIGN,
    SPEED_OF_LIGHT,
    Scenario,
    SignalConfig,
    Space,
)
from .geom import EPS_ZENITH, EnuVector, GeometryError

EPS_PARALLEL = 1e-6  # on |sin(azimuth separation)|; below this lines are parallel
EPS_MERGE = 1e-6  # m (m/s); intersection points closer than this are one point
EQUAL_RADII_RTOL = 1e-9  # relative tolerance for treating two radii as equal


class ParallelLinesError(GeometryError):
    """Center lines with (nearly) equal or opposite azimuths do not intersect."""


class UndefinedCriticalPointError(GeometryError):
    """No critical point exists (both radii vanish)."""


def _check_elevation(elevation: float) -> None:
    if not 0.0 <= elevation < math.pi / 2.0 - EPS_ZENITH:
        raise GeometryError(
            f"elevation {math.degrees(elevation):.3f} deg outside "
            f"[0, 90 - {math.degrees(EPS_ZENITH):.2f}) deg"
        )


def project_to_range(delay_chips: float, elevation: float, code_rate: float = 10.23e6) -> float:
    """Range bias (m) of a code-delay bias: chip length times delay times sec(elevation)."""
    _check_elevation(elevation)
    return SPEED_OF_LIGHT / code_rate * delay_chips / math.cos(elevation)


def project_to_range_rate(doppler_hz: float, elevation: float, carrier: float = 1176.45e6) -> float:
    """Range-rate bias (m/s) of a Doppler bias: wavelength times Doppler times sec(elevation)."""
    _check_elevation(elevation)
    return SPEED_OF_LIGHT / carrier * doppler_hz / math.cos(elevation)


@dataclass(frozen=True)
class CenterLine:
    """Correlation-ridge center line of one path in the offset plane.

    Stored in implicit normal form so steep azimuths need no special
    handling: with the unit normal (sin azimuth, cos azimuth), the line is
    normal . p = constant, and its perpendicular distance from the truth
    point equals |offset|.  ``offset`` is the signed projected bias (0 for an
    LOS path); ``constant`` carries the side convention of RIDGE_OFFSET_SIGN.
    """

    space: Space
    azimuth: float
    offset: float
    source: tuple[int, int] = (0, 0)  # (prn, path index)

    @property
    def normal(self) -> tuple[float, float]:
        return (math.sin(self.azimuth), math.cos(self.azimuth))

    @property
    def constant(self) -> float:
        return RIDGE_OFFSET_SIGN * self.offset

    @property
    def radius(self) -> float:
        return abs(self.offset)

    def tangent_point(self) -> EnuVector:
        """Foot of the perpendicular from the truth point (the tangency point)."""
        ne, nn = self.normal
        return EnuVector(self.constant * ne, self.constant * nn, 0.0)


@dataclass(frozen=True)
class BiasResult:
    """One candidate biased solution: a cross-satellite line intersection.

    ``pair`` is (prn_i, path_i, prn_j, path_j) of the primary contributing
    pair; ``contributors`` lists every pair that meets at the same point.
    """

    space: Space
    pair: tuple[int, int, int, int]
    delta_theta: float
    point: EnuVector
    dr: float
    contributors: tuple[tuple[int, int, int, int], ...] = None

    def __post_init__(self):
        if self.contributors is None:
            object.__setattr__(self, "contributors", (self.pair,))


@dataclass(frozen=True)
class ErrorBound:
    """Lower/upper bound of the radial error over azimuth geometries.

    ``case`` is 1 (single NLOS radius), 2 (all radii equal), or 3 (mixed);
    ``attained_at`` is the azimuth separation reaching the lower bound, when
    one exists.  The upper bound is always unbounded.
    """

    case: int
    lower: float
    attained: bool
    attained_at: float | None
    upper: float = math.inf


class CriticalPoint(NamedTuple):
    delta_theta: float
    dr_min: float
    attained: bool


def center_line(
    channel,
    path_index: int,
    space: Space,
    signal: SignalConfig,
) -> CenterLine:
    """Center line of one path of a satellite channel in the given space."""
    path = channel.paths[path_index]
    if space is Space.POSITION:
        offset = project_to_range(path.delay_chips, channel.angles.elevation, signal.code_rate)
    else:
        offset = project_to_range_rate(path.doppler_hz, channel.angles.elevation, signal.carrier)
    return CenterLine(space, channel.angles.azimuth, offset, (channel.prn, path_index))


def center_lines(scenario: Scenario, space: Space) -> list[CenterLine]:
    """Center lines of every path of every satellite in the scenario."""
    return [
        center_line(ch, k, space, scenario.signal)
        for ch in scenario.satellites
        for k in range(len(ch.paths))
    ]


def fold_azimuth_separation(theta_i: float, theta_j: float) -> float:
    """Azimuth separation folded into [0, pi]."""
    d = abs(theta_i - theta_j) % (2.0 * math.pi)
    return 2.0 * math.pi - d if d > math.pi else d


def _cramer(p: tuple[float, float, float], q: tuple[float, float, float]):
    """Crossing ``(e, n)`` of the lines ``a*e + b*n = c`` given as ``(a, b, c)``.

    ``None`` when the determinant (the sine of the azimuth separation for
    unit normals) is below EPS_PARALLEL in magnitude.
    """
    det = p[0] * q[1] - p[1] * q[0]
    if abs(det) < EPS_PARALLEL:
        return None
    return (p[2] * q[1] - q[2] * p[1]) / det, (p[0] * q[2] - q[0] * p[2]) / det


def intersect_lines(a: CenterLine, b: CenterLine) -> EnuVector:
    """Intersection point of two center lines (Cramer on the normal forms).

    Raises :class:`GeometryError`, naming both lines, when they cross
    farther out than a double can hold.
    """
    if a.space is not b.space:
        raise ValueError("cannot intersect lines from different spaces")
    point = _cramer((*a.normal, a.constant), (*b.normal, b.constant))
    if point is None:
        raise ParallelLinesError(
            f"azimuth separation {math.degrees(fold_azimuth_separation(a.azimuth, b.azimuth)):.6f} "
            f"deg leaves |sin| below {EPS_PARALLEL}"
        )
    if not all(map(math.isfinite, point)):
        raise GeometryError(
            f"{a.space.value}-space center lines of PRN {a.source[0]} path {a.source[1]} and"
            f" PRN {b.source[0]} path {b.source[1]} cross beyond a double"
        )
    return EnuVector(*point, 0.0)


def pair_bias(
    rho_i: float,
    rho_j: float,
    theta_i: float,
    theta_j: float,
    space: Space = Space.POSITION,
) -> BiasResult:
    """Biased solution produced by two center lines with the given radii/azimuths.

    The radial error equals
    sqrt(rho_i**2 + rho_j**2 - 2*rho_i*rho_j*cos(dt)) / sin(dt)
    with dt the folded azimuth separation; it is computed here from the
    actual intersection point so its east/north components stay consistent
    with the line geometry.
    """
    line_i = CenterLine(space, theta_i, rho_i, (0, 0))
    line_j = CenterLine(space, theta_j, rho_j, (1, 0))
    point = intersect_lines(line_i, line_j)
    return BiasResult(
        space=space,
        pair=(0, 0, 1, 0),
        delta_theta=fold_azimuth_separation(theta_i, theta_j),
        point=point,
        dr=point.horizontal_norm(),
    )


def pair_bias_velocity(rho_i: float, rho_j: float, theta_i: float, theta_j: float) -> BiasResult:
    """Velocity-space twin of :func:`pair_bias`; radii in m/s."""
    return pair_bias(rho_i, rho_j, theta_i, theta_j, space=Space.VELOCITY)


def critical_points(rho_i: float, rho_j: float) -> CriticalPoint:
    """Azimuth separation minimizing the pair's radial error, and that minimum.

    For distinct radii the minimum is the larger radius, reached at
    arccos(smaller/larger); this also covers a vanishing smaller radius
    (minimum at pi/2).  For equal positive radii the error decreases toward
    the shared radius as the separation shrinks but never reaches it, so the
    infimum is reported as not attained.
    """
    s, big = sorted((abs(rho_i), abs(rho_j)))
    if big <= 0.0:
        raise UndefinedCriticalPointError("both radii are zero")
    if big - s <= EQUAL_RADII_RTOL * big:
        return CriticalPoint(0.0, big, False)
    return CriticalPoint(math.acos(s / big), big, True)


def case_bound(radii: Sequence[float]) -> ErrorBound:
    """Radial-error bound for a set of per-satellite radii (one path each).

    Case 1: exactly one nonzero radius; the error ranges over [radius, inf),
    the lower end at a separation of pi/2.  Case 2: all radii equal and
    positive; the bound (radius, inf) is open.  Case 3: otherwise; the lower
    bound is the second smallest nonzero radius, from pairing the two
    smallest-radius satellites at their critical separation.
    """
    rs = [abs(float(r)) for r in radii]
    if len(rs) < 2:
        raise ValueError("need at least two satellites for a bound")
    nonzero = sorted(r for r in rs if r > 0.0)
    if not nonzero:
        raise ValueError("all radii are zero; no multipath bound exists")
    if len(nonzero) == 1:
        return ErrorBound(case=1, lower=nonzero[0], attained=True, attained_at=math.pi / 2.0)
    if len(nonzero) == len(rs) and nonzero[-1] - nonzero[0] <= EQUAL_RADII_RTOL * nonzero[-1]:
        return ErrorBound(case=2, lower=nonzero[0], attained=False, attained_at=None)
    cp = critical_points(nonzero[0], nonzero[1])
    return ErrorBound(
        case=3,
        lower=cp.dr_min,
        attained=cp.attained,
        attained_at=cp.delta_theta if cp.attained else None,
    )


def enumerate_intersections(lines: Sequence[CenterLine]) -> list[BiasResult]:
    """All cross-satellite intersection points among the given center lines.

    Same-satellite pairs share an azimuth and are skipped; cross-satellite
    parallel pairs have no (finite) intersection and are likewise excluded.
    Points closer than EPS_MERGE merge into one record that keeps every
    contributing pair.
    """
    if len({ln.space for ln in lines}) > 1:
        raise ValueError("lines must share one space")
    clusters: list[dict] = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            if a.source[0] == b.source[0]:
                continue
            try:
                point = intersect_lines(a, b)
            except ParallelLinesError:
                continue
            pair = (a.source[0], a.source[1], b.source[0], b.source[1])
            for cl in clusters:
                dp = math.hypot(point.e - cl["point"].e, point.n - cl["point"].n)
                if dp <= EPS_MERGE:
                    cl["contributors"].append(pair)
                    break
            else:
                clusters.append(
                    {
                        "point": point,
                        "pair": pair,
                        "delta_theta": fold_azimuth_separation(a.azimuth, b.azimuth),
                        "contributors": [pair],
                    }
                )
    return [
        BiasResult(
            space=lines[0].space,
            pair=cl["pair"],
            delta_theta=cl["delta_theta"],
            point=cl["point"],
            dr=cl["point"].horizontal_norm(),
            contributors=tuple(cl["contributors"]),
        )
        for cl in clusters
    ]


def count_intersections(path_counts: Sequence[int]) -> int:
    """Cross-satellite line-pair count: half of (sum N)**2 - sum N**2."""
    total = sum(path_counts)
    return (total * total - sum(k * k for k in path_counts)) // 2
