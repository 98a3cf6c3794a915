"""Tangent-circle geometry of multipath-biased grid solutions.

Each path's elevation-projected bias (:func:`project_bias`, the one projection
of a delay or Doppler bias) defines a circle around the truth point whose
radius is the range (range-rate) error; the path's correlation ridge is a
straight center line tangent to that circle, perpendicular distance equal to
the radius.  Candidate biased solutions are intersections of center lines
from different satellites; this module computes those intersections, the
resulting radial errors, and per-case lower bounds.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .geom import EnuVector, GeometryError, check_elevation, fold_azimuth_separation
from .model import (
    RIDGE_OFFSET_SIGN,
    SPEED_OF_LIGHT,
    Scenario,
    SignalConfig,
    Space,
)

EPS_PARALLEL = 1e-6  # on |sin(azimuth separation)|; below this lines do not cross
EPS_MERGE = 1e-6  # m (m/s); intersection points closer than this are one point
EQUAL_RADII_RTOL = 1e-9  # relative tolerance for treating two radii as equal


def project_bias(bias: float, elevation: float, rate: float) -> float:
    """Range (m) or range-rate (m/s) bias of a code-delay (chips) or Doppler (Hz) bias.

    The bias times the chip length or the wavelength, ``c / rate`` with ``rate``
    from :meth:`SignalConfig.rate`, times sec(elevation); ``elevation`` must pass
    :func:`geom.check_elevation`.
    """
    check_elevation(elevation)
    return SPEED_OF_LIGHT / rate * bias / math.cos(elevation)


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


@dataclass(frozen=True)
class BiasResult:
    """One candidate biased solution: a cross-satellite line intersection.

    ``contributors`` lists (prn_i, path_i, prn_j, path_j) of every pair that
    meets at ``point``, the first pair's crossing; ``delta_theta`` is that
    pair's folded azimuth separation.  The radial error is
    ``point.horizontal_norm()``.
    """

    delta_theta: float
    point: EnuVector
    contributors: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class ErrorBound:
    """Lower bound of the radial error over azimuth geometries.

    ``case`` is 1 (single NLOS radius), 2 (all radii equal), or 3 (mixed);
    ``attained_at`` is the azimuth separation reaching the bound, or ``None``
    when the two smallest radii are equal and the bound is open: the error
    approaches it but never reaches it.
    """

    case: int
    lower: float
    attained_at: float | None


def center_line(
    channel,
    path_index: int,
    space: Space,
    signal: SignalConfig,
) -> CenterLine:
    """Center line of one path of a satellite channel in the given space."""
    path = channel.paths[path_index]
    offset = project_bias(path.bias(space), channel.angles.elevation, signal.rate(space))
    return CenterLine(space, channel.angles.azimuth, offset, (channel.prn, path_index))


def center_lines(scenario: Scenario, space: Space) -> list[CenterLine]:
    """Center lines of every path of every satellite in the scenario."""
    return [
        center_line(ch, k, space, scenario.signal)
        for ch in scenario.satellites
        for k in range(len(ch.paths))
    ]


def line_crossing(p: tuple[float, float, float],
                  q: tuple[float, float, float]) -> tuple[float, float] | None:
    """Crossing ``(e, n)`` of the lines ``a*e + b*n = c`` given as ``(a, b, c)``,
    by Cramer's rule.

    ``None`` when the determinant (the sine of the azimuth separation for
    unit normals) is below EPS_PARALLEL in magnitude: the lines do not cross.
    """
    det = p[0] * q[1] - p[1] * q[0]
    if abs(det) < EPS_PARALLEL:
        return None
    return (p[2] * q[1] - q[2] * p[1]) / det, (p[0] * q[2] - q[0] * p[2]) / det


def intersect_lines(a: CenterLine, b: CenterLine) -> EnuVector | None:
    """Intersection point of two center lines (:func:`line_crossing` of their
    normal forms), or ``None`` when they do not cross.

    Raises :class:`GeometryError`, naming both lines, when they cross
    farther out than a double can hold.
    """
    if a.space is not b.space:
        raise ValueError("cannot intersect lines from different spaces")
    point = line_crossing((*a.normal, a.constant), (*b.normal, b.constant))
    if point is None:
        return None
    if not all(map(math.isfinite, point)):
        raise GeometryError(
            f"{a.space.value}-space center lines of PRN {a.source[0]} path {a.source[1]} and"
            f" PRN {b.source[0]} path {b.source[1]} cross beyond a double"
        )
    return EnuVector(*point, 0.0)


def case_bound(radii: Sequence[float]) -> ErrorBound:
    """Position-space (code-triangle) radial-error bound for per-satellite radii (one path each).

    The lower bound pairs the two smallest radii s <= r, zeros included: their
    lines meet no closer than r, at the separation arccos(s / r) (pi/2 for a
    LOS satellite, whose line passes through the truth), or ever closer to r
    as the separation shrinks when s = r, an open bound; two LOS lines meet at
    the truth.  Case 1: exactly one nonzero radius; the bound is that radius,
    or 0 beside two LOS satellites.  Case 2: all radii equal and positive.
    Case 3: otherwise.
    """
    rs = sorted(abs(float(r)) for r in radii)
    if len(rs) < 2:
        raise ValueError("need at least two satellites for a bound")
    if rs[-1] == 0.0:
        raise ValueError("all radii are zero; no multipath bound exists")
    if rs[-1] - rs[0] <= EQUAL_RADII_RTOL * rs[-1]:
        return ErrorBound(case=2, lower=rs[0], attained_at=None)
    case = 1 if rs[-2] == 0.0 else 3
    if rs[1] == 0.0:  # two LOS lines: they cross at the truth at any separation
        return ErrorBound(case=case, lower=0.0, attained_at=math.pi / 2.0)
    if rs[1] - rs[0] <= EQUAL_RADII_RTOL * rs[1]:  # equal: the error only nears rs[1]
        return ErrorBound(case=case, lower=rs[1], attained_at=None)
    return ErrorBound(case=case, lower=rs[1], attained_at=math.acos(rs[0] / rs[1]))


def enumerate_intersections(lines: Sequence[CenterLine]) -> list[BiasResult]:
    """All cross-satellite intersection points among the given center lines.

    Pairs are taken in line order.  Same-satellite pairs share an azimuth
    and are skipped, and cross-satellite pairs that do not cross are
    excluded.  A crossing within EPS_MERGE of an earlier record's point
    joins the first such record as one more contributor.
    """
    if len({ln.space for ln in lines}) > 1:
        raise ValueError("lines must share one space")
    found: list[BiasResult] = []
    points: list[tuple[float, float]] = []  # (e, n) of found[k].point: a cheaper merge scan
    for a, b in itertools.combinations(lines, 2):
        if a.source[0] == b.source[0]:
            continue
        point = intersect_lines(a, b)
        if point is None:
            continue
        pair = (*a.source, *b.source)
        e, n = point.e, point.n
        for k, (pe, pn) in enumerate(points):
            if math.hypot(e - pe, n - pn) <= EPS_MERGE:
                found[k] = replace(found[k], contributors=(*found[k].contributors, pair))
                break
        else:
            points.append((e, n))
            found.append(BiasResult(fold_azimuth_separation(a.azimuth, b.azimuth), point, (pair,)))
    return found
