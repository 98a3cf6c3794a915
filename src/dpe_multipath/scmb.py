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

from .geom import GeometryError, check_elevation, fold_azimuth_separation
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

    Stored as its satellite's azimuth and ``offset``, the signed projected
    bias (0 for an LOS path); its perpendicular distance from the truth point
    is |offset|.  :attr:`form` gives it in implicit normal form, so steep
    azimuths need no special handling.
    """

    space: Space
    azimuth: float
    offset: float
    source: tuple[int, int] = (0, 0)  # (prn, path index)

    @property
    def form(self) -> tuple[float, float, float]:
        """``(a, b, c)`` of ``a*e + b*n = c``: the unit normal (sin, cos of the
        azimuth) and the offset on the side of RIDGE_OFFSET_SIGN."""
        return (math.sin(self.azimuth), math.cos(self.azimuth), RIDGE_OFFSET_SIGN * self.offset)

    @property
    def radius(self) -> float:
        return abs(self.offset)


@dataclass(frozen=True)
class BiasResult:
    """One candidate biased solution: a cross-satellite line intersection.

    ``contributors`` lists (prn_i, path_i, prn_j, path_j) of every pair that
    meets at ``point``, the first pair's crossing; ``delta_theta`` is that
    pair's folded azimuth separation.  ``point`` is ``(e, n)``, and the
    radial error is ``math.hypot(*point)``.
    """

    delta_theta: float
    point: tuple[float, float]
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

    Pairs are taken in line order; each pair's crossing is the
    :func:`line_crossing` of the two lines' forms.  Same-satellite pairs
    share an azimuth and are skipped, and cross-satellite pairs that do not
    cross are excluded.  A crossing within EPS_MERGE of an earlier record's
    point joins the first such record as one more contributor.  The records
    are looked up by merge cell, so the cost is linear in the crossings.
    Raises :class:`GeometryError`, naming both lines, when two cross
    farther out than a double can hold.
    """
    if len({ln.space for ln in lines}) > 1:
        raise ValueError("lines must share one space")
    found: list[BiasResult] = []
    cells: dict[tuple[int, int], list[int]] = {}  # indices into found, by their point's cell
    for (a, p), (b, q) in itertools.combinations([(ln, ln.form) for ln in lines], 2):
        if a.source[0] == b.source[0]:
            continue
        point = line_crossing(p, q)
        if point is None:
            continue
        if not all(map(math.isfinite, point)):
            raise GeometryError(
                f"{a.space.value}-space center lines of PRN {a.source[0]} path {a.source[1]} and"
                f" PRN {b.source[0]} path {b.source[1]} cross beyond a double"
            )
        pair = (*a.source, *b.source)
        # cells of side 2 * EPS_MERGE, so a point within EPS_MERGE lies in a
        # neighbouring cell; clamped, so that far points share the end cells
        ce, cn = (math.floor(min(max(x / (2 * EPS_MERGE), -2.0**62), 2.0**62)) for x in point)
        k = min((k for de in (-1, 0, 1) for dn in (-1, 0, 1)
                 for k in cells.get((ce + de, cn + dn), ())
                 if math.dist(point, found[k].point) <= EPS_MERGE),
                default=None)
        if k is None:
            cells.setdefault((ce, cn), []).append(len(found))
            found.append(BiasResult(fold_azimuth_separation(a.azimuth, b.azimuth), point, (pair,)))
        else:
            found[k] = replace(found[k], contributors=(*found[k].contributors, pair))
    return found
