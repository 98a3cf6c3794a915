"""Test-side helpers: the bundled scenarios' authored receiver and channels, and
geometry that only the tests read (fixture building and reference formulas)."""
import json
import math
from typing import Sequence

import numpy as np

from dpe_multipath.cli import _bundled_scenario
from dpe_multipath.geom import EcefVector, EnuVector, LookAngles, _enu_rotation, geodetic_latlon
from dpe_multipath.scmb import CenterLine


def authored_receiver(name: str = "table1.scenario") -> EcefVector:
    """The receiver position a bundled scenario file authors."""
    raw = json.loads(_bundled_scenario(name).read_text())
    return EcefVector.from_array(raw["receiver"]["position_ecef"])


def channel(scenario, prn: int):
    """The channel of satellite ``prn`` in ``scenario``."""
    return next(ch for ch in scenario.satellites if ch.prn == prn)


def enu_to_ecef(local: EnuVector, origin: EcefVector) -> EcefVector:
    """Inverse of ``geom.ecef_to_enu``."""
    rot = _enu_rotation(*geodetic_latlon(origin))
    return EcefVector.from_array(origin.to_array() + rot.T @ np.array([local.e, local.n, local.u]))


def enu_from_angles(angles: LookAngles, range_m: float) -> EnuVector:
    """ENU vector of length ``range_m`` pointing along ``angles``."""
    ce = math.cos(angles.elevation)
    return EnuVector(
        range_m * ce * math.sin(angles.azimuth),
        range_m * ce * math.cos(angles.azimuth),
        range_m * math.sin(angles.elevation),
    )


def tangent_point(line: CenterLine) -> EnuVector:
    """Foot of the perpendicular from the truth point to ``line`` (the tangency point)."""
    ne, nn = line.normal
    return EnuVector(line.constant * ne, line.constant * nn, 0.0)


def count_intersections(path_counts: Sequence[int]) -> int:
    """Cross-satellite line-pair count: half of (sum N)**2 - sum N**2."""
    total = sum(path_counts)
    return (total * total - sum(k * k for k in path_counts)) // 2
