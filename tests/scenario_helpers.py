"""Test-side access to the bundled scenarios: the authored receiver and a channel by PRN."""
import json

from dpe_multipath.cli import _bundled_scenario
from dpe_multipath.geom import EcefVector


def authored_receiver(name: str = "table1.scenario") -> EcefVector:
    """The receiver position a bundled scenario file authors."""
    raw = json.loads(_bundled_scenario(name).read_text())
    return EcefVector.from_array(raw["receiver"]["position_ecef"])


def channel(scenario, prn: int):
    """The channel of satellite ``prn`` in ``scenario``."""
    return next(ch for ch in scenario.satellites if ch.prn == prn)
