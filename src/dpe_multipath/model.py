"""Model of the simulated receiver, satellites and search grids, without numpy.

The signal plan, each satellite channel's look angles and propagation paths,
the candidate-offset grids and the scenario that holds them, with the
physical constants and sign convention the geometry and the correlator
share, and the reference run's bias and Monte Carlo parameters.  Nothing
here imports numpy at module level, so loading a scenario and the
closed-form geometry of :mod:`dpe_multipath.scmb` start without it;
:meth:`GridSpec.axis` imports it, and the kernels of
:mod:`dpe_multipath.caf` fill :class:`Grid2D` values.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geom import (EcefVector, GeometryError, LookAngles, ecef_to_enu, fold_azimuth_separation,
                   look_angles)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Sign convention tying the correlation model to the tangent-line geometry:
# a positive path delay (Doppler bias) moves the correlation ridge to the far
# side of the truth point, away from the satellite azimuth.  The ridge line
# satisfies u_hat . offset = RIDGE_OFFSET_SIGN * projected_bias, and the
# delay/Doppler mismatch of ``caf.mismatch`` carries the matching sign.
RIDGE_OFFSET_SIGN = -1.0

# Provided angles and a provided position may disagree by at most this much.
ANGLE_CONSISTENCY_TOL = math.radians(0.1)

# The reference Monte Carlo run, which ``report`` draws and ``montecarlo``
# draws unless its flags say otherwise: the seed, the radii (m) and the
# trial count.  Then the reference bias, (delay chips, Doppler Hz), that the
# sweeps project and ``project`` takes by default.
REFERENCE_SEED = 1
REFERENCE_RADII = (60.0, 40.0)
REFERENCE_TRIALS = 10000
REFERENCE_BIAS = (1.0, 120.0)

# Most samples per grid axis (4e8 cells, 100x the default velocity grid): no
# grid is held whole, so this stops a tiny step from writing terabytes of text.
MAX_GRID_N = 20001


class GeometryMismatchError(GeometryError):
    """Authored look angles disagree with the authored satellite position."""


class Space(enum.Enum):
    """Which candidate-offset plane a grid or line lives in."""

    POSITION = "position"
    VELOCITY = "velocity"


class PathKind(enum.Enum):
    LOS = "los"
    NLOS = "nlos"


@dataclass(frozen=True)
class SignalConfig:
    """Signal-plan constants of the simulated receiver.

    A scenario file's ``sampling_rate_hz`` is schema-checked but not kept:
    no sample-level processing exists to consume it.
    """

    code_rate: float = 10.23e6  # chips/s
    carrier: float = 1176.45e6  # Hz
    coherent_integration: float = 0.020  # s

    def __post_init__(self):
        if self.code_rate <= 0.0 or self.carrier <= self.code_rate:
            raise ValueError("require carrier > code_rate > 0")
        if self.coherent_integration <= 0.0:
            raise ValueError("coherent integration time must be positive")

    def rate(self, space: Space) -> float:
        """The code rate (chips/s) in position space, the carrier (Hz) in velocity space."""
        return self.code_rate if space is Space.POSITION else self.carrier


@dataclass(frozen=True)
class SignalPath:
    """One propagation path of a satellite channel.

    Delay is in chips, Doppler bias in Hz, both relative to the line of
    sight; an LOS path has zero bias by definition.
    """

    kind: PathKind
    amplitude: float = 1.0
    delay_chips: float = 0.0
    doppler_hz: float = 0.0

    def __post_init__(self):
        if not self.amplitude >= 0.0:
            raise ValueError("path amplitude must be >= 0")
        if self.kind is PathKind.LOS and (self.delay_chips != 0.0 or self.doppler_hz != 0.0):
            raise ValueError("an LOS path cannot carry a delay or Doppler bias")

    def bias(self, space: Space) -> float:
        return self.delay_chips if space is Space.POSITION else self.doppler_hz


@dataclass(frozen=True)
class SatelliteChannel:
    """A satellite as seen by the receiver: its look angles and signal paths.

    The model reads a satellite only through its line-of-sight direction,
    so a channel keeps the angles and nothing else of where the satellite
    is.  Construct through :func:`make_channel`, which derives the angles
    from an authored position, authored angles, or both.
    """

    prn: int
    paths: tuple[SignalPath, ...]
    angles: LookAngles

    def __post_init__(self):
        if not self.paths:
            raise ValueError(f"PRN {self.prn}: channel needs at least one path")
        los = [p for p in self.paths if p.kind is PathKind.LOS]
        if len(los) > 1:
            raise ValueError(f"PRN {self.prn}: at most one LOS path per channel")
        if los and self.paths[0].kind is not PathKind.LOS:
            raise ValueError(f"PRN {self.prn}: the LOS path must come first")


def make_channel(
    receiver: EcefVector,
    prn: int,
    paths: Sequence[SignalPath],
    position: EcefVector | None = None,
    angles_deg: tuple[float, float] | None = None,
) -> SatelliteChannel:
    """Build a channel from an ECEF position, look angles, or both.

    When both are given the derived and authored angles must agree within
    ANGLE_CONSISTENCY_TOL, otherwise :class:`GeometryMismatchError` is
    raised.  Only the direction is used: a position's range is dropped.
    """
    if position is None and angles_deg is None:
        raise ValueError(f"PRN {prn}: need a position or look angles")
    if position is not None:
        derived = look_angles(ecef_to_enu(position, receiver))
        if angles_deg is not None:
            authored = LookAngles.from_degrees(*angles_deg)
            d_el = abs(authored.elevation - derived.elevation)
            d_az = fold_azimuth_separation(authored.azimuth, derived.azimuth)
            if d_el > ANGLE_CONSISTENCY_TOL or d_az > ANGLE_CONSISTENCY_TOL:
                raise GeometryMismatchError(
                    f"PRN {prn}: authored angles ({authored.elevation_deg:.3f}, "
                    f"{authored.azimuth_deg:.3f}) deg differ from position-derived "
                    f"({derived.elevation_deg:.3f}, {derived.azimuth_deg:.3f}) deg "
                    f"by more than {math.degrees(ANGLE_CONSISTENCY_TOL):.1f} deg"
                )
        angles = derived
    else:
        angles = LookAngles.from_degrees(*angles_deg)
    return SatelliteChannel(prn=prn, paths=tuple(paths), angles=angles)


@dataclass(frozen=True)
class GridSpec:
    """Square candidate-offset grid centered on the truth point.

    The sample count per axis is odd so the truth offset (0, 0) falls
    exactly on a node, and at most ``MAX_GRID_N``.
    """

    space: Space
    half_extent: float
    step: float

    def __post_init__(self):
        if self.step <= 0.0 or self.half_extent <= 0.0:
            raise ValueError("grid step and half extent must be positive")
        if not math.isfinite(self.half_extent / self.step):
            raise ValueError("grid half extent / step overflows a double")
        if round(self.half_extent / self.step) < 1:
            raise ValueError("grid must span at least one step from center")
        if self.n > MAX_GRID_N:
            raise ValueError(f"grid has {self.n} samples per axis, more than {MAX_GRID_N}")

    @property
    def n(self) -> int:
        return 2 * round(self.half_extent / self.step) + 1

    def axis(self):
        """The sample offsets of either axis, a float64 numpy array, 0 in the middle."""
        import numpy as np

        half = self.n // 2
        return (np.arange(self.n, dtype=float) - half) * self.step


@dataclass(frozen=True)
class Grid2D:
    """Correlation values on a grid, as a stream of row blocks.

    ``blocks`` yields the rows in order, top to bottom, as ``(rows, n)``
    arrays: row ``i`` holds the cells at north = axis[i], its column ``j``
    the cell at east = axis[j].  It may be a one-shot iterator that reuses
    its array, so a block is valid only until the next one is drawn.
    """

    spec: GridSpec
    blocks: Iterable


@dataclass(frozen=True, eq=False)
class Columns:
    """Table rows as columns: 1-D float or integer numpy arrays of the length ``len`` gives."""

    arrays: tuple

    def __len__(self) -> int:
        return len(self.arrays[0])


DEFAULT_GRIDS = (
    GridSpec(Space.POSITION, 100.0, 1.0),
    GridSpec(Space.VELOCITY, 100.0, 0.1),
)


@dataclass
class Scenario:
    """Signal plan, satellite channels in view, search grids and noise.

    The receiver position enters only through the channels' look angles,
    derived when the channels are made.
    """

    signal: SignalConfig = SignalConfig()
    satellites: tuple[SatelliteChannel, ...] = ()
    grids: tuple[GridSpec, ...] = DEFAULT_GRIDS
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.satellites = tuple(self.satellites)
        self.grids = tuple(self.grids)
        if not self.satellites:
            raise ValueError("scenario needs at least one satellite")
        prns = [s.prn for s in self.satellites]
        if len(set(prns)) != len(prns):
            raise ValueError(f"duplicate PRNs in scenario: {sorted(prns)}")
        if self.noise_sigma < 0.0:
            raise ValueError("noise sigma must be >= 0")
        spaces = [g.space for g in self.grids]
        if len(set(spaces)) != len(spaces):
            raise ValueError("at most one grid spec per space")

    def grid_for(self, space: Space) -> GridSpec:
        return next(g for g in (*self.grids, *DEFAULT_GRIDS) if g.space is space)
