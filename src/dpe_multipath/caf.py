"""Correlator-level signal model on candidate-offset grids.

Each satellite channel contributes a cross-ambiguity surface over a 2D grid
of horizontal candidate offsets from the truth point: code-delay mismatch in
position space, Doppler mismatch in velocity space.  A multipath channel is a
superposition of signal paths, each shifting the correlation ridge by its own
delay/Doppler bias.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geom import (EcefVector, EnuVector, GeometryError, LookAngles, ecef_to_enu,
                   fold_azimuth_separation, look_angles)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Sign convention tying the correlation model to the tangent-line geometry:
# a positive path delay (Doppler bias) moves the correlation ridge to the far
# side of the truth point, away from the satellite azimuth.  The ridge line
# satisfies u_hat . offset = RIDGE_OFFSET_SIGN * projected_bias, and the
# delay/Doppler mismatch functions below carry the matching sign.
RIDGE_OFFSET_SIGN = -1.0

# Provided angles and a provided position may disagree by at most this much.
ANGLE_CONSISTENCY_TOL = math.radians(0.1)

# Grid rows filled per kernel block.  Up to n = 2047 each block temporary is
# under 128 KiB: it stays in cache between passes, and glibc's malloc serves
# it from the heap instead of mapping fresh pages for every block (measured
# on x86-64 Linux: 128-row blocks fault in about 90,000 more pages per
# 4 x 2001^2 fill).
_BLOCK_ROWS = 8

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

    def axis(self) -> np.ndarray:
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
    blocks: Iterable[np.ndarray]


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


def _correlate(m: np.ndarray, space: Space, coherent_integration_s: float) -> None:
    """Overwrite the mismatch array ``m`` with its correlation, in place.

    Position: the unit code triangle ``max(0, 1 - |m|)``.  Velocity:
    ``sinc(m * T)`` evaluated as ``sin(y) / y`` with ``y = (m * T) * pi`` and
    1.0 where ``y == 0``, which is ``np.sinc`` bit for bit (``pi * x`` is 0
    only for ``x == 0``, and ``sin(eps) / eps == 1.0``).
    """
    if space is Space.POSITION:
        np.abs(m, out=m)
        np.subtract(1.0, m, out=m)
        np.maximum(0.0, m, out=m)
        return
    m *= coherent_integration_s
    m *= np.pi
    zero = m == 0.0
    with np.errstate(invalid="ignore"):  # 0/0 at the cells reset below
        np.divide(np.sin(m), m, out=m)
    np.copyto(m, 1.0, where=zero)


def _mismatch_coef(channel: SatelliteChannel, signal: SignalConfig, space: Space) -> float:
    """Mismatch per meter of offset along the satellite azimuth (chips/m or Hz per m/s)."""
    return (-RIDGE_OFFSET_SIGN * signal.rate(space) / SPEED_OF_LIGHT
            * math.cos(channel.angles.elevation))


def mismatch(channel: SatelliteChannel, signal: SignalConfig, space: Space, east, north):
    """Code-delay (chips) or Doppler (Hz) mismatch of candidate horizontal offsets.

    ``east`` and ``north`` are numbers or arrays that broadcast together.
    Linear in the offset (m in position space, m/s in velocity space): the
    rate per unit is (rate / c) * cos(elevation) along the satellite azimuth
    and zero across it, with ``rate`` from :meth:`SignalConfig.rate`.
    """
    az = channel.angles.azimuth
    return (math.cos(az) * north + math.sin(az) * east) * _mismatch_coef(channel, signal, space)


def _add_channel(out: np.ndarray, channel: SatelliteChannel, signal: SignalConfig,
                 space: Space, east, north) -> None:
    """Add the channel's noiseless correlation at offsets (``east``, ``north``) into ``out``.

    Path by path: ``out += amplitude * correlation(mismatch + bias)``.  The
    offsets broadcast to ``out``'s shape; a 0-d ``out`` takes one point.
    """
    plane = mismatch(channel, signal, space, east, north)
    for path in channel.paths:
        m = np.add(plane, path.bias(space), out=np.empty_like(out))
        _correlate(m, space, signal.coherent_integration)
        m *= path.amplitude
        out += m


def scenario_caf(scenario: Scenario, space: Space) -> Grid2D:
    """Cross-ambiguity surface summed over every satellite channel.

    Each channel sums its per-path correlation, each path's ridge displaced
    by its delay/Doppler bias.  With ``scenario.noise_sigma > 0`` a channel
    adds i.i.d. Gaussian noise from a stream keyed by (seed, prn, space),
    drawn in row-major cell order.  Channels are summed in order: the first
    channel's values, then each next channel's added to them.

    Blocks of ``_BLOCK_ROWS`` rows are filled as they are drawn, each channel
    evaluated into the reused sum block or a scratch block added to it, so a
    block is valid only until the next one is drawn and no grid is held;
    every cell's value is independent of the blocking.  Cells that overflow
    are left to :class:`_ArgmaxFold` to report.
    """
    spec = scenario.grid_for(space)
    return Grid2D(spec, _summed_blocks(scenario, space, spec))


def _summed_blocks(scenario: Scenario, space: Space, spec: GridSpec) -> Iterator[np.ndarray]:
    axis = spec.axis()
    total, scratch = np.empty((2, _BLOCK_ROWS, spec.n))
    rngs = [np.random.default_rng([scenario.seed, ch.prn, list(Space).index(space)])
            for ch in scenario.satellites] if scenario.noise_sigma > 0.0 else None
    for lo in range(0, spec.n, _BLOCK_ROWS):
        rows = slice(lo, min(lo + _BLOCK_ROWS, spec.n))
        block = total[:rows.stop - lo]
        with np.errstate(over="ignore", invalid="ignore"):  # not across the yield
            for k, ch in enumerate(scenario.satellites):
                out = scratch[:len(block)] if k else block
                out.fill(0.0)
                _add_channel(out, ch, scenario.signal, space, axis, axis[rows, None])
                if rngs:
                    out += scenario.noise_sigma * rngs[k].standard_normal(out.shape)
                if k:
                    block += out
        yield block


class _ArgmaxFold:
    """The maximum of a grid, folded over its row blocks: each block is added
    in order and read before the next is drawn (a block is valid only until then).

    Exact value ties resolve to the smallest offset norm, then to the
    lexicographically smallest (row, col).  :meth:`result` returns the winning
    offset (the ``u`` component is always 0) and the peak value; :meth:`add`
    raises ``ValueError`` when a block holds a NaN or an infinity.
    """

    def __init__(self, spec: GridSpec):
        self.axis = spec.axis()
        self.rows = 0  # grid row of the next block
        self.peak = -math.inf
        self.best = None  # the (norm, row, col)-least cell holding the peak

    def add(self, block: np.ndarray) -> np.ndarray:
        """Fold in the next block of rows and return it; raise if a cell is not finite."""
        row_peaks = block.max(axis=1)
        peak = float(row_peaks.max())
        if not (math.isfinite(peak) and math.isfinite(block.min())):
            raise ValueError(
                "summed CAF grid is not finite (NaN or infinite cells); noise_sigma or a path"
                " amplitude is too large for a double"
            )
        if peak > self.peak:
            self.peak, self.best = peak, None
        if peak == self.peak:
            # the rows that hold the peak, a few at a time: a flat grid ties every cell
            tied = np.flatnonzero(row_peaks == peak)
            for lo in range(0, tied.size, _BLOCK_ROWS):
                at = tied[lo:lo + _BLOCK_ROWS]
                rows, cols = np.nonzero(block[at] == peak)
                rows = self.rows + at[rows]
                norms = self.axis[cols] ** 2 + self.axis[rows] ** 2
                k = np.argmin(norms)  # tied cells come in row-major order, so the first least wins
                cell = (norms[k], rows[k], cols[k])
                self.best = cell if self.best is None else min(self.best, cell)
        self.rows += len(block)
        return block

    def result(self) -> tuple[EnuVector, float]:
        _, row, col = self.best
        return EnuVector(float(self.axis[col]), float(self.axis[row]), 0.0), self.peak
