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
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geom import EcefVector, EnuVector, GeometryError, LookAngles, ecef_to_enu, look_angles

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Sign convention tying the correlation model to the tangent-line geometry:
# a positive path delay (Doppler bias) moves the correlation ridge to the far
# side of the truth point, away from the satellite azimuth.  The ridge line
# satisfies u_hat . offset = RIDGE_OFFSET_SIGN * projected_bias, and the
# delay/Doppler mismatch functions below carry the matching sign.
RIDGE_OFFSET_SIGN = -1.0

# Provided angles and a provided position may disagree by at most this much.
ANGLE_CONSISTENCY_TOL = math.radians(0.1)

# Grid rows filled per kernel block: at n = 2001 each block temporary is
# about 2 MB, small enough to stay in cache between the fused passes.
_BLOCK_ROWS = 128


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
            d_az = abs(authored.azimuth - derived.azimuth) % (2.0 * math.pi)
            d_az = min(d_az, 2.0 * math.pi - d_az)
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
    exactly on a node.
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

    @property
    def n(self) -> int:
        return 2 * round(self.half_extent / self.step) + 1

    def axis(self) -> np.ndarray:
        half = self.n // 2
        return (np.arange(self.n) - half) * self.step


@dataclass(frozen=True)
class Grid2D:
    """Correlation values on a grid; ``values[i, j]`` is the cell at
    east = axis[j], north = axis[i]."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.spec.n
        if self.values.shape != (n, n):
            raise ValueError(f"values shape {self.values.shape} != ({n}, {n})")


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
        for g in self.grids:
            if g.space is space:
                return g
        for g in DEFAULT_GRIDS:
            if g.space is space:
                return g
        raise KeyError(space)


def _correlate(m: np.ndarray, space: Space, coherent_integration_s: float,
               work: np.ndarray | None = None, zero: np.ndarray | None = None) -> None:
    """Overwrite the mismatch array ``m`` with its correlation, in place.

    Position: the unit code triangle ``max(0, 1 - |m|)``.  Velocity:
    ``sinc(m * T)`` evaluated as ``sin(y) / y`` with ``y = (m * T) * pi`` and
    1.0 where ``y == 0``, which is ``np.sinc`` bit for bit (``pi * x`` is 0
    only for ``x == 0``, and ``sin(eps) / eps == 1.0``).  ``work`` (float) and
    ``zero`` (bool) are optional scratch arrays of ``m``'s shape.
    """
    if space is Space.POSITION:
        np.abs(m, out=m)
        np.subtract(1.0, m, out=m)
        np.maximum(0.0, m, out=m)
        return
    m *= coherent_integration_s
    m *= np.pi
    zero = np.equal(m, 0.0, out=zero)
    work = np.sin(m, out=work)
    with np.errstate(invalid="ignore"):  # 0/0 at the cells reset below
        np.divide(work, m, out=m)
    np.copyto(m, 1.0, where=zero)


def _mismatch_coef(channel: SatelliteChannel, signal: SignalConfig, space: Space) -> float:
    """Mismatch per meter of offset along the satellite azimuth (chips/m or Hz per m/s)."""
    rate = signal.code_rate if space is Space.POSITION else signal.carrier
    return -RIDGE_OFFSET_SIGN * rate / SPEED_OF_LIGHT * math.cos(channel.angles.elevation)


def mismatch(channel: SatelliteChannel, signal: SignalConfig, space: Space,
             offset: EnuVector) -> float:
    """Code-delay (chips) or Doppler (Hz) mismatch of a candidate horizontal offset.

    Linear in the offset (m in position space, m/s in velocity space): the
    rate per unit is (rate / c) * cos(elevation) along the satellite azimuth
    and zero across it, with the code rate as ``rate`` in position space and
    the carrier in velocity space.
    """
    a = channel.angles
    along = math.sin(a.azimuth) * offset.e + math.cos(a.azimuth) * offset.n
    return _mismatch_coef(channel, signal, space) * along


def channel_caf(grid: GridSpec, channel: SatelliteChannel, scenario: Scenario) -> Grid2D:
    """Cross-ambiguity surface of one channel over a candidate-offset grid.

    Sums the per-path correlation, each path's ridge displaced by its
    delay/Doppler bias.  With ``scenario.noise_sigma > 0`` adds i.i.d.
    Gaussian noise from a stream keyed by (seed, prn, space); each cell's
    draw is fixed by its (row, col) index, independent of evaluation order.

    The grid is filled in blocks of ``_BLOCK_ROWS`` rows, spread over the
    CPUs this process may run on; every cell's value is independent of the
    blocking and of the worker count.
    """
    n = grid.n
    axis = grid.axis()
    a = channel.angles
    north = math.cos(a.azimuth) * axis
    east = math.sin(a.azimuth) * axis
    coef = _mismatch_coef(channel, scenario.signal, grid.space)
    paths = [(p.bias(grid.space), p.amplitude) for p in channel.paths]
    t_coh = scenario.signal.coherent_integration
    values = np.zeros((n, n))
    workers = _worker_count(-(-n // _BLOCK_ROWS))
    # Scratch is allocated here, not in the workers: freed into this thread's
    # heap it is reused by later allocations, while a worker thread's malloc
    # arena keeps it resident (measured: 2.5 MB more peak RSS for `caf` on a
    # 1001^2 velocity grid).
    shape = (min(_BLOCK_ROWS, n), n)
    scratch = [(np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
               for _ in range(workers)]
    _run_shares(workers, lambda share: _fill_rows(
        values, share, workers, north, east, coef, paths, grid.space, t_coh, scratch[share]))
    if scenario.noise_sigma > 0.0:
        rng = np.random.default_rng([scenario.seed, channel.prn, _space_key(grid.space)])
        with np.errstate(over="ignore"):  # a huge sigma is reported by superpose_and_argmax
            values += scenario.noise_sigma * rng.standard_normal((n, n))
    return Grid2D(grid, values)


def _fill_rows(values, share, shares, north, east, coef, paths, space, coherent_integration_s,
               scratch):
    """Add every path's correlation into blocks ``share, share + shares, ...``.

    Row ``i`` of the mismatch plane is ``coef * (cos(az) * axis[i] +
    sin(az) * axis)``; the addition is written the other way round from the
    point formula ``sin(az) * e + cos(az) * n``, which IEEE addition does not
    notice.  ``scratch`` holds three float arrays and one bool array of one
    block's shape, used by this share alone.
    """
    n_rows = values.shape[0]
    plane, m, work, zero = scratch
    for lo in range(share * _BLOCK_ROWS, n_rows, shares * _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_rows)
        k = hi - lo
        np.add.outer(north[lo:hi], east, out=plane[:k])
        plane[:k] *= coef
        for bias, amplitude in paths:
            np.add(plane[:k], bias, out=m[:k])
            _correlate(m[:k], space, coherent_integration_s, work[:k], zero[:k])
            m[:k] *= amplitude
            values[lo:hi] += m[:k]


def _worker_count(n_blocks: int) -> int:
    """Threads for ``n_blocks`` blocks: one per usable CPU, at most one per block."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_blocks))


def _run_shares(workers: int, fill) -> None:
    """Call ``fill(share)`` for each share in ``range(workers)``, share 0 inline.

    The numpy loops inside release the interpreter lock, so the shares run
    in parallel.  The first exception raised by any share is re-raised here
    after every thread has finished.
    """
    errors: list[BaseException] = []

    def run(share: int) -> None:
        try:
            fill(share)
        except BaseException as e:  # re-raised in the calling thread below
            errors.append(e)

    threads = []
    try:
        for share in range(1, workers):
            threads.append(threading.Thread(target=run, args=(share,)))
            threads[-1].start()
        run(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _space_key(space: Space) -> int:
    return 0 if space is Space.POSITION else 1


def scenario_caf(scenario: Scenario, space: Space) -> list[Grid2D]:
    """Per-channel CAF grids for every satellite in the scenario."""
    spec = scenario.grid_for(space)
    return [channel_caf(spec, ch, scenario) for ch in scenario.satellites]


def superpose_and_argmax(grids: Sequence[Grid2D]) -> tuple[EnuVector, float, np.ndarray]:
    """Sum per-channel grids and locate the maximum.

    Exact value ties resolve to the smallest offset norm, then to the
    lexicographically smallest (row, col).  Returns the winning offset (the
    ``u`` component is always 0), the peak value and the summed values.
    Raises ``ValueError`` when the sum holds a NaN or an infinity.
    """
    if not grids:
        raise ValueError("need at least one grid")
    spec = grids[0].spec
    for g in grids[1:]:
        if g.spec != spec:
            raise ValueError("grids must share one spec")
    total = grids[0].values.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        for g in grids[1:]:
            total += g.values
    peak = float(total.max())
    if not (math.isfinite(peak) and math.isfinite(total.min())):
        raise ValueError(
            "summed CAF grid is not finite (NaN or infinite cells); noise_sigma or a path"
            " amplitude is too large for a double"
        )
    axis = spec.axis()
    rows, cols = np.nonzero(total == peak)
    best = min((axis[j] ** 2 + axis[i] ** 2, i, j) for i, j in zip(rows, cols))
    _, i, j = best
    return EnuVector(float(axis[j]), float(axis[i]), 0.0), peak, total
