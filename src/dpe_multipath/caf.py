"""Correlator kernels on candidate-offset grids, in numpy.

Each satellite channel contributes a cross-ambiguity surface over a 2D grid
of horizontal candidate offsets from the truth point: code-delay mismatch in
position space, Doppler mismatch in velocity space.  A multipath channel is a
superposition of signal paths, each shifting the correlation ridge by its own
delay/Doppler bias.  The model these kernels read (channels, signal plan,
grids, scenario) is :mod:`dpe_multipath.model`, which needs no numpy; this
module loads numpy, and the CLI imports it only in the commands that fill
grids.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .geom import EnuVector
from .model import (RIDGE_OFFSET_SIGN, SPEED_OF_LIGHT, Grid2D, GridSpec, SatelliteChannel,
                    Scenario, SignalConfig, Space)

# Grid rows filled per kernel block.  Up to n = 2047 each block temporary is
# under 128 KiB: it stays in cache between passes, and glibc's malloc serves
# it from the heap instead of mapping fresh pages for every block (measured
# on x86-64 Linux: 128-row blocks fault in about 90,000 more pages per
# 4 x 2001^2 fill).
_BLOCK_ROWS = 8


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
