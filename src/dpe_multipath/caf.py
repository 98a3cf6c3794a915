"""Correlator kernels on candidate-offset grids, in numpy.

Each satellite channel contributes a cross-ambiguity surface over a 2D grid
of horizontal candidate offsets from the truth point: code-delay mismatch in
position space, Doppler mismatch in velocity space.  A multipath channel is a
superposition of signal paths, each shifting the correlation ridge by its own
delay/Doppler bias.  A one-path, noiseless channel's ridge line is fitted
here too, from a few cells per scanline; no other module evaluates a
correlation cell.  The model these kernels read (channels, signal plan,
grids, scenario) is :mod:`dpe_multipath.model`, which needs no numpy; this
module loads numpy, and the CLI imports it only in the commands that fill
grids or read ridges.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Iterator

import numpy as np

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


def mismatch(channel: SatelliteChannel, signal: SignalConfig, space: Space, east, north):
    """Code-delay (chips) or Doppler (Hz) mismatch of candidate horizontal offsets.

    ``east`` and ``north`` are numbers or arrays that broadcast together.
    Linear in the offset (m in position space, m/s in velocity space): the
    rate per unit is (rate / c) * cos(elevation) along the satellite azimuth
    and zero across it, with ``rate`` from :meth:`SignalConfig.rate`.
    """
    az = channel.angles.azimuth
    coef = (-RIDGE_OFFSET_SIGN * signal.rate(space) / SPEED_OF_LIGHT
            * math.cos(channel.angles.elevation))
    return (math.cos(az) * north + math.sin(az) * east) * coef


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
    offset ``(e, n)`` and the peak value; :meth:`add` raises ``ValueError``
    when a block holds a NaN or an infinity.
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

    def result(self) -> tuple[tuple[float, float], float]:
        _, row, col = self.best
        return (float(self.axis[col]), float(self.axis[row])), self.peak


# Ridge readout: positions read on each side of a scanline's ridge crossing;
# a bound on sinc outside its main lobe (at most 0.1284 there, and -0.2172 at
# the first sidelobe); the margin, of the path amplitude, a certificate clears;
# the fit's cut, as a fraction of the grid maximum.
_WINDOW = 3
_SIDELOBE = 0.2172
_MARGIN = 1e-9
_KEEP = 0.5


def _scanline_readout(spec: GridSpec, channel: SatelliteChannel, signal: SignalConfig,
                      per_column: bool, stats: Counter) -> tuple[np.ndarray, np.ndarray]:
    """Argmax index and peak of each column (or row) of a one-path, noiseless grid.

    Reads what ``argmax`` over the channel's own grid would, without the
    grid.  The mismatch is linear along a scanline (and weakly monotone as
    computed, each step a monotone rounding), so its zero, the ridge
    crossing, is read once from the mismatch plus bias at the scanline's two
    ends; a crossing beyond either end puts the scanline off the grid.  Each
    scanline is first evaluated in a window of ``2 * _WINDOW + 1`` cells
    around its crossing by :func:`_add_channel`, the grid's own evaluator,
    so each cell has its grid bits.  The floor bounds the values off the
    main lobe: 0 (code triangle) or ``_SIDELOBE`` of the amplitude (sinc).
    A window is used if its maximum clears by ``_MARGIN`` the floor and both
    window ends that are not grid edges; or if the scanline is off the grid
    and the window is at most the floor, as then is the scanline, whose
    peak reads ``-inf`` (below the fit's cut) once a certified peak exceeds
    the floor over ``_KEEP``.  Other scanlines are evaluated in full.
    ``stats`` counts cells and outcomes.
    """
    n = spec.n
    axis = spec.axis()
    (path,) = channel.paths
    amplitude = path.amplitude

    def east_north(lines, pos):
        return (axis[lines, None], axis[pos]) if per_column else (axis[pos], axis[lines, None])

    def peaks_of(lines, lo, width):
        pos = lo[:, None] + np.arange(width)
        v = np.zeros(pos.shape)
        _add_channel(v, channel, signal, spec.space, *east_north(lines, pos))
        stats["cells"] += v.size
        at = np.arange(len(lines)), v.argmax(axis=1)
        return pos[at], v[at], v

    lines = np.arange(n)
    m0, m1 = (mismatch(channel, signal, spec.space, *east_north(lines, np.array([0, n - 1])))
              + path.bias(spec.space)).T
    with np.errstate(all="ignore"):  # NaN on the ridge, +-inf parallel to it
        cross = m0 / (m0 - m1) * (n - 1)
    away = (cross < 0) | (cross > n - 1)
    cross = np.rint(np.fmax(np.fmin(cross, n), -1.0))  # NaN lands at n
    width = min(2 * _WINDOW + 1, n)
    lo = np.clip(cross - _WINDOW, 0, n - width).astype(int)
    idx, peak, v = peaks_of(lines, lo, width)
    floor = amplitude * _SIDELOBE if spec.space is Space.VELOCITY else 0.0
    inner = np.where([lo > 0, lo + width < n], v[:, [0, -1]].T, -np.inf).max(axis=0)
    certified = peak - amplitude * _MARGIN > np.maximum(inner, floor)
    off = away & ~certified & (peak <= floor) & (
        peak[certified].max(initial=-np.inf) > floor / _KEEP)
    peak[off] = -np.inf
    redo = ~(certified | off)
    if redo.any():
        idx[redo], peak[redo], _ = peaks_of(lines[redo], 0 * lines[redo], n)
    stats.update(certified=int(certified.sum()), off_grid=int(off.sum()), full=int(redo.sum()))
    return idx, peak


def ridge_line(spec: GridSpec, channel: SatelliteChannel, signal: SignalConfig,
               stats: Counter) -> tuple[tuple, float, tuple]:
    """Implicit line (a, b, c) with a*e + b*n = c fitted to a channel's ridge.

    The channel has one path and no noise.  Its grid's columns, then rows,
    are read by :func:`_scanline_readout` (into ``stats``); the largest peak
    is the grid maximum.  Scanlines whose peak sits on the boundary or below
    ``_KEEP`` of that maximum are dropped (rejects sinc sidelobes), least
    squares runs over each scan orientation, the better residual wins.
    Returns the line, with a unit normal (a, b), its RMS residual and the
    scanlines kept per orientation.
    """
    axis = spec.axis()
    n = spec.n
    scanlines = [_scanline_readout(spec, channel, signal, per_column, stats)
                 for per_column in (True, False)]
    vmax = max(float(peaks.max()) for _, peaks in scanlines)
    if vmax <= 0.0:
        raise ValueError("grid has no positive ridge")
    fits = []
    kept = []
    for per_column, (idx, peaks) in zip((True, False), scanlines):
        keep = (idx > 0) & (idx < n - 1) & (peaks >= _KEEP * vmax)
        kept.append(int(np.count_nonzero(keep)))
        if kept[-1] < 8:
            continue
        t = axis[keep]
        s = axis[idx[keep]]
        slope, intercept = np.polyfit(t, s, 1)
        resid = float(np.sqrt(np.mean((s - (slope * t + intercept)) ** 2)))
        norm = math.hypot(slope, 1.0)
        if per_column:  # n = slope*e + intercept
            abc = (slope / norm, -1.0 / norm, -intercept / norm)
        else:  # e = slope*n + intercept
            abc = (1.0 / norm, -slope / norm, intercept / norm)
        fits.append((resid, abc))
    if not fits:
        raise ValueError("no usable ridge scanlines in grid")
    resid, abc = min(fits)
    return abc, resid, tuple(kept)
