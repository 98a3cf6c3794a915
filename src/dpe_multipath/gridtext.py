"""Grid table text in numpy: the JSON and CSV rows of a ``Grid2D``, a block at a time.

:class:`cli.ResultTable` imports this module only to write a grid, so the
commands that write no grid start without numpy.  Every cell is spelled as
the tuple-row writer spells it: CSV as ``cli._csv_cell`` (``format(v,
'.6g')``), JSON as ``float.__repr__``.
"""
from __future__ import annotations

import functools
import json
from typing import Callable, Iterator

import numpy as np

from .cli import _csv_cell
from .model import Grid2D


def _json_grid_texts(grid: Grid2D) -> Iterator[str]:
    """JSON grid rows, one grid row at a time, as each block of rows arrives.

    The axis labels are spelled once; each grid row fills its north label
    into one template and formats only its values, with ``%r``, which is
    ``float.__repr__`` as ``json`` writes finite floats.  Each JSON row
    starts with its separator, which the first one drops.
    """
    labels = [json.dumps(x) for x in grid.spec.axis().tolist()]
    template = "".join(",\n    [\n      " + x + ",\n      \0,\n      %r\n    ]" for x in labels)
    north = iter(labels)
    start = 1
    for block in grid.blocks:
        for values, label in zip(block, north):  # the block first: it ends the zip
            text = template.replace("\0", label) % tuple(values.tolist())
            if not np.isfinite(values).all():
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            yield text[start:]
            start = 0


# CSV grid cells are spelled by a numpy kernel, a block of grid rows at a
# time, into one record per cell of little-endian 8-byte words: the east
# label and comma, the north label and comma, then two value words.  Zero
# bytes pad every field and are deleted when a block becomes text.
_WORD = np.dtype("<u8")

# Bytes of records spelled at once.  Under glibc's 128 KiB mmap threshold, as
# the grid fill's blocks are (``caf._BLOCK_ROWS``), so the record buffer and
# the part's temporaries come from the heap: a 1001-wide grid is spelled 4
# rows at a time, a 2001-wide one 2.
_CSV_BLOCK_BYTES = 127 * 1024

# By exponent index ``i = floor(log10|v|) + 5`` clipped to 0..11, so that
# ``X = i - 5`` is the decimal exponent: the exact power of ten that scales
# ``|v|`` to a 6-digit mantissa.  Index 0 (``|v|`` below about 1e-4, zero,
# NaN) scales to 0, which leaves no mantissa in range; index 11 scales like
# index 10.
_MANTISSA_SCALE = np.array([0.0] + [float(10 ** k) for k in range(9, -1, -1)] + [1.0])


def _ascii_words(texts: list[str], width: int = 1) -> np.ndarray:
    """``texts`` as rows of ``width`` zero-padded words."""
    return np.frombuffer("".join(t.ljust(8 * width, "\0") for t in texts).encode("ascii"),
                         _WORD).reshape(len(texts), width)


# The first value word, by ``i`` plus 12 for a negative sign: the sign, and
# the ``0.`` and zeros that lead a fraction; a lone ``0`` for zero.
_CSV_LEAD = _ascii_words([sign + lead for sign in ("", "-")
                          for lead in ["0"] + ["0." + "0" * k for k in range(3, -1, -1)]
                          + [""] * 7]).ravel()


@functools.cache
def _csv_digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The second value word, from the mantissa's two digit triples.

    For mantissa ``hi * 1000 + lo`` at exponent index ``i``, the word is
    ``high[high_base[i] + hi + 1000 * (lo == 0)] | low[low_base[i] + lo]``:
    the six digits with the point where ``X`` puts it, less trailing
    fraction zeros and a bare point, and the newline in the top byte.  The
    high triple's own trailing zeros end the fraction only when ``lo`` is 0.
    Built on first use (a few ms).
    """
    triples = [f"{k:03d}" for k in range(1000)]

    def whole(t: str) -> str:
        return t

    def fraction(t: str) -> str:  # the last digits of the fraction
        return t.rstrip("0")

    def point(k: int, last: bool) -> Callable[[str], str]:
        """The triple with the point after its first ``k`` digits."""
        def spell(t: str) -> str:
            tail = fraction(t[k:]) if last else t[k:]
            return t[:k] + ("." + tail if tail else "")
        return spell

    def words(spell: Callable[[str], str], after: int = 0) -> np.ndarray:
        return _ascii_words([spell(t) for t in triples]).ravel() << np.uint64(8 * after)

    # by class, when lo is not 0 and when it is
    high = np.concatenate([words(spell) for spell in (
        whole, fraction,  # X < 0: all six digits are fraction digits
        point(1, False), point(1, True),  # X = 0
        point(2, False), point(2, True),  # X = 1
        whole, whole,  # X >= 2: all three are integer digits
    )])
    low = np.concatenate([
        words(fraction, 3),  # X < 0
        words(fraction, 4),  # X = 0, 1: after the high triple and its point
        words(point(0, True), 3),  # X = 2
        words(point(1, True), 3),  # X = 3
        words(point(2, True), 3),  # X = 4
        words(whole, 3),  # X = 5
    ])
    low |= np.uint64(ord("\n") << 56)
    #                            i: 0  1  2  3  4  5  6  7  8  9 10 11
    high_base = 2000 * np.array([0, 0, 0, 0, 0, 1, 2, 3, 3, 3, 3, 3])
    low_base = 1000 * np.array([0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 5])
    return high, low, high_base, low_base


def _csv_value_words(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Spell each cell of ``values`` into its value words ``out[..., 0]`` and ``out[..., 1]``.

    The words hold ``format(v, '.6g') + '\\n'`` among zero bytes for every
    cell the kernel can prove: zero, and a finite value in fixed-point form
    (exponent -4 to 5 after rounding) whose mantissa, scaled by an exact
    power of ten, is not a rounding tie.  Returns the flat indices of the
    other cells, whose words are left undefined.
    """
    high, low, high_base, low_base = _csv_digit_tables()
    with np.errstate(divide="ignore", invalid="ignore"):  # zero, NaN and infinities
        a = np.abs(values)
        x = np.log10(a)
        x += 5.0
        np.fmax(x, 0.0, out=x)  # NaN, and -inf from zero, to index 0
        np.fmin(x, 11.0, out=x)
        i = x.astype(np.intp)
        p = np.multiply(a, _MANTISSA_SCALE.take(i), out=a)
        proven = p >= 1e5
        m = np.rint(p, out=x)
        proven &= m < 1e6
        # half-integers below 1e6 are doubles, so the rounded product p lies
        # on the same side of each as the exact product, or on it: only a p
        # that is a tie may round otherwise than the exact value
        np.subtract(p, m, out=p)
        proven &= np.abs(p, out=p) < 0.5
        proven |= values == 0.0
        mantissa = m.astype(np.intp)  # garbage where not proven
    hi = mantissa // 1000
    lo = hi * -1000
    lo += mantissa
    np.add(hi, 1000, out=hi, where=lo == 0)
    hi += high_base.take(i)
    lo += low_base.take(i)
    digits = high.take(hi, mode="clip")
    digits |= low.take(lo, mode="clip")
    out[..., 1] = digits
    np.add(i, 12, out=i, where=np.signbit(values))
    out[..., 0] = _CSV_LEAD.take(i)
    return np.flatnonzero(~proven)


def _csv_grid_texts(grid: Grid2D) -> Iterator[str]:
    """CSV grid rows, each cell as ``format(v, '.6g')``.

    Each block is spelled as it arrives, in parts of at most
    ``_CSV_BLOCK_BYTES`` of records.  Cells the kernel cannot prove are
    spelled by :func:`_csv_cell` into their record, so every cell equals it
    by construction.
    """
    labels = [_csv_cell(x) + "," for x in grid.spec.axis().tolist()]
    n = len(labels)
    width = -(-max(map(len, labels)) // 8)  # words per label
    words = _ascii_words(labels, width)
    record = 8 * (2 * width + 2)
    rows = max(1, _CSV_BLOCK_BYTES // (n * record))
    buf = bytearray(min(rows, n) * n * record)
    records = np.frombuffer(buf, _WORD).reshape(-1, n, 2 * width + 2)
    records[:, :, :width] = words
    north = 0  # grid row of the next part
    for block in grid.blocks:
        for lo in range(0, len(block), rows):
            part = block[lo:lo + rows]
            here = records[:len(part)]
            here[:, :, width:2 * width] = words[north:north + len(part), None, :]
            north += len(part)
            left = _csv_value_words(part, here[:, :, -2:])
            for k, v in zip(left.tolist(), part.ravel()[left].tolist()):
                at = (k + 1) * record - 16  # the two value words end the record
                buf[at:at + 16] = (_csv_cell(v) + "\n").encode("ascii").ljust(16, b"\0")
            text = buf if len(part) == len(records) else buf[:len(part) * n * record]
            yield text.translate(None, b"\0").decode("ascii")
