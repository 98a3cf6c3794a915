"""Table text in numpy: the JSON and CSV rows of a ``Grid2D`` or ``Columns``, a part at a time.

:class:`cli.ResultTable` imports this module only to write those forms, so the
commands that write neither start without numpy.  Every cell is spelled as
the tuple-row writer spells it: CSV as ``cli._csv_cell`` (``format(v,
'.6g')``, ``str`` of an integer), JSON as ``repr``, as ``json`` writes numbers.
"""
from __future__ import annotations

import functools
import itertools
import json
from typing import Callable, Iterator

import numpy as np

from .cli import _csv_cell
from .model import Columns, Grid2D

# Rows of a column table spelled at once: 3072 Monte Carlo rows, of 40 bytes
# each, keep a part's CSV records under ``_CSV_BLOCK_BYTES``.
_COLUMN_ROWS = 3072


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


def _json_column_texts(columns: Columns) -> Iterator[str]:
    """JSON rows of a column table, a part at a time, from one ``%r`` row template."""
    row = ",\n    [\n      " + ",\n      ".join(["%r"] * len(columns.arrays)) + "\n    ]"
    for lo in range(0, len(columns), _COLUMN_ROWS):
        part = [a[lo:lo + _COLUMN_ROWS] for a in columns.arrays]
        text = row * len(part[0]) % tuple(itertools.chain(*zip(*(a.tolist() for a in part))))
        if not all(np.isfinite(a).all() for a in part):
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield text[0 if lo else 1:]  # each JSON row starts with its separator


# CSV rows are spelled by a numpy kernel, a part of a table at a time, into
# one record per row of little-endian 8-byte words: a grid cell's east label
# and comma, north label and comma, then two value words, or a column table's
# cells.  Zero bytes pad every field and are deleted when a part becomes text.
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


def _csv_value_words(values: np.ndarray, out: np.ndarray, sep: str) -> np.ndarray:
    """Spell each cell of ``values`` into its value words ``out[..., 0]`` and ``out[..., 1]``.

    The words hold ``format(v, '.6g') + sep`` among zero bytes for every
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
    if sep != "\n":  # the newline that ends every low word
        digits ^= np.uint64((ord("\n") ^ ord(sep)) << 56)
    out[..., 1] = digits
    np.add(i, 12, out=i, where=np.signbit(values))
    out[..., 0] = _CSV_LEAD.take(i)
    return np.flatnonzero(~proven)


def _csv_texts(shape: tuple[int, ...], lead: np.ndarray, fields: list[tuple[int, str | None]],
               parts: Iterator[tuple]) -> Iterator[str]:
    """The text of each of ``parts``, spelled into one buffer of ``shape`` records.

    A record holds the words ``lead`` (a grid's east labels), then ``fields`` of
    ``(width, sep)``.  A part holds an array per field for its leading records:
    words if ``sep`` is None, else cells, which the kernel spells where it can
    prove them (an integer below 1e6 as the float it equals), ``_csv_cell`` elsewhere.
    """
    ends = list(itertools.accumulate([lead.shape[-1], *(width for width, _ in fields)]))
    buf = bytearray(8 * ends[-1] * int(np.prod(shape)))
    records = np.frombuffer(buf, _WORD).reshape(*shape, ends[-1])
    records[..., :ends[0]] = lead
    for part in parts:
        here = records[:len(part[-1])]
        for (width, sep), end, cells in zip(fields, ends[1:], part):
            out = here[..., end - width:end]
            if sep is None:
                out[...] = cells
                continue
            left = _csv_value_words(cells.astype(float, copy=False), out, sep)
            out[..., 2:] = 0  # what a long integer of the part before left
            if left.size:
                at = np.unravel_index(left, cells.shape)
                out[at] = _ascii_words([_csv_cell(v) + sep for v in cells[at].tolist()], width)
        text = buf if len(here) == len(records) else buf[:here.nbytes]
        yield text.translate(None, b"\0").decode("ascii")


def _csv_grid_texts(grid: Grid2D) -> Iterator[str]:
    """CSV grid rows, each cell as ``format(v, '.6g')``.

    Each block is spelled as it arrives, in parts of at most
    ``_CSV_BLOCK_BYTES`` of records.
    """
    labels = [_csv_cell(x) + "," for x in grid.spec.axis().tolist()]
    n = len(labels)
    width = -(-max(map(len, labels)) // 8)  # words per label
    words = _ascii_words(labels, width)
    rows = max(1, _CSV_BLOCK_BYTES // (n * 8 * (2 * width + 2)))

    def parts():
        north = 0  # grid row of the next part
        for block in grid.blocks:
            for lo in range(0, len(block), rows):
                part = block[lo:lo + rows]
                yield words[north:north + len(part), None], part
                north += len(part)

    return _csv_texts((min(rows, n), n), words, [(width, None), (2, "\n")], parts())


def _csv_column_texts(columns: Columns) -> Iterator[str]:
    """CSV rows of a column table: a cell takes two words, or as many as the sign,
    digits and separator of its column's longest integer."""
    widths = [2 if a.dtype.kind == "f"
              else max(2, (len(str(max(int(a.max(initial=0)), -int(a.min(initial=0))))) + 9) // 8)
              for a in columns.arrays]
    fields = list(zip(widths, [","] * (len(widths) - 1) + ["\n"]))
    parts = ([a[lo:lo + _COLUMN_ROWS] for a in columns.arrays]
             for lo in range(0, len(columns), _COLUMN_ROWS))
    return _csv_texts((min(_COLUMN_ROWS, len(columns)),), np.zeros(0, _WORD), fields, parts)


# The writer of each numpy table form, by form and format, for ``cli.ResultTable``.
_TEXTS = {(Grid2D, "csv"): _csv_grid_texts, (Grid2D, "json"): _json_grid_texts,
          (Columns, "csv"): _csv_column_texts, (Columns, "json"): _json_column_texts}
