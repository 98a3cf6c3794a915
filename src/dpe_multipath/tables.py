"""Table files: the CSV and JSON text of a :class:`ResultTable`, in a file or on stdout.

CSV spells float cells as ``format(v, '.6g')``; JSON is ``json.dumps(..., indent=2)`` at
full precision, with one head, row shape and close for every form.  No numpy is imported
here: the CSV of a ``Columns`` or ``Grid2D`` comes from :mod:`gridtext`'s word kernel.
"""
from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .model import Columns, Grid2D

# A JSON table row and cell separator as ``json.dumps(..., indent=2)`` lays them out.
_JSON_ROW = ",\n    [\n      %s\n    ]"
_JSON_CELL_SEP = ",\n      "

# Cells of a grid or column table spelled at once in JSON: at most 107 bytes each (two
# labels and a value of up to 24 characters, and 35 of row shape), so a part's text and
# its template stay under glibc's 128 KiB mmap threshold, as CSV parts do.  Whole rows
# of a 2001-wide grid raised the peak RSS of ``caf`` in JSON by 11 MB.
_JSON_PART_CELLS = 1024


@dataclass(frozen=True)
class ResultTable:
    """A table: named+united columns, uniform rows, one-line note, and the summary of
    the run that filled it.

    ``rows`` is a tuple of row tuples, whose cells are ``str``, ``int`` or
    ``float``; or a ``model.Columns`` of float and integer arrays, one per
    column; or, for three columns, a ``model.Grid2D``, written as the rows
    ``(east, north, value)`` with north as the outer index and east as the
    inner one.  A grid's blocks are spelled as they are drawn, each before
    the next is drawn, so a one-shot grid can be written once.  ``summary``
    holds a driver's statistics for its caller; no format writes it.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...] | Columns | Grid2D
    note: str = ""
    summary: dict | None = None

    def __post_init__(self):
        if isinstance(self.rows, Grid2D):
            if len(self.columns) != 3:
                raise ValueError(f"grid rows need 3 columns, got {len(self.columns)}")
            return
        if isinstance(self.rows, Columns):
            if len(self.rows.arrays) != len(self.columns) or len({*map(len, self.rows.arrays)}) > 1:
                raise ValueError("columns differ from the column count or in length")
            return
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("row width differs from column count")

    def to_csv(self) -> str:
        return "".join(self._pieces("csv"))

    def to_json(self) -> str:
        return "".join(self._pieces("json"))

    def _pieces(self, fmt: str) -> Iterator[str]:
        """The file text: a head, the rows, each JSON row led by its separator, and a JSON close."""
        if fmt == "csv":
            yield ",".join(self.columns) + "\n"
            if isinstance(self.rows, (Columns, Grid2D)):  # spelled by the numpy word kernel
                from .gridtext import _TEXTS
                yield from _TEXTS[type(self.rows)](self.rows)
            else:
                yield from (",".join(map(_csv_cell, row)) + "\n" for row in self.rows)
            return
        if isinstance(self.rows, Grid2D):
            rows = _json_grid_texts(self.rows)
        elif isinstance(self.rows, Columns):
            rows = _json_column_texts(self.rows)
        else:
            rows = (_JSON_ROW % json.dumps(row, separators=(_JSON_CELL_SEP, ": "))[1:-1]
                    for row in self.rows)
        yield json.dumps({"note": self.note, "columns": list(self.columns), "rows": []},
                         indent=2)[:-len("]\n}")]  # the rows go where the empty list stands
        first = next(rows, "")
        yield first[1:]
        yield from rows
        yield "\n  ]\n}\n" if first else "]\n}\n"


def _csv_cell(v) -> str:
    return format(v, ".6g") if isinstance(v, float) else str(v)


def _json_text(template: str, cells: tuple) -> str:
    """``template``'s ``%r`` filled with ``cells``, which is ``float.__repr__`` as
    ``json`` writes finite floats, then NaN and infinities, the only ``n`` in
    rows of numbers, respelled as ``json`` writes them."""
    text = template % cells
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _json_grid_texts(grid: Grid2D) -> Iterator[str]:
    """JSON grid rows, as each block of rows arrives, ``_JSON_PART_CELLS`` cells at a time.

    The axis labels are spelled once, into one template per part of a row;
    each grid row fills in its north label and formats only its values.
    """
    labels = [json.dumps(x) for x in grid.spec.axis().tolist()]
    cells = [_JSON_ROW % _JSON_CELL_SEP.join((x, "\0", "%r")) for x in labels]
    spans = range(0, len(cells), _JSON_PART_CELLS)
    templates = ["".join(cells[lo:lo + _JSON_PART_CELLS]) for lo in spans]
    north = iter(labels)
    return itertools.starmap(_json_text, (
        (template.replace("\0", label), tuple(values[lo:lo + _JSON_PART_CELLS].tolist()))
        for block in grid.blocks
        for values, label in zip(block, north)  # the block first: it ends the zip
        for lo, template in zip(spans, templates)))


def _json_column_texts(columns: Columns) -> Iterator[str]:
    """JSON rows of a column table, whole rows of ``_JSON_PART_CELLS`` cells at a time."""
    row = _JSON_ROW % _JSON_CELL_SEP.join(["%r"] * len(columns.arrays))
    rows = max(1, _JSON_PART_CELLS // len(columns.arrays))
    parts = ([a[lo:lo + rows] for a in columns.arrays] for lo in range(0, len(columns), rows))
    return itertools.starmap(_json_text, (
        (row * len(part[0]), tuple(itertools.chain(*zip(*(a.tolist() for a in part)))))
        for part in parts))


def write_table(table: ResultTable, outdir: Path, stem: str, fmt: str) -> Path:
    return write_text(outdir, f"{stem}.{fmt}", table._pieces(fmt))


def write_text(outdir: Path, name: str, pieces: Iterable[str]) -> Path:
    """Write ``pieces`` to ``outdir/name``; if they or the write fail, remove the file."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    f = path.open("w", encoding="utf-8")
    try:
        with f:
            f.writelines(pieces)
    except BaseException as e:
        path.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename is None:  # a write's or close's error
            e.filename = str(path)
        raise
    return path


def print_table(table: ResultTable) -> None:
    sys.stdout.writelines(itertools.islice(table._pieces("csv"), 41))
    if len(table.rows) > 40:
        print(f"... ({len(table.rows)} rows total)")
