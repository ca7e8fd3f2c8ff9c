"""CSV emission shared by every module that exports tables.

One formatting rule everywhere: floats carry 9 significant digits (inf
stays inf), integers print as plain digits, and None or NaN, the one
marker of a missing value, is an empty cell. Keeping the rule in one
place is what makes simulation exports byte-stable.

`write_csv` is the one writer, and it alone picks the route. It never
imports numpy. A table with a numpy column (anything with a `tolist`:
an array or `Codes`), two or more columns and 1024 cells or more goes to
`arraycsv.write_rows`, loaded on first use, which formats whole blocks of
cells with numpy and gives the same bytes. Any other table (lists, a
small numpy table, one column) is written here, a block of rows at a
time, value by value.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

_BLOCK_CELLS = 1 << 17  # cells formatted at once, so the writer's memory does not grow past them
_TABLE_CELLS = 1024  # a numpy table of fewer cells goes by value: arraycsv would cost more


class Codes:
    """A text column as integer codes into labels: row i's cell is
    labels[codes[i]], with codes a numpy integer array."""

    def __init__(self, codes, labels: Sequence[str]):
        self.codes, self.labels = codes, labels

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> Codes:
        return Codes(self.codes[rows], self.labels)

    def tolist(self) -> list:
        """The labels, one per row."""
        return [self.labels[k] for k in self.codes.tolist()]


class _Columns:
    """Dataclass fields of equally long columns: len counts the rows,
    iteration yields the columns in field order, and == matches NaN to NaN
    and a `Codes` column label by label."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __iter__(self):
        return (getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        import numpy as np  # only the columns' owners have loaded it

        if type(other) is not type(self):
            return NotImplemented
        return all((isinstance(b, Codes) and a.tolist() == b.tolist()) if isinstance(a, Codes)
                   else a == b if isinstance(a, list)
                   else np.array_equal(a, b, equal_nan=True) for a, b in zip(self, other))


def fmt(value) -> str:
    if value is None or value != value:  # NaN too
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], columns: Iterable[Sequence]) -> None:
    """Write header and columns (no columns: no rows), each cell fmt(value),
    quoted as csv.writer(lineterminator="\n") quotes them; ValueError unless
    there is one column per header name and all are equally long."""
    columns = [c if hasattr(c, "__len__") else tuple(c) for c in columns]
    columns = columns or [()] * len(header)
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"{len(columns)} columns of {sorted(set(map(len, columns)))} "
                         f"cells under {len(header)} names")
    block = max(1, _BLOCK_CELLS // max(len(columns), 1))
    n = len(columns[0]) if columns else 0
    with open(path, "wb") as fh:
        fh.write(_lines([[str(name)] for name in header]))
        if (len(columns) > 1 and n * len(columns) >= _TABLE_CELLS
                and any(hasattr(c, "tolist") for c in columns)):
            from .arraycsv import write_rows  # only a table it vectorises loads it

            write_rows(fh, columns, block)
            return
        for lo in range(0, n, block):
            fh.write(_lines([c[lo : lo + block] for c in columns]))


def _quoted(cells: list, lone: bool = False, joined: str | None = None) -> list:
    """Text cells as csv.writer writes them: quoted, quotes doubled, where
    they hold a comma, a quote or a newline; a lone empty cell is '""'.
    joined is the cells joined by any separator, when the caller has it."""
    joined = "".join(cells) if joined is None else joined
    if "," in joined or '"' in joined or "\n" in joined:  # quote only where needed
        cells = ['"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c
                 else c for c in cells]
    return ['""' if c == "" else c for c in cells] if lone else cells


def _lines(table: list) -> bytes:
    """A block of rows, given by column, as CSV lines; a numpy column or
    `Codes` gives its Python values by tolist."""
    for k, col in enumerate(table):
        col = col.tolist() if hasattr(col, "tolist") else col
        kinds = set(map(type, col))
        if kinds <= {float, type(None)}:  # one "%.9g" batch; None and NaN: empty
            spec = "\n".join(["%.9g" if v == v and v is not None else "" for v in col])
            col = (spec % tuple([v for v in col if v == v and v is not None])).split("\n")
        elif not kinds <= {str}:  # a column of text only is used as it is
            col = list(map(fmt, col))
        table[k] = _quoted(col, len(table) == 1)
    return ("\n".join(map(",".join, zip(*table))) + "\n").encode()
