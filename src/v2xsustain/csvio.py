"""CSV emission shared by every module that exports tables.

One formatting rule everywhere: floats carry 9 significant digits,
integers print as plain digits, missing values as empty cells. Keeping
the rule in one place is what makes simulation exports byte-stable.

`write_csv` takes a table as columns: text as it is, floats with None gaps in
one `%.9g` batch, other cells through `fmt`. It needs no numpy. The events
CSV writer, which keeps these bytes, is in `eventcsv`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def nan_to_none(column) -> list:
    """A numpy column as Python values, with None (an empty cell) for NaN."""
    return [None if v != v else v for v in column.tolist()]


def write_csv(path: str | Path, header: Sequence[str], columns: Iterable[Sequence]) -> None:
    """Write header and columns (no columns: no rows), each cell fmt(value),
    quoted as csv.writer(lineterminator="\n") quotes them; ValueError unless
    there is one column per header name and all are equally long."""
    columns = [tuple(c) for c in columns] or [()] * len(header)
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"{len(columns)} columns of {sorted(set(map(len, columns)))} "
                         f"cells under {len(header)} names")
    table = []
    for name, col in zip(header, columns):
        kinds = set(map(type, col))
        if col and kinds <= {float, type(None)}:  # one "%.9g" batch; None: an empty cell
            spec = "\n".join(["" if v is None else "%.9g" for v in col])
            col = (spec % tuple([v for v in col if v is not None])).split("\n")
        elif not kinds <= {str}:  # a column of text only is used as it is
            col = map(fmt, col)
        cells = [str(name), *col]
        joined = "".join(cells)
        if "," in joined or '"' in joined or "\n" in joined:  # quote only where needed
            cells = ['"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c
                     else c for c in cells]
        table.append(cells)
    if len(table) == 1:  # csv.writer writes a lone empty cell as ""
        table = [['""' if c == "" else c for c in table[0]]]
    lines = map(",".join, zip(*table)) if table else [""]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
