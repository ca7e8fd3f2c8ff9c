"""CSV emission shared by every module that exports tables.

One formatting rule everywhere: floats carry 9 significant digits,
integers print as plain digits, missing values as empty cells. Keeping
the rule in one place is what makes simulation exports byte-stable.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

_CHUNK_ROWS = 65536


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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_event_columns(path: str | Path, header: Sequence[str], t, codes, labels,
                        ids) -> None:
    """write_csv's bytes for rows (t, labels[code], id), with no Python step
    per row.

    t (float64), codes and ids are numpy arrays; labels is a sequence of
    strings that need no quoting, indexed by code. ids are non-negative and
    dense, as entity ids are: one string is formatted per id in
    0..max(ids). In each chunk a time is formatted only where its bits
    differ from the row before, and every cell is then a table lookup,
    joined in C.
    """
    import numpy as np  # only the simulating commands load numpy

    label_cells = np.array([f",{k}," for k in labels], dtype=object)
    id_cells = np.array([f"{i}\n" for i in range(int(ids.max(initial=-1)) + 1)], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(t), _CHUNK_ROWS):  # chunks bound the text held at once
            part = slice(lo, lo + _CHUNK_ROWS)
            tc = t[part]
            bits = tc.view(np.int64)  # 0.0 and -0.0 compare equal but print apart
            new = np.ones(len(tc), dtype=bool)
            new[1:] = bits[1:] != bits[:-1]
            first = tc[new].tolist()
            text = ("%.9g\n" * len(first)) % tuple(first)
            times = np.array(text.split("\n")[:-1], dtype=object)
            cells = np.empty(3 * len(tc), dtype=object)
            cells[0::3] = times[np.cumsum(new) - 1]
            cells[1::3] = label_cells[codes[part]]
            cells[2::3] = id_cells[ids[part]]
            fh.write("".join(cells.tolist()))
