"""CSV emission shared by every module that exports tables.

One formatting rule everywhere: floats carry 9 significant digits,
integers print as plain digits, missing values as empty cells. Keeping
the rule in one place is what makes simulation exports byte-stable.
"""

from __future__ import annotations

import csv
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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_event_columns(path: str | Path, header: Sequence[str], t, codes, labels,
                        ids) -> None:
    """write_csv's bytes for rows (t, labels[code], id) whose labels need no
    quoting. All four are numpy arrays, so labels[codes] gathers a chunk at
    once without this module importing numpy. The cell types are known, so
    fmt's per-cell test is skipped."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(t), 65536):  # chunks bound the text held at once
            part = slice(lo, lo + 65536)
            rows = zip(t[part].tolist(), labels[codes[part]].tolist(), ids[part].tolist())
            fh.write("".join([f"{x:.9g},{k},{i}\n" for x, k, i in rows]))
