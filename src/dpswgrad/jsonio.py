"""The artifact formats: JSON with a two-space indent, sorted keys and a
final newline (manifests, train records, sensitivity reports, model
checkpoints, dataset sidecars), and CSV tables (datasets and every CLI
table).  All are written here, so their bytes are reproducible.
"""

from __future__ import annotations

import json

import numpy as np


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# rows per write of a CSV table: a block's Python floats and text (about
# 50 KiB at two values per row) fit in memory the process already holds,
# where 4096 rows raised the peak RSS of a paper-scale run by 0.25 MiB
_WRITE_ROWS = 512


def write_csv(path, header: list, values, lead=None) -> None:
    """A CSV table as ``csv.writer`` writes it, lines ending in ``\\r\\n``:
    the header, then per row of ``values`` (r, k) the text ``lead[i]``,
    when ``lead`` is given, and the values with 17 significant digits,
    each block of ``_WRITE_ROWS`` rows in one formatted string."""
    k = values.shape[1]
    row = ",".join(["%s"] * (lead is not None) + ["%.17g"] * k) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, values.shape[0], _WRITE_ROWS):
            block = values[lo:lo + _WRITE_ROWS]
            if lead is not None:
                cells = np.empty((block.shape[0], k + 1), dtype=object)
                cells[:, 0] = lead[lo:lo + _WRITE_ROWS]
                cells[:, 1:] = block
                block = cells
            fh.write(row * block.shape[0] % tuple(block.ravel()))
