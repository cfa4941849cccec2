"""The one JSON artifact format: two-space indent, sorted keys, final newline.

Manifests, train records, sensitivity reports, model checkpoints and
dataset sidecars are all written here, so their bytes are reproducible.
"""

from __future__ import annotations

import json


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
