"""TSV and JSON report writers with embedded provenance.

Every report carries the full run configuration (seed and tool version
included) so any number in it can be regenerated. TSV files start with a
single ``#``-prefixed provenance line; columns and their order are fixed
per report type and documented in FORMATS.md. Floats are written with
shortest round-trip precision.
"""

from __future__ import annotations

import json
import os

from . import __version__


def provenance(config: dict) -> dict:
    return {
        "tool": "framelens",
        "version": __version__,
        "config": {k: config[k] for k in sorted(config)},
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # repr(float) keeps numpy scalars, a float subclass, plain.
        return repr(float(value))
    return str(value)


def write_tsv(
    path: str,
    columns: list[str],
    rows: list[dict],
    config: dict,
    extra: dict | None = None,
) -> None:
    head = provenance(config)
    if extra:
        head.update(extra)
    lines = ["# " + json.dumps(head, sort_keys=True)]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_cell(row.get(c)) for c in columns))
    write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict, config: dict) -> None:
    doc = {"provenance": provenance(config)}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_text(path: str, content: str) -> None:
    """Write a report or chart: UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
