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
from contextlib import contextmanager
from urllib.parse import quote

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
    # json.dump streams its chunks; json.dumps would first hold all of them,
    # about 3 MB for the 0.6 MB results.json of the full registry.
    with _replaced(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_text(path: str, content: str) -> None:
    """Write a report or chart: UTF-8 with LF line endings."""
    with _replaced(path) as fh:
        fh.write(content)


@contextmanager
def _replaced(path: str):
    """A new file in the target's directory that replaces the target once
    written, so a reader sees the old report or the whole new one. When
    writing fails, the new file is removed and the old report is left as
    it was."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def escape_stem(text: str) -> str:
    """`text` as part of a file name: each character outside [A-Za-z0-9._-],
    `%` included, becomes `%XX` per UTF-8 byte, so `urllib.parse.unquote`
    reverses it."""
    return quote(text, safe="").replace("~", "%7E")


def ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
