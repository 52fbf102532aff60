"""TSV and JSON report writers with embedded provenance.

Every report carries the full run configuration (seed and tool version
included) so any number in it can be regenerated. TSV files start with a
single ``#``-prefixed provenance line; columns and their order are fixed
per report type and documented in FORMATS.md. Floats are written with
shortest round-trip precision.

Rows are formatted by column, once: a column of floats is one
``map(float.__repr__, ...)``, a column of ints one ``map(int.__repr__,
...)``, a column of strings is its values, and only other columns go value
by value. A TSV is those texts joined by C-level ``str.join``; a text cell
holding a TAB, LF or CR would split its row, so it is a DataError. A JSON
report is exactly ``json.dumps(doc, indent=2)``; its encoder here works the
same way, filling one ``%``-template per dict from per-key columns when a
list's dicts share one key order. Both write `SLICE_ROWS` rows at a time,
so a report is never held whole as text. `write_tsv` returns the texts of
its float columns, which `write_json` reuses for the payload entry that
holds the same rows, so each number of a command is formatted once.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from urllib.parse import quote

from . import __version__
from .errors import DataError

#: Rows of a TSV, or items of a JSON list, written per `fh.write`.
SLICE_ROWS = 256
#: float.__repr__ of the non-finite floats -> their JSON spelling
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


TSV_UNSAFE = "holds a TAB, LF or CR, which a TSV cell cannot"


def tsv_unsafe(text: str) -> bool:
    """Whether `text` holds a TAB, LF or CR, which would split a TSV cell."""
    return "\t" in text or "\n" in text or "\r" in text


def _only_type(values: list):
    """The one type of every value in `values`, or None."""
    types = set(map(type, values))
    return types.pop() if len(types) == 1 else None


def _tsv_cells(column: str, rows: list[dict]) -> tuple[list[str], bool]:
    """The TSV cell texts of `column` in `rows`, and whether its values are
    all floats. A missing key or None gives an empty cell; a text cell
    holding a TAB, LF or CR is a DataError."""
    values = list(map(dict.get, rows, repeat(column)))
    kind = _only_type(values)
    if kind is not None and issubclass(kind, float):
        return list(map(float.__repr__, values)), True
    if kind is int:
        return list(map(int.__repr__, values)), False
    texts = values if kind is str else list(map(_cell, values))
    if tsv_unsafe("".join(texts)):
        bad = next(filter(tsv_unsafe, texts))
        raise DataError(f"report column {column!r}: cell {bad!r} {TSV_UNSAFE}")
    return texts, False


def write_tsv(
    path: str,
    columns: list[str],
    rows: list[dict],
    config: dict,
    extra: dict | None = None,
) -> dict[str, list[str]]:
    """Write the provenance line, the header and one line per row. Returns,
    for each column whose values are all floats, their `float.__repr__`
    texts: one LF-joined string per slice of `SLICE_ROWS` rows."""
    head = provenance(config)
    if extra:
        head.update(extra)
    floats: dict[str, list[str]] = {c: [] for c in columns}
    with _replaced(path) as fh:
        fh.write(f"# {json.dumps(head, sort_keys=True)}\n" + "\t".join(columns) + "\n")
        for start in range(0, len(rows), SLICE_ROWS):
            part = rows[start : start + SLICE_ROWS]
            cells = []
            for column in columns:
                texts, all_floats = _tsv_cells(column, part)
                cells.append(texts)
                if not all_floats:
                    floats.pop(column, None)
                elif column in floats:
                    floats[column].append("\n".join(texts))
            fh.write("\n".join(map("\t".join, zip(*cells))) + "\n")
    return floats


def write_json(
    path: str,
    payload: dict,
    config: dict,
    float_texts: dict[str, dict[str, list[str]]] | None = None,
) -> None:
    """Write provenance and `payload` as ``json.dumps(doc, indent=2)`` and
    LF. `float_texts` maps a payload key whose value is a list of row dicts
    to what `write_tsv` returned for those rows; the encoder takes those
    float texts instead of formatting the numbers again."""
    doc = {"provenance": provenance(config)}
    doc.update(payload)
    float_texts = float_texts or {}
    with _replaced(path) as fh:
        sep = "{"
        for key, value in doc.items():
            fh.write(f"{sep}\n  {_key(key)}: ")
            if isinstance(value, (list, tuple)):
                fh.writelines(_list_chunks(value, 1, float_texts.get(key)))
            else:
                fh.write(_encode(value, 1))
            sep = ","
        fh.write("\n}\n")


def dumps(value) -> str:
    """``json.dumps(value, indent=2)`` for every acyclic value."""
    return _encode(value, 0)


def _key(key) -> str:
    """A dict key as JSON: a str, or an int, float, bool or None as the
    string of its JSON text, as `json.dumps` writes it."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = _encode(key, 0)
    return encode_basestring_ascii(key)


def _json_floats(texts: list[str]) -> list[str]:
    """`float.__repr__` texts as JSON numbers: nan and inf are spelled NaN,
    Infinity and -Infinity; a finite float's repr has no "n"."""
    if "n" in "".join(texts):
        return [_NONFINITE.get(t, t) for t in texts]
    return texts


def _encode(value, level: int) -> str:
    """`value` as ``json.dumps(value, indent=2)`` writes it `level` levels deep."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, (list, tuple)):
        return "".join(_list_chunks(value, level))
    if isinstance(value, dict):
        return _dicts([value], level)[0] if value else "{}"
    # not JSON-serializable: json.dumps raises its TypeError
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _column(values: list, level: int, floats: dict[str, list[str]] | None = None) -> list[str]:
    """The JSON texts of `values`, each `level` levels deep: by type for a
    column of one scalar type or of dicts that share one key order, value
    by value otherwise. `floats` are float texts of the dicts' keys."""
    kind = _only_type(values)
    if kind is not None:
        if issubclass(kind, str):
            return list(map(encode_basestring_ascii, values))
        if issubclass(kind, float):
            return _json_floats(list(map(float.__repr__, values)))
        if issubclass(kind, int) and not issubclass(kind, bool):
            return list(map(int.__repr__, values))
        if issubclass(kind, dict) and values[0]:
            keys = tuple(values[0])
            if all(map(keys.__eq__, map(tuple, values))):
                return _dicts(values, level, floats)
    return [_encode(v, level) for v in values]


def _dicts(dicts: list[dict], level: int, floats: dict[str, list[str]] | None = None) -> list[str]:
    """The JSON texts of non-empty dicts that share one key order: one
    ``%``-template filled from the column of each key."""
    keys = tuple(dicts[0])
    inner = "\n" + "  " * (level + 1)
    template = (
        "{"
        + ",".join(inner + _key(k).replace("%", "%%") + ": %s" for k in keys)
        + "\n" + "  " * level + "}"
    )
    floats = floats or {}
    columns = [
        _json_floats(floats[k]) if k in floats
        else _column(list(map(itemgetter(k), dicts)), level + 1)
        for k in keys
    ]
    return list(map(template.__mod__, zip(*columns)))


def _list_chunks(
    items: list | tuple, level: int, floats: dict[str, list[str]] | None = None
) -> Iterator[str]:
    """A list `level` levels deep as JSON text, `SLICE_ROWS` items a chunk.
    `floats` are float texts of the items' keys when the items are dicts,
    as `write_tsv` returns them: one LF-joined string per chunk."""
    if not items:
        yield "[]"
        return
    inner = "\n" + "  " * (level + 1)
    sep = "[" + inner
    for i, start in enumerate(range(0, len(items), SLICE_ROWS)):
        part = {k: t[i].split("\n") for k, t in floats.items()} if floats else None
        yield sep + ("," + inner).join(
            _column(list(items[start : start + SLICE_ROWS]), level + 1, part)
        )
        sep = "," + inner
    yield "\n" + "  " * level + "]"


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
