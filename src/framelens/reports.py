"""TSV and JSON report writers with embedded provenance.

Every report carries the full run configuration (seed and tool version
included) so any number in it can be regenerated. TSV files start with a
single ``#``-prefixed provenance line; columns and their order are fixed
per report type and documented in FORMATS.md. Floats are written with
shortest round-trip precision.

Results travel as a `Table` of named columns, from the statistic to the
writers. Cells are formatted by column, once: a column of floats is one
``map(float.__repr__, ...)``, a column of ints one ``map(int.__repr__,
...)``, a column of strings is its values, and only other columns go value
by value. A TSV is those texts joined by C-level ``str.join``; a text cell
holding a TAB, LF or CR would split its row, so it is a DataError. A JSON
report is exactly ``json.dumps(doc, indent=2)``. Only lists, tuples and
tables take a path of their own here: a list formats a column of one type
at once, and a table is the list of its rows as dicts, one ``%``-template
filled per row from per-key columns. A table may be a payload value or a
list item, not a dict value. Every other value is ``json.dumps``. Both
writers write `SLICE_ROWS` rows at a time, so a report is never held whole
as text. A table keeps the texts of its float columns, so each number of a
command is formatted once.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from urllib.parse import quote

from . import __version__
from .errors import DataError

#: Rows of a TSV, or items of a JSON list, written per `fh.write`.
SLICE_ROWS = 256
#: float.__repr__ of the non-finite floats -> their JSON spelling
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class Table:
    """Equal-length named columns of Python scalars (or dicts, in a JSON-only
    column), in report column order, and the dataclass of their rows.

    Iteration and indexing build a `row` from the columns named after its
    fields, or a tuple of all columns with no `row` type; a slice is a
    table. The writers keep the texts they format, so columns stay as made.
    """

    def __init__(self, columns: dict[str, list], row: type | None = None):
        self.columns = columns
        self.row = row
        self._row_columns = [columns[f.name] for f in fields(row)] if row else [*columns.values()]
        self._texts: dict[str, list[str] | None] = {}

    @classmethod
    def of(cls, row: type, *columns) -> Table:
        """The table of `row`s whose columns, in field order, are `columns`:
        lists, or numpy arrays, which become lists of Python scalars."""
        columns = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
        return cls({f.name: column for f, column in zip(fields(row), columns)}, row)

    def take(self, indices) -> Table:
        """The rows at `indices`, in their order."""
        columns = self.columns.items()
        return Table({k: list(map(c.__getitem__, indices)) for k, c in columns}, self.row)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self):
        return map(self.row or (lambda *values: values), *self._row_columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        values = [column[index] for column in self._row_columns]
        return self.row(*values) if self.row else tuple(values)

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and self.row is other.row and (
            list(self.columns.items()) == list(other.columns.items()))


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


def _float_texts(table: Table, name: str) -> list[str] | None:
    """The `float.__repr__` texts of column `name` of `table`, one LF-joined
    string per slice of `SLICE_ROWS` rows, or None when not every value is a
    float. Formatted on first use and kept on the table for both writers."""
    kept, values = table._texts, table.columns[name]
    if name not in kept:
        kind = _only_type(values)
        kept[name] = None if kind is None or not issubclass(kind, float) else [
            "\n".join(map(float.__repr__, values[start : start + SLICE_ROWS]))
            for start in range(0, len(values), SLICE_ROWS)]
    return kept[name]


def _tsv_cells(column: str, values: list) -> list[str]:
    """The TSV cell texts of `values`, a slice of `column`. None gives an
    empty cell; a text cell holding a TAB, LF or CR is a DataError."""
    kind = _only_type(values)
    if kind is int:
        return list(map(int.__repr__, values))
    texts = values if kind is str else list(map(_cell, values))
    if tsv_unsafe("".join(texts)):
        bad = next(filter(tsv_unsafe, texts))
        raise DataError(f"report column {column!r}: cell {bad!r} {TSV_UNSAFE}")
    return texts


def write_tsv(path: str, columns: list[str], table: Table, config: dict,
              extra: dict | None = None) -> None:
    """Write the provenance line, the header and one line per row of
    `table`, with the cells of `columns`."""
    head = provenance(config)
    if extra:
        head.update(extra)
    floats = [_float_texts(table, name) for name in columns]
    with _replaced(path) as fh:
        fh.write(f"# {json.dumps(head, sort_keys=True)}\n" + "\t".join(columns) + "\n")
        for i, start in enumerate(range(0, len(table), SLICE_ROWS)):
            cells = [
                texts[i].split("\n") if texts is not None
                else _tsv_cells(name, table.columns[name][start : start + SLICE_ROWS])
                for name, texts in zip(columns, floats)
            ]
            fh.write("\n".join(map("\t".join, zip(*cells))) + "\n")


def write_json(path: str, payload: dict, config: dict) -> None:
    """Write provenance and `payload`, whose keys are str, as
    ``json.dumps(doc, indent=2)`` and LF. A `Table` may be a value of
    `payload`, written as the list of its rows as dicts, or an item of a
    list; a `Table` inside a dict is a TypeError, as any non-JSON value."""
    doc = {"provenance": provenance(config)}
    doc.update(payload)
    with _replaced(path) as fh:
        sep = "{"
        for key, value in doc.items():
            fh.write(f"{sep}\n  {encode_basestring_ascii(key)}: ")
            if isinstance(value, (list, tuple, Table)):
                fh.writelines(_list_chunks(value, 1))
            else:
                fh.write(_encode(value, 1))
            sep = ","
        fh.write("\n}\n")


def dumps(value) -> str:
    """``json.dumps(value, indent=2)`` for every acyclic value that holds no
    `Table`, or a `Table` only as itself or as a list item."""
    return _encode(value, 0)


def _json_floats(texts: list[str]) -> list[str]:
    """`float.__repr__` texts as JSON numbers: nan and inf are spelled NaN,
    Infinity and -Infinity; a finite float's repr has no "n"."""
    if "n" in "".join(texts):
        return [_NONFINITE.get(t, t) for t in texts]
    return texts


def _encode(value, level: int) -> str:
    """`value` as ``json.dumps(value, indent=2)`` writes it `level` levels
    deep. A list, tuple or `Table` takes `_list_chunks`; every other value
    is `json.dumps`, which raises its TypeError on a non-JSON value."""
    if isinstance(value, (list, tuple, Table)):
        return "".join(_list_chunks(value, level))
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _column(values: list, level: int) -> list[str]:
    """The JSON texts of `values`, each `level` levels deep: by type for a
    column of one scalar type or of dicts that share one order of str keys,
    value by value otherwise. Other keys can be equal and written apart:
    0, 0.0 and False, 1 and True, 0.0 and -0.0."""
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
            if all(type(k) is str for k in keys) and all(map(keys.__eq__, map(tuple, values))):
                return _rows(Table({k: list(map(itemgetter(k), values)) for k in keys}), level)
    return [_encode(v, level) for v in values]


def _rows(table: Table, level: int, floats: list | None = None) -> list[str]:
    """The rows of `table`, which has str-named columns, as JSON dicts
    `level` levels deep: one ``%``-template filled per row. `floats` holds the
    `float.__repr__` texts of each column, or None to format it here."""
    inner = "\n" + "  " * (level + 1)
    keys = map(encode_basestring_ascii, table.columns)
    items = ",".join(inner + k.replace("%", "%%") + ": %s" for k in keys)
    template = "{" + items + "\n" + "  " * level + "}"
    floats = floats or [None] * len(table.columns)
    texts = [
        _column(values, level + 1) if kept is None else _json_floats(kept)
        for values, kept in zip(table.columns.values(), floats)
    ]
    return list(map(template.__mod__, zip(*texts)))


def _list_chunks(items: list | tuple | Table, level: int) -> Iterator[str]:
    """A list `level` levels deep as JSON text, `SLICE_ROWS` items a chunk.
    A table is the list of its rows as dicts; its float columns take the
    texts `_float_texts` keeps."""
    if not len(items):
        yield "[]"
        return
    inner = "\n" + "  " * (level + 1)
    sep = "[" + inner
    if isinstance(items, Table):
        floats = [_float_texts(items, name) for name in items.columns]
    for i, start in enumerate(range(0, len(items), SLICE_ROWS)):
        part = items[start : start + SLICE_ROWS]
        if isinstance(items, Table):
            texts = [None if t is None else t[i].split("\n") for t in floats]
            chunk = _rows(part, level + 1, texts)
        else:
            chunk = _column(list(part), level + 1)
        yield sep + ("," + inner).join(chunk)
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
