import json
import math
import os
import re
import tempfile
from importlib import resources
from urllib.parse import unquote

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelens.errors import DataError
from framelens.frames import frame_id, read_pairs_tsv
from framelens.reports import (
    SLICE_ROWS,
    Table,
    dumps,
    escape_stem,
    provenance,
    write_json,
    write_text,
    write_tsv,
)

import oracles


def test_numpy_floats_are_written_as_plain_numbers(tmp_path):
    path = tmp_path / "out.tsv"
    write_tsv(str(path), ["a", "b"], Table({"a": [np.float64(0.1)], "b": [0.25]}), {"seed": 0})
    header, row = path.read_text(encoding="utf-8").splitlines()[1:]
    assert header == "a\tb"
    assert row == "0.1\t0.25"


def test_escape_stem_encodes_every_unsafe_byte():
    assert escape_stem("bad--good") == "bad--good"
    assert escape_stem("w/x") == "w%2Fx"
    assert escape_stem("50% é~") == "50%25%20%C3%A9%7E"


@given(st.text())
def test_escape_stem_is_safe_and_reversible(text):
    stem = escape_stem(text)
    assert re.fullmatch(r"[A-Za-z0-9._%-]*", stem)
    assert unquote(stem) == text


def test_shipped_frame_ids_are_their_own_stems():
    path = resources.files("framelens") / "data" / "antonym_pairs.tsv"
    ids = [frame_id(a, b) for a, b in read_pairs_tsv(str(path))]
    assert ids and all(escape_stem(i) == i for i in ids)


@pytest.mark.parametrize(
    "write, error",
    [
        # a lone surrogate cannot be encoded
        (lambda path: write_text(path, "new\n" * 10_000 + "\udc80"), UnicodeEncodeError),
        # the encoder has written earlier slices of rows before it meets the object
        (lambda path: write_json(path, {"rows": list(range(10_000)) + [object()]}, {}), TypeError),
        # a numpy integer is not an int, so a column of rows holding one is not JSON
        (
            lambda path: write_json(
                path, {"rows": [{"n": i} for i in range(10_000)] + [{"n": np.int64(1)}]}, {}
            ),
            TypeError,
        ),
    ],
    ids=["text", "json", "json-int64"],
)
def test_failed_write_leaves_the_old_report_and_no_temp_file(tmp_path, write, error):
    path = tmp_path / "report"
    write_text(str(path), "old\n")
    with pytest.raises(error):
        write(str(path))
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["report"]


def test_failed_replace_leaves_the_old_report_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_json(str(path), {"rows": [1]}, {"seed": 0})
    old = path.read_bytes()

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_json(str(path), {"rows": [2]}, {"seed": 0})
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["report.json"]


def test_write_json_is_indented_json_with_a_final_newline(tmp_path):
    path = tmp_path / "r.json"
    write_json(str(path), {"rows": [{"a": 0.5, "b": "é"}]}, {"seed": 1})
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert doc["rows"] == [{"a": 0.5, "b": "é"}]


_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", "%", "%s", "%(a)s", "50% é", "\x00\x1f\x7f", "\u2028", "\"\\", "日本"]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf, 1e300, 0.1]),
    _TEXT,
)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()


@st.composite
def _row_lists(draw, values):
    """Lists of dicts over one key list: in its order, reordered, or with keys left out."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["same", "same", "same", "reordered", "fewer"]))
        order = keys
        if shape == "reordered":
            order = draw(st.permutations(keys))
        elif shape == "fewer":
            order = keys[: draw(st.integers(0, len(keys) - 1))]
        rows.append({k: draw(values) for k in order})
    return rows


_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        _row_lists(children),
    ),
    max_leaves=40,
)


@given(_JSON)
@settings(max_examples=500, deadline=None)
def test_dumps_is_json_dumps_with_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


@given(st.dictionaries(_TEXT, _JSON, max_size=4))
@settings(max_examples=100, deadline=None)
def test_write_json_is_json_dumps_of_the_document(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        write_json(path, payload, {"seed": 1})
        doc = {"provenance": provenance({"seed": 1}), **payload}
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == json.dumps(doc, indent=2) + "\n"


def _long_table(n):
    """A table across several slices whose float column holds non-finite
    values, with text, int and dict columns."""
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    return Table({
        "id": [f"f{i}%" for i in range(n)],
        "x": [specials[i % 5] if i % 97 == 0 else i / 7 for i in range(n)],
        "n": list(range(n)),
        "d": [{"w": i / 3} for i in range(n)],
    })


def test_write_json_writes_a_table_as_its_rows(tmp_path):
    table = _long_table(3 * SLICE_ROWS + 5)
    payload = {"before": [1.5], "rows": table, "after": {}, "empty": Table({"a": []})}
    write_json(str(tmp_path / "r.json"), payload, {"seed": 1})
    rows = [dict(zip(table.columns, values)) for values in zip(*table.columns.values())]
    doc = {"provenance": provenance({"seed": 1}), **payload, "rows": rows, "empty": []}
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
    assert dumps(table) == json.dumps(rows, indent=2)


def test_write_json_reuses_the_tsv_float_texts(tmp_path):
    """The JSON of a table whose TSV was written takes the TSV's float
    texts: once the column's values change, the JSON still shows the
    numbers the TSV printed, which it would not if it formatted them again."""
    table = _long_table(3 * SLICE_ROWS + 5)
    written = list(table.columns["x"])
    write_tsv(str(tmp_path / "r.tsv"), ["id", "x", "n"], table, {"seed": 1})
    tsv = [line.split("\t")[1] for line in (tmp_path / "r.tsv").read_text().splitlines()[2:]]
    assert tsv == list(map(repr, written))
    table.columns["x"][:] = [v + 1.0 for v in written]  # breaks the table's contract on purpose
    write_json(str(tmp_path / "r.json"), {"rows": table}, {"seed": 1})
    rows = [dict(zip(table.columns, values)) for values in zip(*table.columns.values())]
    for row, x in zip(rows, written):
        row["x"] = x
    doc = {"provenance": provenance({"seed": 1}), "rows": rows}
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"


def test_a_table_builds_rows_only_on_request():
    from dataclasses import make_dataclass

    Row = make_dataclass("Row", ["a", "b"], frozen=True)
    table = Table({"rank": [1, 2, 3], "a": ["x", "y", "z"], "b": [0.5, -1.0, 2.0]}, Row)
    assert len(table) == 3
    assert list(table) == [Row("x", 0.5), Row("y", -1.0), Row("z", 2.0)]
    assert table[0] == Row("x", 0.5) and table[-1].b == 2.0
    first, *_ = table
    assert first == Row("x", 0.5)
    assert table[1:] == Table({"rank": [2, 3], "a": ["y", "z"], "b": [-1.0, 2.0]}, Row)
    assert table.take([2, 0]).columns == {"rank": [3, 1], "a": ["z", "x"], "b": [2.0, 0.5]}
    assert table != Table(dict(table.columns))  # another row type
    assert list(Table(dict(table.columns))) == [(1, "x", 0.5), (2, "y", -1.0), (3, "z", 2.0)]
    assert Table.of(Row, ["x"], [1]) == Table({"a": ["x"], "b": [1]}, Row)


_CELL_KINDS = [
    st.none(),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.integers(),
    st.booleans(),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")),
]
#: Cells of one column: one kind throughout, or any mixture.
_COLUMN_CELLS = st.sampled_from([*_CELL_KINDS, st.one_of(_CELL_KINDS)])


@st.composite
def _tables(draw):
    """A table over some of the names a..e, of up to two slices and three
    rows, whose columns repeat a drawn pattern of cells; and the TSV's
    columns, some of its names in any order."""
    names = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 2 * SLICE_ROWS + 3))
    columns = {}
    for name in names:
        pattern = draw(st.lists(draw(_COLUMN_CELLS), min_size=1, max_size=8))
        columns[name] = (pattern * n)[:n]
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    return Table(columns), chosen


@given(_tables())
@settings(max_examples=200, deadline=None)
def test_tsv_is_the_cell_by_cell_loop(drawn):
    table, columns = drawn
    config, extra = {"seed": 3}, {"group_a": "a\tb"}
    head = {**provenance(config), **extra}
    rows = [dict(zip(table.columns, values)) for values in zip(*table.columns.values())]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.tsv")
        write_tsv(path, columns, table, config, extra=extra)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == oracles.tsv_report(head, columns, rows)


@pytest.mark.parametrize("text", ["Fox\tNews", "two\nlines", "cr\r"])
def test_a_tab_lf_or_cr_in_a_text_cell_is_a_data_error(tmp_path, text):
    table = Table({"unit": ["ok", text], "bias": [0.5, 0.25]})
    with pytest.raises(DataError, match="report column 'unit'.*TAB, LF or CR"):
        write_tsv(str(tmp_path / "map.tsv"), ["unit", "bias"], table, {"seed": 0})
    assert os.listdir(tmp_path) == []
