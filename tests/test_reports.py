import json
import os
import re
from importlib import resources
from urllib.parse import unquote

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framelens.frames import frame_id, read_pairs_tsv
from framelens.reports import escape_stem, write_json, write_text, write_tsv


def test_numpy_floats_are_written_as_plain_numbers(tmp_path):
    path = tmp_path / "out.tsv"
    write_tsv(str(path), ["a", "b"], [{"a": np.float64(0.1), "b": 0.25}], {"seed": 0})
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
        # json.dump has written the rows before it meets the object
        (lambda path: write_json(path, {"rows": list(range(10_000)) + [object()]}, {}), TypeError),
    ],
    ids=["text", "json"],
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
