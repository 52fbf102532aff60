import re
from importlib import resources
from urllib.parse import unquote

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from framelens.frames import frame_id, read_pairs_tsv
from framelens.reports import escape_stem, write_tsv


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
