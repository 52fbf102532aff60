import json

import numpy as np
import pytest

from framelens.errors import DataError
from framelens.frames import (
    build_registry,
    make_frame,
    read_pairs_tsv,
    registry_to_json,
)

from conftest import table_from_dict


def test_single_pair_builds(toy_table):
    reg = build_registry([("bad", "good")], toy_table)
    assert len(reg.frames) == 1
    assert reg.frames[0].id == "bad--good"
    assert reg.dropped == ()


def test_missing_pole_dropped(toy_table):
    reg = build_registry([("bad", "good"), ("bad", "glorious")], toy_table)
    assert len(reg.frames) == 1
    assert len(reg.dropped) == 1
    (pair, reason) = reg.dropped[0]
    assert pair == ("bad", "glorious")
    assert "missing pole" in reason


def test_counts_partition(toy_table):
    pairs = [("bad", "good"), ("slow", "great"), ("x", "y"), ("awful", "awful")]
    reg = build_registry(pairs, toy_table)
    assert len(reg.frames) + len(reg.dropped) == len(pairs)


def test_identical_poles_dropped(toy_table):
    reg = build_registry([("good", "good")], toy_table)
    assert not reg.frames
    assert "identical poles" in reg.dropped[0][1]


def test_degenerate_axis_dropped():
    table = table_from_dict({"a": [1.0, 2.0], "b": [1.0, 2.0]})
    reg = build_registry([("a", "b")], table)
    assert not reg.frames
    assert "zero axis" in reg.dropped[0][1]


def test_duplicate_frame_id_fatal(toy_table):
    with pytest.raises(DataError, match="duplicate frame id"):
        build_registry([("bad", "good"), ("bad", "good")], toy_table)


def test_empty_pair_list_fatal(toy_table):
    with pytest.raises(DataError, match="empty pair list"):
        build_registry([], toy_table)


def test_axis_is_componentwise_difference(toy_table):
    frame = make_frame("bad", "good", toy_table)
    vp = toy_table.vector_of("good")
    vm = toy_table.vector_of("bad")
    expected = [float(p) - float(m) for p, m in zip(vp, vm)]
    assert frame.axis.tolist() == expected


def test_axis_matches_independent_recompute_300d():
    rng = np.random.default_rng(42)
    table = table_from_dict(
        {"neg": rng.normal(size=300).tolist(), "pos": rng.normal(size=300).tolist()}
    )
    frame = make_frame("neg", "pos", table)
    # second, straightforward subtraction route, element by element
    vp = table.vector_of("pos")
    vm = table.vector_of("neg")
    recomputed = np.array([float(vp[i]) - float(vm[i]) for i in range(300)])
    assert np.array_equal(frame.axis, recomputed)


def test_flip_negates_axis_exactly(toy_table):
    frame = make_frame("bad", "good", toy_table)
    flipped = frame.flipped()
    assert flipped.pole_minus == "good" and flipped.pole_plus == "bad"
    assert np.array_equal(flipped.axis, -frame.axis)


def test_read_pairs_tsv(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("# comment\nbad\tgood\n\nslow\tfast\n", encoding="utf-8")
    assert read_pairs_tsv(str(p)) == [("bad", "good"), ("slow", "fast")]


def test_read_pairs_tsv_malformed(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("bad good\n", encoding="utf-8")
    with pytest.raises(DataError, match="two tab-separated"):
        read_pairs_tsv(str(p))


def test_registry_json_export(toy_table):
    reg = build_registry([("bad", "good"), ("bad", "zzz")], toy_table)
    doc = json.loads(registry_to_json(reg))
    assert doc["frames"] == [
        {"id": "bad--good", "pole_minus": "bad", "pole_plus": "good"}
    ]
    assert doc["dropped"][0]["pair"] == ["bad", "zzz"]
