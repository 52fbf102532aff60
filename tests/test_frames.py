import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelens import frames
from framelens.errors import DataError
from framelens.frames import (
    MIN_AXIS_NORM,
    FrameRegistry,
    build_registry,
    make_frame,
    read_pairs_tsv,
    registry_record,
    registry_to_json,
)

import oracles
from conftest import table_from_dict

SHIPPED = resources.files("framelens") / "data"


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
    text = registry_to_json(reg)
    assert text == json.dumps(registry_record(reg), indent=2) + "\n"
    doc = json.loads(text)
    assert doc["frames"] == [
        {"id": "bad--good", "pole_minus": "bad", "pole_plus": "good"}
    ]
    assert doc["dropped"][0]["pair"] == ["bad", "zzz"]


def test_read_pairs_tsv_duplicate_id_names_both_lines(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("# lexicon\nbad\tgood\nslow\tfast\nbad\tgood\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        read_pairs_tsv(str(p))
    assert str(info.value) == f"{p}:4: duplicate frame id 'bad--good' (first on line 2)"


def test_read_pairs_tsv_distinct_pairs_with_one_id(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("x--y\tz\nx\ty--z\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":2: duplicate frame id 'x--y--z' \(first on line 1\)"):
        read_pairs_tsv(str(p))


def test_duplicate_id_fatal_for_distinct_pairs(toy_table):
    with pytest.raises(DataError, match="duplicate frame id: 'x--y--z'"):
        build_registry([("x--y", "z"), ("x", "y--z")], toy_table)


# ---------------------------------------------------------------------------
# The registry against the per-pair reference


#: Components: ordinary values, values so small that the difference of two is
#: near MIN_AXIS_NORM, and zero.
COMPONENTS = st.one_of(
    st.floats(-4.0, 4.0, width=32),
    st.floats(-(2.0**-25), 2.0**-25, width=32),
    st.just(0.0),
)


@st.composite
def pair_tables(draw):
    """A small table, some of whose vectors coincide, and pairs over its words
    plus a word it lacks."""
    dim = draw(st.integers(1, 4))
    words = [f"w{i}" for i in range(draw(st.integers(1, 6)))]
    vectors: dict[str, list[float]] = {}
    for word in words:
        if vectors and draw(st.booleans()):
            vectors[word] = list(vectors[draw(st.sampled_from(sorted(vectors)))])
        else:
            vectors[word] = draw(st.lists(COMPONENTS, min_size=dim, max_size=dim))
    poles = st.sampled_from(words + ["absent"])
    pairs = draw(st.lists(st.tuples(poles, poles), min_size=1, max_size=12))
    return table_from_dict(vectors), pairs


def assert_matches_reference(pairs, table):
    try:
        kept, dropped = oracles.registry_reference(pairs, table)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            build_registry(pairs, table)
        assert str(info.value) == str(exc)
        return
    reg = build_registry(pairs, table)
    assert list(reg.dropped) == dropped
    assert len(reg) == len(kept)
    assert reg.ids == tuple(fid for fid, *_ in kept)
    assert reg.poles_minus == tuple(m for _, m, _, _ in kept)
    assert reg.poles_plus == tuple(p for _, _, p, _ in kept)
    for built in (reg.frames, list(reg), [reg.get(fid) for fid, *_ in kept]):
        assert len(built) == len(kept)
        for frame, (fid, pole_minus, pole_plus, axis) in zip(built, kept):
            assert (frame.id, frame.pole_minus, frame.pole_plus) == (fid, pole_minus, pole_plus)
            assert frame.axis.dtype == np.float64
            assert frame.axis.tobytes() == axis.tobytes()


@given(pair_tables())
@settings(max_examples=300, deadline=None)
def test_registry_matches_per_pair_reference(case):
    """Ids and pole order, axis bytes through `frames`, iteration and `get`,
    dropped pairs and their reasons in file order, and the duplicate-id
    error all equal those of building one pair at a time."""
    table, pairs = case
    assert_matches_reference(pairs, table)


def test_axes_at_the_threshold_are_decided_as_one_pair():
    """Axes whose norm lies within a few ulps of MIN_AXIS_NORM: the registry's
    row norms sum the squares in another order than the 1-D norm of one
    pair's axis, and the 1-D norm decides."""
    rng = np.random.default_rng(8)
    n, dim = 400, 300
    # All but the last component carry a squared norm just under the threshold's
    # square; the last, small, component brings it to the threshold up to the
    # rounding of float32.
    rest = rng.normal(size=(n, dim - 1))
    squared = MIN_AXIS_NORM**2 * (1 - rng.uniform(1e-9, 1e-8, size=n))
    rest = (rest / np.linalg.norm(rest, axis=1)[:, None] * np.sqrt(squared)[:, None])
    rest = rest.astype(np.float32)
    last = np.sqrt(np.maximum(MIN_AXIS_NORM**2 - (rest.astype(np.float64) ** 2).sum(axis=1), 0))
    rows = np.concatenate([rest, last.astype(np.float32)[:, None]], axis=1)
    vectors = {f"p{i}": row.tolist() for i, row in enumerate(rows)}
    vectors["origin"] = [0.0] * dim
    table = table_from_dict(vectors)
    pairs = [("origin", f"p{i}") for i in range(n)]
    kept, dropped = oracles.registry_reference(pairs, table)
    assert kept and dropped  # the threshold splits them
    assert_matches_reference(pairs, table)


def _shipped_registry_inputs(dim):
    pairs = read_pairs_tsv(str(SHIPPED / "antonym_pairs.tsv"))
    vocab = (SHIPPED / "vocab_snapshot.txt").read_text(encoding="utf-8").split()
    rng = np.random.default_rng(0)
    table = table_from_dict(dict(zip(vocab, rng.normal(size=(len(vocab), dim)).tolist())))
    return pairs, table


def test_registry_is_built_in_array_steps(monkeypatch):
    """No per-pair `make_frame` or `np.linalg.norm` call: at most one norm
    call per block of axes."""
    pairs, table = _shipped_registry_inputs(8)
    calls = {"make_frame": 0, "norm": 0}
    norm = np.linalg.norm

    def counted_norm(*args, **kwargs):
        calls["norm"] += 1
        return norm(*args, **kwargs)

    def counted_make_frame(*args):
        calls["make_frame"] += 1
        raise AssertionError("make_frame called")

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(frames, "make_frame", counted_make_frame)
    reg = build_registry(pairs, table)
    assert (len(reg), len(reg.dropped)) == (1621, 207)
    assert calls["make_frame"] == 0
    assert calls["norm"] <= -(-len(pairs) // frames._CHECK_BLOCK)


def test_built_registry_holds_no_axis_matrix():
    """The 1,621-frame registry at d=300 holds less than its F×d float64 axes."""
    pairs, table = _shipped_registry_inputs(300)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        reg = build_registry(pairs, table)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reg) == 1621
    assert held - before < len(reg) * 300 * 8


def test_hand_built_registry_gives_back_its_frames(toy_table):
    frame = make_frame("bad", "good", toy_table)
    flipped = frame.flipped()
    reg = FrameRegistry((frame, flipped), ())
    assert reg.ids == ("bad--good", "good--bad")
    for got, want in zip(reg, (frame, flipped)):
        assert got.axis.tobytes() == want.axis.tobytes()
    assert reg.get("good--bad").pole_minus == "good"
    assert reg.get("nope") is None
    assert len(FrameRegistry(())) == 0
