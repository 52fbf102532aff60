import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelens import embeddings
from framelens.embeddings import load_embeddings
from framelens.errors import DataError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_basic_parse(tmp_path):
    path = write(
        tmp_path,
        "vecs.txt",
        "alpha 1 2 3 4\nbeta 0.5 -0.5 0.25 -0.25\ngamma -1 -2 -3 -4\n",
    )
    table = load_embeddings(path)
    assert len(table) == 3
    assert table.dimension == 4
    assert table.vector_of("beta").tolist() == [0.5, -0.5, 0.25, -0.25]


def test_zero_vector_skipped(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1 2\nzero 0 0\nb 3 4\n")
    table = load_embeddings(path, warn=False)
    assert "zero" not in table
    assert table.stats.zero_vectors == 1
    assert table.stats.skipped == 1


def test_header_line_detected(tmp_path):
    path = write(tmp_path, "vecs.txt", "2 3\na 1 2 3\nb 4 5 6\n")
    table = load_embeddings(path)
    assert len(table) == 2 and table.dimension == 3


def test_two_token_first_record_is_not_a_header(tmp_path):
    # a real 1-d record is not integer-integer, so it must be kept
    path = write(tmp_path, "vecs.txt", "a 1.5\nb 2.5\n")
    table = load_embeddings(path)
    assert len(table) == 2 and table.dimension == 1


def test_duplicate_first_wins(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1 2\na 9 9\nb 3 4\n")
    table = load_embeddings(path, warn=False)
    assert table.vector_of("a").tolist() == [1.0, 2.0]
    assert table.stats.duplicates == 1


def test_inconsistent_dimension_fatal(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1 2 3\nb 1 2\n")
    with pytest.raises(DataError, match="expected 3"):
        load_embeddings(path)


def test_malformed_line_skipped(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1 2\n. . . 1 2\nb 3 4\n")
    table = load_embeddings(path, warn=False)
    assert len(table) == 2
    assert table.stats.malformed == 1


def test_non_finite_components_are_malformed(tmp_path):
    # 1e39 parses as a float but overflows float32 to inf on the cast
    path = write(tmp_path, "vecs.txt", "a 1 2\nnotanumber nan 1\nhuge 1e39 1\nb 3 4\n")
    table = load_embeddings(path, warn=False)
    assert set(table.vocabulary) == {"a", "b"}
    assert table.stats.malformed == 2


def test_vocab_filter_soundness(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1 2\nb 3 4\nc 5 6\n")
    table = load_embeddings(path, vocab_filter={"a", "c", "zz"})
    assert set(table.vocabulary) <= {"a", "c", "zz"}
    assert set(table.vocabulary) == {"a", "c"}


def test_unreadable_file():
    with pytest.raises(DataError, match="cannot read"):
        load_embeddings("/nonexistent/vectors.txt")


def test_all_lines_unusable(tmp_path):
    path = write(tmp_path, "vecs.txt", "only 0 0 0\n")
    with pytest.raises(DataError, match="no loadable vectors"):
        load_embeddings(path, warn=False)


def test_load_is_deterministic(tmp_path):
    body = "\n".join(f"t{i} {i}.25 {i * 2}.5 -{i}.125" for i in range(50)) + "\n"
    path = write(tmp_path, "vecs.txt", body)
    t1 = load_embeddings(path)
    t2 = load_embeddings(path)
    for tok in t1.vocabulary:
        assert t1.vector_of(tok).tobytes() == t2.vector_of(tok).tobytes()


def test_lookups_are_pure_and_exact_match(tmp_path):
    path = write(tmp_path, "vecs.txt", "Paris 1 2\nparis 3 4\n")
    table = load_embeddings(path)
    assert table.vector_of("Paris").tolist() == [1.0, 2.0]
    assert table.vector_of("paris").tolist() == [3.0, 4.0]
    assert table.vector_of("PARIS") is None


def test_storage_is_float32_and_norms_positive(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1e-20 0\nb 1 1\n")
    table = load_embeddings(path, warn=False)
    assert table.vector_of("b").dtype == np.float32
    for tok in table.vocabulary:
        assert np.linalg.norm(table.vector_of(tok)) > 0.0


def test_filtered_record_with_wrong_count_still_aborts(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1 2\nx 1 2 3\nb 3 4\n")
    with pytest.raises(DataError, match="vecs.txt:2: vector has 3 components, expected 2"):
        load_embeddings(path, vocab_filter={"a", "b"})


def test_filtered_record_with_wrong_count_of_non_numbers_is_malformed(tmp_path):
    path = write(tmp_path, "vecs.txt", "a 1 2\n. . . 1 2\nb 3 4\n")
    table = load_embeddings(path, vocab_filter={"a", "b"}, warn=False)
    assert set(table.vocabulary) == {"a", "b"}
    assert (table.stats.malformed, table.stats.filtered) == (1, 0)


def test_filtered_record_of_the_right_length_is_not_parsed(tmp_path):
    # its fields are never read as numbers, so it counts as filtered, not malformed
    path = write(tmp_path, "vecs.txt", "a 1 2\nx foo bar\nb 3 4\n")
    table = load_embeddings(path, vocab_filter={"a", "b"}, warn=False)
    assert set(table.vocabulary) == {"a", "b"}
    assert (table.stats.malformed, table.stats.filtered) == (0, 1)


def test_filtered_first_record_still_fixes_the_dimension(tmp_path):
    path = write(tmp_path, "vecs.txt", "x 1 2 3\na 1 2 3\nb 4 5\n")
    with pytest.raises(DataError, match="vecs.txt:3: vector has 2 components, expected 3"):
        load_embeddings(path, vocab_filter={"a", "b"})
    path = write(tmp_path, "vecs2.txt", "x 1 2 3\na 1 2 3\n")
    table = load_embeddings(path, vocab_filter={"a"})
    assert table.dimension == 3
    assert (len(table), table.stats.filtered) == (1, 1)


def test_filtered_rows_are_byte_identical_to_unfiltered_rows(tmp_path):
    rng = np.random.default_rng(0)
    formats = ("{!r}", "{:.6f}", "{:.3e}", "{:+.9g}", "{:.0f}.")
    lines = []
    for i in range(200):
        values = (rng.standard_normal(5) * 10.0 ** rng.integers(-8, 8)).tolist()
        fields = [formats[(i + j) % len(formats)].format(v) for j, v in enumerate(values)]
        lines.append(f"t{i} " + " ".join(fields))
    # doubles halfway between float32 neighbours: a string parsed straight to
    # float32 can round away from where float() then float32 rounds it
    low = np.float32(1.0) + np.float32(2.0**-23) * np.arange(1, 6, dtype=np.float32)
    high = np.nextafter(low, np.float32(2.0))
    halfway = (low.astype(np.float64) + high.astype(np.float64)) / 2
    lines.append("t200 " + " ".join(repr(float(v)) for v in halfway))
    path = write(tmp_path, "vecs.txt", "\n".join(lines) + "\n")
    wanted = {f"t{i}" for i in range(0, 201, 3)}
    full = load_embeddings(path)
    filtered = load_embeddings(path, vocab_filter=wanted)
    assert set(filtered.vocabulary) == wanted
    assert filtered.stats.filtered == 201 - len(wanted)
    for line in lines:
        token, *fields = line.split()
        # the float32 rounding of a Python float, component by component
        expected = np.array([float(x) for x in fields], dtype=np.float32).tobytes()
        assert full.vector_of(token).tobytes() == expected
        if token in wanted:
            assert filtered.vector_of(token).tobytes() == expected


# Components that go through the bulk parse, the reference path, or neither:
# `1_000`, full-width and Arabic-Indic digits are numbers to float() only.
_COMPONENTS = st.sampled_from(
    ["1", "-2.5", "0.125", "3e-2", "-0", "0", "0.0", "nan", "1e39", "-inf", "1_000",
     "１", "٣", "x", "1e-46", "3.4028235e38", "16777217"]
) | st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)
_TOKENS = st.sampled_from(["a", "b", "c", "d", "é", "東京", "x.y", "1", "2", "<UNK>"])
# Every ASCII character str.split splits on inside a line, and non-ASCII
# whitespace, which np.loadtxt also splits on but which sends a record down
# the reference path.
_SEPARATORS = st.sampled_from(
    [" "] * 24
    + ["\t", "  ", " \t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003",
       "\u3000"]
)
# Text-mode reads turn "\r\n" and a lone "\r" into line ends.
_LINE_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])


@st.composite
def _tables(draw):
    dim = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 9))} {dim}")
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["record"] * 8 + ["zero", "short", "short", "long", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        size = {"short": dim - 1, "long": dim + 1}.get(kind, dim)
        fields = draw(st.lists(_COMPONENTS, min_size=size, max_size=size))
        if kind == "zero":
            fields = ["0"] * size
        seps = draw(st.lists(_SEPARATORS, min_size=size, max_size=size))
        line = draw(_TOKENS) + "".join(sep + field for sep, field in zip(seps, fields))
        lines.append(line + draw(st.sampled_from(["", "", " ", "\t", "\x1f"])))
    text = "".join(line + draw(_LINE_ENDS) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    vocab_filter = draw(st.none() | st.sets(_TOKENS))
    chunk_rows = draw(st.integers(1, 4))
    return text, vocab_filter, chunk_rows * dim, draw(st.integers(1, 80))


def _outcome(load, path, vocab_filter):
    try:
        return load(path, vocab_filter)
    except DataError as exc:
        return str(exc)


@given(_tables())
@settings(max_examples=400, deadline=None)
def test_loader_matches_the_per_record_reference(table):
    text, vocab_filter, chunk_components, check_bytes = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vecs.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = _outcome(oracles.load_embeddings_reference, path, vocab_filter)
        with mock.patch.object(embeddings, "_CHUNK_COMPONENTS", chunk_components), \
                mock.patch.object(embeddings, "_CHECK_BYTES", check_bytes):
            got = _outcome(
                lambda p, f: load_embeddings(p, f, warn=False), path, vocab_filter
            )
    if isinstance(expected, str):
        assert got == expected
        return
    tokens, matrix, counts = expected
    assert list(got.vocabulary) == tokens
    assert got._matrix.tobytes() == matrix.tobytes()
    assert dataclasses.asdict(got.stats) == counts


def _midpoint_strings(n, rng):
    """Decimal strings of doubles halfway between float32 neighbours: a
    parser that rounds straight to float32 can land on the other neighbour."""
    bits = rng.integers(1, 0x7F7FFFFF, size=n, dtype=np.uint32)
    low = bits.view(np.float32) * rng.choice(np.array([-1, 1], dtype=np.float32), size=n)
    high = np.nextafter(low, np.copysign(np.float32(np.inf), low))
    halfway = (low.astype(np.float64) + high.astype(np.float64)) / 2
    return [repr(v) for v in halfway.tolist()]


def test_bulk_parse_is_bit_identical_to_float(tmp_path):
    strings = _midpoint_strings(20_000, np.random.default_rng(0))
    dim = 100
    lines = [f"m{i} " + " ".join(strings[i : i + dim]) for i in range(0, len(strings), dim)]
    path = write(tmp_path, "vecs.txt", "\n".join(lines) + "\n")
    with mock.patch.object(embeddings._Loader, "record", autospec=True,
                           side_effect=embeddings._Loader.record) as reference:
        table = load_embeddings(path)
    assert reference.call_count == 1  # the first record fixes the dimension
    expected = np.array([float(s) for s in strings]).astype(np.float32)
    assert table._matrix.tobytes() == expected.tobytes()


def test_edge_strings_match_float(tmp_path):
    edges = ["1_000", "1__0", "0x10", "nan", "-nan", "inf", "-Infinity", "infinity", "1e39",
             "-1e39", "1e-46", "1e-400", "1E400", "-0", ".5", "5.", "+.5e-3", "٣",
             "１", "1,5", "1j", "--1", "1e", "e1", ".", "+", "0b1", "00012",
             "3.4028235e38", "3.4028236e38", "1.4e-45", "nan(1)"]
    assert len(edges) == 32
    lines = ["first 1 1"] + [f"e{i} {s} 1" for i, s in enumerate(edges)]
    path = write(tmp_path, "vecs.txt", "\n".join(lines) + "\n")
    table = load_embeddings(path, warn=False)
    tokens, matrix, counts = oracles.load_embeddings_reference(path)
    assert list(table.vocabulary) == tokens
    assert table._matrix.tobytes() == matrix.tobytes()
    assert dataclasses.asdict(table.stats) == counts


# Field characters, every ASCII character str.split splits on, and ASCII
# control characters it does not split on.
_FIELD_TEXT = st.text(
    st.sampled_from(list("ab1.-~") + [" "] * 4 + list("\t\n\v\f\r\x1c\x1d\x1e\x1f")
                    + ["\x00", "\x08", "\x0e", "\x1b", "\x7f"]),
    max_size=40,
)


@given(st.lists(_FIELD_TEXT, max_size=8))
@settings(max_examples=500, deadline=None)
def test_field_counts_equal_the_split_counts(texts):
    assert embeddings._field_counts(texts).tolist() == [len(t.split()) for t in texts]


def test_field_counts_do_not_wrap():
    assert embeddings._field_counts(["1 " * 70_000, "a b"]).tolist() == [70_000, 2]


def test_well_formed_filtered_table_takes_the_bulk_paths(tmp_path):
    rng = np.random.default_rng(1)
    lines = [f"w{i} " + " ".join(f"{v:.4f}" for v in rng.standard_normal(50)) for i in range(600)]
    path = write(tmp_path, "vecs.txt", "\n".join(lines) + "\n")
    wanted = {f"w{i}" for i in range(0, 600, 3)}
    counted = []
    count_fields = embeddings._field_counts

    def field_counts(texts):
        counted.extend(texts)
        return count_fields(texts)

    with mock.patch.object(embeddings._Loader, "record", autospec=True,
                           side_effect=embeddings._Loader.record) as reference, \
            mock.patch.object(embeddings, "_field_counts", side_effect=field_counts):
        table = load_embeddings(path, vocab_filter=wanted)
    assert reference.call_count == 1  # the first record fixes the dimension
    assert (len(table), table.stats.filtered) == (200, 400)
    # every dropped record, and no kept one, went through the field count
    assert sorted(counted) == sorted(line.split(maxsplit=1)[1] + "\n" for line in lines
                                     if line.split()[0] not in wanted)


@pytest.mark.parametrize("second", ["b 1 2 3", "x 1 2 3"])
def test_queued_record_error_comes_before_a_later_invalid_line(tmp_path, second):
    # the record on line 2 waits in a queue when line 3 is read
    path = tmp_path / "vecs.txt"
    path.write_bytes(b"a 1 2\n" + second.encode() + b"\n\xff 1 2\n")
    with pytest.raises(DataError, match="vecs.txt:2: vector has 3 components, expected 2"):
        load_embeddings(str(path), vocab_filter={"a", "b"})
