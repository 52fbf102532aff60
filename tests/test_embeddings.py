import numpy as np
import pytest

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
