import copy
import itertools
import json
import unicodedata

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelens.corpus import (
    Document,
    NormalizerConfig,
    UNK,
    _strip_edge_punct,
    build_view,
    make_document,
    read_jsonl,
    read_topic_words,
    split_by_group,
    tokenize,
)
from framelens.engine import _doc_coo
from framelens.errors import DataError


class TestTokenize:
    def test_default_rules(self):
        assert tokenize("The service is fantastic!") == [
            "the",
            "service",
            "is",
            "fantastic",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding_merges(self):
        toks = tokenize("Horrible food and Horrible service")
        assert toks == ["horrible", "food", "and", "horrible", "service"]

    def test_punctuation_stripped_from_edges_only(self):
        assert tokenize("'don't!'") == ["don't"]
        assert tokenize("(good)") == ["good"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("-- ... !?") == []

    def test_keep_case(self):
        cfg = NormalizerConfig(lowercase=False)
        assert tokenize("The Service", cfg) == ["The", "Service"]

    def test_unk_sentinel_preserved(self):
        assert tokenize("the <UNK> shows up") == ["the", UNK, "shows", "up"]

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once))
        assert once == again


def reference_tokenize(text, cfg):
    """The tokenizer without its ASCII fast path: NFC, lower, category-P strip."""
    out = []
    for chunk in text.split():
        if chunk == UNK:
            out.append(UNK)
            continue
        tok = unicodedata.normalize("NFC", chunk) if cfg.nfc else chunk
        if cfg.lowercase:
            tok = tok.lower()
        if cfg.strip_punctuation:
            tok = _strip_edge_punct(tok)
        if tok:
            out.append(tok)
    return out


# ASCII letters, digits, punctuation and symbols, whitespace, and non-ASCII
# letters (composed, decomposed, and ones that lowercase or NFC to ASCII) and
# punctuation.
MIXED_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            "aZq09'!\"#%&()*,-./:;?@[\\]_{}$+<=>^|~`"
            " \t\n\u00a0\u2003"
            "\u00e9\u00c9\u00df\u0130\u212a\u212b\u0301\u00e5\u03a3"
            "\u00ab\u00bb\u00bf\u00a1\u2014\u2026\u201c\u201d\u3002"
        ),
        st.just(" <UNK> "),
        st.just("e\u0301"),
    ),
    max_size=60,
).map("".join)

# All-ASCII text, which takes the whole-text path unless it holds the
# sentinel: every ASCII whitespace character, punctuation and symbols, and
# the sentinel inside and at the edge of a chunk.
ASCII_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            "aZq09'!\"#%&()*,-./:;?@[\\]_{}$+<=>^|~`"
            " \t\n\v\f\r\x1c\x1d\x1e\x1f"
        ),
        st.sampled_from([" <UNK> ", "x<UNK>y", "<UNK>,", "<unk>", "<UNK>"]),
    ),
    max_size=60,
).map("".join)


class TestAsciiFastPath:
    @pytest.mark.parametrize(
        "lowercase, nfc, strip", list(itertools.product([True, False], repeat=3))
    )
    @given(text=MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_tokenizer(self, lowercase, nfc, strip, text):
        cfg = NormalizerConfig(lowercase=lowercase, nfc=nfc, strip_punctuation=strip)
        assert tokenize(text, cfg) == reference_tokenize(text, cfg)

    def test_ascii_symbols_are_not_stripped(self):
        assert tokenize("$5 a+b <x> =y ^z |w ~v `u` (t).") == [
            "$5", "a+b", "<x>", "=y", "^z", "|w", "~v", "`u`", "t",
        ]


class TestBuildView:
    def test_counts_and_total(self, toy_table):
        docs = [make_document("d", "good bad good")]
        view = build_view(docs, toy_table)
        assert view.counts == {"good": 2, "bad": 1}
        assert view.total_tokens == 3

    def test_counts_are_sorted_read_only_and_copy_with_the_view(self, toy_table):
        view = build_view([make_document("d", "good bad good")], toy_table)
        assert list(view.counts.items()) == [("bad", 1), ("good", 2)]
        with pytest.raises(TypeError):
            view.counts["good"] = 5
        assert copy.deepcopy(view).counts == view.counts

    def test_topic_word_masked(self, toy_table):
        docs = [make_document("d", "food was good food")]
        view = build_view(docs, toy_table, {"food"})
        assert "food" not in view.counts
        assert "food" in view.masked
        assert view.total_tokens == 1  # "was" is OOV, "good" counted

    def test_oov_excluded_from_counts_and_total(self, toy_table):
        docs = [make_document("d", "good mystery")]
        view = build_view(docs, toy_table)
        assert view.counts == {"good": 1}
        assert "mystery" in view.oov
        assert view.total_tokens == 1

    def test_all_oov_is_empty_view(self, toy_table):
        docs = [make_document("d", "xyzzy plugh")]
        with pytest.raises(DataError, match="empty corpus view"):
            build_view(docs, toy_table)

    def test_all_masked_is_empty_view(self, toy_table):
        docs = [make_document("d", "good good")]
        with pytest.raises(DataError, match="empty corpus view"):
            build_view(docs, toy_table, {"good"})

    def test_unk_literal_always_masked(self, toy_table):
        docs = [make_document("d", "good <UNK>")]
        view = build_view(docs, toy_table)
        assert UNK in view.masked
        assert UNK not in view.counts

    def test_counts_values_at_least_one(self, toy_table):
        docs = [make_document("d", "good bad great awful")]
        view = build_view(docs, toy_table)
        assert all(v >= 1 for v in view.counts.values())

    def test_masking_removes_exactly_topic_tokens(self, toy_table):
        docs = [make_document("d", "good bad service food meal")]
        topic = {"service", "food"}
        view = build_view(docs, toy_table, topic)
        for w in topic:
            assert w not in view.counts
            assert w in view.masked
        assert set(view.counts) == {"good", "bad", "meal"}


class TestSplitByGroup:
    def test_basic_partition(self, toy_table):
        docs = [
            make_document(f"d{i}", "good bad", group="pos" if i < 4 else "neg")
            for i in range(10)
        ]
        view = build_view(docs, toy_table)
        target, background = split_by_group(view, "pos")
        assert len(target.documents) == 4
        assert len(background.documents) == 6

    def test_conservation_of_tokens(self, toy_table):
        docs = [
            make_document("a", "good bad great", group="x"),
            make_document("b", "awful service mystery", group="y"),
            make_document("c", "good food", group="x"),
        ]
        view = build_view(docs, toy_table, {"food"})
        target, background = split_by_group(view, "x")
        assert target.total_tokens + background.total_tokens == view.total_tokens

    def test_unknown_label(self, toy_table):
        docs = [make_document("a", "good", group="x")]
        view = build_view(docs, toy_table)
        with pytest.raises(DataError, match="no documents labeled"):
            split_by_group(view, "zzz")

    def test_all_docs_labeled_gives_empty_background(self, toy_table):
        docs = [make_document("a", "good", group="x"), make_document("b", "bad", group="x")]
        view = build_view(docs, toy_table)
        target, background = split_by_group(view, "x")
        assert target.total_tokens == 2
        assert background.total_tokens == 0
        assert background.documents == ()

    def test_background_with_nothing_countable_is_allowed(self, toy_table):
        # the remainder documents exist but every token is OOV; the split
        # must still hand back the target with an empty background
        docs = [
            make_document("a", "good bad", group="x"),
            make_document("b", "xyzzy plugh", group="y"),
        ]
        view = build_view(docs, toy_table)
        target, background = split_by_group(view, "x")
        assert target.total_tokens == 2
        assert background.total_tokens == 0
        assert len(background.documents) == 1

    def test_target_with_nothing_countable_still_errors(self, toy_table):
        docs = [
            make_document("a", "xyzzy", group="x"),
            make_document("b", "good", group="y"),
        ]
        view = build_view(docs, toy_table)
        with pytest.raises(DataError, match="empty corpus view"):
            split_by_group(view, "x")


@given(st.lists(st.booleans(), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_split_conserves_tokens_for_any_labeling(labels):
    from conftest import table_from_dict

    table = table_from_dict({"good": [1.0, 0.0], "bad": [-1.0, 0.1]})
    docs = [
        make_document(f"d{i}", "good bad", group="x" if flag else "y")
        for i, flag in enumerate(labels)
    ]
    view = build_view(docs, table)
    if not any(labels):
        return
    target, background = split_by_group(view, "x")
    assert target.total_tokens + background.total_tokens == view.total_tokens


# in the table, topic words, the sentinel, and out of the table
_VIEW_TOKENS = st.sampled_from(["good", "bad", "service", "food", "meal", UNK, "zzz", "qq", "É"])


@given(
    st.lists(
        st.tuples(st.lists(_VIEW_TOKENS, max_size=15), st.sampled_from(["x", "y", None])),
        min_size=1,
        max_size=8,
    ),
    st.sets(st.sampled_from(["good", "meal", "zzz"])),
)
@settings(max_examples=200, deadline=None)
def test_views_match_the_occurrence_loop(docs, topics):
    from conftest import table_from_dict

    words = ("good", "bad", "service", "food", "meal")
    table = table_from_dict({w: [1.0, i] for i, w in enumerate(words)})
    documents = [
        Document(doc_id=f"d{i}", raw_text=" ".join(toks), tokens=tuple(toks), group=group)
        for i, (toks, group) in enumerate(docs)
    ]

    def check(view, subset, topic_set):
        counts, per_doc, masked, oov = oracles.classify_occurrences(subset, table, topic_set)
        assert list(view.counts.items()) == sorted(counts.items())
        assert (view.masked, view.oov) == (masked, oov)
        assert view.total_tokens == sum(counts.values())
        # each document's codes decode to its occurrences, counted ones first
        ends = np.cumsum([len(d.tokens) for d in subset])[:-1]
        for doc, codes in zip(subset, np.split(view.codes, ends)):
            codes = codes.tolist()
            assert [view.tokens[c] for c in codes if c >= 0] == oracles.counted_stream(
                [doc], table, topic_set
            )
            decoded = [view.tokens[c] if c >= 0 else view.excluded[-1 - c] for c in codes]
            assert decoded == list(doc.tokens)
        # document triplets in document order, then sorted-token order
        tokens = view.vocabulary()
        rows, cols, vals, doc_total = _doc_coo(view)
        expected = [(d, t, float(doc[t])) for d, doc in enumerate(per_doc) for t in sorted(doc)]
        assert list(zip(rows.tolist(), [tokens[c] for c in cols], vals.tolist())) == expected
        assert doc_total.tolist() == [float(sum(doc.values())) for doc in per_doc]

    def countable(subset, topic_set):
        return subset and oracles.classify_occurrences(subset, table, topic_set)[0]

    # The same documents build every view, with and without masking.
    for topic_set in (topics, set()):
        if not countable(documents, topic_set):
            with pytest.raises(DataError, match="empty corpus view"):
                build_view(documents, table, topic_set)
            continue
        view = build_view(documents, table, topic_set)
        check(view, documents, topic_set)
        # given the distinct tokens, in any order, it builds the same view
        types = sorted({tok for d in documents for tok in d.tokens}, reverse=True)
        same = build_view(documents, table, topic_set, types=types)
        assert (same.tokens, same.excluded, same.masked, same.oov) == (
            view.tokens, view.excluded, view.masked, view.oov
        )
        assert np.array_equal(same.token_counts, view.token_counts)
        assert np.array_equal(same.codes, view.codes)
        target_docs = [d for d in documents if d.group == "x"]
        if countable(target_docs, topic_set):
            target, background = split_by_group(view, "x")
            check(target, target_docs, topic_set)
            check(background, [d for d in documents if d.group != "x"], topic_set)
            # a half is the view that its documents build on their own
            own = build_view(target_docs, table, topic_set)
            assert (target.tokens, target.excluded) == (own.tokens, own.excluded)
            assert np.array_equal(target.token_counts, own.token_counts)
            assert np.array_equal(target.codes, own.codes)
        # one view per unit, as `map` builds them
        for unit in ("x", "y", None):
            unit_docs = [d for d in documents if d.group == unit]
            if countable(unit_docs, topic_set):
                check(build_view(unit_docs, table, topic_set), unit_docs, topic_set)


class TestIO:
    def test_read_jsonl(self, tmp_path, toy_table):
        p = tmp_path / "corpus.jsonl"
        lines = [
            json.dumps({"id": "1", "text": "Good service", "group": "pos"}),
            json.dumps({"id": "2", "text": "Awful food", "group": "neg",
                        "meta": {"outlet": "x"}}),
        ]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        docs = read_jsonl(str(p))
        assert [d.doc_id for d in docs] == ["1", "2"]
        assert docs[0].tokens == ("good", "service")
        assert docs[1].meta == {"outlet": "x"}

    def test_read_jsonl_missing_fields(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"text": "no id"}) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="'id' and 'text'"):
            read_jsonl(str(p))

    def test_read_jsonl_bad_json(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON"):
            read_jsonl(str(p))

    @pytest.mark.parametrize("line", ["5", "[1]", '"text"', "null"])
    def test_read_jsonl_rejects_non_object_record(self, tmp_path, line):
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"id": "1", "text": "x"}) + "\n" + line + "\n",
                     encoding="utf-8")
        with pytest.raises(DataError, match=r"corpus\.jsonl:2: record must be a JSON object"):
            read_jsonl(str(p))

    def test_read_jsonl_rejects_non_object_meta(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            json.dumps({"id": "1", "text": "x", "meta": "oops"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="'meta' must be an object"):
            read_jsonl(str(p))

    @pytest.mark.parametrize("second_id", ["1", 1])
    def test_read_jsonl_rejects_duplicate_id(self, tmp_path, second_id):
        p = tmp_path / "corpus.jsonl"
        records = [{"id": "1", "text": "x"}, {"id": "2", "text": "y"},
                   {"id": second_id, "text": "z"}]
        p.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        with pytest.raises(
            DataError, match=r"corpus\.jsonl:3: duplicate id '1' \(first on line 1\)"
        ):
            read_jsonl(str(p))

    def test_read_jsonl_coerces_group_to_string(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"id": "1", "text": "x", "group": 3}) + "\n",
                     encoding="utf-8")
        docs = read_jsonl(str(p))
        assert docs[0].group == "3"

    def test_read_topic_words(self, tmp_path):
        p = tmp_path / "topics.txt"
        p.write_text("Food\nService!\n", encoding="utf-8")
        assert read_topic_words(str(p)) == {"food", "service"}
