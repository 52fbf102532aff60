import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelens.corpus import (
    NormalizerConfig,
    UNK,
    build_view,
    make_document,
    read_jsonl,
    read_topic_words,
    split_by_group,
    tokenize,
)
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


class TestBuildView:
    def test_counts_and_total(self, toy_table):
        docs = [make_document("d", "good bad good")]
        view = build_view(docs, toy_table)
        assert view.counts == {"good": 2, "bad": 1}
        assert view.total_tokens == 3

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
