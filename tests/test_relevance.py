import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelens.errors import DataError
from framelens.frames import FrameRegistry, build_registry
from framelens.relevance import (
    CharGramPerplexity,
    DEFAULT_TEMPLATES,
    TablePerplexity,
    build_templates,
    make_relevance_query,
    read_templates,
    relevance_embedding,
    relevance_perplexity,
)

import oracles
from conftest import table_from_dict


@pytest.fixture
def rel_table():
    return table_from_dict(
        {
            "topic": [1.0, 0.0, 0.0],
            "wplus": [1.0, 0.0, 0.0],  # identical direction to topic
            "wminus": [0.0, 1.0, 0.0],  # orthogonal to topic
            "xplus": [0.0, 0.0, 1.0],
            "xminus": [0.0, -1.0, 1.0],
            "other": [0.5, 0.5, 0.0],
        }
    )


@pytest.fixture
def rel_registry(rel_table):
    return build_registry([("wminus", "wplus"), ("xminus", "xplus")], rel_table)


class TestQuery:
    def test_unresolved_words_dropped_and_reported(self, rel_table, rel_registry):
        q = make_relevance_query({"topic", "ghost"}, rel_registry, rel_table)
        assert q.topic_words == ("topic",)
        assert q.unresolved == ("ghost",)

    def test_all_unresolved_is_error(self, rel_table, rel_registry):
        with pytest.raises(DataError, match="no topic word resolves"):
            make_relevance_query({"ghost"}, rel_registry, rel_table)

    def test_empty_is_error(self, rel_table, rel_registry):
        with pytest.raises(DataError, match="no topic words"):
            make_relevance_query(set(), rel_registry, rel_table)


class TestEmbeddingRelevance:
    def test_score_is_the_left_to_right_mean_of_its_topic_words(self):
        """Twenty topic words: a pairwise or blocked sum (np.sum, np.mean)
        would round differently from the per-word sum in topic word order."""
        rng = np.random.default_rng(3)
        words = [f"t{i}" for i in range(20)] + [f"m{i}" for i in range(6)] + [f"p{i}" for i in range(6)]
        table = table_from_dict({w: rng.normal(size=5).tolist() for w in words})
        registry = build_registry([(f"m{i}", f"p{i}") for i in range(6)], table)
        query = make_relevance_query(set(words[:20]), registry, table)
        scores = relevance_embedding(query, table)
        assert scores.columns["rank"] == [1, 2, 3, 4, 5, 6]
        assert [s.score for s in scores] == sorted((s.score for s in scores), reverse=True)
        for s in scores:
            per_word = s.details["per_topic_word"]
            assert tuple(per_word) == query.topic_words
            total = 0.0
            for value in per_word.values():
                total += value
            assert s.score == total / 20

    def test_cosines_are_the_one_shot_product(self):
        """400 poles of d=100, over three normalisation chunks of 163 rows:
        each per-word cosine mean has the bits of one product of the one-shot
        topic and pole unit rows. Products per chunk of poles move some of
        these cosines by ~1e-16."""
        rng = np.random.default_rng(8)
        words = [f"t{i}" for i in range(4)] + [f"m{i}" for i in range(200)] + [
            f"p{i}" for i in range(200)]
        table = table_from_dict({w: rng.normal(size=100).tolist() for w in words})
        registry = build_registry([(f"m{i}", f"p{i}") for i in range(200)], table)
        query = make_relevance_query(set(words[:4]), registry, table)
        poles = [*registry.poles_plus, *registry.poles_minus]
        cosines = (oracles.unit_rows_reference(table, list(query.topic_words))
                   @ oracles.unit_rows_reference(table, poles).T)
        expected = ((cosines[:, :200] + cosines[:, 200:]) / 2.0).T.tolist()
        by_id = {s.frame_id: list(s.details["per_topic_word"].values())
                 for s in relevance_embedding(query, table)}
        assert [by_id[fid] for fid in registry.ids] == expected

    def test_an_empty_registry_gives_an_empty_table(self, rel_table):
        query = make_relevance_query({"topic"}, FrameRegistry([]), rel_table)
        assert len(relevance_embedding(query, rel_table)) == 0

    def test_pole_aligned_topic_scores_half(self, rel_table, rel_registry):
        q = make_relevance_query({"topic"}, rel_registry, rel_table)
        scores = {s.frame_id: s.score for s in relevance_embedding(q, rel_table)}
        # cos(topic, wplus) = 1, cos(topic, wminus) = 0 -> (1 + 0) / 2
        assert scores["wminus--wplus"] == pytest.approx(0.5, abs=1e-6)

    def test_sorted_descending(self, rel_table, rel_registry):
        q = make_relevance_query({"topic"}, rel_registry, rel_table)
        out = relevance_embedding(q, rel_table)
        assert [s.score >= t.score for s, t in zip(out, out[1:])] == [True] * (len(out) - 1)
        assert out[0].frame_id == "wminus--wplus"

    def test_symmetric_in_pole_order(self, rel_table):
        fwd = build_registry([("wminus", "wplus")], rel_table)
        rev = build_registry([("wplus", "wminus")], rel_table)
        q_fwd = make_relevance_query({"topic", "other"}, fwd, rel_table)
        q_rev = make_relevance_query({"topic", "other"}, rev, rel_table)
        s_fwd = relevance_embedding(q_fwd, rel_table)[0].score
        s_rev = relevance_embedding(q_rev, rel_table)[0].score
        assert s_fwd == pytest.approx(s_rev, abs=1e-15)

    def test_duplicate_topic_words_change_nothing(self, rel_table, rel_registry):
        q1 = make_relevance_query(["topic", "other"], rel_registry, rel_table)
        q2 = make_relevance_query(["topic", "other", "topic"], rel_registry, rel_table)
        out1 = [(s.frame_id, s.score) for s in relevance_embedding(q1, rel_table)]
        out2 = [(s.frame_id, s.score) for s in relevance_embedding(q2, rel_table)]
        assert out1 == out2

    def test_two_topic_words_average_per_word_scores(self, rel_table, rel_registry):
        q = make_relevance_query({"topic", "other"}, rel_registry, rel_table)
        out = relevance_embedding(q, rel_table)
        for s in out:
            per_word = s.details["per_topic_word"]
            assert s.score == pytest.approx(
                sum(per_word.values()) / len(per_word), abs=1e-15
            )
            assert set(per_word) == {"topic", "other"}
        for s in out:
            assert -1.0 <= s.score <= 1.0


class TestTemplates:
    def test_default_pair(self):
        assert build_templates("healthcare", "essential") == [
            "healthcare is essential.",
            "healthcare are essential.",
        ]

    def test_plain_fill(self):
        assert build_templates("elections", "contested") == [
            "elections is contested.",
            "elections are contested.",
        ]

    def test_custom_override(self):
        custom = ("A {topic} issue has a {pole} perspective.",)
        assert build_templates("healthcare", "essential", custom) == [
            "A healthcare issue has a essential perspective."
        ]

    def test_read_templates(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# my templates\n{topic} seems {pole}.\n{{{topic}}} is {pole}}}\n",
                     encoding="utf-8")
        templates = read_templates(str(p))
        assert templates == ("{topic} seems {pole}.", "{{{topic}}} is {pole}}}")
        assert build_templates("tax", "fair", templates)[1] == "{tax} is fair}"

    def test_read_templates_requires_placeholders(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("{topic} is {pole}\n{topic} only\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{p}:2: template must contain"):
            read_templates(str(p))


class TestPerplexityRelevance:
    def test_min_then_sum_rule(self, rel_table):
        registry = build_registry([("wminus", "wplus")], rel_table)
        q = make_relevance_query({"topic"}, registry, rel_table)
        provider = TablePerplexity(
            {
                "topic is wplus.": 10.0,
                "topic are wplus.": 50.0,
                "topic is wminus.": 20.0,
                "topic are wminus.": 15.0,
            }
        )
        out = relevance_perplexity(q, provider)
        assert out[0].score == pytest.approx(10.0 + 15.0)

    def test_ties_ordered_by_frame_id(self, rel_table, rel_registry):
        sentences = {}
        for frame in rel_registry.frames:
            for pole in (frame.pole_plus, frame.pole_minus):
                for t in DEFAULT_TEMPLATES:
                    sentences[t.format(topic="topic", pole=pole)] = 7.0
        q = make_relevance_query({"topic"}, rel_registry, rel_table)
        out = relevance_perplexity(q, TablePerplexity(sentences))
        assert [s.frame_id for s in out] == sorted(s.frame_id for s in out)

    def test_planted_relevant_frame_ranks_first(self, rel_table, rel_registry):
        scores = {}
        for frame in rel_registry.frames:
            value = 5.0 if frame.id == "xminus--xplus" else 80.0
            for pole in (frame.pole_plus, frame.pole_minus):
                for t in DEFAULT_TEMPLATES:
                    scores[t.format(topic="topic", pole=pole)] = value
        q = make_relevance_query({"topic"}, rel_registry, rel_table)
        out = relevance_perplexity(q, TablePerplexity(scores))
        assert out[0].frame_id == "xminus--xplus"

    def test_provider_failure_names_sentence(self, rel_table, rel_registry):
        q = make_relevance_query({"topic"}, rel_registry, rel_table)
        with pytest.raises(DataError, match="topic is wplus."):
            relevance_perplexity(q, TablePerplexity({}))

    def test_scores_do_not_depend_on_vectors(self, rel_registry):
        # same provider, different embedding table used only for resolution
        other_table = table_from_dict(
            {"topic": [9.0, 9.0], "wplus": [1.0, 0.0], "wminus": [0.0, 1.0],
             "xplus": [1.0, 1.0], "xminus": [2.0, 1.0]}
        )
        sentences = {}
        for frame in rel_registry.frames:
            for pole in (frame.pole_plus, frame.pole_minus):
                for t in DEFAULT_TEMPLATES:
                    sentences[t.format(topic="topic", pole=pole)] = 3.0
        q = make_relevance_query({"topic"}, rel_registry, other_table)
        out = relevance_perplexity(q, TablePerplexity(sentences))
        assert all(s.score == pytest.approx(6.0) for s in out)


class TestCharGramProvider:
    def test_deterministic_and_positive(self):
        provider = CharGramPerplexity("the food is fresh\nthe food is good\n")
        a = provider.perplexity("the food is fresh.")
        b = provider.perplexity("the food is fresh.")
        assert a == b
        assert a > 0.0 and math.isfinite(a)

    def test_seen_text_scores_lower_than_noise(self):
        provider = CharGramPerplexity("the food is fresh and good\n" * 5)
        seen = provider.perplexity("the food is fresh")
        noise = provider.perplexity("zqxv jkwp brrt")
        assert seen < noise

    @given(training=st.text("ab \n\x02\x03é", max_size=40),
           sentence=st.text("abc \x03é", max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_add_one_trigram_definition(self, training, sentence):
        """Perplexity is exp of the mean negative log of (trigram count + 1) /
        (bigram context count + charset size), over each character of the
        sentence and an end mark, with two start marks before the first."""
        grams, contexts = Counter(), Counter()
        for line in training.splitlines():
            seq = "\x02\x02" + line + "\x03"
            for i in range(2, len(seq)):
                grams[seq[i - 2 : i + 1]] += 1
                contexts[seq[i - 2 : i]] += 1
        size = len(set(training) | {"\x02", "\x03"})
        seq = "\x02\x02" + sentence + "\x03"
        log_prob = 0.0
        for i in range(2, len(seq)):
            num, den = grams[seq[i - 2 : i + 1]] + 1, contexts[seq[i - 2 : i]] + size
            log_prob += math.log(num / den)
        want = math.exp(-log_prob / (len(seq) - 2))
        assert CharGramPerplexity(training).perplexity(sentence) == want
