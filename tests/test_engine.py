import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelens.corpus import build_view, make_document, split_by_group
from framelens.engine import (
    FramingResult,
    SeparationResult,
    analyze_frames,
    baseline_biases,
    bootstrap_null,
    corpus_bias,
    corpus_intensity,
    document_spectrum,
    log_odds_dirichlet,
    rank_sum_select,
    separation,
    shift_table,
    significance,
    top_significant_frames,
    view_statistics,
    word_contribution,
    word_shifts,
)
from framelens.errors import DataError
from framelens.frames import FrameRegistry, Microframe, build_registry, make_frame

import oracles
from conftest import random_instance, table_from_dict


def frame_with_axis(axis) -> Microframe:
    return Microframe(
        id="m--p", pole_minus="m", pole_plus="p", axis=np.array(axis, dtype=np.float64)
    )


class TestWordContribution:
    def test_parallel_is_one(self):
        f = frame_with_axis([2.0, 0.0])
        assert word_contribution(np.array([5.0, 0.0]), f) == pytest.approx(1.0)

    def test_antiparallel_is_minus_one(self):
        f = frame_with_axis([2.0, 0.0])
        assert word_contribution(np.array([-1.0, 0.0]), f) == pytest.approx(-1.0)

    def test_orthogonal_is_zero(self):
        f = frame_with_axis([1.0, 0.0])
        assert word_contribution(np.array([0.0, 3.0]), f) == pytest.approx(0.0)

    def test_hand_computed_eight_ninths(self):
        # (1,2,2).(2,1,2) = 8, norms 3 and 3 -> 8/9
        f = frame_with_axis([2.0, 1.0, 2.0])
        c = word_contribution(np.array([1.0, 2.0, 2.0]), f)
        assert c == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_dimension_mismatch(self):
        f = frame_with_axis([1.0, 0.0])
        with pytest.raises(DataError, match="dimension mismatch"):
            word_contribution(np.array([1.0, 0.0, 0.0]), f)

    def test_zero_norm_rejected(self):
        f = frame_with_axis([1.0, 0.0])
        with pytest.raises(DataError, match="zero-norm"):
            word_contribution(np.array([0.0, 0.0]), f)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=8)
        f = frame_with_axis(rng.normal(size=8))
        base = word_contribution(v, f)
        for lam in (0.5, 3.0):
            assert abs(word_contribution(lam * v, f) - base) <= 1e-12
            scaled_axis = frame_with_axis(lam * f.axis)
            assert abs(word_contribution(v, scaled_axis) - base) <= 1e-12

    def test_tiny_axis_stays_within_unit_interval(self):
        # the axis components square into the subnormal range
        f = frame_with_axis([2.9082596896782157e-158, 2.9082596896782157e-158])
        c = word_contribution(np.array([1.0, 1.0]), f)
        assert abs(c - 1.0) <= 1e-15

    finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)

    @given(st.lists(finite, min_size=2, max_size=8), st.lists(finite, min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_always_within_unit_interval(self, v, a):
        if len(v) != len(a):
            return
        # squares of denormal-range components underflow the norm to zero,
        # which the engine rejects; only test vectors with a usable norm
        if math.sqrt(sum(x * x for x in v)) == 0.0 or math.sqrt(sum(x * x for x in a)) == 0.0:
            return
        f = frame_with_axis(a)
        c = word_contribution(np.array(v, dtype=np.float64), f)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestCorpusStatistics:
    def test_single_token_corpus(self, toy_table):
        docs = [make_document("d", "good")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        c = word_contribution(toy_table.vector_of("good"), frame)
        assert corpus_bias(view, frame, toy_table) == pytest.approx(c, abs=1e-15)

    def test_weighted_average_forced_by_counts(self):
        # unit vectors with exact-by-construction cosines 0.3 and -0.6
        table = table_from_dict(
            {
                "a": [0.3, math.sqrt(1 - 0.09)],
                "b": [-0.6, 0.8],
                "m": [-1.0, 0.0],
                "p": [1.0, 0.0],
            }
        )
        frame = make_frame("m", "p", table)  # axis (2, 0)
        docs = [make_document("d", "a a b")]
        view = build_view(docs, table)
        assert corpus_bias(view, frame, table) == pytest.approx(0.0, abs=1e-6)

    def test_intensity_zero_when_all_at_baseline(self, toy_table):
        docs = [make_document("d", "good good good")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        b = corpus_bias(view, frame, toy_table)
        assert corpus_intensity(view, frame, toy_table, b) == pytest.approx(0.0, abs=1e-15)

    def test_intensity_hand_arithmetic(self):
        table = table_from_dict(
            {
                "a": [0.2, math.sqrt(1 - 0.04)],
                "b": [0.4, math.sqrt(1 - 0.16)],
                "m": [-1.0, 0.0],
                "p": [1.0, 0.0],
            }
        )
        frame = make_frame("m", "p", table)
        view = build_view([make_document("d", "a b")], table)
        out = corpus_intensity(view, frame, table, baseline_bias=0.3)
        assert out == pytest.approx(0.01, abs=1e-6)

    def test_empty_view_raises(self, toy_table):
        frame = make_frame("bad", "good", toy_table)
        docs = [make_document("d", "good", group="x")]
        view = build_view(docs, toy_table)
        _, background = split_by_group(view, "x")
        with pytest.raises(DataError, match="empty corpus view"):
            corpus_bias(background, frame, toy_table)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_token_stream_oracle(self, seed):
        rng = np.random.default_rng(seed)
        table, docs, topics, view, frame = random_instance(rng)
        stream = oracles.counted_stream(docs, table, topics)
        contrib = oracles.contributions_by_token(stream, table, frame)
        want_bias = oracles.stream_bias(stream, contrib)
        got_bias = corpus_bias(view, frame, table)
        assert got_bias == pytest.approx(want_bias, abs=1e-12)
        want_int = oracles.stream_intensity(stream, contrib, want_bias)
        got_int = corpus_intensity(view, frame, table, got_bias)
        assert got_int == pytest.approx(want_int, abs=1e-12)
        # without a baseline, intensity is about the view's own bias
        (bias,), (own_int,) = view_statistics(view, [frame], table)
        assert bias == got_bias
        assert own_int == pytest.approx(want_int, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_corpus_bias_is_the_one_frame_baseline(self, seed):
        table, _, _, view, frame = random_instance(np.random.default_rng(seed))
        registry = FrameRegistry((frame,), ())
        assert corpus_bias(view, frame, table) == baseline_biases(view, registry, table)[frame.id]

    def test_bias_bounded_by_max_contribution(self, toy_table):
        docs = [make_document("d", "good bad great awful service")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        b = corpus_bias(view, frame, toy_table)
        cs = [
            word_contribution(toy_table.vector_of(t), frame) for t in view.counts
        ]
        assert abs(b) <= max(abs(c) for c in cs) <= 1.0

    def test_document_order_never_matters(self, toy_table):
        docs = [
            make_document("a", "good great"),
            make_document("b", "bad awful"),
            make_document("c", "service meal"),
        ]
        frame = make_frame("bad", "good", toy_table)
        v1 = build_view(docs, toy_table)
        v2 = build_view(list(reversed(docs)), toy_table)
        assert corpus_bias(v1, frame, toy_table) == corpus_bias(v2, frame, toy_table)


class TestAntisymmetry:
    def test_flip_negates_contribution_and_bias_exactly(self, toy_table):
        docs = [make_document("d", "good bad great awful service meal")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        flipped = frame.flipped()
        for tok in view.counts:
            c = word_contribution(toy_table.vector_of(tok), frame)
            cf = word_contribution(toy_table.vector_of(tok), flipped)
            assert cf == -c  # exact, not approximate
        assert corpus_bias(view, flipped, toy_table) == -corpus_bias(view, frame, toy_table)

    def test_flip_preserves_intensity_with_recomputed_baseline(self, toy_table):
        docs = [make_document("d", "good bad great awful service")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        flipped = frame.flipped()
        b = corpus_bias(view, frame, toy_table)
        assert corpus_intensity(view, frame, toy_table, b) == corpus_intensity(
            view, flipped, toy_table, -b
        )


class TestBootstrapNull:
    def test_deterministic_under_seed(self, toy_table):
        docs = [make_document("d", "good bad great awful service meal slow")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        n1 = bootstrap_null(view, frame, toy_table, sample_size=5, n=64, seed=11)
        n2 = bootstrap_null(view, frame, toy_table, sample_size=5, n=64, seed=11)
        assert n1.bias_samples.tobytes() == n2.bias_samples.tobytes()
        assert n1.intensity_samples.tobytes() == n2.intensity_samples.tobytes()

    def test_single_sample(self, toy_table):
        docs = [make_document("d", "good bad")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        null = bootstrap_null(view, frame, toy_table, sample_size=2, n=1, seed=0)
        assert null.bias_samples.shape == (1,)
        assert null.intensity_samples.shape == (1,)

    def test_law_of_large_numbers_mean(self, toy_table):
        docs = [make_document("d", " ".join(["good"] * 30 + ["bad"] * 20 + ["service"] * 10))]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        b_full = corpus_bias(view, frame, toy_table)
        null = bootstrap_null(
            view, frame, toy_table, sample_size=view.total_tokens, n=1000, seed=5
        )
        spread = null.bias_samples.std() / math.sqrt(1000)
        assert abs(null.bias_samples.mean() - b_full) <= 3 * spread + 1e-12

    def test_document_unit_runs_and_is_deterministic(self, toy_table):
        docs = [
            make_document("a", "good great"),
            make_document("b", "bad awful"),
            make_document("c", "service"),
        ]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        n1 = bootstrap_null(view, frame, toy_table, sample_size=2, n=32, seed=9, unit="document")
        n2 = bootstrap_null(view, frame, toy_table, sample_size=2, n=32, seed=9, unit="document")
        assert np.array_equal(n1.bias_samples, n2.bias_samples)
        assert np.all(np.abs(n1.bias_samples) <= 1.0)

    @pytest.mark.parametrize("unit", ["token", "document"])
    def test_samples_match_an_independent_resample(self, toy_table, unit):
        """Each sample is the bias and intensity of the tokens or documents
        that default_rng(seed) picks, recomputed from token streams."""
        docs = [
            make_document("a", "good great good"),
            make_document("b", "bad awful"),
            make_document("c", "service meal slow good"),
        ]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        null = bootstrap_null(view, frame, toy_table, sample_size=4, n=50, seed=11, unit=unit)
        full_stream = oracles.counted_stream(view.documents, toy_table, set())
        contrib = oracles.contributions_by_token(full_stream, toy_table, frame)
        baseline = oracles.stream_bias(full_stream, contrib)
        rng = np.random.default_rng(11)
        if unit == "token":
            tokens = view.vocabulary()
            counts = np.array([view.counts[t] for t in tokens], dtype=np.float64)
            draws = rng.multinomial(4, counts / counts.sum(), size=50)
            streams = [[t for t, k in zip(tokens, row) for _ in range(k)] for row in draws]
        else:
            picks = rng.integers(0, len(docs), size=(50, 4))
            streams = [
                oracles.counted_stream([view.documents[d] for d in row], toy_table, set())
                for row in picks
            ]
        for i, stream in enumerate(streams):
            assert null.bias_samples[i] == pytest.approx(
                oracles.stream_bias(stream, contrib), abs=1e-12
            )
            assert null.intensity_samples[i] == pytest.approx(
                oracles.stream_intensity(stream, contrib, baseline), abs=1e-12
            )

    def test_rejects_bad_arguments(self, toy_table):
        docs = [make_document("d", "good bad")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        with pytest.raises(DataError):
            bootstrap_null(view, frame, toy_table, sample_size=2, n=0, seed=0)
        with pytest.raises(DataError):
            bootstrap_null(view, frame, toy_table, sample_size=0, n=5, seed=0)
        with pytest.raises(DataError):
            bootstrap_null(view, frame, toy_table, sample_size=2, n=5, seed=0, unit="word")


class TestSignificance:
    def _null(self, samples):
        arr = np.asarray(samples, dtype=np.float64)
        from framelens.engine import NullDistribution

        return NullDistribution("f", arr, arr.copy(), seed=0)

    def test_observed_equals_every_sample(self):
        null = self._null([0.4] * 100)
        p_b, p_i, eff_b, eff_i = significance(0.4, 0.4, null)
        assert p_b == 1.0 and p_i == 1.0
        assert eff_b == pytest.approx(0.0, abs=1e-15)
        assert eff_i == pytest.approx(0.0, abs=1e-15)

    def test_observed_above_all_samples(self):
        null = self._null(np.linspace(0.0, 0.5, 1000))
        p_b, _, _, _ = significance(0.9, 0.9, null)
        assert p_b == pytest.approx(2.0 / 1001.0)

    def test_effect_matches_direct_mean_subtraction(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0.1, 0.05, size=333)
        null = self._null(samples)
        _, _, eff_b, _ = significance(0.25, 0.0, null)
        assert eff_b == pytest.approx(0.25 - samples.mean(), abs=1e-15)

    def test_rounding_level_differences_are_ties(self):
        null = self._null([0.4 + 1e-15] * 100)
        p_b, p_i, _, _ = significance(0.4, 0.4, null)
        assert p_b == 1.0 and p_i == 1.0

    def test_p_never_zero_and_never_above_one(self):
        null = self._null(np.linspace(-1, 1, 50))
        for obs in (-5.0, -1.0, 0.0, 1.0, 5.0):
            p_b, p_i, _, _ = significance(obs, obs, null)
            assert 0.0 < p_b <= 1.0 and 0.0 < p_i <= 1.0


def _loop_p(observed, samples):
    """Two-tailed add-one p-value of one observed value, one sample at a time."""
    ge = le = 0
    for x in samples:
        if x >= observed - 1e-12:
            ge += 1
        if x <= observed + 1e-12:
            le += 1
    n = len(samples)
    return min(1.0, 2.0 * min((ge + 1) / (n + 1), (le + 1) / (n + 1)))


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_two_tailed_p_row_wise_matches_a_loop(n):
    """Each row of a 2-D null is tested against its own observed value; rows
    hold exact ties, ties within 1e-12, near misses and distinct values."""
    from framelens.engine import _two_tailed_p

    rng = np.random.default_rng(n)
    observed = np.array([0.3, -0.2, 0.0, 0.7, 0.1, -1.0])
    samples = rng.normal(0.0, 0.5, size=(len(observed), n))
    samples[0, :] = 0.3  # every sample an exact tie
    samples[1, : (n + 1) // 2] = -0.2 + 5e-13  # ties within the tolerance, above
    samples[2, ::2] = 0.0  # exact ties among distinct values
    samples[3, : (n + 1) // 2] = 0.7 + 3e-12  # just outside the tolerance
    samples[4, : (n + 1) // 2] = 0.1 - 5e-13  # ties within the tolerance, below
    samples[5, :] = 2.0  # observed below every sample
    p = _two_tailed_p(observed, samples)
    assert p.shape == observed.shape
    expected = [_loop_p(o, row) for o, row in zip(observed.tolist(), samples.tolist())]
    assert p.tolist() == expected


def _result(fid, eff_b, p_b, eff_i=0.0, p_i=1.0):
    return FramingResult(
        frame_id=fid,
        bias=0.0,
        intensity=0.0,
        baseline_bias=0.0,
        effect_bias=eff_b,
        effect_intensity=eff_i,
        p_bias=p_b,
        p_intensity=p_i,
        n_bootstrap=100,
    )


class TestTopSignificant:
    def test_nothing_significant(self):
        results = [_result(f"f{i}", 0.5, 0.5) for i in range(5)]
        assert top_significant_frames(results, "bias", 10, 0.05) == []

    def test_sorted_by_absolute_effect(self):
        results = [
            _result("a", -0.9, 0.01),
            _result("b", 0.5, 0.01),
            _result("c", 0.7, 0.01),
        ]
        out = top_significant_frames(results, "bias", 2, 0.05)
        assert [r.frame_id for r in out] == ["a", "c"]

    def test_tie_breaks_by_frame_id(self):
        results = [_result("zeta", 0.5, 0.01), _result("alpha", -0.5, 0.01)]
        out = top_significant_frames(results, "bias", 5, 0.05)
        assert [r.frame_id for r in out] == ["alpha", "zeta"]

    def test_may_return_fewer_than_m(self):
        results = [_result("a", 0.5, 0.01)]
        assert len(top_significant_frames(results, "bias", 10, 0.05)) == 1


class TestWordShifts:
    def test_bias_shifts_sum_to_corpus_bias(self, toy_table):
        docs = [make_document("d", "good bad great awful service meal")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        b = corpus_bias(view, frame, toy_table)
        shifts = shift_table(view, frame, toy_table, "bias", b)
        assert sum(shifts.values()) == pytest.approx(b, abs=1e-12)

    def test_intensity_shifts_sum_to_corpus_intensity(self, toy_table):
        docs = [make_document("d", "good bad great awful service meal")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        b = corpus_bias(view, frame, toy_table)
        i = corpus_intensity(view, frame, toy_table, b)
        shifts = shift_table(view, frame, toy_table, "intensity", b)
        assert sum(shifts.values()) == pytest.approx(i, abs=1e-12)

    def test_identical_views_have_zero_deltas(self, toy_table):
        docs = [make_document("d", "good bad great")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        entries = word_shifts(view, view, view, frame, toy_table, "bias", k=10)
        assert all(e.shift_delta == 0.0 for e in entries)

    def test_token_only_in_background_pulls_negative(self, toy_table):
        docs = [make_document("t", "good", group="t"), make_document("b", "good great awful")]
        full = build_view(docs, toy_table)
        target, background = split_by_group(full, "t")
        frame = make_frame("bad", "good", toy_table)
        entries = word_shifts(full, target, background, frame, toy_table, "bias", k=10)
        by_token = {e.token: e for e in entries}
        for token in ("great", "awful"):  # contributions > 0 and < 0
            assert repr(by_token[token].shift_target) == "0.0"  # never -0.0
            assert by_token[token].shift_delta == -by_token[token].shift_background

    def test_normalized_weight_is_count_over_total(self, toy_table):
        # a token appearing 2 times in a 4-token view carries weight 2/4
        docs = [make_document("d", "good good bad great")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        shifts = shift_table(view, frame, toy_table, "bias", 0.0)
        c = word_contribution(toy_table.vector_of("good"), frame)
        assert shifts["good"] == pytest.approx(2 / 4 * c, abs=1e-15)

    def test_top_k_and_tie_order(self, toy_table):
        docs = [make_document("t", "good bad", group="t"), make_document("b", "great awful")]
        view = build_view(docs, toy_table)
        target, background = split_by_group(view, "t")
        frame = make_frame("bad", "good", toy_table)
        entries = word_shifts(view, target, background, frame, toy_table, "bias", k=2)
        assert len(entries) == 2
        full = word_shifts(view, target, background, frame, toy_table, "bias", k=100)
        assert len(full) == 4  # k beyond vocabulary returns everything, no padding
        deltas = [abs(e.shift_delta) for e in full]
        assert deltas == sorted(deltas, reverse=True)
        assert full[:2] == entries

    def test_ties_break_by_token(self):
        # "x" and "y" share one vector, so their deltas are equal
        table = table_from_dict(
            {"y": [1.0, 0.0], "x": [1.0, 0.0], "z": [0.0, 1.0], "m": [-1.0, 0.0], "p": [1.0, 0.0]}
        )
        docs = [make_document("t", "y x z", group="t"), make_document("b", "z z")]
        view = build_view(docs, table)
        target, background = split_by_group(view, "t")
        frame = make_frame("m", "p", table)
        entries = word_shifts(view, target, background, frame, table, "bias", k=0)
        assert [e.token for e in entries] == ["x", "y", "z"]
        assert entries[0].shift_delta == entries[1].shift_delta

    @pytest.mark.parametrize("kind", ["bias", "intensity"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_token_stream_oracle(self, seed, kind):
        """Both shift tables, against a baseline of the full stream, with topic
        words masked and OOV tokens left out of every total."""
        table, docs, topics, view, frame = random_instance(np.random.default_rng(100 + seed))
        target, background = split_by_group(view, "a")
        if background.total_tokens == 0:
            background = target  # one document: compare the view with itself
        entries = word_shifts(view, target, background, frame, table, kind, k=0)
        full_stream = oracles.counted_stream(docs, table, topics)
        contrib = oracles.contributions_by_token(full_stream, table, frame)
        baseline = oracles.stream_bias(full_stream, contrib)

        def shifts(docs_of_view):
            stream = oracles.counted_stream(docs_of_view, table, topics)
            weight = contrib if kind == "bias" else {
                t: (c - baseline) ** 2 for t, c in contrib.items()}
            return {t: stream.count(t) * weight[t] / len(stream) for t in set(stream)}

        want_t, want_b = shifts(target.documents), shifts(background.documents)
        assert sorted(e.token for e in entries) == sorted(set(want_t) | set(want_b))
        for e in entries:
            assert e.shift_target == pytest.approx(want_t.get(e.token, 0.0), abs=1e-12)
            assert e.shift_background == pytest.approx(want_b.get(e.token, 0.0), abs=1e-12)
            assert e.shift_delta == e.shift_target - e.shift_background
        assert topics.isdisjoint(e.token for e in entries)

    def test_views_outside_the_full_view_are_rejected(self, toy_table):
        full = build_view([make_document("a", "good bad")], toy_table)
        other = build_view([make_document("b", "great")], toy_table)
        frame = make_frame("bad", "good", toy_table)
        with pytest.raises(DataError, match="not contained"):
            word_shifts(full, full, other, frame, toy_table, "bias")


class TestDocumentSpectrum:
    def test_single_document_equals_corpus_bias(self, toy_table):
        docs = [make_document("d", "good bad great")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        b = corpus_bias(view, frame, toy_table)
        entries = document_spectrum(view, frame, toy_table)
        assert len(entries) == 1
        assert entries[0].doc_bias == pytest.approx(b, abs=1e-12)
        assert entries[0].doc_intensity == pytest.approx(
            corpus_intensity(view, frame, toy_table, b), abs=1e-12)

    def test_ordering_matches_per_document_oracle(self, toy_table):
        docs = [
            make_document("neg", "bad awful"),
            make_document("pos", "good great"),
            make_document("mid", "service"),
        ]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        entries = document_spectrum(view, frame, toy_table)
        full_stream = oracles.counted_stream(docs, toy_table, set())
        contrib = oracles.contributions_by_token(full_stream, toy_table, frame)
        baseline = oracles.stream_bias(full_stream, contrib)
        expected = {}
        for doc in docs:
            stream = oracles.counted_stream([doc], toy_table, set())
            expected[doc.doc_id] = (oracles.stream_bias(stream, contrib),
                                    oracles.stream_intensity(stream, contrib, baseline))
        assert [e.doc_id for e in entries] == sorted(expected, key=expected.get)
        for e in entries:
            assert e.doc_bias == pytest.approx(expected[e.doc_id][0], abs=1e-12)
            assert e.doc_intensity == pytest.approx(expected[e.doc_id][1], abs=1e-12)

    def test_same_bag_in_any_token_order_gives_equal_values(self):
        rng = np.random.default_rng(11)
        tokens = [f"w{i}" for i in range(40)]
        vectors = {t: rng.normal(size=8).tolist() for t in tokens + ["m", "p"]}
        table = table_from_dict(vectors)
        frame = make_frame("m", "p", table)
        bag = [t for i, t in enumerate(tokens) for _ in range(1 + i % 3)]
        shuffled = [bag[i] for i in rng.permutation(len(bag))]
        docs = [make_document("a", " ".join(bag)), make_document("b", " ".join(shuffled))]
        view = build_view(docs, table)
        first, second = document_spectrum(view, frame, table)
        assert first.doc_bias == second.doc_bias
        assert first.doc_intensity == second.doc_intensity

    def test_empty_document_gets_absent_marker_at_end(self, toy_table):
        docs = [make_document("full", "good"), make_document("hollow", "xyzzy")]
        view = build_view(docs, toy_table)
        frame = make_frame("bad", "good", toy_table)
        entries = document_spectrum(view, frame, toy_table)
        assert entries[-1].doc_id == "hollow"
        assert entries[-1].doc_bias is None
        assert entries[-1].doc_intensity is None


class TestSeparation:
    def _registry(self, table, pairs):
        return build_registry(pairs, table)

    def test_identical_views_zero_deltas(self, toy_table):
        docs = [make_document("d", "good bad great awful")]
        view = build_view(docs, toy_table)
        registry = self._registry(toy_table, [("bad", "good"), ("awful", "great")])
        out = separation(view, view, view, registry, toy_table)
        assert all(s.delta_bias == 0.0 and s.delta_intensity == 0.0 for s in out)

    def test_group_outside_the_full_view_is_error(self, toy_table):
        full = build_view([make_document("d", "good bad")], toy_table)
        other = build_view([make_document("e", "good great")], toy_table)
        registry = self._registry(toy_table, [("bad", "good")])
        with pytest.raises(DataError, match="not contained"):
            separation(full, full, other, registry, toy_table)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_token_stream_oracle(self, seed):
        """Both groups' bias and intensity about the full stream's bias, with
        topic words masked, on more frames than one frame block holds."""
        rng = np.random.default_rng(200 + seed)
        table, docs, topics, view, frame = random_instance(rng)
        view_a, view_b = split_by_group(view, "a")
        if view_b.total_tokens == 0:
            view_b = view_a
        dim = table.dimension
        frames = [frame] + [
            Microframe(f"m{i}--p{i}", f"m{i}", f"p{i}", rng.normal(size=dim)) for i in range(70)
        ]
        out = separation(view, view_a, view_b, FrameRegistry(tuple(frames), ()), table)
        full_stream = oracles.counted_stream(docs, table, topics)
        stream_a = oracles.counted_stream(view_a.documents, table, topics)
        stream_b = oracles.counted_stream(view_b.documents, table, topics)
        for s, f in zip(out, frames):
            contrib = oracles.contributions_by_token(full_stream, table, f)
            baseline = oracles.stream_bias(full_stream, contrib)
            assert s.frame_id == f.id
            assert s.bias_a == pytest.approx(oracles.stream_bias(stream_a, contrib), abs=1e-12)
            assert s.bias_b == pytest.approx(oracles.stream_bias(stream_b, contrib), abs=1e-12)
            assert s.intensity_a == pytest.approx(
                oracles.stream_intensity(stream_a, contrib, baseline), abs=1e-12)
            assert s.intensity_b == pytest.approx(
                oracles.stream_intensity(stream_b, contrib, baseline), abs=1e-12)
            assert s.mean_intensity == pytest.approx(
                oracles.stream_intensity(stream_a + stream_b, contrib, baseline), abs=1e-12)

    def test_planted_axis_attains_largest_bias_separation(self):
        from synthetic import planted_separation

        rng = np.random.default_rng(17)
        out = planted_separation(rng)
        by_rank = sorted(out, key=lambda s: s.rank_bias)
        assert by_rank[0].frame_id == "planted_neg--planted_pos"

    def test_ranks_are_one_based_and_complete(self, toy_table):
        docs_a = [make_document("a", "good great", group="x")]
        docs_b = [make_document("b", "bad awful", group="y")]
        va = build_view(docs_a, toy_table)
        vb = build_view(docs_b, toy_table)
        registry = self._registry(toy_table, [("bad", "good"), ("awful", "great"), ("slow", "meal")])
        full = build_view(docs_a + docs_b, toy_table)
        out = separation(full, va, vb, registry, toy_table)
        assert sorted(s.rank_bias for s in out) == [1, 2, 3]
        assert sorted(s.rank_intensity for s in out) == [1, 2, 3]
        for s in out:
            assert s.rank_sum == s.rank_bias + s.rank_intensity


class TestRankSumSelect:
    def _sep(self, fid, rank_b, rank_i):
        return SeparationResult(
            frame_id=fid,
            delta_bias=0.0,
            delta_intensity=0.0,
            rank_bias=rank_b,
            rank_intensity=rank_i,
            rank_sum=rank_b + rank_i,
            bias_a=0.0,
            bias_b=0.0,
            intensity_a=0.0,
            intensity_b=0.0,
            mean_intensity=0.0,
        )

    def test_spec_tie_case(self):
        seps = [
            self._sep("beta", 2, 1),
            self._sep("alpha", 1, 2),
            self._sep("gamma", 3, 3),
        ]
        assert rank_sum_select(seps, 1) == ["alpha"]

    def test_m_at_least_frame_count_returns_all_sorted(self):
        seps = [self._sep("b", 2, 2), self._sep("a", 1, 1)]
        assert rank_sum_select(seps, 10) == ["a", "b"]

    @pytest.mark.parametrize("seed", range(3))
    def test_against_independent_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        ranks_b = rng.permutation(n) + 1
        ranks_i = rng.permutation(n) + 1
        seps = [self._sep(f"f{i:02d}", int(ranks_b[i]), int(ranks_i[i])) for i in range(n)]
        expect = oracles.select_by_rank_sum(
            [(s.frame_id, s.rank_bias, s.rank_intensity) for s in seps], 5
        )
        assert rank_sum_select(seps, 5) == expect


class TestLogOdds:
    def test_symmetric_inputs_give_zero_scores(self, toy_table):
        docs = [make_document("d", "good bad great awful")]
        view = build_view(docs, toy_table)
        out = log_odds_dirichlet(view, view, view, k=10)
        assert all(abs(z) < 1e-12 for _, z in out)

    def test_hand_computed_tiny_example(self, toy_table):
        target = build_view([make_document("t", "good good good bad")], toy_table)
        background = build_view([make_document("b", "good bad bad bad")], toy_table)
        prior = build_view([make_document("p", "good good bad bad")], toy_table)
        out = dict(log_odds_dirichlet(target, background, prior, k=10))
        # by hand: alpha = {good: 2, bad: 2}, alpha0 = 4, n_t = n_b = 4
        delta_good = math.log((3 + 2) / (4 + 4 - 3 - 2)) - math.log((1 + 2) / (4 + 4 - 1 - 2))
        var_good = 1 / (3 + 2) + 1 / (1 + 2)
        z_good = delta_good / math.sqrt(var_good)
        assert out["good"] == pytest.approx(z_good, abs=1e-9)
        delta_bad = math.log((1 + 2) / (4 + 4 - 1 - 2)) - math.log((3 + 2) / (4 + 4 - 3 - 2))
        var_bad = 1 / (1 + 2) + 1 / (3 + 2)
        assert out["bad"] == pytest.approx(delta_bad / math.sqrt(var_bad), abs=1e-9)

    def test_overrepresented_tokens_rank_first(self, toy_table):
        target = build_view(
            [make_document("t", "service service service good")], toy_table
        )
        background = build_view(
            [make_document("b", "bad awful meal slow good")], toy_table
        )
        prior = build_view(
            [make_document("p", "service good bad awful meal slow")], toy_table
        )
        out = log_odds_dirichlet(target, background, prior, k=3)
        assert out[0][0] == "service"


def _two_group_instance(rng):
    """A random instance whose groups 'a' and 'b' both have countable tokens,
    and the views that `build_view` makes of each group's documents."""
    while True:
        table, docs, topics, view, frame = random_instance(rng)
        try:
            own = [build_view([d for d in docs if d.group == g], table, topics) for g in "ab"]
        except DataError:
            continue
        return table, view, frame, own


@pytest.mark.parametrize("seed", range(4))
def test_split_halves_give_the_numbers_of_views_built_on_their_own(seed):
    """A `split_by_group` half, counted from its parent's codes, gives the
    same statistics as a view built independently from the same documents."""
    rng = np.random.default_rng(300 + seed)
    table, view, frame, own = _two_group_instance(rng)
    halves = split_by_group(view, "a")
    frames = [frame] + [
        Microframe(f"m{i}--p{i}", f"m{i}", f"p{i}", rng.normal(size=table.dimension))
        for i in range(5)
    ]
    registry = FrameRegistry(tuple(frames), ())
    for unit in ("token", "document"):
        assert analyze_frames(
            view, halves[0], registry, table, n_bootstrap=16, seed=seed, bootstrap_unit=unit
        ) == analyze_frames(
            view, own[0], registry, table, n_bootstrap=16, seed=seed, bootstrap_unit=unit
        )
    assert separation(view, *halves, registry, table) == separation(view, *own, registry, table)
    for kind in ("bias", "intensity"):
        assert word_shifts(view, *halves, frame, table, kind, k=0) == word_shifts(
            view, *own, frame, table, kind, k=0
        )


class TestAnalyzePipeline:
    def _setup(self, toy_table):
        docs = [
            make_document("p1", "good great service", group="pos"),
            make_document("p2", "good meal", group="pos"),
            make_document("n1", "bad awful slow", group="neg"),
            make_document("n2", "awful service", group="neg"),
        ]
        full = build_view(docs, toy_table)
        target, _ = split_by_group(full, "pos")
        registry = build_registry([("bad", "good"), ("awful", "great"), ("slow", "meal")], toy_table)
        return full, target, registry

    def _check_against_single_frame(self, toy_table, unit, sample_size):
        full, target, registry = self._setup(toy_table)
        results = analyze_frames(
            full, target, registry, toy_table, n_bootstrap=64, seed=3, bootstrap_unit=unit
        )
        for res, frame in zip(results, registry.frames):
            b_t = corpus_bias(full, frame, toy_table)
            assert res.baseline_bias == pytest.approx(b_t, abs=1e-12)
            assert res.bias == pytest.approx(corpus_bias(target, frame, toy_table), abs=1e-12)
            assert res.intensity == pytest.approx(
                corpus_intensity(target, frame, toy_table, b_t), abs=1e-12
            )
            # every frame is scored on the draws of the master seed
            null = bootstrap_null(
                full, frame, toy_table, sample_size=sample_size(target), n=64, seed=3,
                unit=unit,
            )
            p_b, p_i, eff_b, eff_i = significance(res.bias, res.intensity, null)
            assert res.p_bias == p_b and res.p_intensity == p_i
            assert res.effect_bias == pytest.approx(eff_b, abs=1e-15)
            assert res.effect_intensity == pytest.approx(eff_i, abs=1e-15)

    def test_matches_single_frame_operations(self, toy_table):
        self._check_against_single_frame(toy_table, "token", lambda t: t.total_tokens)

    def test_matches_single_frame_operations_document_unit(self, toy_table):
        self._check_against_single_frame(toy_table, "document", lambda t: len(t.documents))

    @staticmethod
    def _wide_registry(rng):
        """40 corpus words and 150 frames, so a registry spans three blocks."""
        vocab = [f"w{i}" for i in range(40)]
        vectors = {t: rng.normal(size=6).tolist() for t in vocab}
        pairs = []
        for i in range(150):
            pairs.append((f"m{i}", f"p{i}"))
            vectors[f"m{i}"] = rng.normal(size=6).tolist()
            vectors[f"p{i}"] = rng.normal(size=6).tolist()
        table = table_from_dict(vectors)
        registry = build_registry(pairs, table)
        assert len(registry.frames) == 150
        return vocab, table, registry

    @staticmethod
    def _assert_same_row(row, inside):
        assert row.frame_id == inside.frame_id
        assert row.n_bootstrap == inside.n_bootstrap
        assert row.p_bias == inside.p_bias and row.p_intensity == inside.p_intensity
        for name in ("bias", "intensity", "baseline_bias", "effect_bias", "effect_intensity"):
            assert getattr(row, name) == pytest.approx(getattr(inside, name), abs=1e-15)

    def test_frame_row_is_registry_invariant(self):
        """A frame's row is the same alone as inside a registry of several
        frame blocks, at more draws than one batch, for both units. Only the
        rounding of the blocked products may differ; p-values are exact."""
        rng = np.random.default_rng(17)
        vocab, table, registry = self._wide_registry(rng)
        docs = [
            make_document(f"d{d}", " ".join(rng.choice(vocab, size=12)), group=str(d % 4))
            for d in range(30)
        ]
        full = build_view(docs, table)
        target, _ = split_by_group(full, "0")
        for unit in ("token", "document"):
            everything = analyze_frames(
                full, target, registry, table, n_bootstrap=300, seed=5, bootstrap_unit=unit
            )
            for index in (0, 70, 149):
                alone = FrameRegistry(frames=(registry.frames[index],), dropped=())
                (row,) = analyze_frames(
                    full, target, alone, table, n_bootstrap=300, seed=5, bootstrap_unit=unit
                )
                self._assert_same_row(row, everything[index])

    def test_exact_ties_are_registry_invariant(self):
        """A one-document target under the document unit: every resample that
        picks the target document ties with it exactly, and each such tie
        counts in both tails whatever the block the frame was scored in."""
        rng = np.random.default_rng(1)
        vocab, table, registry = self._wide_registry(rng)
        common = ["w1", "w2", "w3", "w7"]
        docs = [make_document("t", " ".join(common), group="t")] + [
            make_document(f"d{d}", " ".join(common + list(rng.choice(vocab[:8], size=2))))
            for d in range(10)
        ]
        full = build_view(docs, table)
        target, _ = split_by_group(full, "t")
        everything = analyze_frames(
            full, target, registry, table, n_bootstrap=300, seed=5, bootstrap_unit="document"
        )
        for frame, inside in zip(registry.frames, everything):
            alone = FrameRegistry(frames=(frame,), dropped=())
            (row,) = analyze_frames(
                full, target, alone, table, n_bootstrap=300, seed=5, bootstrap_unit="document"
            )
            self._assert_same_row(row, inside)

    def test_document_unit_supported(self, toy_table):
        full, target, registry = self._setup(toy_table)
        out = analyze_frames(
            full, target, registry, toy_table, n_bootstrap=16, seed=2,
            bootstrap_unit="document",
        )
        assert len(out) == len(registry.frames)

    def test_result_bounds(self, toy_table):
        full, target, registry = self._setup(toy_table)
        for res in analyze_frames(full, target, registry, toy_table, n_bootstrap=32, seed=0):
            assert -1.0 <= res.bias <= 1.0
            assert 0.0 <= res.intensity <= (1.0 + abs(res.baseline_bias)) ** 2 <= 4.0
            assert 0.0 < res.p_bias <= 1.0
            assert 0.0 < res.p_intensity <= 1.0
