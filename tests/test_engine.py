import math
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelens import embeddings, engine
from framelens.corpus import build_view, make_document, split_by_group
from framelens.embeddings import EmbeddingTable, LoadStats
from framelens.engine import (
    FramingResult,
    SeparationResult,
    ShiftEntry,
    SpectrumEntry,
    analyze_frames,
    baseline_biases,
    bootstrap_null,
    corpus_bias,
    corpus_intensity,
    document_spectrum,
    rank_sum_select,
    separation,
    shift_table,
    significance,
    top_significant_frames,
    unit_statistics,
    view_statistics,
    word_contribution,
    word_shifts,
)
from framelens.errors import DataError
from framelens.frames import FrameRegistry, Microframe, build_registry, make_frame
from framelens.reports import Table

import oracles
from conftest import random_instance, table_from_dict


def table_of(rows) -> Table:
    """The table of result rows of one dataclass, as the engine returns one."""
    return Table.of(type(rows[0]), *map(list, zip(*map(astuple, rows))))


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
        # view_statistics measures intensity about the view's own bias, which
        # the axis-space pass gives within 1e-15 of the one-frame one
        (bias,), (own_int,) = view_statistics(view, [frame], table)
        assert abs(bias - got_bias) <= 1e-15
        assert own_int == pytest.approx(want_int, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_corpus_bias_is_the_one_frame_baseline(self, seed):
        """`corpus_bias` is bit for bit the baseline that the one-frame
        commands measure intensity shifts about, and within 1e-15 of the
        registry's baseline from the axis-space pass."""
        table, _, _, view, frame = random_instance(np.random.default_rng(seed))
        registry = FrameRegistry((frame,), ())
        bias = corpus_bias(view, frame, table)
        assert bias == engine._frame_contributions(view, frame, table)[3]
        assert abs(bias - baseline_biases(view, registry, table)[frame.id]) <= 1e-15

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
        results = table_of([_result(f"f{i}", 0.5, 0.5) for i in range(5)])
        out = top_significant_frames(results, "bias", 10, 0.05)
        assert len(out) == 0 and out.columns["frame_id"] == []

    def test_sorted_by_absolute_effect(self):
        rows = [_result("a", -0.9, 0.01), _result("b", 0.5, 0.01), _result("c", 0.7, 0.01)]
        out = top_significant_frames(table_of(rows), "bias", 2, 0.05)
        assert list(out) == [rows[0], rows[2]]
        assert out.columns["frame_id"] == ["a", "c"]

    def test_tie_breaks_by_frame_id(self):
        results = table_of([_result("zeta", 0.5, 0.01), _result("alpha", -0.5, 0.01)])
        out = top_significant_frames(results, "bias", 5, 0.05)
        assert [r.frame_id for r in out] == ["alpha", "zeta"]

    def test_may_return_fewer_than_m(self):
        results = table_of([_result("a", 0.5, 0.01)])
        assert len(top_significant_frames(results, "bias", 10, 0.05)) == 1

    @pytest.mark.parametrize("by", ["bias", "intensity"])
    @pytest.mark.parametrize("seed", range(4))
    def test_against_a_filter_and_sort(self, by, seed):
        """Ties in |effect| on both signs, ids out of sorted order, and p
        values on both sides of alpha."""
        rng = np.random.default_rng(seed)
        effects, ps = rng.choice([-0.5, -0.2, 0.0, 0.2, 0.5], 40), rng.choice([0.01, 0.05, 0.2], 40)
        rows = [
            _result(f"f{j}", e, p) if by == "bias" else _result(f"f{j}", 0.0, 1.0, e, p)
            for j, e, p in zip(rng.permutation(40).tolist(), effects.tolist(), ps.tolist())
        ]
        kept = [r for r in rows if getattr(r, f"p_{by}") <= 0.05]
        kept.sort(key=lambda r: (-abs(getattr(r, f"effect_{by}")), r.frame_id))
        for m in (0, 3, 40):
            out = top_significant_frames(table_of(rows), by, m, 0.05)
            assert list(out) == kept[:m]

    @pytest.mark.parametrize("m", [-1, -4])
    def test_negative_m_is_a_data_error(self, m):
        results = table_of([_result(f"f{i}", 0.5, 0.01) for i in range(4)])
        with pytest.raises(DataError, match=f"m must be >= 0, got {m}"):
            top_significant_frames(results, "bias", m, 0.05)


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

    def test_returns_a_table_of_shift_rows(self, toy_table):
        docs = [make_document("t", "good bad", group="t"), make_document("b", "great awful good")]
        view = build_view(docs, toy_table)
        target, background = split_by_group(view, "t")
        frame = make_frame("bad", "good", toy_table)
        shifts = word_shifts(view, target, background, frame, toy_table, "intensity", k=3)
        assert isinstance(shifts, Table) and shifts.row is ShiftEntry
        columns = shifts.columns
        assert list(columns) == [
            "frame_id", "kind", "token", "shift_target", "shift_background", "shift_delta"]
        assert columns["frame_id"] == [frame.id] * 3 and columns["kind"] == ["intensity"] * 3
        assert [astuple(e) for e in shifts] == list(zip(
            columns["token"], columns["shift_target"], columns["shift_background"],
            columns["shift_delta"], columns["kind"]))
        assert columns["shift_delta"] == [
            t - b for t, b in zip(columns["shift_target"], columns["shift_background"])]


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

    def test_table_runs_by_bias_then_id_with_empty_documents_last_by_id(self):
        """"x" and "y" share one vector, so their documents tie on bias, as
        do the two "z" documents; two documents have no countable token."""
        table = table_from_dict({"m": [-1.0, 0.0], "p": [1.0, 0.0], "x": [1.0, 1.0],
                                 "y": [1.0, 1.0], "z": [-1.0, 0.5]})
        texts = {"d3": "x", "e5": "qux", "d1": "y", "e9": "z", "d2": "x y", "e0": "oov",
                 "d0": "z z"}
        docs = [make_document(i, t, group=i[0]) for i, t in texts.items()]
        spectrum = document_spectrum(build_view(docs, table), make_frame("m", "p", table), table)
        assert isinstance(spectrum, Table) and spectrum.row is SpectrumEntry
        columns = spectrum.columns
        assert list(columns) == ["doc_id", "group", "doc_bias", "doc_intensity"]
        assert columns["doc_id"] == ["d0", "e9", "d1", "d2", "d3", "e0", "e5"]
        assert columns["group"] == [i[0] for i in columns["doc_id"]]
        assert columns["doc_bias"][:2] == [-1 / math.sqrt(1.25)] * 2
        assert columns["doc_bias"][2:5] == [1 / math.sqrt(2)] * 3
        assert columns["doc_bias"][5:] == columns["doc_intensity"][5:] == [None, None]
        assert list(spectrum) == [SpectrumEntry(*row) for row in zip(*columns.values())]


class TestDocCoo:
    def test_int32_cells_below_the_limit_and_int64_from_it(self, monkeypatch):
        """Both code widths give the same triplets, and the same spectrum,
        unit statistics and document-unit analysis."""
        rng = np.random.default_rng(7)
        table, docs, _, view, frame = random_instance(rng)
        registry = FrameRegistry((frame,), ())
        units = [d.group for d in docs]

        def run():
            return (engine._doc_coo(view), document_spectrum(view, frame, table),
                    unit_statistics(view, frame, table, units),
                    analyze_frames(view, view, registry, table, n_bootstrap=8, seed=1,
                                   bootstrap_unit="document"))

        assert engine._INT32_CELLS == 2**31
        cells = len(view.documents) * len(view.tokens)
        monkeypatch.setattr(engine, "_INT32_CELLS", cells + 1)
        narrow, *narrow_results = run()
        monkeypatch.setattr(engine, "_INT32_CELLS", cells)
        wide, *wide_results = run()
        assert [a.dtype for a in narrow[:2]] == [np.dtype(np.int32)] * 2
        assert [a.dtype for a in wide[:2]] == [np.dtype(np.int64)] * 2
        assert [a.tolist() for a in narrow] == [a.tolist() for a in wide]
        assert narrow_results == wide_results


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


    def test_ranks_match_a_sort_with_ties_by_id(self, toy_table):
        """Frames with equal axes tie on both statistics; each tie goes to the
        smaller id, whatever the registry order."""
        rng = np.random.default_rng(4)
        axes = [rng.normal(size=3) for _ in range(3)]
        frames = [Microframe(f"f{i}--x", f"f{i}", "x", axes[i % 3].copy()) for i in range(9)]
        registry = FrameRegistry(reversed(frames), ())
        docs_a = [make_document("a", "good great service", group="x")]
        docs_b = [make_document("b", "bad awful meal", group="y")]
        full = build_view(docs_a + docs_b, toy_table)
        va, vb = build_view(docs_a, toy_table), build_view(docs_b, toy_table)
        out = separation(full, va, vb, registry, toy_table)

        def ranks(key):
            order = sorted(out, key=lambda s: (-key(s), s.frame_id))
            return {s.frame_id: i + 1 for i, s in enumerate(order)}

        by_bias = ranks(lambda s: abs(s.bias_a - s.bias_b))
        by_intensity = ranks(lambda s: s.mean_intensity)
        assert len(set(s.mean_intensity for s in out)) == 3  # three tied triples
        for s in out:
            assert (s.rank_bias, s.rank_intensity) == (by_bias[s.frame_id],
                                                       by_intensity[s.frame_id])
            assert s.rank_sum == s.rank_bias + s.rank_intensity


class TestSweepNull:
    """`_sweep_null` forms the unit axes from the registry's rows and walks
    the vocabulary's unit slices once per batch of draws: over a built
    registry or a registry built by hand from its frames, the nulls are
    byte-identical and within 1e-15 of the one-shot products, and no V×d
    float64 array is held."""

    @staticmethod
    def _draws(rng, n_tokens, batches):
        for size in batches:
            resampled = rng.multinomial(40, np.full(n_tokens, 1.0 / n_tokens),
                                        size=size).astype(np.float64)
            yield resampled, resampled.sum(axis=1)

    def test_every_registry_kind_gives_the_same_null(self, monkeypatch):
        rng = np.random.default_rng(11)
        vectors = {f"w{i}": rng.normal(size=7).tolist() for i in range(160)}
        table = table_from_dict(vectors)
        pairs = [(f"w{i}", f"w{i + 1}") for i in range(0, 150)]
        built = build_registry(pairs, table)
        tokens = [f"w{i}" for i in range(0, 160, 3)]
        draws = list(self._draws(rng, len(tokens), [3, 2]))
        baseline = rng.normal(size=len(built)) / 10
        monkeypatch.setattr(engine, "_MOMENT_ROWS", 20)  # 54 tokens in three slices
        nulls = [engine._sweep_null(source, table, tokens, baseline, draws, 5)
                 for source in (built, FrameRegistry(built.frames, ()))]
        assert [a.tobytes() for a in nulls[0]] == [a.tobytes() for a in nulls[1]]
        axes = np.array([f.axis for f in built.frames])
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        c = axes @ oracles.unit_rows_reference(table, tokens).T
        d = np.vstack([resampled for resampled, _ in draws])
        sizes = np.concatenate([totals for _, totals in draws])
        want = (c @ d.T / sizes, (c - baseline[:, None]) ** 2 @ d.T / sizes)
        for got, expected in zip(nulls[0], want):
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)
        for i in range(0, 150, 37):
            one = [engine._sweep_null(source, table, tokens, baseline[i:i + 1], draws, 5)
                   for source in (build_registry(pairs[i:i + 1], table),
                                  FrameRegistry(built.frames[i:i + 1], ()))]
            assert [a.tobytes() for a in one[0]] == [a.tobytes() for a in one[1]]

    def test_a_sweep_holds_no_vxd_array(self):
        """Two batches of a 150-frame sweep over V=5,000 words of d=64 peak
        below the V×d float64 unit rows of the vocabulary."""
        rng = np.random.default_rng(12)
        n_tokens, dim = 5000, 64
        table = table_from_dict({f"w{i}": rng.normal(size=dim).tolist()
                                 for i in range(n_tokens)})
        registry = build_registry([(f"w{i}", f"w{i + 1}") for i in range(150)], table)
        tokens = [f"w{i}" for i in range(n_tokens)]
        draws = list(self._draws(rng, n_tokens, [2, 2]))
        baseline = np.zeros(len(registry))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            engine._sweep_null(registry, table, tokens, baseline, draws, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < n_tokens * dim * 8


def _one_document_view(table, tokens):
    return build_view([make_document("d0", " ".join(tokens))], table)


@st.composite
def _contribution_cases(draw):
    """A table with rows from 1e-30 to 1e30 in scale, a one-document view
    of some of its tokens, and a frame of random scale."""
    dim = draw(st.sampled_from([1, 2, 3, 7, 300]))
    vocab = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = (rng.standard_normal((vocab, dim))
              * 10.0 ** rng.integers(-30, 31, size=(vocab, 1))).astype(np.float32)
    matrix[~matrix.any(axis=1)] = 1.0
    table = table_from_dict({f"t{i}": row for i, row in enumerate(matrix)})
    words = rng.integers(0, vocab, size=draw(st.integers(1, 2 * vocab)))
    view = _one_document_view(table, [f"t{i}" for i in words.tolist()])
    axis = rng.standard_normal(dim) * 10.0 ** int(rng.integers(-5, 6))
    return table, view, frame_with_axis(axis)


class TestFrameContributions:
    """One frame's contributions come one slice of unit rows at a time: within
    1e-15 of the one-shot unit rows times the unit axis, the same bits at any
    slice size, the same errors, and no V×d float64 array."""

    @given(_contribution_cases())
    @settings(max_examples=150, deadline=None)
    def test_within_1e15_of_the_one_shot_product_at_any_slice_size(self, case):
        table, view, frame = case
        tokens, n, c, bias = engine._frame_contributions(view, frame, table)
        assert tokens == view.vocabulary()
        axis = frame.axis / np.linalg.norm(frame.axis)
        assert np.max(np.abs(c - oracles.unit_rows_reference(table, tokens) @ axis)) <= 1e-15
        (axis_space_bias,), _ = view_statistics(view, [frame], table)
        assert abs(bias - axis_space_bias) <= 1e-15
        dim, n_tokens = table.dimension, len(tokens)
        for chunk in {1, dim - 1, dim, embeddings._CHUNK_COMPONENTS, n_tokens * dim + 1} - {0}:
            with mock.patch.object(embeddings, "_CHUNK_COMPONENTS", chunk):
                _, n_again, c_again, bias_again = engine._frame_contributions(view, frame, table)
            assert c_again.tobytes() == c.tobytes()
            assert (n_again.tobytes(), bias_again) == (n.tobytes(), bias)

    def test_errors_in_a_later_slice(self):
        """A zero row, or a missing token, past the first slice of 54 rows at
        d=300 gives the DataError of the one-shot unit rows."""
        matrix = np.random.default_rng(3).standard_normal((200, 300))
        tokens = [f"t{i}" for i in range(200)]
        view = _one_document_view(table_from_dict(dict(zip(tokens, matrix))), tokens)
        vocabulary = view.vocabulary()
        assert max(1, embeddings._CHUNK_COMPONENTS // 300) == 54
        late = vocabulary[150]
        zero = dict(zip(tokens, matrix))
        zero[late] = np.zeros(300)
        missing = {t: v for t, v in zip(tokens, matrix) if t != late}
        frame = frame_with_axis(np.ones(300))
        for vectors, message in [(zero, "zero-norm vector has no direction"),
                                 (missing, f"token not in embedding table: {late!r}")]:
            table = table_from_dict(vectors)
            with pytest.raises(DataError) as want:
                oracles.unit_rows_reference(table, vocabulary)
            with pytest.raises(DataError) as got:
                engine._frame_contributions(view, frame, table)
            assert str(got.value) == str(want.value) == message

    def test_one_frame_statistics_hold_no_vxd_array(self):
        """On a view whose V×d float64 unit rows dominate every other array,
        word shifts, the document spectrum and unit statistics each peak
        below a quarter of V·d·8 bytes."""
        rng = np.random.default_rng(13)
        n_tokens, dim = 5000, 300
        tokens = [f"w{i}" for i in range(n_tokens)]
        table = table_from_dict(dict(zip(tokens, rng.standard_normal((n_tokens, dim)))))
        docs = [make_document(f"d{j}", " ".join(tokens[j::10]), group="ab"[j % 2])
                for j in range(10)]
        view = build_view(docs, table)
        target, background = split_by_group(view, "a")
        frame = frame_with_axis(rng.standard_normal(dim))
        calls = {
            "word_shifts": lambda: word_shifts(view, target, background, frame, table, "bias"),
            "document_spectrum": lambda: document_spectrum(view, frame, table),
            "unit_statistics": lambda: unit_statistics(view, frame, table, [d.group for d in docs]),
        }
        peaks = {}
        for name, call in calls.items():
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[name] = peak - before
        assert all(peak < n_tokens * dim * 8 / 4 for peak in peaks.values()), peaks


def _misaligned(x: np.ndarray, offset: int) -> np.ndarray:
    """A copy of `x` whose data starts `offset` bytes past a 64-byte boundary."""
    raw = np.empty(x.nbytes + 128, dtype=np.uint8)
    at = -raw.ctypes.data % 64 + offset
    out = raw[at:at + x.nbytes].view(x.dtype).reshape(x.shape)
    out[...] = x
    return out


def _registry_of_axes(axes) -> FrameRegistry:
    return FrameRegistry(tuple(
        Microframe(f"m{i}--p{i}", f"m{i}", f"p{i}", np.array(axis, dtype=np.float64))
        for i, axis in enumerate(axes)), ())


@st.composite
def _axis_space_cases(draw):
    """A table, its sorted tokens, a registry of up to two frame blocks, the
    full corpus's counts, a target's counts (the corpus itself, or some of
    it), null samples drawn from the corpus at the target's size, and the
    rows of a slice of the axis-space pass and of the sweep."""
    dim = draw(st.sampled_from([1, 2, 3, 5, 16]))
    vocab = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((vocab, dim)) * 10.0 ** rng.integers(-3, 4, size=(vocab, 1))
    table = table_from_dict({f"t{i:02d}": row.tolist() for i, row in enumerate(matrix)})
    registry = _registry_of_axes(rng.standard_normal((draw(st.integers(1, 140)), dim)))
    full = rng.integers(1, 20, size=vocab).astype(np.float64)
    if draw(st.booleans()):
        target = full.copy()
    else:
        target = np.minimum(full, rng.integers(0, 4, size=vocab)).astype(np.float64)
        target[int(rng.integers(vocab))] += 1.0
    draws = rng.multinomial(int(target.sum()), full / full.sum(),
                            size=draw(st.integers(1, 3))).astype(np.float64)
    rows = draw(st.integers(1, 12))
    return table, sorted(table.vocabulary), registry, full, target, draws, rows


class TestAxisSpace:
    """Bias and intensity from each count vector's moments about a reference
    row (`_moments`, `_axis_statistics`) agree with the sweep over the F×V
    cosines within 4e-15 absolute, give the same p-values, and keep the
    sweep's exact properties; `_frame_statistics` sweeps only a null that
    costs more in the axis-space pass."""

    @staticmethod
    def _forbid_sweeps(monkeypatch):
        def forbidden(*args):
            raise AssertionError("count vectors were swept")

        monkeypatch.setattr(engine, "_sweep_null", forbidden)

    @given(_axis_space_cases())
    @settings(max_examples=150, deadline=None)
    @example((
        table_from_dict({"a": [0.5], "b": [-2.0]}), ["a", "b"],
        _registry_of_axes([[1.0], [-3.0]]), np.array([3.0, 1.0]), np.array([3.0, 1.0]),
        np.array([[2.0, 2.0], [4.0, 0.0]]), 1,
    ))
    def test_moments_agree_with_the_sweep(self, case):
        table, tokens, registry, full, target, draws, rows = case
        # the count vectors are swept as samples, about the full view's swept bias
        vectors = np.array([full, target, *draws])
        swept = [(vectors, vectors.sum(axis=1))]
        with mock.patch.object(engine, "_MOMENT_ROWS", rows):
            bias, _ = engine._sweep_null(registry, table, tokens, np.zeros(len(registry)),
                                         swept, len(vectors))
            bias, intensity = engine._sweep_null(registry, table, tokens, bias[:, 0], swept,
                                                 len(vectors))
            moments = engine._moments(table, tokens, full, list(vectors))
        m_baseline, m_bias, m_intensity = engine._axis_statistics(registry, *moments)
        np.testing.assert_allclose(m_baseline, bias[:, 0], rtol=0.0, atol=4e-15)
        np.testing.assert_allclose(m_bias, bias.T, rtol=0.0, atol=4e-15)
        np.testing.assert_allclose(m_intensity, intensity.T, rtol=0.0, atol=4e-15)
        assert np.all(m_intensity >= 0.0)
        sweep_p = engine._significance(bias[:, 1], intensity[:, 1], bias[:, 2:], intensity[:, 2:])
        moment_p = engine._significance(m_bias[1], m_intensity[1], m_bias[2:].T,
                                        m_intensity[2:].T)
        for want, got in zip(sweep_p[:2], moment_p[:2]):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_means_and_biases_have_the_same_bits_in_any_company(self, monkeypatch, seed):
        """A count vector's mean unit row, and the biases read off it, have
        the same bits whichever other vectors share the pass, whether it is
        the baseline or a reported vector, and wherever the unit rows, means
        and axes lie in memory: they are sums in row order, not BLAS calls."""
        rng = np.random.default_rng(seed)
        dim = 37
        table = table_from_dict({f"w{i}": rng.standard_normal(dim).tolist() for i in range(70)})
        tokens = sorted(table.vocabulary)
        w, x, y = rng.integers(0, 9, size=(3, len(tokens))).astype(np.float64)
        registry = _registry_of_axes(rng.standard_normal((150, dim)))
        unit_slices, unit_axes = EmbeddingTable.unit_slices, engine._unit_axes
        means, biases = [], []
        for offset, base, weights, at in [(0, w, [], 0), (8, x, [w, y], 1), (24, y, [x, w], 2),
                                          (40, w, [w], 0), (56, w, [w], 1)]:
            monkeypatch.setattr(EmbeddingTable, "unit_slices", lambda *args, _o=offset: (
                (start, _misaligned(part, _o)) for start, part in unit_slices(*args)))
            monkeypatch.setattr(engine, "_unit_axes",
                                lambda axes, _o=offset: unit_axes(_misaligned(axes, _o)))
            with mock.patch.object(engine, "_MOMENT_ROWS", 16):
                r, m, seconds = engine._moments(table, tokens, base, weights)
            baseline, bias, _ = engine._axis_statistics(registry, r, _misaligned(m, offset),
                                                        seconds)
            means.append(m[at].tobytes())
            biases.append((baseline if at == 0 else bias[at - 1]).tobytes())
        assert len(set(means)) == len(set(biases)) == 1
        monkeypatch.undo()
        view = build_view([make_document("d", " ".join(rng.choice(tokens, size=200)))], table)
        bias, _ = view_statistics(view, registry, table)
        assert bias.tolist() == list(baseline_biases(view, registry, table).values())

    def test_one_type_view_has_zero_intensity(self):
        rng = np.random.default_rng(5)
        table = table_from_dict({"w": rng.standard_normal(4).tolist()})
        registry = _registry_of_axes(rng.standard_normal((70, 4)))
        w = np.array([7.0])
        _, _, intensity = engine._axis_statistics(
            registry, *engine._moments(table, ["w"], w, [w]))
        assert intensity.tolist() == [[0.0] * 70]

    def test_contributions_equal_to_the_baseline_give_zero_intensity(self, monkeypatch):
        """Forty words of different directions that all make the same angle
        with every axis: each contribution is the view's bias, on the axis
        path, and the intensity about it is exactly 0.0."""
        rows = [[1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0]]
        table = table_from_dict({f"w{i}": rows[i % 4] for i in range(40)})
        view = _one_document_view(table, [f"w{i}" for i in range(40) for _ in range(i + 1)])
        registry = _registry_of_axes([[x, 0.0, 0.0] for x in range(-32, 32) if x])
        self._forbid_sweeps(monkeypatch)
        bias, intensity = view_statistics(view, registry, table)
        (row,) = oracles.unit_rows_reference(table, ["w0"])
        assert np.abs(bias).tolist() == [row[0]] * 63
        assert intensity.tolist() == [0.0] * 63

    def test_intensity_is_never_negative(self, monkeypatch):
        """32 words at one angle to an axis in general position: the
        intensity about their bias is ~1e-32, the axis path's
        q − 2δt + δ² rounds to about ±1e-17, and a negative one reads 0."""
        self._forbid_sweeps(monkeypatch)
        for seed in range(16):
            rng = np.random.default_rng(seed)
            axis = rng.standard_normal(5)
            axis /= np.linalg.norm(axis)
            others = rng.standard_normal((32, 5))
            others -= np.outer(others @ axis, axis)
            others /= np.linalg.norm(others, axis=1)[:, None]
            table = EmbeddingTable(dimension=5, _index={f"w{i}": i for i in range(32)},
                                   _matrix=0.6 * axis + 0.8 * others, stats=LoadStats(kept=32))
            words = [f"w{i}" for i in range(32) for _ in range(int(rng.integers(1, 9)))]
            registry = _registry_of_axes([axis] * 64)
            _, intensity = view_statistics(_one_document_view(table, words), registry, table)
            assert np.all((intensity >= 0.0) & (intensity < 1e-15))

    @pytest.mark.parametrize("seed", range(3))
    def test_flip_negates_bias_exactly_and_keeps_intensity(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        table = table_from_dict({f"w{i}": rng.standard_normal(6).tolist() for i in range(40)})
        docs = [make_document(f"d{j}", " ".join(rng.choice(list(table.vocabulary), size=12)),
                              group="ab"[j % 2]) for j in range(8)]
        full = build_view(docs, table)
        view_a, view_b = split_by_group(full, "a")
        axes = rng.standard_normal((100, 6))
        registry, flipped = _registry_of_axes(axes), _registry_of_axes(-axes)
        self._forbid_sweeps(monkeypatch)
        seps, seps_flipped = (separation(full, view_a, view_b, r, table).columns
                              for r in (registry, flipped))
        for column in ("bias_a", "bias_b"):
            assert seps_flipped[column] == [-x for x in seps[column]]
        for column in ("intensity_a", "intensity_b"):
            assert seps_flipped[column] == seps[column]
        bias, intensity = view_statistics(view_a, registry, table)
        bias_flipped, intensity_flipped = view_statistics(view_a, flipped, table)
        assert bias_flipped.tolist() == (-bias).tolist()
        assert intensity_flipped.tolist() == intensity.tolist()

    def test_each_path_is_taken_by_a_real_input(self, monkeypatch):
        """Every count vector takes the axis path, and only the reported ones
        get a second moment: none for `baseline_biases`, the two groups for
        `separation`, and the target for `analyze_frames`, with a small null
        joining it; a large null is swept after it, and one frame's bias,
        intensity and bootstrap null take neither path."""
        calls = []
        for name in ("_moments", "_sweep_null"):
            original = getattr(engine, name)

            def spy(*args, _name=name, _original=original):
                calls.append((_name, len(args[3])) if _name == "_moments" else (_name,))
                return _original(*args)

            monkeypatch.setattr(engine, name, spy)
        rng = np.random.default_rng(3)
        table = table_from_dict({f"w{i}": rng.standard_normal(4).tolist() for i in range(30)})
        docs = [make_document(f"d{j}", " ".join(rng.choice(list(table.vocabulary), size=20)),
                              group="ab"[j % 2]) for j in range(10)]
        full = build_view(docs, table)
        target, background = split_by_group(full, "a")
        registry = _registry_of_axes(rng.standard_normal((80, 4)))
        baseline_biases(full, registry, table)
        assert calls == [("_moments", 0)]
        calls.clear()
        separation(full, target, background, registry, table)
        assert calls == [("_moments", 2)]
        calls.clear()
        analyze_frames(full, target, registry, table, n_bootstrap=3, seed=1)
        assert calls == [("_moments", 1 + 3)]
        calls.clear()
        analyze_frames(full, target, registry, table, n_bootstrap=300, seed=1)
        assert calls == [("_moments", 1), ("_sweep_null",)]
        calls.clear()
        corpus_bias(full, registry.frames[0], table)
        corpus_intensity(full, registry.frames[0], table, 0.0)
        bootstrap_null(full, registry.frames[0], table, sample_size=50, n=300, seed=1)
        assert calls == []


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
        assert rank_sum_select(table_of(seps), 1) == ["alpha"]

    def test_m_at_least_frame_count_returns_all_sorted(self):
        seps = [self._sep("b", 2, 2), self._sep("a", 1, 1)]
        assert rank_sum_select(table_of(seps), 10) == ["a", "b"]

    @pytest.mark.parametrize("m", [-1, -2])
    def test_negative_m_is_a_data_error(self, m):
        seps = table_of([self._sep("a", 1, 1), self._sep("b", 2, 2), self._sep("c", 3, 3)])
        with pytest.raises(DataError, match=f"m must be >= 0, got {m}"):
            rank_sum_select(seps, m)

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
        assert rank_sum_select(table_of(seps), 5) == expect


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


@pytest.mark.parametrize("seed", range(4))
def test_separation_gives_a_group_the_bits_analyze_gives_it(seed):
    """One sweep computes both: group A's bias and intensity in `separation`
    are bit for bit its `analyze_frames` target values, over two blocks."""
    rng = np.random.default_rng(200 + seed)
    table, _, _, view, frame = random_instance(rng)
    view_a, view_b = split_by_group(view, "a")
    if view_b.total_tokens == 0:
        view_b = view_a
    frames = [frame] + [
        Microframe(f"m{i}--p{i}", f"m{i}", f"p{i}", rng.normal(size=table.dimension))
        for i in range(70)
    ]
    registry = FrameRegistry(tuple(frames), ())
    seps = separation(view, view_a, view_b, registry, table).columns
    results = analyze_frames(view, view_a, registry, table, n_bootstrap=4, seed=seed).columns
    for sep, analyzed in (("bias_a", "bias"), ("intensity_a", "intensity")):
        assert list(map(float.hex, seps[sep])) == list(map(float.hex, results[analyzed]))


@pytest.mark.parametrize("vocab, dim, n_frames", [(40, 2, 5), (500, 20, 45)])
def test_a_group_keeps_its_bits_where_a_count_dependent_switch_would_split(
    vocab, dim, n_frames
):
    """At these shapes a switch that read the number of count vectors would
    send analyze's two down one path and separation's three down the other;
    the observed path reads only F, V and d, so group A's bias and intensity
    in `separation` are still bit for bit its `analyze_frames` values."""
    rng = np.random.default_rng(vocab)
    words = [f"w{i}" for i in range(vocab)]
    table = table_from_dict({w: rng.standard_normal(dim).tolist() for w in words})
    docs = [make_document(f"d{j}", " ".join(words[j::10] + list(rng.choice(words, size=5))),
                          group="ab"[j % 2]) for j in range(10)]
    view = build_view(docs, table)
    view_a, view_b = split_by_group(view, "a")
    assert len(view.tokens) == vocab
    assert (engine._moments_pay(n_frames, vocab, dim, 2)
            != engine._moments_pay(n_frames, vocab, dim, 3))
    registry = _registry_of_axes(rng.standard_normal((n_frames, dim)))
    seps = separation(view, view_a, view_b, registry, table).columns
    results = analyze_frames(view, view_a, registry, table, n_bootstrap=4, seed=1).columns
    for sep, analyzed in (("bias_a", "bias"), ("intensity_a", "intensity")):
        assert list(map(float.hex, seps[sep])) == list(map(float.hex, results[analyzed]))


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
