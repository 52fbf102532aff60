"""Core statistics: contributions, bias, intensity, bootstrap significance,
word shifts, document spectra, corpus separation, and the log-odds baseline.

A word's contribution to a frame is the cosine between its vector and the
frame's axis. Corpus bias is the frequency-weighted mean contribution;
corpus intensity is the frequency-weighted second moment of contributions
about the full-corpus baseline bias. Significance comes from bootstrap
samples of the full corpus sized to match the target: token draws are
i.i.d. with replacement from the full corpus's bag of words, implemented
as multinomial count resampling so no token strings are ever touched.

Contributions are formed in one place, `_cosine_blocks`: the view's
unit-length embedding rows (sorted-token order, float64 regardless of the
table's storage dtype) times the unit axes of up to _FRAME_BLOCK frames,
as one frames-major fb×V block. Every statistic is a count-weighted
product on such a block: bias, intensity and their bootstrap nulls for
many frames (`_score_frames`, `view_statistics`), and the per-token
shifts and per-document sums of one frame (`shift_table`,
`document_spectrum`).

Reproducibility: one bootstrap stream, ``default_rng(seed)``, is drawn
once per run and shared by every frame, so a frame's null depends on the
seed and the corpus, not on the other frames or their order. The same
seed gives byte-identical reports on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import CorpusView
from .embeddings import EmbeddingTable
from .errors import DataError
from .frames import FrameRegistry, Microframe

#: Bootstrap draws happen in fixed-size batches so memory stays bounded.
_BOOTSTRAP_BATCH = 256

#: Frames scored together in one block of contributions.
_FRAME_BLOCK = 64

#: Null samples this close to the observed value are ties and count in both
#: tails, so the rounding of a blocked matrix product never decides a tail.
_TIE_TOLERANCE = 1e-12

SHIFT_KINDS = ("bias", "intensity")
BOOTSTRAP_UNITS = ("token", "document")


# ---------------------------------------------------------------------------
# Result types


@dataclass(frozen=True)
class FramingResult:
    """Per-(corpus, frame) statistics against the bootstrap null."""

    frame_id: str
    bias: float
    intensity: float
    baseline_bias: float
    effect_bias: float
    effect_intensity: float
    p_bias: float
    p_intensity: float
    n_bootstrap: int


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Bootstrap samples of bias and intensity for one frame."""

    frame_id: str
    bias_samples: np.ndarray
    intensity_samples: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.bias_samples.setflags(write=False)
        self.intensity_samples.setflags(write=False)


@dataclass(frozen=True)
class ShiftEntry:
    """One word's additive contribution to bias or intensity, target vs background."""

    token: str
    shift_target: float
    shift_background: float
    shift_delta: float
    kind: str


@dataclass(frozen=True)
class SpectrumEntry:
    """One document's bias and intensity on a frame; None when the document
    is empty after masking."""

    doc_id: str
    group: str | None
    doc_bias: float | None
    doc_intensity: float | None


@dataclass(frozen=True)
class SeparationResult:
    """Between-corpus differences on one frame, with 1-based ranks."""

    frame_id: str
    delta_bias: float
    delta_intensity: float
    rank_bias: int
    rank_intensity: int
    rank_sum: int
    bias_a: float
    bias_b: float
    intensity_a: float
    intensity_b: float
    mean_intensity: float


# ---------------------------------------------------------------------------
# Contributions and corpus statistics


def word_contribution(word_vector: np.ndarray, frame: Microframe) -> float:
    """Cosine similarity between a word vector and the frame axis, in [-1, 1]."""
    v = np.asarray(word_vector, dtype=np.float64)
    a = frame.axis
    if v.shape != a.shape:
        raise DataError(
            f"dimension mismatch: word has {v.shape}, axis has {a.shape}"
        )
    v, a = _power_of_two_scaled(v), _power_of_two_scaled(a)
    nv = float(np.linalg.norm(v))
    na = float(np.linalg.norm(a))
    if nv == 0.0 or na == 0.0:
        raise DataError("zero-norm vector has no direction")
    return float(v @ a / (nv * na))


def _power_of_two_scaled(x: np.ndarray) -> np.ndarray:
    """`x` scaled by the power of two that brings its largest component into [0.5, 1).

    The scaling is exact and leaves every cosine unchanged, but keeps the
    squares inside the norm out of the subnormal range, where tiny
    components would lose the precision that bounds the cosine by 1.
    """
    _, exponent = np.frexp(np.max(np.abs(x)))
    return np.ldexp(x, -exponent)


def _count_vector(view: CorpusView, tokens: list[str]) -> np.ndarray:
    return np.array([view.counts[t] for t in tokens], dtype=np.float64)


def _cosine_blocks(frames, unit_rows: np.ndarray):
    """Yield (frame slice, contributions) for at most _FRAME_BLOCK frames at a time.

    Contributions are a frames-major fb×V block of cosines between each
    frame's axis and each unit row. The block bounds memory at any
    vocabulary size, and fb×V keeps BLAS packing frame-wide, not
    vocabulary-wide, panels. Axes are stacked per block for the same reason.
    """
    frames = list(frames)
    for start in range(0, len(frames), _FRAME_BLOCK):
        block = slice(start, start + _FRAME_BLOCK)
        axes = np.array([f.axis for f in frames[block]], dtype=np.float64)
        norms = np.linalg.norm(axes, axis=1)
        if np.any(norms == 0.0):
            raise DataError("zero-norm axis")
        axes /= norms[:, None]
        yield block, axes @ unit_rows.T


def _frame_contributions(view: CorpusView, frame: Microframe, table: EmbeddingTable):
    """The view's sorted vocabulary and its contributions (V values) to `frame`."""
    tokens = view.vocabulary()
    if not tokens:
        raise DataError("empty corpus view")
    _, (c,) = next(_cosine_blocks([frame], table.unit_rows(tokens)))
    return tokens, c


def view_statistics(
    view: CorpusView,
    frames,
    table: EmbeddingTable,
    baseline: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-frame bias of `view`, and its intensity when `baseline` is given.

    `baseline` holds one full-corpus bias per frame, in the order of
    `frames`; intensity is measured about it. The view's embedding rows
    are gathered once for all frames. Returns (bias, intensity) arrays of
    one value per frame; intensity is None without a baseline.
    """
    tokens = view.vocabulary()
    if not tokens:
        raise DataError("empty corpus view")
    counts = _count_vector(view, tokens)
    total = counts.sum()
    bias = np.empty(len(frames))
    intensity = None if baseline is None else np.empty(len(frames))
    for block, c in _cosine_blocks(frames, table.unit_rows(tokens)):
        bias[block] = c @ counts / total
        if intensity is not None:
            intensity[block] = (c - baseline[block, None]) ** 2 @ counts / total
    return bias, intensity


def corpus_bias(view: CorpusView, frame: Microframe, table: EmbeddingTable) -> float:
    """Frequency-weighted mean contribution of the view on `frame`."""
    bias, _ = view_statistics(view, [frame], table)
    return float(bias[0])


def corpus_intensity(
    view: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
    baseline_bias: float,
) -> float:
    """Frequency-weighted second moment of contributions about `baseline_bias`.

    The baseline is the full-corpus bias on the same frame, computed once
    on the whole corpus and passed down; it is never recomputed per view.
    """
    _, intensity = view_statistics(view, [frame], table, np.array([baseline_bias]))
    return float(intensity[0])


# ---------------------------------------------------------------------------
# Bootstrap null model and significance


def _doc_coo(view: CorpusView, tokens: list[str]):
    """Sparse (document, token) count triplets over the given token order,
    plus per-document countable totals.

    Each counted occurrence is coded as ``document * V + token index``;
    `np.unique` sorts and counts the codes, so triplets run in document
    order and, within a document, in sorted-token order, and documents
    with the same counts accumulate identically.
    """
    index = {t: i for i, t in enumerate(tokens)}
    docs = view.documents
    cols = np.fromiter(map(index.get, chain.from_iterable(d.tokens for d in docs), repeat(-1)),
                       np.intp)
    rows = np.repeat(np.arange(len(docs)), [len(d.tokens) for d in docs])
    codes, counts = np.unique((rows * len(tokens) + cols)[cols >= 0], return_counts=True)
    rows, cols = np.divmod(codes, len(tokens))
    vals = counts.astype(np.float64)
    return rows, cols, vals, np.bincount(rows, weights=vals, minlength=len(docs))


def _resampled_counts(
    view: CorpusView,
    tokens: list[str],
    counts: np.ndarray,
    unit: str,
    sample_size: int,
    n: int,
    seed: int,
):
    """Yield `n` bootstrap resamples of `view` in batches of at most _BOOTSTRAP_BATCH.

    Each batch is (B×V resampled token counts over `tokens`, the B sample
    token totals), all drawn from one ``default_rng(seed)`` stream. The
    token unit draws `sample_size` tokens per sample (a multinomial over
    `counts`). The document unit draws `sample_size` documents with
    replacement, redraws any all-empty sample, and sums the picked
    documents' counts.
    """
    rng = np.random.default_rng(seed)
    if unit == "document":
        rows, cols, vals, doc_total = _doc_coo(view, tokens)
        n_docs = doc_total.shape[0]
    probs = counts / counts.sum()
    for done in range(0, n, _BOOTSTRAP_BATCH):
        b = min(_BOOTSTRAP_BATCH, n - done)
        if unit == "token":
            draws = rng.multinomial(sample_size, probs, size=b)
            yield draws.astype(np.float64), np.full(b, float(sample_size))
            continue
        picks = rng.integers(0, n_docs, size=(b, sample_size))
        totals = doc_total[picks].sum(axis=1)
        # All-empty resamples have no tokens to average; redraw those rows.
        while np.any(totals == 0.0):
            bad = np.flatnonzero(totals == 0.0)
            picks[bad] = rng.integers(0, n_docs, size=(bad.size, sample_size))
            totals = doc_total[picks].sum(axis=1)
        resampled = np.empty((b, len(tokens)))
        for i, row_picks in enumerate(picks):
            times_picked = np.bincount(row_picks, minlength=n_docs)[rows]
            resampled[i] = np.bincount(cols, weights=times_picked * vals, minlength=len(tokens))
        yield resampled, totals


def _score_frames(
    frames,
    unit_rows: np.ndarray,
    n_full: np.ndarray,
    n_target: np.ndarray,
    draws,
    n: int,
):
    """Baseline, target bias and intensity, and `n` null samples of each, per frame.

    `n_full` and `n_target` are counts over the rows of `unit_rows`;
    `draws` yields the resampled count batches that every frame shares.
    For a frame block C (fb×V contributions) and S = (C - baseline)²,
    the target statistics are C @ n_target and S @ n_target over the
    target total, and the null samples are C @ D.T and S @ D.T over each
    sample's total. Returns five arrays: three of F values, two F×n.
    """
    n_frames = len(frames)
    baseline, bias, intensity = np.empty((3, n_frames))
    null_bias, null_intensity = np.empty((2, n_frames, n))
    total_full = n_full.sum()
    total_target = n_target.sum()
    done = 0
    for resampled, sizes in draws:
        batch = slice(done, done + len(sizes))
        for block, c in _cosine_blocks(frames, unit_rows):
            base = c @ n_full / total_full
            baseline[block] = base
            bias[block] = c @ n_target / total_target
            null_bias[block, batch] = c @ resampled.T / sizes
            # C becomes S in place, so a block holds one fb×V buffer
            c -= base[:, None]
            np.square(c, out=c)
            intensity[block] = c @ n_target / total_target
            null_intensity[block, batch] = c @ resampled.T / sizes
        done += len(sizes)
    return baseline, bias, intensity, null_bias, null_intensity


def bootstrap_null(
    full_view: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
    sample_size: int,
    n: int,
    seed: int,
    unit: str = "token",
) -> NullDistribution:
    """Bias/intensity distribution over `n` bootstrap samples of the full corpus.

    With the default token unit, each sample draws `sample_size` tokens
    i.i.d. with replacement from the full corpus's token multiset (count
    resampling via a multinomial). With the document unit, each sample
    draws `sample_size` documents with replacement instead; this is a
    sensitivity-analysis alternative, not the default, because bias and
    intensity are token-weighted statistics. Intensity of every sample is
    measured against the full-corpus baseline bias. Deterministic under
    `seed`: this is the one-frame case of `analyze_frames`, and scores
    the frame on the same draws that `analyze_frames` shares across
    frames under the same seed.
    """
    if n < 1:
        raise DataError(f"need at least one bootstrap sample, got {n}")
    if sample_size < 1:
        raise DataError(f"sample size must be positive, got {sample_size}")
    if unit not in BOOTSTRAP_UNITS:
        raise DataError(f"unknown bootstrap unit {unit!r}")
    tokens = full_view.vocabulary()
    if not tokens:
        raise DataError("empty corpus view")
    counts = _count_vector(full_view, tokens)
    draws = _resampled_counts(full_view, tokens, counts, unit, sample_size, n, seed)
    *_, bias, intensity = _score_frames(
        [frame], table.unit_rows(tokens), counts, counts, draws, n
    )
    return NullDistribution(
        frame_id=frame.id, bias_samples=bias[0], intensity_samples=intensity[0], seed=seed
    )


def _two_tailed_p(observed, samples: np.ndarray) -> np.ndarray:
    """Two-tailed p-value of each `observed` value against its row of `samples`."""
    n = samples.shape[-1]
    observed = np.asarray(observed)[..., None]
    ge = np.count_nonzero(samples >= observed - _TIE_TOLERANCE, axis=-1)
    le = np.count_nonzero(samples <= observed + _TIE_TOLERANCE, axis=-1)
    return np.minimum(1.0, 2.0 * np.minimum((ge + 1) / (n + 1), (le + 1) / (n + 1)))


def _significance(bias, intensity, null_bias: np.ndarray, null_intensity: np.ndarray):
    """(p_bias, p_intensity, effect_bias, effect_intensity) of each observed
    value against its row of null samples, which run along the last axis."""
    return (_two_tailed_p(bias, null_bias), _two_tailed_p(intensity, null_intensity),
            bias - null_bias.mean(axis=-1), intensity - null_intensity.mean(axis=-1))


def significance(
    observed_bias: float,
    observed_intensity: float,
    null: NullDistribution,
) -> tuple[float, float, float, float]:
    """Two-tailed bootstrap p-values and effect sizes.

    The effect size is the observed value minus the null-sample mean. The
    p-value uses the add-one rule (r + 1) / (N + 1) per tail so it is
    never exactly zero, doubled and clamped to 1 for the two-tailed test.
    A sample within _TIE_TOLERANCE of the observed value is a tie and
    counts in both tails. `analyze_frames` scores every frame the same way.
    """
    if null.bias_samples.size == 0:
        raise DataError("empty null distribution")
    nulls = null.bias_samples, null.intensity_samples
    return tuple(map(float, _significance(observed_bias, observed_intensity, *nulls)))


def top_significant_frames(
    results: list[FramingResult],
    by: str = "bias",
    m: int = 10,
    alpha: float = 0.05,
) -> list[FramingResult]:
    """The at-most-m significant frames with the largest absolute effect size.

    Filters to p <= alpha on the chosen statistic, sorts by |effect|
    descending with ties broken by frame id, and may return fewer than m.
    """
    if by not in SHIFT_KINDS:
        raise DataError(f"unknown statistic {by!r}")
    if by == "bias":
        kept = [r for r in results if r.p_bias <= alpha]
        kept.sort(key=lambda r: (-abs(r.effect_bias), r.frame_id))
    else:
        kept = [r for r in results if r.p_intensity <= alpha]
        kept.sort(key=lambda r: (-abs(r.effect_intensity), r.frame_id))
    return kept[:m]


# ---------------------------------------------------------------------------
# Word shifts, document spectrum


def shift_table(
    view: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
    kind: str,
    baseline_bias: float,
) -> dict[str, float]:
    """Every token's additive shift within one view.

    Bias shifts sum exactly to the view's bias; intensity shifts sum to
    its intensity. Each view normalizes by its own token total.
    """
    if kind not in SHIFT_KINDS:
        raise DataError(f"unknown shift kind {kind!r}")
    tokens, c = _frame_contributions(view, frame, table)
    n = _count_vector(view, tokens)
    if kind == "bias":
        values = n * c / n.sum()
    else:
        values = n * (c - baseline_bias) ** 2 / n.sum()
    return dict(zip(tokens, values.tolist()))


def word_shifts(
    target: CorpusView,
    background: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
    kind: str,
    baseline_bias: float,
    k: int = 10,
) -> list[ShiftEntry]:
    """Top-k tokens by |target shift - background shift|.

    A token absent from one view contributes zero shift there, so a word
    that only the background uses pulls the delta negative. Ties break by
    token, ascending. k larger than the union vocabulary returns the full
    table.
    """
    shifts_t = shift_table(target, frame, table, kind, baseline_bias)
    shifts_b = shift_table(background, frame, table, kind, baseline_bias)
    union = sorted(set(shifts_t) | set(shifts_b))
    entries = [
        ShiftEntry(
            token=tok,
            shift_target=shifts_t.get(tok, 0.0),
            shift_background=shifts_b.get(tok, 0.0),
            shift_delta=shifts_t.get(tok, 0.0) - shifts_b.get(tok, 0.0),
            kind=kind,
        )
        for tok in union
    ]
    entries.sort(key=lambda e: (-abs(e.shift_delta), e.token))
    return entries[:k] if k > 0 else entries


def document_spectrum(
    view: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
    baseline_bias: float,
) -> list[SpectrumEntry]:
    """Per-document bias and intensity, sorted by bias ascending.

    Documents empty after masking are emitted with absent (None) values
    and sorted to the end by document id.
    """
    tokens, c = _frame_contributions(view, frame, table)
    rows, cols, vals, doc_total = _doc_coo(view, tokens)
    n_docs = doc_total.shape[0]
    bias_sum = np.bincount(rows, weights=vals * c[cols], minlength=n_docs)
    int_sum = np.bincount(rows, weights=vals * (c[cols] - baseline_bias) ** 2, minlength=n_docs)
    present: list[SpectrumEntry] = []
    absent: list[SpectrumEntry] = []
    sums = zip(doc_total.tolist(), bias_sum.tolist(), int_sum.tolist())
    for doc, (total, b, i) in zip(view.documents, sums):
        if total == 0.0:
            absent.append(SpectrumEntry(doc.doc_id, doc.group, None, None))
        else:
            present.append(SpectrumEntry(doc.doc_id, doc.group, b / total, i / total))
    present.sort(key=lambda e: (e.doc_bias, e.doc_id))
    absent.sort(key=lambda e: e.doc_id)
    return present + absent


def baseline_biases(
    view: CorpusView, frames: FrameRegistry, table: EmbeddingTable
) -> dict[str, float]:
    """Full-corpus bias per frame, with the embedding rows gathered once."""
    biases, _ = view_statistics(view, frames, table)
    return {frame.id: b for frame, b in zip(frames, biases.tolist())}


# ---------------------------------------------------------------------------
# Separation and frame selection


def _ordinal_ranks(keyed: list[tuple[float, str]]) -> dict[str, int]:
    """1-based ranks, descending by value, deterministic ties by id."""
    order = sorted(keyed, key=lambda kv: (-kv[0], kv[1]))
    return {fid: i + 1 for i, (_, fid) in enumerate(order)}


def separation(
    view_a: CorpusView,
    view_b: CorpusView,
    frames: FrameRegistry,
    table: EmbeddingTable,
    baseline: dict[str, float],
) -> list[SeparationResult]:
    """Per-frame bias and intensity differences between two corpora.

    Both intensities are measured against the shared full-corpus baseline
    passed in `baseline`. The intensity rank orders frames by the mean
    intensity across the union of both corpora (token-weighted, which
    equals the intensity of the pooled counts); the bias rank orders by
    |delta bias|. Ranks are 1-based, descending, ties by frame id.
    """
    if not view_a.counts or not view_b.counts:
        raise DataError("empty corpus view")
    for frame in frames:
        if frame.id not in baseline:
            raise DataError(f"no baseline bias for frame {frame.id!r}")
    base = np.array([baseline[frame.id] for frame in frames], dtype=np.float64)
    bias_a, int_a = view_statistics(view_a, frames, table, base)
    bias_b, int_b = view_statistics(view_b, frames, table, base)
    total_a = float(view_a.total_tokens)
    total_b = float(view_b.total_tokens)
    mean_int = (total_a * int_a + total_b * int_b) / (total_a + total_b)
    ids = [frame.id for frame in frames]
    rank_b = _ordinal_ranks(list(zip(np.abs(bias_a - bias_b).tolist(), ids)))
    rank_i = _ordinal_ranks(list(zip(mean_int.tolist(), ids)))
    columns = zip(ids, bias_a.tolist(), bias_b.tolist(), int_a.tolist(), int_b.tolist(),
                  mean_int.tolist())
    return [
        SeparationResult(
            frame_id=fid,
            delta_bias=ba - bb,
            delta_intensity=ia - ib,
            rank_bias=rank_b[fid],
            rank_intensity=rank_i[fid],
            rank_sum=rank_b[fid] + rank_i[fid],
            bias_a=ba,
            bias_b=bb,
            intensity_a=ia,
            intensity_b=ib,
            mean_intensity=mi,
        )
        for fid, ba, bb, ia, ib, mi in columns
    ]


def rank_sum_select(separations: list[SeparationResult], m: int) -> list[str]:
    """Ids of the m frames with the smallest rank sum, ties by frame id."""
    order = sorted(separations, key=lambda s: (s.rank_sum, s.frame_id))
    return [s.frame_id for s in order[:m]]


def log_odds_dirichlet(
    target: CorpusView,
    background: CorpusView,
    prior: CorpusView,
    k: int = 10,
) -> list[tuple[str, float]]:
    """Overrepresented tokens by log odds ratio with an informative Dirichlet prior.

    The pseudo-count for each token is its count in the prior corpus
    (floored at 1 so unseen tokens stay defined). Returns the top-k
    tokens by z-score descending, ties by token ascending. This is the
    frequency-only comparison baseline: unlike shift analysis it knows
    nothing about any frame.
    """
    if not target.counts or not background.counts or not prior.counts:
        raise DataError("empty corpus view")
    vocab = sorted(set(target.counts) | set(background.counts))
    y_t = np.array([target.counts.get(t, 0) for t in vocab], dtype=np.float64)
    y_b = np.array([background.counts.get(t, 0) for t in vocab], dtype=np.float64)
    alpha = np.array(
        [max(prior.counts.get(t, 0), 1) for t in vocab], dtype=np.float64
    )
    alpha0 = alpha.sum()
    n_t = y_t.sum()
    n_b = y_b.sum()
    delta = np.log((y_t + alpha) / (n_t + alpha0 - y_t - alpha)) - np.log(
        (y_b + alpha) / (n_b + alpha0 - y_b - alpha)
    )
    variance = 1.0 / (y_t + alpha) + 1.0 / (y_b + alpha)
    z = delta / np.sqrt(variance)
    scored = sorted(zip(vocab, z.tolist()), key=lambda tz: (-tz[1], tz[0]))
    return scored[:k] if k > 0 else scored


# ---------------------------------------------------------------------------
# Full-registry analysis pipeline


def analyze_frames(
    full_view: CorpusView,
    target_view: CorpusView,
    registry: FrameRegistry,
    table: EmbeddingTable,
    *,
    n_bootstrap: int = 1000,
    seed: int = 0,
    bootstrap_unit: str = "token",
) -> list[FramingResult]:
    """Run the full per-frame analysis of a target corpus against its parent.

    For every registry frame: the target's bias and intensity, the
    full-corpus baseline bias, and bootstrap significance with the null
    sized to the target (token count for the token unit, document count
    for the document unit). The embedding rows for the full vocabulary
    are gathered once, and one set of resamples, drawn from
    ``default_rng(seed)``, is shared by every frame: a frame's row is the
    same, up to rounding, whichever other frames the registry holds, and
    its null is the one `bootstrap_null` gives under the same seed.
    p-values and effects come from the F×n null arrays in one step.
    Results come back in registry order.
    """
    if n_bootstrap < 1:
        raise DataError(f"need at least one bootstrap sample, got {n_bootstrap}")
    if bootstrap_unit not in BOOTSTRAP_UNITS:
        raise DataError(f"unknown bootstrap unit {bootstrap_unit!r}")
    if not registry.frames:
        raise DataError("no frames to analyze")
    tokens_full = full_view.vocabulary()
    tokens_target = target_view.vocabulary()
    if not tokens_full or not tokens_target:
        raise DataError("empty corpus view")
    if not set(tokens_target) <= set(tokens_full):
        raise DataError("target vocabulary is not contained in the full corpus")

    n_full = _count_vector(full_view, tokens_full)
    positions = {t: i for i, t in enumerate(tokens_full)}
    n_target = np.zeros_like(n_full)
    n_target[[positions[t] for t in tokens_target]] = _count_vector(target_view, tokens_target)
    if bootstrap_unit == "token":
        sample_size = target_view.total_tokens
    else:
        sample_size = max(len(target_view.documents), 1)
    draws = _resampled_counts(
        full_view, tokens_full, n_full, bootstrap_unit, sample_size, n_bootstrap, seed
    )
    baseline, bias, intensity, null_bias, null_intensity = _score_frames(
        registry.frames, table.unit_rows(tokens_full), n_full, n_target, draws, n_bootstrap
    )
    p_b, p_i, eff_b, eff_i = _significance(bias, intensity, null_bias, null_intensity)
    # FramingResult's fields between frame_id and n_bootstrap, in order
    columns = (bias, intensity, baseline, eff_b, eff_i, p_b, p_i)
    return [
        FramingResult(frame.id, *row, n_bootstrap)
        for frame, row in zip(registry.frames, zip(*(c.tolist() for c in columns)))
    ]
