"""Core statistics: contributions, bias, intensity, bootstrap significance,
word shifts, document spectra and corpus separation.

A word's contribution to a frame is the cosine between its vector and the
frame's axis. Corpus bias is the frequency-weighted mean contribution;
corpus intensity is the frequency-weighted second moment of contributions
about the full-corpus baseline bias. Significance comes from bootstrap
samples of the full corpus sized to match the target: token draws are
i.i.d. with replacement from the full corpus's bag of words, implemented
as multinomial count resampling so no token strings are ever touched.

Every statistic works on the view's unit-length embedding rows (sorted-
token order, float64 regardless of the table's storage dtype) and unit
axes normalised by `_unit_axes`. No V×d array of them is ever held:
every multi-frame pass walks the vocabulary the same way, one slice of
_MOMENT_ROWS unit rows at a time (`_vocabulary_slices`). One function,
`_frame_statistics`, computes every statistic over many frames
(`analyze_frames`, `bootstrap_null`, `separation`, `view_statistics`) by
one rule:

- Count vectors always take the axis-space pass, which forms no F×V
  cosines. Contributions are linear in the unit row u, so a count
  vector's bias on axis a is a·m and its intensity about β is
  aᵀGa − 2β(a·m) + β², with m its mean unit row and G its d×d second
  moment. `_moments` builds each vector's m and G, about a reference row,
  in one walk over the vocabulary, and `_axis_statistics` reads both
  statistics off them per block of axes.
- Null samples join that pass when `_moments_pay` says they cost less
  there than in a sweep: 1.5·n·(V·d²/2 + F·d²) flops (`_AXIS_FLOP_COST`)
  against F·V·d. Otherwise `_sweep_null` walks the vocabulary once per
  batch of bootstrap draws, forms the F×s cosines of each slice, and adds
  the batch's count-weighted products on them, about the count vectors'
  baseline, to its null samples.

Over the 1,621 frames of the shipped lexicon at d=100 or d=300, a null of
a few samples joins the axis-space pass; a one-frame null and a null of
hundreds of samples are swept. On the property tests' small tables the
two agree to within 4e-15 absolute and give the same p-values.

Statistics of one frame use `_frame_contributions`, which forms the V
cosines one slice of unit rows at a time: the bias and intensity of one
view (`corpus_bias`, `corpus_intensity`), and the per-token shifts and
per-document or per-unit sums of one frame (`word_shifts`,
`document_spectrum`, `unit_statistics`) are count-weighted products on
those V values.

Each frame's statistics are computed once per command, over the full
view's vocabulary. Every narrower document set (a target and its
background, two groups, a unit, a document) is a count vector over that
vocabulary, and the full-corpus baseline comes from the same numbers
inside each statistic that needs it. Each count vector gets its own
products, never a column of a product shared with other vectors, which
rounds differently: a group has the same bits in `separation` and
`analyze_frames`.

Reproducibility: one bootstrap stream, ``default_rng(seed)``, is drawn
once per run and shared by every frame, so a frame's null depends on the
seed and the corpus, not on the other frames or their order. The same
seed gives byte-identical reports on every run at a fixed BLAS thread
count. Across thread counts BLAS may round a product differently; README
("Reproducibility") gives what was measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CorpusView
from .embeddings import EmbeddingTable
from .errors import DataError
from .frames import FrameRegistry, Microframe
from .reports import Table

#: Bootstrap draws happen in fixed-size batches so memory stays bounded.
_BOOTSTRAP_BATCH = 256

#: Axes per block of the axis-space path (`_axis_statistics`), which holds
#: fb×d axes and one fb×(d+1) product per count vector, no fb×V array.
#: In-process over 1,621 frames at d=300 (V=3,354, 21 alternating runs,
#: 2-core x86-64), `analyze_frames` at B=2 took 60.6 ms at 64 axes a
#: block and 55.5 ms at 128 or 256; peak RSS moved by at most 0.2 MB.
_AXIS_BLOCK = 128

#: Unit rows per slice of every walk over the vocabulary (`_vocabulary_slices`):
#: the axis-space pass and each batch of the null sweep, which holds one F×s
#: block of cosines. A product of few rows pays BLAS thread start-up for little
#: work; a slice of many holds more memory. On the benchmark (perfbench, seed 7,
#: 2-core x86-64), its d=300 analyze workload's `analyze_frames` took 79 ms at
#: 512 rows against 79 ms for the frame-block sweep of the time, and 76 ms at
#: 768 rows; `peak_rss_mb` read 58.7-58.8 MB at 512 rows and 60.7-60.8 MB at
#: 768, against 62.1 MB for that sweep. A budget of 2^17 components (1,310 rows
#: at d=100) raised the d=100 workload's `peak_rss_mb` by 0.4-0.9 MB; 512 rows
#: left it within 0.1 MB. Criterion 9's B=1,000 sweep at 512 rows took 1.85-2.01 s
#: against 2.11-2.36 s for the frame-block sweep (four alternating runs).
_MOMENT_ROWS = 512

#: `_moments_pay` counts an axis-space flop as this many sweep flops when
#: it decides whether null samples join the axis-space pass or are swept.
#: The factor was calibrated for three count vectors: in timings of both
#: paths on the benchmark's tables (2-core x86-64, OpenBLAS, two series of
#: 7-11 alternating runs per point), three vectors broke even at
#: F ≈ 1,000-1,200 frames at d=300 (V=3,354) and F ≈ 300-450 at d=100
#: (V=2,907), where this factor puts the switch at F ≈ 1,130 and 266. Small
#: slices and axis blocks make the axis path's BLAS calls less efficient
#: than the sweep's products.
_AXIS_FLOP_COST = 1.5

#: `_doc_coo` codes a (document, token) cell as an int32 below this many
#: cells, and as an int64 from there on.
_INT32_CELLS = 2**31

#: Null samples this close to the observed value are ties and count in both
#: tails, so the rounding of a blocked matrix product never decides a tail.
_TIE_TOLERANCE = 1e-12

SHIFT_KINDS = ("bias", "intensity")
BOOTSTRAP_UNITS = ("token", "document")


# ---------------------------------------------------------------------------
# Result types: the rows of the tables `analyze_frames`, `word_shifts`,
# `document_spectrum` and `separation` return, built only when a caller
# asks a table for one.


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


def _vocabulary_slices(table: EmbeddingTable, tokens: list[str]):
    """Yield (start, unit rows of ``tokens[start:start + _MOMENT_ROWS]``) in
    order. Every slice is written into one buffer: a yielded slice is valid
    until the next one is requested, and a caller may change it in place."""
    step = min(_MOMENT_ROWS, len(tokens))
    buf = np.empty((step, table.dimension))
    for start in range(0, len(tokens), step):
        part = buf[:len(tokens) - start]
        for _ in table.unit_slices(tokens[start:start + step], out=part):
            pass
        yield start, part


def _unit_axes(axes: np.ndarray) -> np.ndarray:
    """`axes`, one per row, divided in place by their norms; a zero axis is a
    DataError."""
    norms = np.linalg.norm(axes, axis=1)
    if np.any(norms == 0.0):
        raise DataError("zero-norm axis")
    axes /= norms[:, None]
    return axes


def _frame_contributions(view: CorpusView, frame: Microframe, table: EmbeddingTable):
    """The view's sorted vocabulary, its counts, its contributions (V values)
    to `frame`, and its bias on `frame`.

    Contributions are formed one slice of unit rows at a time, so no V×d
    float64 array is held. Each is a per-row sum of the row times the unit
    axis, which gives a word the same bits at any slice size; it lies within
    1e-15 of the product of the one-shot unit rows with the unit axis, and
    the bias within 1e-15 of the axis-space pass's.
    """
    tokens, (n,) = _counts_over(view, [view])
    (axis,) = _unit_axes(np.array(frame.axis, dtype=np.float64, ndmin=2))
    c = np.empty(len(tokens))
    for start, part in table.unit_slices(tokens):
        part *= axis
        np.add.reduce(part, axis=1, out=c[start:start + len(part)])
    return tokens, n, c, float(c @ n / n.sum())


def _counts_over(full_view: CorpusView, views) -> tuple[list[str], list[np.ndarray]]:
    """The sorted vocabulary of `full_view`, and the counts over it of each
    of `views`: `full_view` itself or its document sets, none empty."""
    tokens = full_view.vocabulary()
    positions = {t: i for i, t in enumerate(tokens)}
    out = []
    for view in views:
        if not view.tokens:
            raise DataError("empty corpus view")
        index = [positions.get(t, -1) for t in view.tokens]
        if -1 in index:
            raise DataError("view vocabulary is not contained in the full corpus")
        n = np.zeros(len(tokens))
        n[index] = view.token_counts
        out.append(n)
    return tokens, out


def _moments_pay(frames: int, vocabulary: int, dimension: int, samples: int) -> bool:
    """Whether `samples` null samples cost less in the axis-space pass than
    in one sweep: _AXIS_FLOP_COST · (n·V·d²/2 (a SYRK per sample) + n·F·d²
    (an fb×d by d×d product per sample and block)) against F·V·d for the
    F×V cosines."""
    squares = dimension * dimension
    return (_AXIS_FLOP_COST * samples * (vocabulary * squares / 2 + frames * squares)
            < frames * vocabulary * dimension)


def _moments(table: EmbeddingTable, tokens: list[str], weights):
    """The reference row r, and each count vector's moment matrix about r:
    M = Σ w x xᵀ / Σw over its tokens, with x = (u - r, 1) for a unit row u.

    M[:d, :d] is the second moment G and M[:d, d] the mean m of the rows
    about r. r is the unit row of the first token, so over a one-token
    vocabulary G and m are exactly zero. One walk over the vocabulary
    (`_vocabulary_slices`); per slice, each vector gets its own SYRK of its
    counted rows, each scaled by √w, so its moments have the same bits
    whichever other vectors share the pass.
    """
    d = table.dimension
    scaled = np.empty((min(_MOMENT_ROWS, len(tokens)), d + 1))
    square = np.empty((d + 1, d + 1))
    moments = np.zeros((len(weights), d + 1, d + 1))
    for start, part in _vocabulary_slices(table, tokens):
        if start == 0:
            r = part[0].copy()
        part -= r
        for moment, w in zip(moments, weights):
            counted = np.flatnonzero(w[start:start + len(part)])
            x = scaled[:len(counted)]
            root = np.sqrt(w[start + counted])
            x[:, d] = root
            rows = part if len(counted) == len(part) else part[counted]
            np.multiply(rows, root[:, None], out=x[:, :d])
            moment += np.matmul(x.T, x, out=square)
    moments /= np.array([w.sum() for w in weights])[:, None, None]
    return r, moments


def _axis_statistics(frames: FrameRegistry, r, moments, baseline=None):
    """Per-frame bias and intensity of each count vector from its moment
    matrix about r (`_moments`), one block of _AXIS_BLOCK axes at a time.

    With t = a·m and q = aᵀGa the vector's first and second moments on
    axis a, and δ = β − a·r the baseline's offset, bias is a·r + t and
    intensity about β is max(0, q − 2δt + δ²). Intensity is measured about
    `baseline`, or, when it is None, about the first vector's bias (δ = its
    t). Each vector's t and q come from one fb×d by d×(d+1) product with
    its own moments. Every step negates exactly with a, so bias negates
    exactly and intensity is unchanged under a pole flip.
    """
    d = len(r)
    bias, intensity = np.empty((2, len(moments), len(frames)))
    for start in range(0, len(frames), _AXIS_BLOCK):
        block = slice(start, start + _AXIS_BLOCK)
        axes = _unit_axes(frames.axes(block))
        offset = np.add.reduce(axes * r, axis=1)
        products = [axes @ moment[:d] for moment in moments]
        delta = products[0][:, d] if baseline is None else baseline[block] - offset
        for b, i, p in zip(bias, intensity, products):
            t = p[:, d]
            q = np.add.reduce(p[:, :d] * axes, axis=1)
            b[block] = offset + t
            i[block] = np.maximum(q - 2.0 * delta * t + delta * delta, 0.0)
    return bias, intensity


def _frame_statistics(frames, table: EmbeddingTable, tokens: list[str], weights,
                      baseline=None, draws=(), n: int = 0):
    """Per-frame bias and intensity of each count vector, and `n` null
    samples of each.

    `weights` are count vectors over `tokens`, a full view's sorted
    vocabulary. Intensity is measured about `baseline`, one value per
    frame, or, when it is None, about the bias of the first count vector:
    a full view's counts put first give every narrower count vector its
    baseline from the same numbers. `draws` yields the batches of
    resampled counts that every frame shares, (B×V counts, B sample
    totals), `n` samples in all. Returns (bias, intensity), each with one
    row of F values per count vector, and (null bias, null intensity),
    each F×n.

    The count vectors always take the axis-space pass (`_moments`,
    `_axis_statistics`). The null samples join that pass when
    `_moments_pay` says so for `n` of them, and are otherwise swept about
    the count vectors' baseline (`_sweep_null`). Each vector's moments
    have the same bits whichever others share the pass, so a view's
    observed statistics never depend on the null or on the other count
    vectors.
    """
    if not isinstance(frames, FrameRegistry):
        frames = FrameRegistry(frames)
    k = len(weights)
    swept = not _moments_pay(len(frames), len(tokens), table.dimension, n)
    if not swept:
        weights = [*weights, *(row for resampled, _ in draws for row in resampled)]
    bias, intensity = _axis_statistics(frames, *_moments(table, tokens, weights), baseline)
    if swept:
        baseline = bias[0] if baseline is None else baseline
        return (bias, intensity), _sweep_null(frames, table, tokens, baseline, draws, n)
    return (bias[:k], intensity[:k]), (bias[k:].T, intensity[k:].T)


def _sweep_null(frames: FrameRegistry, table: EmbeddingTable, tokens: list[str],
                baseline, draws, n: int):
    """The null bias and intensity of `draws` about `baseline`, as one 2×F×n
    array. Each batch of draws walks the vocabulary once: on a slice of unit
    rows Uₛ, C = A·Uₛᵀ (F×s, A the unit axes; one flat buffer, so a shorter
    last slice's C is contiguous too) and S = (C − baseline)² add C @ Dₛᵀ and
    S @ Dₛᵀ to the batch's sums, which the sample totals then divide."""
    axes = _unit_axes(frames.axes(slice(None)))
    buf = np.empty(len(frames) * min(_MOMENT_ROWS, len(tokens)))
    nulls, done = np.zeros((2, len(frames), n)), 0
    for resampled, sizes in draws:
        batch = nulls[:, :, done:done + len(sizes)]
        for start, part in _vocabulary_slices(table, tokens):
            counts = resampled[:, start:start + len(part)].T
            c = np.matmul(axes, part.T, out=buf[:len(frames) * len(part)].reshape(-1, len(part)))
            batch[0] += c @ counts
            # C becomes S in place, so a slice holds one F×s buffer
            c -= baseline[:, None]
            np.square(c, out=c)
            batch[1] += c @ counts
        batch /= sizes
        done += len(sizes)
    return nulls


def view_statistics(
    view: CorpusView,
    frames,
    table: EmbeddingTable,
    baseline: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame bias and intensity of `view`.

    `baseline` holds one full-corpus bias per frame, in the order of
    `frames`; intensity is measured about it, or about the view's own bias
    when it is None. The view's embedding rows are read once for all
    frames. Returns (bias, intensity) arrays of one value per frame.
    """
    tokens, weights = _counts_over(view, [view])
    ((bias,), (intensity,)), _ = _frame_statistics(frames, table, tokens, weights, baseline)
    return bias, intensity


def corpus_bias(view: CorpusView, frame: Microframe, table: EmbeddingTable) -> float:
    """Frequency-weighted mean contribution of the view on `frame`."""
    return _frame_contributions(view, frame, table)[3]


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
    _, n, c, _ = _frame_contributions(view, frame, table)
    return float(np.square(c - baseline_bias) @ n / n.sum())


# ---------------------------------------------------------------------------
# Bootstrap null model and significance


def _doc_coo(view: CorpusView):
    """Sparse (document, token) count triplets over the view's sorted
    tokens, plus per-document countable totals.

    Each counted occurrence's code in `view.codes` becomes ``document * V +
    token index``; `np.unique` sorts and counts these, so triplets run in
    document order and, within a document, in sorted-token order, and
    documents with the same counts accumulate identically. Codes, rows and
    columns are int32 when every cell fits one, int64 otherwise.
    """
    docs = view.documents
    n_tokens = len(view.tokens)
    dtype = np.int32 if len(docs) * n_tokens < _INT32_CELLS else np.int64
    keys = np.repeat(np.arange(len(docs), dtype=dtype) * dtype(n_tokens),
                     [len(d.tokens) for d in docs])
    keys += view.codes
    codes, counts = np.unique(keys[view.codes >= 0], return_counts=True)
    del keys
    rows, cols = np.divmod(codes, dtype(n_tokens))
    vals = counts.astype(np.float64)
    return rows, cols, vals, np.bincount(rows, weights=vals, minlength=len(docs))


def _resampled_counts(view: CorpusView, unit: str, sample_size: int, n: int, seed: int):
    """Yield `n` bootstrap resamples of `view` in batches of at most _BOOTSTRAP_BATCH.

    Each batch is (B×V resampled counts over the view's tokens, the B sample
    token totals), all drawn from one ``default_rng(seed)`` stream. The
    token unit draws `sample_size` tokens per sample (a multinomial over
    the view's counts). The document unit draws `sample_size` documents with
    replacement, redraws any all-empty sample, and sums the picked
    documents' counts.
    """
    rng = np.random.default_rng(seed)
    if unit == "document":
        rows, cols, vals, doc_total = _doc_coo(view)
        n_docs = doc_total.shape[0]
    probs = view.token_counts / view.total_tokens
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
        resampled = np.empty((b, len(view.tokens)))
        for i, row_picks in enumerate(picks):
            times_picked = np.bincount(row_picks, minlength=n_docs)[rows]
            resampled[i] = np.bincount(cols, weights=times_picked * vals,
                                       minlength=len(view.tokens))
        yield resampled, totals


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
    tokens, weights = _counts_over(full_view, [full_view])
    draws = _resampled_counts(full_view, unit, sample_size, n, seed)
    _, ((bias,), (intensity,)) = _frame_statistics(
        [frame], table, tokens, weights, draws=draws, n=n
    )
    return NullDistribution(
        frame_id=frame.id, bias_samples=bias, intensity_samples=intensity, seed=seed
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


def _id_order(ids: list[str]) -> np.ndarray:
    """Each id's position in sorted id order."""
    order = np.empty(len(ids), dtype=np.intp)
    order[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return order


def top_significant_frames(
    results: Table,
    by: str = "bias",
    m: int = 10,
    alpha: float = 0.05,
) -> Table:
    """The at-most-m significant frames with the largest absolute effect size.

    Filters an `analyze_frames` table to p <= alpha on the chosen statistic,
    sorts by |effect| descending with ties broken by frame id, and returns
    the first m rows, or fewer, as a table. A negative m is a DataError.
    """
    if by not in SHIFT_KINDS:
        raise DataError(f"unknown statistic {by!r}")
    if m < 0:
        raise DataError(f"m must be >= 0, got {m}")
    columns = results.columns
    (kept,) = np.nonzero(np.array(columns[f"p_{by}"], dtype=np.float64) <= alpha)
    effect = np.abs(np.array(columns[f"effect_{by}"], dtype=np.float64)[kept])
    order = np.lexsort((_id_order(columns["frame_id"])[kept], -effect))
    return results.take(kept[order[:m]].tolist())


# ---------------------------------------------------------------------------
# Word shifts, document spectrum, unit statistics


def _shift_values(n: np.ndarray, c: np.ndarray, kind: str, baseline_bias: float) -> np.ndarray:
    """Each token's additive shift in a view with counts `n`: n·c (bias) or
    n·(c − baseline)² (intensity) over the view's total, and exactly 0.0
    where the view lacks the token (n·c would give -0.0 for c < 0, which a
    report prints as such)."""
    w = c if kind == "bias" else (c - baseline_bias) ** 2
    return np.where(n > 0, n * w, 0.0) / n.sum()


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
    tokens, n, c, _ = _frame_contributions(view, frame, table)
    return dict(zip(tokens, _shift_values(n, c, kind, baseline_bias).tolist()))


def word_shifts(
    full_view: CorpusView,
    target: CorpusView,
    background: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
    kind: str,
    k: int = 10,
) -> Table:
    """Top-k tokens by |target shift - background shift|.

    `target` and `background` are document sets of `full_view`. One
    contribution vector over the full vocabulary gives the full-corpus
    baseline (about which intensity shifts are measured) and both views'
    shift tables, each normalized by its own token total. A token absent
    from one view contributes zero shift there, so a word that only the
    background uses pulls the delta negative. Ties break by token,
    ascending. k larger than the union vocabulary returns the full table.
    Returns a table of `ShiftEntry` rows with the columns frame_id, kind,
    token, shift_target, shift_background and shift_delta.
    """
    if kind not in SHIFT_KINDS:
        raise DataError(f"unknown shift kind {kind!r}")
    tokens, _, c, baseline = _frame_contributions(full_view, frame, table)
    _, (n_t, n_b) = _counts_over(full_view, [target, background])
    shift_t = _shift_values(n_t, c, kind, baseline)
    shift_b = _shift_values(n_b, c, kind, baseline)
    union = np.flatnonzero(n_t + n_b)
    delta = shift_t[union] - shift_b[union]
    # sorted by -|delta|, ties by token index, which is token order
    order = np.lexsort((union, -np.abs(delta)))
    top = union[order[:k] if k > 0 else order]
    shift_t, shift_b = shift_t[top], shift_b[top]
    return Table({
        "frame_id": [frame.id] * len(top),
        "kind": [kind] * len(top),
        "token": list(map(tokens.__getitem__, top.tolist())),
        "shift_target": shift_t.tolist(),
        "shift_background": shift_b.tolist(),
        "shift_delta": (shift_t - shift_b).tolist(),
    }, ShiftEntry)


def _group_sums(view: CorpusView, frame: Microframe, table: EmbeddingTable,
                group_of_doc: np.ndarray, n_groups: int):
    """Countable token total, contribution sum and squared-deviation sum of
    each group of the view's documents on `frame`.

    `group_of_doc` holds each document's group in [0, n_groups), or -1
    for a document in none. Deviations are from the view's own bias,
    taken from the same contributions. One `_doc_coo` pass; each group
    adds its (document, token) triplets in document order.
    """
    _, _, c, baseline = _frame_contributions(view, frame, table)
    rows, cols, vals, _ = _doc_coo(view)
    groups = group_of_doc[rows]
    kept = groups >= 0
    groups, vals, c = groups[kept], vals[kept], c[cols[kept]]
    weights = (vals, vals * c, vals * (c - baseline) ** 2)
    return [np.bincount(groups, weights=w, minlength=n_groups) for w in weights]


def document_spectrum(
    view: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
) -> Table:
    """Per-document bias and intensity, sorted by bias ascending, ties by
    document id.

    Intensity is measured about the view's own bias on `frame`. Documents
    empty after masking have absent (None) values and come last, by
    document id. Returns a table of `SpectrumEntry` rows.
    """
    docs = view.documents
    total, b, i = _group_sums(view, frame, table, np.arange(len(docs)), len(docs))
    present = total > 0.0
    bias, intensity = (np.divide(s, total, out=np.zeros_like(total), where=present)
                       for s in (b, i))
    order = np.lexsort((_id_order([d.doc_id for d in docs]), bias, ~present)).tolist()
    n = int(present.sum())
    absent = [None] * (len(docs) - n)
    return Table.of(SpectrumEntry, [docs[j].doc_id for j in order], [docs[j].group for j in order],
                    bias[order[:n]].tolist() + absent, intensity[order[:n]].tolist() + absent)


def unit_statistics(
    view: CorpusView,
    frame: Microframe,
    table: EmbeddingTable,
    units,
) -> dict[str, tuple[float, float]]:
    """Bias and intensity on `frame` of each unit of the view's documents.

    `units` holds each document's unit label, in the order of
    `view.documents`, or None for a document in no unit. Intensity is
    measured about the view's own bias on `frame`. A unit with no
    countable token is left out. Returns {unit: (bias, intensity)} in
    sorted unit order.
    """
    if len(units) != len(view.documents):
        raise DataError(f"{len(units)} unit labels for {len(view.documents)} documents")
    labels = sorted({u for u in units if u is not None})
    code = {u: i for i, u in enumerate(labels)}
    group_of_doc = np.array([code.get(u, -1) for u in units], dtype=np.intp)
    sums = _group_sums(view, frame, table, group_of_doc, len(labels))
    return {
        unit: (b / total, i / total)
        for unit, total, b, i in zip(labels, *(s.tolist() for s in sums))
        if total > 0.0
    }


def baseline_biases(
    view: CorpusView, frames: FrameRegistry, table: EmbeddingTable
) -> dict[str, float]:
    """Full-corpus bias per frame, with the embedding rows read once."""
    biases, _ = view_statistics(view, frames, table)
    return dict(zip(frames.ids, biases.tolist()))


# ---------------------------------------------------------------------------
# Separation and frame selection


def _ordinal_ranks(values: np.ndarray, id_order: np.ndarray) -> np.ndarray:
    """1-based ranks, descending by value, ties by `id_order`, each frame's
    position in sorted id order."""
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[np.lexsort((id_order, -values))] = np.arange(1, len(values) + 1)
    return ranks


def separation(
    full_view: CorpusView,
    view_a: CorpusView,
    view_b: CorpusView,
    frames: FrameRegistry,
    table: EmbeddingTable,
) -> Table:
    """Per-frame bias and intensity differences between two corpora.

    `view_a` and `view_b` are document sets of `full_view`. The full
    vocabulary's embedding rows are read once; each frame block gives the
    full-corpus baseline and both corpora's bias and intensity about it
    from the same numbers. The intensity rank orders frames by
    the mean intensity across the union of both corpora (token-weighted,
    which equals the intensity of the pooled counts); the bias rank
    orders by |delta bias|. Ranks are 1-based, descending, ties by frame
    id. Returns a table of `SeparationResult` rows in registry order.
    """
    tokens, weights = _counts_over(full_view, [full_view, view_a, view_b])
    ((_, bias_a, bias_b), (_, int_a, int_b)), _ = _frame_statistics(
        frames, table, tokens, weights
    )
    total_a = float(view_a.total_tokens)
    total_b = float(view_b.total_tokens)
    mean_int = (total_a * int_a + total_b * int_b) / (total_a + total_b)
    id_order = _id_order(frames.ids)
    rank_b = _ordinal_ranks(np.abs(bias_a - bias_b), id_order)
    rank_i = _ordinal_ranks(mean_int, id_order)
    return Table.of(SeparationResult, list(frames.ids), bias_a - bias_b, int_a - int_b, rank_b,
                    rank_i, rank_b + rank_i, bias_a, bias_b, int_a, int_b, mean_int)


def rank_sum_select(separations: Table, m: int) -> list[str]:
    """Ids of the m frames of a `separation` table with the smallest rank
    sum, ties by frame id. A negative m is a DataError."""
    if m < 0:
        raise DataError(f"m must be >= 0, got {m}")
    ids = separations.columns["frame_id"]
    order = np.lexsort((_id_order(ids), separations.columns["rank_sum"]))
    return [ids[i] for i in order[:m].tolist()]


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
) -> Table:
    """Run the full per-frame analysis of a target corpus against its parent.

    For every registry frame: the target's bias and intensity, the
    full-corpus baseline bias, and bootstrap significance with the null
    sized to the target (token count for the token unit, document count
    for the document unit). The embedding rows for the full vocabulary
    are read once for the observed statistics, and one set of resamples,
    drawn from ``default_rng(seed)``, is shared by every frame: a frame's
    row is the same, up to rounding, whichever other frames the registry
    holds, and its null is, up to rounding, the one `bootstrap_null` gives
    under the same seed. p-values and effects come from the F×n null
    arrays in one step.
    Returns a table of `FramingResult` rows in registry order.
    """
    if n_bootstrap < 1:
        raise DataError(f"need at least one bootstrap sample, got {n_bootstrap}")
    if bootstrap_unit not in BOOTSTRAP_UNITS:
        raise DataError(f"unknown bootstrap unit {bootstrap_unit!r}")
    if not len(registry):
        raise DataError("no frames to analyze")
    tokens, weights = _counts_over(full_view, [full_view, target_view])
    sample_size = (target_view.total_tokens if bootstrap_unit == "token"
                   else len(target_view.documents))
    draws = _resampled_counts(full_view, bootstrap_unit, sample_size, n_bootstrap, seed)
    ((baseline, bias), (_, intensity)), nulls = _frame_statistics(
        registry, table, tokens, weights, draws=draws, n=n_bootstrap
    )
    p_b, p_i, eff_b, eff_i = _significance(bias, intensity, *nulls)
    return Table.of(FramingResult, list(registry.ids), bias, intensity, baseline, eff_b, eff_i,
                    p_b, p_i, [n_bootstrap] * len(registry))
