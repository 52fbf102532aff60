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
many frames (`_score_frames`, `_frame_statistics`), and the per-token
shifts and per-document or per-unit sums of one frame (`word_shifts`,
`document_spectrum`, `unit_statistics`).

Each frame's contributions are computed once per command, over the full
view's vocabulary. Every narrower document set (a target and its
background, two groups, a unit, a document) is a count vector over that
vocabulary, and the full-corpus baseline comes from the same
contributions inside each statistic that needs it, so a word's
contribution to a frame is one number in every view of a run.

Reproducibility: one bootstrap stream, ``default_rng(seed)``, is drawn
once per run and shared by every frame, so a frame's null depends on the
seed and the corpus, not on the other frames or their order. The same
seed gives byte-identical reports on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The view's sorted vocabulary, its counts, its contributions (V values)
    to `frame`, and its bias on `frame`.

    The bias is the 1×V product that `view_statistics` forms for one frame,
    so it is the bit-for-bit `corpus_bias` of the view.
    """
    tokens, (n,) = _counts_over(view, [view])
    _, c = next(_cosine_blocks([frame], table.unit_rows(tokens)))
    return tokens, n, c[0], float((c @ n / n.sum())[0])


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


def _frame_statistics(frames, unit_rows: np.ndarray, weights, baseline=None):
    """Per-frame bias and intensity of each count vector.

    `weights` are count vectors over the rows of `unit_rows`. Intensity is
    measured about `baseline`, one value per frame, or, when it is None,
    about the bias of the first count vector: a full view's counts put
    first give every narrower count vector its baseline from the same
    contributions. Each count vector is one 1-D product on a frame block,
    never a column of a multi-column GEMM, which rounds differently.
    Returns (bias, intensity), each with one row of F values per count
    vector.
    """
    totals = [n.sum() for n in weights]
    bias, intensity = np.empty((2, len(weights), len(frames)))
    if baseline is None:
        baseline = bias[0]  # each block writes its slice before reading it
    for block, c in _cosine_blocks(frames, unit_rows):
        for row, n, total in zip(bias, weights, totals):
            row[block] = c @ n / total
        # C becomes S in place, so a block holds one fb×V buffer
        c -= baseline[block, None]
        np.square(c, out=c)
        for row, n, total in zip(intensity, weights, totals):
            row[block] = c @ n / total
    return bias, intensity


def view_statistics(
    view: CorpusView,
    frames,
    table: EmbeddingTable,
    baseline: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame bias and intensity of `view`.

    `baseline` holds one full-corpus bias per frame, in the order of
    `frames`; intensity is measured about it, or about the view's own bias
    when it is None. The view's embedding rows are gathered once for all
    frames. Returns (bias, intensity) arrays of one value per frame.
    """
    tokens, weights = _counts_over(view, [view])
    (bias,), (intensity,) = _frame_statistics(
        frames, table.unit_rows(tokens), weights, baseline
    )
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


def _doc_coo(view: CorpusView):
    """Sparse (document, token) count triplets over the view's sorted
    tokens, plus per-document countable totals.

    Each counted occurrence's code in `view.codes` becomes ``document * V +
    token index``; `np.unique` sorts and counts these, so triplets run in
    document order and, within a document, in sorted-token order, and
    documents with the same counts accumulate identically.
    """
    docs = view.documents
    rows = np.repeat(np.arange(len(docs)), [len(d.tokens) for d in docs])
    n_tokens = len(view.tokens)
    codes, counts = np.unique((rows * n_tokens + view.codes)[view.codes >= 0], return_counts=True)
    rows, cols = np.divmod(codes, n_tokens)
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
    tokens, (counts,) = _counts_over(full_view, [full_view])
    draws = _resampled_counts(full_view, unit, sample_size, n, seed)
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
) -> list[ShiftEntry]:
    """Top-k tokens by |target shift - background shift|.

    `target` and `background` are document sets of `full_view`. One
    contribution vector over the full vocabulary gives the full-corpus
    baseline (about which intensity shifts are measured) and both views'
    shift tables, each normalized by its own token total. A token absent
    from one view contributes zero shift there, so a word that only the
    background uses pulls the delta negative. Ties break by token,
    ascending. k larger than the union vocabulary returns the full table.
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
    return [
        ShiftEntry(tokens[i], st, sb, st - sb, kind)
        for i, st, sb in zip(top.tolist(), shift_t[top].tolist(), shift_b[top].tolist())
    ]


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
) -> list[SpectrumEntry]:
    """Per-document bias and intensity, sorted by bias ascending.

    Intensity is measured about the view's own bias on `frame`. Documents
    empty after masking are emitted with absent (None) values and sorted
    to the end by document id.
    """
    n_docs = len(view.documents)
    sums = _group_sums(view, frame, table, np.arange(n_docs), n_docs)
    present: list[SpectrumEntry] = []
    absent: list[SpectrumEntry] = []
    for doc, (total, b, i) in zip(view.documents, zip(*(s.tolist() for s in sums))):
        if total == 0.0:
            absent.append(SpectrumEntry(doc.doc_id, doc.group, None, None))
        else:
            present.append(SpectrumEntry(doc.doc_id, doc.group, b / total, i / total))
    present.sort(key=lambda e: (e.doc_bias, e.doc_id))
    absent.sort(key=lambda e: e.doc_id)
    return present + absent


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
    full_view: CorpusView,
    view_a: CorpusView,
    view_b: CorpusView,
    frames: FrameRegistry,
    table: EmbeddingTable,
) -> list[SeparationResult]:
    """Per-frame bias and intensity differences between two corpora.

    `view_a` and `view_b` are document sets of `full_view`. The full
    vocabulary's embedding rows are gathered once; each frame block gives
    the full-corpus baseline and both corpora's bias and intensity about
    it from the same contributions. The intensity rank orders frames by
    the mean intensity across the union of both corpora (token-weighted,
    which equals the intensity of the pooled counts); the bias rank
    orders by |delta bias|. Ranks are 1-based, descending, ties by frame
    id.
    """
    tokens, weights = _counts_over(full_view, [full_view, view_a, view_b])
    (_, bias_a, bias_b), (_, int_a, int_b) = _frame_statistics(
        frames, table.unit_rows(tokens), weights
    )
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
    tokens_full, (n_full, n_target) = _counts_over(full_view, [full_view, target_view])
    sample_size = (target_view.total_tokens if bootstrap_unit == "token"
                   else len(target_view.documents))
    draws = _resampled_counts(full_view, bootstrap_unit, sample_size, n_bootstrap, seed)
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
