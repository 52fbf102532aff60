"""Characterize text corpora along antonym-pair semantic axes.

The library measures, for each antonym-pair frame, how strongly and in
which direction a corpus leans (bias), how actively the axis is used
(intensity), whether either is significant against a bootstrap null,
which words explain the result (shifts), how individual documents spread
out (spectrum), and how two corpora differ (separation). A command-line
tool wraps the pipeline and renders SVG reports.
"""

# before the submodules: reports reads it when frames imports reports
__version__ = "0.1.0"

from .corpus import (
    CorpusView,
    Document,
    NormalizerConfig,
    UNK,
    build_view,
    make_document,
    read_jsonl,
    read_topic_words,
    split_by_group,
    tokenize,
)
from .embeddings import EmbeddingTable, LoadStats, load_embeddings
from .engine import (
    FramingResult,
    NullDistribution,
    SeparationResult,
    ShiftEntry,
    SpectrumEntry,
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
    unit_statistics,
    view_statistics,
    word_contribution,
    word_shifts,
)
from .errors import DataError, UsageError
from .frames import (
    FrameRegistry,
    Microframe,
    build_registry,
    make_frame,
    read_pairs_tsv,
    registry_record,
    registry_to_json,
)
from .relevance import (
    CharGramPerplexity,
    PerplexityProvider,
    RelevanceQuery,
    RelevanceScore,
    TablePerplexity,
    build_templates,
    make_relevance_query,
    relevance_embedding,
    relevance_perplexity,
)

__all__ = [
    "CharGramPerplexity",
    "CorpusView",
    "DataError",
    "Document",
    "EmbeddingTable",
    "FrameRegistry",
    "FramingResult",
    "LoadStats",
    "Microframe",
    "NormalizerConfig",
    "NullDistribution",
    "PerplexityProvider",
    "RelevanceQuery",
    "RelevanceScore",
    "SeparationResult",
    "ShiftEntry",
    "SpectrumEntry",
    "TablePerplexity",
    "UNK",
    "UsageError",
    "analyze_frames",
    "baseline_biases",
    "bootstrap_null",
    "build_registry",
    "build_templates",
    "build_view",
    "corpus_bias",
    "corpus_intensity",
    "document_spectrum",
    "load_embeddings",
    "log_odds_dirichlet",
    "make_document",
    "make_frame",
    "make_relevance_query",
    "rank_sum_select",
    "read_jsonl",
    "read_pairs_tsv",
    "read_topic_words",
    "registry_record",
    "registry_to_json",
    "relevance_embedding",
    "relevance_perplexity",
    "separation",
    "shift_table",
    "significance",
    "split_by_group",
    "tokenize",
    "top_significant_frames",
    "unit_statistics",
    "view_statistics",
    "word_contribution",
    "word_shifts",
]
