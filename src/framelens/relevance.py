"""Frame-to-topic relevance scoring.

Two routes: an embedding route that averages the cosine similarity
between each topic word and the two pole words, and a language-model
route that scores template sentences ("{topic} is {pole}." and its
plural variant) with a pluggable perplexity provider, keeping the lower
perplexity per pole so the template with the correct subject-verb
agreement wins, then summing the two pole scores.

Embedding scores are higher-is-better; perplexity scores are
lower-is-better. Output carries the convention explicitly. Both return
a `Table` of `RelevanceScore` rows, best first, with a `rank` column.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from string import Formatter
from typing import Protocol

from .embeddings import EmbeddingTable
from .errors import DataError
from .frames import FrameRegistry
from .reports import Table
from .textio import numbered_lines, open_text

DEFAULT_TEMPLATES = ("{topic} is {pole}.", "{topic} are {pole}.")


@dataclass(frozen=True)
class RelevanceQuery:
    """Resolved topic words plus the frames to score them against."""

    topic_words: tuple[str, ...]
    frames: FrameRegistry
    unresolved: tuple[str, ...] = ()


@dataclass(frozen=True)
class RelevanceScore:
    frame_id: str
    score: float
    method: str
    details: dict = field(default_factory=dict)


def make_relevance_query(
    topic_words: set[str] | list[str],
    frames: FrameRegistry,
    table: EmbeddingTable,
) -> RelevanceQuery:
    """Validate topic words against the embedding table.

    Unresolvable words are dropped and reported on the query; an empty
    set after dropping is an error. Duplicates collapse (set semantics).
    """
    unique = sorted(set(topic_words))
    if not unique:
        raise DataError("no topic words given")
    resolved = tuple(w for w in unique if w in table)
    unresolved = tuple(w for w in unique if w not in table)
    if not resolved:
        raise DataError(f"no topic word resolves in the embedding table: {unique}")
    return RelevanceQuery(topic_words=resolved, frames=frames, unresolved=unresolved)


def _ranked(ids, scores: list[float], method: str, details: list[dict],
            higher_first: bool) -> Table:
    """The relevance table of frames `ids`, best score first, ties by frame id."""
    order = sorted(range(len(ids)),
                   key=lambda i: (-scores[i] if higher_first else scores[i], ids[i]))
    ranked = Table.of(RelevanceScore, list(ids), scores, [method] * len(ids), details).take(order)
    return Table({"rank": list(range(1, len(ids) + 1)), **ranked.columns}, RelevanceScore)


def relevance_embedding(query: RelevanceQuery, table: EmbeddingTable) -> Table:
    """Mean over topic words of the two pole cosines, averaged per frame.

    Symmetric in pole order by construction. Sorted by score descending,
    ties by frame id. Topic and pole rows are normalised once and every
    cosine comes from one topic×pole product.
    """
    frames = query.frames
    poles = [*frames.poles_plus, *frames.poles_minus]
    missing = set(poles).difference(table.vocabulary)
    if missing:
        fid = next(fid for fid, plus, minus in zip(frames.ids, frames.poles_plus,
                                                   frames.poles_minus)
                   if plus in missing or minus in missing)
        raise DataError(f"frame {fid!r} has a pole missing from the table")
    words = query.topic_words
    cosines = table.unit_rows(list(words)) @ table.unit_rows(poles).T
    pole_means = ((cosines[:, : len(frames)] + cosines[:, len(frames) :]) / 2.0).T.tolist()
    # a left-to-right sum per frame, in topic word order
    scores = [sum(means) / len(words) for means in pole_means]
    details = [{"per_topic_word": dict(zip(words, means))} for means in pole_means]
    return _ranked(frames.ids, scores, "embedding", details, higher_first=True)


def build_templates(
    topic_word: str,
    pole_word: str,
    templates: tuple[str, ...] = DEFAULT_TEMPLATES,
) -> list[str]:
    """Fill the sentence templates with a topic word and a pole word."""
    return [t.format(topic=topic_word, pole=pole_word) for t in templates]


def read_templates(path: str) -> tuple[str, ...]:
    """Read template sentences, one per line, with {topic} and {pole} as
    their only replacement fields."""
    lines: list[str] = []
    try:
        fh = open_text(path)
    except OSError as exc:
        raise DataError(f"cannot read template file {path!r}: {exc}") from exc
    with fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.strip()
            if line and not line.startswith("#"):
                try:  # (name, format spec, conversion) of each replacement field
                    found = {part[1:] for part in Formatter().parse(line) if part[1] is not None}
                except ValueError as exc:  # a lone brace
                    raise DataError(f"{path}:{lineno}: {exc}: {line!r}") from None
                if found != {("topic", "", None), ("pole", "", None)}:
                    raise DataError(f"{path}:{lineno}: template must contain {{topic}} and "
                                    f"{{pole}} and no other field: {line!r}")
                lines.append(line)
    if not lines:
        raise DataError(f"no templates in {path!r}")
    return tuple(lines)


class PerplexityProvider(Protocol):
    """Anything that maps a sentence to a finite positive perplexity."""

    def perplexity(self, sentence: str) -> float: ...


class TablePerplexity:
    """Deterministic provider backed by an explicit sentence -> score table.

    Intended for tests and worked examples; unknown sentences are an
    error that names the sentence.
    """

    def __init__(self, scores: dict[str, float]):
        self._scores = dict(scores)

    def perplexity(self, sentence: str) -> float:
        try:
            return self._scores[sentence]
        except KeyError:
            raise DataError(f"no perplexity available for sentence: {sentence!r}") from None


class CharGramPerplexity:
    """Character n-gram perplexity with add-one smoothing.

    A self-contained, runnable stand-in for a neural language model:
    deterministic, trained on whatever text it is given (typically the
    corpus under analysis). Scores are only as good as character
    statistics can be; the provider interface is the integration point
    for a real model.
    """

    def __init__(self, training_text: str, order: int = 3):
        if order < 1:
            raise DataError("n-gram order must be at least 1")
        self.order = order
        pad = "\x02" * (order - 1)
        self._context_counts: Counter[str] = Counter()
        self._gram_counts: Counter[str] = Counter()
        charset = set(training_text) | {"\x02", "\x03"}
        self._vocab_size = len(charset)
        for line in training_text.splitlines():
            seq = pad + line + "\x03"
            for i in range(order - 1, len(seq)):
                ctx = seq[i - order + 1 : i]
                self._gram_counts[ctx + seq[i]] += 1
                self._context_counts[ctx] += 1

    def perplexity(self, sentence: str) -> float:
        pad = "\x02" * (self.order - 1)
        seq = pad + sentence + "\x03"
        log_prob = 0.0
        steps = 0
        for i in range(self.order - 1, len(seq)):
            ctx = seq[i - self.order + 1 : i]
            num = self._gram_counts[ctx + seq[i]] + 1
            den = self._context_counts[ctx] + self._vocab_size
            log_prob += math.log(num / den)
            steps += 1
        return math.exp(-log_prob / steps)


def relevance_perplexity(
    query: RelevanceQuery,
    provider: PerplexityProvider,
    templates: tuple[str, ...] = DEFAULT_TEMPLATES,
) -> Table:
    """Template-based relevance: min across templates per pole, sum of poles.

    Per topic word and pole word, the score is the lowest perplexity over
    the filled templates (the template with correct subject-verb
    agreement should win); the frame's score for that topic word adds the
    two pole scores, and multiple topic words average. Sorted ascending
    (lower perplexity means more relevant), ties by frame id. Provider
    failures propagate with the offending sentence attached.
    """
    frames = query.frames
    scores: list[float] = []
    details: list[dict] = []
    for pole_plus, pole_minus in zip(frames.poles_plus, frames.poles_minus):
        per_word = {
            word: sum(min(map(provider.perplexity, build_templates(word, pole, templates)))
                      for pole in (pole_plus, pole_minus))
            for word in query.topic_words
        }
        scores.append(sum(per_word.values()) / len(per_word))
        details.append({"per_topic_word": per_word})
    return _ranked(frames.ids, scores, "perplexity", details, higher_first=False)
