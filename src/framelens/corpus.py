"""Documents, tokenization, and bag-of-words corpus views.

A corpus view holds token counts over exactly the tokens that can carry
a contribution: topic words are masked out (replaced by the reserved
``<UNK>`` sentinel) and tokens absent from the embedding table are
excluded entirely, including from the count total. Excluding OOV mass
from the denominator keeps the weighted averages over contribution-
bearing words only; counting OOV occurrences as zero-contribution mass
would silently shrink every bias magnitude.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

from .embeddings import EmbeddingTable
from .errors import DataError
from .textio import numbered_lines, open_text

#: Reserved sentinel. Documents containing it literally get it masked too.
UNK = "<UNK>"


@dataclass(frozen=True)
class NormalizerConfig:
    """Tokenizer settings. Defaults: NFC, lowercase, strip edge punctuation."""

    lowercase: bool = True
    nfc: bool = True
    strip_punctuation: bool = True


#: The ASCII characters whose Unicode category is punctuation (P*).
_ASCII_PUNCT = "".join(
    c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")
)


def _strip_edge_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(raw_text: str, config: NormalizerConfig | None = None) -> list[str]:
    """Deterministically split text into normalized tokens.

    Splits on Unicode whitespace; per token applies NFC normalization,
    case folding, and leading/trailing punctuation stripping per
    `config`; empty tokens are dropped. The literal chunk ``<UNK>`` is
    preserved verbatim so the reserved sentinel survives normalization.
    Idempotent on its own output. An ASCII chunk is already NFC and stays
    ASCII when lowercased, so it skips normalization and strips with
    `str.strip` over the ASCII punctuation; an all-ASCII text without the
    sentinel is lowercased and split whole.
    """
    cfg = config or NormalizerConfig()
    if raw_text.isascii() and UNK not in raw_text:
        chunks = (raw_text.lower() if cfg.lowercase else raw_text).split()
        if cfg.strip_punctuation:
            return list(filter(None, map(str.strip, chunks, repeat(_ASCII_PUNCT))))
        return chunks
    out: list[str] = []
    for chunk in raw_text.split():
        if chunk == UNK:
            out.append(UNK)
            continue
        ascii_only = chunk.isascii()
        tok = unicodedata.normalize("NFC", chunk) if cfg.nfc and not ascii_only else chunk
        if cfg.lowercase:
            tok = tok.lower()
        if cfg.strip_punctuation:
            tok = tok.strip(_ASCII_PUNCT) if ascii_only else _strip_edge_punct(tok)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True, eq=False)
class Document:
    """One document: id, raw text, its normalized tokens, optional labels."""

    doc_id: str
    raw_text: str
    tokens: tuple[str, ...]
    group: str | None = None
    meta: dict = field(default_factory=dict)


def make_document(
    doc_id: str,
    raw_text: str,
    group: str | None = None,
    meta: dict | None = None,
    config: NormalizerConfig | None = None,
) -> Document:
    return Document(
        doc_id=doc_id,
        raw_text=raw_text,
        tokens=tuple(tokenize(raw_text, config)),
        group=group,
        meta=meta or {},
    )


@dataclass(frozen=True, eq=False)
class CorpusView:
    """Bag-of-words counts for a document set under one masking policy.

    `counts` covers only tokens that are neither masked topic words nor
    out-of-vocabulary; `total_tokens` is the sum of those counts.
    """

    documents: tuple[Document, ...]
    counts: dict[str, int]
    total_tokens: int
    masked: frozenset[str]
    oov: frozenset[str]
    topic_words: frozenset[str]
    _table: EmbeddingTable = field(repr=False)

    def vocabulary(self) -> list[str]:
        """Counted tokens in canonical (sorted) order."""
        return sorted(self.counts)


def _classify(
    documents: list[Document],
    table: EmbeddingTable,
    topics: frozenset[str],
) -> CorpusView:
    # Each distinct type is classified once for the whole view. The counts
    # keep their types in first-occurrence order, as a loop over the
    # occurrences would insert them.
    totals = Counter(chain.from_iterable(doc.tokens for doc in documents))
    vocabulary = table.vocabulary
    masked = {tok for tok in totals if tok == UNK or tok in topics}
    oov = {tok for tok in totals if tok not in vocabulary and tok not in masked}
    counts = {tok: n for tok, n in totals.items() if tok in vocabulary and tok not in masked}
    return CorpusView(
        documents=tuple(documents),
        counts=counts,
        total_tokens=sum(counts.values()),
        masked=frozenset(masked),
        oov=frozenset(oov),
        topic_words=topics,
        _table=table,
    )


def build_view(
    documents: list[Document],
    table: EmbeddingTable,
    topic_words: set[str] | None = None,
) -> CorpusView:
    """Classify every token occurrence into counted, masked, or OOV.

    Raises DataError when nothing countable remains: the bias and
    intensity denominators would be zero.
    """
    view = _classify(documents, table, frozenset(topic_words or ()))
    if view.total_tokens == 0:
        raise DataError("empty corpus view")
    return view


def split_by_group(view: CorpusView, group: str) -> tuple[CorpusView, CorpusView]:
    """Partition a view into documents labeled `group` and the rest.

    Both halves inherit the parent's masking policy and recompute their
    counts. The target must end up with countable tokens; the background
    may come out empty, whether because every document carries the label
    or because the rest have nothing countable (callers that need a
    background must check).
    """
    target_docs = [d for d in view.documents if d.group == group]
    if not target_docs:
        raise DataError(f"no documents labeled {group!r}")
    rest_docs = [d for d in view.documents if d.group != group]
    target = build_view(target_docs, view._table, set(view.topic_words))
    background = _classify(rest_docs, view._table, view.topic_words)
    return target, background


def read_jsonl(path: str, config: NormalizerConfig | None = None) -> list[Document]:
    """Read a JSONL corpus: one object per line with `id`, `text`,
    optional `group`, optional `meta`. Ids must be unique."""
    docs: list[Document] = []
    first_line: dict[str, int] = {}
    try:
        fh = open_text(path)
    except OSError as exc:
        raise DataError(f"cannot read corpus {path!r}: {exc}") from exc
    with fh:
        for lineno, line in numbered_lines(fh, path):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: record must be a JSON object")
            if "id" not in obj or "text" not in obj:
                raise DataError(f"{path}:{lineno}: record needs 'id' and 'text'")
            if not isinstance(obj["text"], str):
                raise DataError(f"{path}:{lineno}: 'text' must be a string")
            meta = obj.get("meta") or {}
            if not isinstance(meta, dict):
                raise DataError(f"{path}:{lineno}: 'meta' must be an object")
            doc_id = str(obj["id"])
            first = first_line.setdefault(doc_id, lineno)
            if first != lineno:
                raise DataError(f"{path}:{lineno}: duplicate id {doc_id!r} (first on line {first})")
            group = obj.get("group")
            docs.append(
                make_document(
                    doc_id=doc_id,
                    raw_text=obj["text"],
                    group=str(group) if group is not None else None,
                    meta=meta,
                    config=config,
                )
            )
    if not docs:
        raise DataError(f"no documents in {path!r}")
    return docs


def read_topic_words(path: str, config: NormalizerConfig | None = None) -> set[str]:
    """Read a newline-delimited topic word list, normalized like corpus text."""
    words: set[str] = set()
    try:
        fh = open_text(path)
    except OSError as exc:
        raise DataError(f"cannot read topic words {path!r}: {exc}") from exc
    with fh:
        for _, line in numbered_lines(fh, path):
            for tok in tokenize(line, config):
                words.add(tok)
    return words
