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

from .embeddings import EmbeddingTable
from .errors import DataError

#: Reserved sentinel. Documents containing it literally get it masked too.
UNK = "<UNK>"


@dataclass(frozen=True)
class NormalizerConfig:
    """Tokenizer settings. Defaults: NFC, lowercase, strip edge punctuation."""

    lowercase: bool = True
    nfc: bool = True
    strip_punctuation: bool = True


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
    Idempotent on its own output.
    """
    cfg = config or NormalizerConfig()
    out: list[str] = []
    for chunk in raw_text.split():
        if chunk == UNK:
            out.append(UNK)
            continue
        tok = unicodedata.normalize("NFC", chunk) if cfg.nfc else chunk
        if cfg.lowercase:
            tok = tok.lower()
        if cfg.strip_punctuation:
            tok = _strip_edge_punct(tok)
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
    `doc_counts` holds the same classification per document, aligned
    with `documents`.
    """

    documents: tuple[Document, ...]
    counts: dict[str, int]
    total_tokens: int
    masked: frozenset[str]
    oov: frozenset[str]
    doc_counts: tuple[dict[str, int], ...]
    topic_words: frozenset[str]
    _table: EmbeddingTable = field(repr=False)

    def vocabulary(self) -> list[str]:
        """Counted tokens in canonical (sorted) order."""
        return sorted(self.counts)

    def groups(self) -> list[str]:
        """Distinct non-null group labels, sorted."""
        return sorted({d.group for d in self.documents if d.group is not None})


def _classify(
    documents: list[Document],
    table: EmbeddingTable,
    topics: frozenset[str],
) -> CorpusView:
    counts: Counter[str] = Counter()
    masked: set[str] = set()
    oov: set[str] = set()
    doc_counts: list[dict[str, int]] = []
    for doc in documents:
        dc: Counter[str] = Counter()
        for tok in doc.tokens:
            if tok == UNK or tok in topics:
                masked.add(tok)
            elif tok not in table:
                oov.add(tok)
            else:
                dc[tok] += 1
        counts.update(dc)
        doc_counts.append(dict(dc))
    return CorpusView(
        documents=tuple(documents),
        counts=dict(counts),
        total_tokens=sum(counts.values()),
        masked=frozenset(masked),
        oov=frozenset(oov),
        doc_counts=tuple(doc_counts),
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
    optional `group`, optional `meta`."""
    docs: list[Document] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read corpus {path!r}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
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
            group = obj.get("group")
            docs.append(
                make_document(
                    doc_id=str(obj["id"]),
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
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read topic words {path!r}: {exc}") from exc
    with fh:
        for line in fh:
            for tok in tokenize(line, config):
                words.add(tok)
    return words
