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
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError
from .textio import numbered_lines, open_text

#: Reserved sentinel. Documents containing it literally get it masked too.
UNK = "<UNK>"


@dataclass(frozen=True)
class NormalizerConfig:
    """Tokenizer settings: whether to lowercase (default yes)."""

    lowercase: bool = True


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
    case folding unless `config` turns it off, and leading/trailing
    punctuation stripping; empty tokens are dropped. The literal chunk
    ``<UNK>`` is preserved verbatim so the reserved sentinel survives
    normalization. Idempotent on its own output. An ASCII chunk is already
    NFC and stays ASCII when lowercased, so it skips normalization and
    strips with `str.strip` over the ASCII punctuation; an all-ASCII text
    without the sentinel is case-folded and split whole.
    """
    cfg = config or NormalizerConfig()
    if raw_text.isascii() and UNK not in raw_text:
        chunks = (raw_text.lower() if cfg.lowercase else raw_text).split()
        return list(filter(None, map(str.strip, chunks, repeat(_ASCII_PUNCT))))
    out: list[str] = []
    for chunk in raw_text.split():
        if chunk == UNK:
            out.append(UNK)
            continue
        ascii_only = chunk.isascii()
        tok = chunk if ascii_only else unicodedata.normalize("NFC", chunk)
        if cfg.lowercase:
            tok = tok.lower()
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

    Each token occurrence of `documents`, in document order, is coded once
    in the int32 `codes`: its index in `tokens` when it is counted, or
    -1 - j when it is `excluded[j]`, a masked or out-of-vocabulary type.
    `tokens` are the counted types in sorted order and `token_counts` their
    occurrence counts; `total_tokens` is the sum of those counts. Every
    other form of the counts (`counts`, the halves of `split_by_group`, the
    document triplets of `engine._doc_coo`) is derived from these arrays.
    """

    documents: tuple[Document, ...]
    tokens: tuple[str, ...]
    token_counts: np.ndarray
    codes: np.ndarray
    excluded: tuple[str, ...]
    masked: frozenset[str]
    oov: frozenset[str]

    @property
    def total_tokens(self) -> int:
        return int(self.token_counts.sum())

    @property
    def counts(self) -> MappingProxyType:
        """Read-only {token: count} of the counted tokens, in sorted order."""
        return MappingProxyType(self._counts)

    @cached_property
    def _counts(self) -> dict[str, int]:
        return dict(zip(self.tokens, self.token_counts.tolist()))

    def vocabulary(self) -> list[str]:
        """Counted tokens in canonical (sorted) order."""
        return list(self.tokens)


def build_view(
    documents: list[Document],
    table: EmbeddingTable,
    topic_words: set[str] | None = None,
    types: Iterable[str] | None = None,
) -> CorpusView:
    """Classify every token occurrence into counted, masked, or OOV.

    One pass collects the distinct types, each classified once, unless the
    caller passes them as `types` (every distinct token of `documents`, in
    any order); a second pass codes every occurrence. Raises DataError when
    nothing countable remains: the bias and intensity denominators would be
    zero.
    """
    documents = tuple(documents)
    topics = topic_words or ()
    if types is None:
        types = chain.from_iterable(d.tokens for d in documents)
    code = dict.fromkeys(types)
    vocabulary = table.vocabulary
    masked = {tok for tok in code if tok == UNK or tok in topics}
    counted = sorted(tok for tok in code if tok in vocabulary and tok not in masked)
    if not counted:
        raise DataError("empty corpus view")
    excluded = sorted(code.keys() - counted)
    code.update(zip(counted, range(len(counted))))
    code.update(zip(excluded, range(-1, -1 - len(excluded), -1)))
    codes = np.fromiter(
        map(code.__getitem__, chain.from_iterable(d.tokens for d in documents)),
        np.int32,
        count=sum(len(d.tokens) for d in documents),
    )
    return CorpusView(
        documents=documents,
        tokens=tuple(counted),
        token_counts=np.bincount(codes[codes >= 0], minlength=len(counted)),
        codes=codes,
        excluded=tuple(excluded),
        masked=frozenset(masked),
        oov=frozenset(excluded).difference(masked),
    )


def _subview(view: CorpusView, in_docs: np.ndarray) -> CorpusView:
    """The view of the documents that `in_docs` marks, counted from their
    codes in `view`: the view that `build_view` gives for those documents."""
    codes = view.codes[np.repeat(in_docs, [len(d.tokens) for d in view.documents])]
    counts = np.bincount(codes[codes >= 0], minlength=len(view.tokens))
    kept = np.flatnonzero(counts)
    seen = np.unique(-1 - codes[codes < 0])
    # parent code -> child code; a negative code -1 - j indexes from the end
    lookup = np.zeros(len(view.tokens) + len(view.excluded), np.int32)
    lookup[kept] = np.arange(len(kept))
    lookup[len(lookup) - 1 - seen] = -1 - np.arange(len(seen))
    excluded = [view.excluded[j] for j in seen.tolist()]
    return CorpusView(
        documents=tuple(compress(view.documents, in_docs)),
        tokens=tuple(view.tokens[i] for i in kept.tolist()),
        token_counts=counts[kept],
        codes=lookup[codes],
        excluded=tuple(excluded),
        masked=view.masked.intersection(excluded),
        oov=view.oov.intersection(excluded),
    )


def group_view(view: CorpusView, group: str) -> CorpusView:
    """The labeled half of `split_by_group`, with its errors, counted alone."""
    labeled = np.array([d.group == group for d in view.documents], dtype=bool)
    if not labeled.any():
        raise DataError(f"no documents labeled {group!r}")
    target = _subview(view, labeled)
    if target.total_tokens == 0:
        raise DataError(f"empty corpus view: no countable token in documents labeled {group!r}")
    return target


def split_by_group(view: CorpusView, group: str) -> tuple[CorpusView, CorpusView]:
    """Partition a view into documents labeled `group` and the rest.

    Both halves are counted from the parent's codes. The target must have
    a countable token; the background may come out empty, whether because
    every document carries the label or because the rest have nothing
    countable (callers that need a background must check).
    """
    rest = np.array([d.group != group for d in view.documents], dtype=bool)
    return group_view(view, group), _subview(view, rest)


def _label(value) -> bool:
    """Whether a JSON value can be an id or a group label: a string or a
    number, not a boolean."""
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def read_jsonl(path: str, config: NormalizerConfig | None = None) -> list[Document]:
    """Read a JSONL corpus: one object per line with `id` (a string or a
    number), `text` (a string), optional `group` (a string, a number or
    null) and optional `meta` (an object or null); a boolean is not a
    number. Ids must be unique. A record with a lone surrogate in any
    string, keys included, is refused: only a ``\\u`` escape can give one,
    and no report could encode it. Equal tokens are one string object
    across the corpus: one string per token type."""
    docs: list[Document] = []
    first_line: dict[str, int] = {}
    canon: dict[str, str] = {}
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
            # The line is valid UTF-8, so only a \uD800-\uDFFF escape without
            # its pair can give a string that UTF-8 cannot hold.
            if "\\u" in line:
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError as exc:
                    char = exc.object[exc.start]
                    raise DataError(
                        f"{path}:{lineno}: lone surrogate {char!r} from a \\u escape"
                    ) from None
            if "id" not in obj or "text" not in obj:
                raise DataError(f"{path}:{lineno}: record needs 'id' and 'text'")
            if not isinstance(obj["text"], str):
                raise DataError(f"{path}:{lineno}: 'text' must be a string")
            meta = obj.get("meta")
            if not isinstance(meta, (dict, type(None))):
                raise DataError(f"{path}:{lineno}: 'meta' must be an object or null")
            if not _label(obj["id"]):
                raise DataError(f"{path}:{lineno}: 'id' must be a string or a number")
            group = obj.get("group")
            if group is not None and not _label(group):
                raise DataError(f"{path}:{lineno}: 'group' must be a string, a number or null")
            doc_id = str(obj["id"])
            first = first_line.setdefault(doc_id, lineno)
            if first != lineno:
                raise DataError(f"{path}:{lineno}: duplicate id {doc_id!r} (first on line {first})")
            toks = tokenize(obj["text"], config)
            docs.append(
                Document(
                    doc_id=doc_id,
                    raw_text=obj["text"],
                    tokens=tuple(map(canon.setdefault, toks, toks)),
                    group=str(group) if group is not None else None,
                    meta=meta or {},
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
