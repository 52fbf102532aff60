"""Independent brute-force oracles, kept deliberately separate from the
library's code paths: pure-Python arithmetic, token streams instead of
count tables, sorting instead of rank bookkeeping."""

import json
import math

import numpy as np


def cosine(u, v) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(sum(float(a) ** 2 for a in u))
    nv = math.sqrt(sum(float(b) ** 2 for b in v))
    return dot / (nu * nv)


def counted_stream(docs, table, topic_words) -> list[str]:
    """Every countable token occurrence in document order: not masked, not
    OOV, not the reserved sentinel."""
    stream = []
    for doc in docs:
        for tok in doc.tokens:
            if tok == "<UNK>" or tok in topic_words:
                continue
            if tok not in table:
                continue
            stream.append(tok)
    return stream


def contributions_by_token(stream, table, frame) -> dict[str, float]:
    out = {}
    for tok in stream:
        if tok not in out:
            out[tok] = cosine(table.vector_of(tok), frame.axis)
    return out


def stream_bias(stream, contrib) -> float:
    """Average contribution over every single token occurrence."""
    values = [contrib[t] for t in stream]
    return sum(values) / len(values)


def stream_intensity(stream, contrib, baseline) -> float:
    values = [(contrib[t] - baseline) ** 2 for t in stream]
    return sum(values) / len(values)


def select_by_rank_sum(rank_pairs, m):
    """rank_pairs: list of (frame_id, rank_a, rank_b); independent re-sort."""
    order = sorted(rank_pairs, key=lambda t: (t[1] + t[2], t[0]))
    return [fid for fid, _, _ in order[:m]]


def load_embeddings_reference(path, vocab_filter=None):
    """The per-record embedding loader: split every line in full and read each
    component of a record that needs parsing with float(). Returns
    ``(tokens in row order, float32 matrix, LoadStats fields as a dict)``;
    raises DataError with the loader's message."""
    from framelens.errors import DataError

    def is_header(parts):
        if len(parts) != 2:
            return False
        try:
            int(parts[0]), int(parts[1])
        except ValueError:
            return False
        return True

    counts = dict(kept=0, malformed=0, zero_vectors=0, duplicates=0, filtered=0)
    tokens, rows, seen, dim = [], [], set(), None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or (lineno == 1 and is_header(parts)):
                continue
            token, fields = parts[0], parts[1:]
            dropped = vocab_filter is not None and token not in vocab_filter
            if dropped and len(fields) == dim:
                counts["filtered"] += 1
                continue
            try:
                values = [float(x) for x in fields]
            except ValueError:
                counts["malformed"] += 1
                continue
            if not values:
                counts["malformed"] += 1
                continue
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise DataError(
                    f"{path}:{lineno}: vector has {len(values)} components, expected {dim}"
                )
            if dropped:
                counts["filtered"] += 1
                continue
            with np.errstate(over="ignore"):
                vec = np.array(values, dtype=np.float64).astype(np.float32)
            if not all(math.isfinite(v) for v in vec.tolist()):
                counts["malformed"] += 1
            elif not any(vec.tolist()):
                counts["zero_vectors"] += 1
            elif token in seen:
                counts["duplicates"] += 1
            else:
                seen.add(token)
                tokens.append(token)
                rows.append(vec)
    if not rows:
        raise DataError(f"no loadable vectors in {path!r}")
    counts["kept"] = len(rows)
    return tokens, np.vstack(rows), counts


def classify_occurrences(docs, table, topic_words):
    """Every token occurrence of every document, one at a time, into counted,
    masked and OOV. Returns ``(counts, per_doc, masked, oov)``; the dicts
    hold tokens in first-occurrence order, as the loop meets them, while a
    view keeps its counts in sorted order."""
    counts, per_doc, masked, oov = {}, [], set(), set()
    for doc in docs:
        dc = {}
        for tok in doc.tokens:
            if tok == "<UNK>" or tok in topic_words:
                masked.add(tok)
            elif tok not in table:
                oov.add(tok)
            else:
                dc[tok] = dc.get(tok, 0) + 1
                counts[tok] = counts.get(tok, 0) + 1
        per_doc.append(dc)
    return counts, per_doc, masked, oov


def tsv_report(head: dict, columns, rows) -> str:
    """A report TSV written one cell at a time: the provenance line, the
    header, then per row each column's cell, empty for a missing key or
    None, a float as the repr of the plain float, anything else as str."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    lines = ["# " + json.dumps(head, sort_keys=True), "\t".join(columns)]
    for row in rows:
        lines.append("\t".join(cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"
