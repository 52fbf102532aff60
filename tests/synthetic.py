"""Synthetic corpus constructions shared by unit and acceptance tests."""

import numpy as np

from framelens.corpus import build_view, make_document
from framelens.engine import separation
from framelens.frames import build_registry

from conftest import table_from_dict


def planted_separation(rng, n_decoys: int = 30):
    """Toy embedding with one axis that separates two corpora and `n_decoys`
    random axes that do not; returns the separation table."""
    dim = 16
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    vectors = {}
    words_a = []
    words_b = []
    for i in range(20):
        wa, wb = f"a{i}", f"b{i}"
        vectors[wa] = (u + 0.3 * rng.normal(size=dim)).tolist()
        vectors[wb] = (-u + 0.3 * rng.normal(size=dim)).tolist()
        words_a.append(wa)
        words_b.append(wb)
    vectors["planted_pos"] = (u + 0.05 * rng.normal(size=dim)).tolist()
    vectors["planted_neg"] = (-u + 0.05 * rng.normal(size=dim)).tolist()
    pairs = [("planted_neg", "planted_pos")]
    for j in range(n_decoys):
        pm, pp = f"dneg{j}", f"dpos{j}"
        vectors[pm] = rng.normal(size=dim).tolist()
        vectors[pp] = rng.normal(size=dim).tolist()
        pairs.append((pm, pp))
    table = table_from_dict(vectors)
    registry = build_registry(pairs, table)
    docs_a = [
        make_document(f"da{i}", " ".join(rng.choice(words_a, size=12).tolist()), group="A")
        for i in range(8)
    ]
    docs_b = [
        make_document(f"db{i}", " ".join(rng.choice(words_b, size=12).tolist()), group="B")
        for i in range(8)
    ]
    view_a = build_view(docs_a, table)
    view_b = build_view(docs_b, table)
    full = build_view(docs_a + docs_b, table)
    return separation(full, view_a, view_b, registry, table)


def zipf_corpus(rng, vocab_size: int, total_tokens: int, dim: int):
    """A corpus with Zipf-like token frequencies and random embeddings,
    returned as (table, view, token probability vector)."""
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    weights = 1.0 / ranks
    probs = weights / weights.sum()
    counts = rng.multinomial(total_tokens, probs)
    keep = counts > 0
    tokens = [f"w{i}" for i in range(vocab_size)]
    kept_tokens = [t for t, k in zip(tokens, keep) if k]
    kept_counts = counts[keep]
    vectors = {t: rng.normal(size=dim).tolist() for t in kept_tokens}
    table = table_from_dict(vectors)
    # split the bag across a handful of documents; counts carry the signal
    doc_count = 16
    assignments = np.array_split(np.arange(len(kept_tokens)), doc_count)
    docs = []
    for d, idx in enumerate(assignments):
        words = []
        for i in idx:
            words.extend([kept_tokens[i]] * int(kept_counts[i]))
        if not words:
            continue
        docs.append(make_document(f"doc{d}", " ".join(words), group="g"))
    view = build_view(docs, table)
    return table, view, kept_tokens, kept_counts
