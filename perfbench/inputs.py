"""Seeded synthetic inputs and the three benchmark workloads.

Everything the program reads is generated here from the workload seed:
an embedding text file over the shipped vocabulary snapshot (plus, for
one workload, distractor tokens the corpus never uses) and a Zipf-like
JSONL corpus over the same words. The frame lexicon is the shipped
``antonym_pairs.tsv``, so every workload runs on the real registry.
The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

SNAPSHOT = os.path.join("src", "framelens", "data", "vocab_snapshot.txt")
PAIRS = os.path.join("src", "framelens", "data", "antonym_pairs.tsv")

#: Vector components are written with four decimals, clipped to this range.
_COMPONENT_LIMIT = 5.0
_QUANTUM = 10_000


@dataclass(frozen=True)
class Sizes:
    """What one workload generates."""

    dim: int
    distractors: int  # extra embedding lines whose tokens never occur in the corpus
    docs: int
    doc_tokens: int
    groups: tuple[tuple[str, float], ...]  # (label, share of documents); the rest get "rest"
    outlets: int = 0  # when > 0, every document carries meta.outlet; docs are spread evenly
    topics: int = 0  # topic words drawn for the relevance command


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Sizes
    n_bootstrap: int
    bootstrap_unit: str
    commands: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # analyze_frames is about three quarters of a pass; its token-unit
        # null draws are about 60 % of that.
        Workload(
            name="analyze-token",
            sizes=Sizes(dim=300, distractors=0, docs=1000, doc_tokens=100,
                        groups=(("target", 0.1),)),
            n_bootstrap=2,
            bootstrap_unit="token",
            commands=("analyze",),
        ),
        # three one-frame commands, each reloading a table of which two
        # thirds are distractors and retokenizing the corpus: the loader is
        # about two thirds of a pass, the tokenizer and views a quarter.
        # 1,000 documents over 40 outlets: 25 each, so every outlet clears
        # map's default --min-docs of 20.
        Workload(
            name="explain-corpus",
            sizes=Sizes(dim=300, distractors=6_622, docs=1000, doc_tokens=100,
                        groups=(("target", 0.3),), outlets=40),
            n_bootstrap=0,
            bootstrap_unit="token",
            commands=("shifts", "spectrum", "map"),
        ),
        # document resampling on the serial path, per-frame cosines without
        # a null, and relevance scoring, all over the full registry.
        Workload(
            name="compare-docs",
            sizes=Sizes(dim=100, distractors=0, docs=1500, doc_tokens=20,
                        groups=(("a", 0.2), ("b", 0.4)), topics=3),
            n_bootstrap=2,
            bootstrap_unit="document",
            commands=("separation", "analyze", "relevance"),
        ),
    )
}

EXPLAIN_FRAME = "bad--good"
#: --workers of analyze. With the inherited BLAS threads, --workers 2 on two
#: cores ran 4.7-7.6 s a pass against 3.5-3.9 s serially: too unsteady to gate on.
WORKERS = 1


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set and the sizes the generator knows."""

    embeddings: str
    corpus: str
    pairs: str
    topics: tuple[str, ...]
    embedding_lines: int
    dim: int
    docs: int
    raw_tokens: int


def workload_rng(name: str, seed: int) -> np.random.Generator:
    """One stream per (workload, seed); stable across Python runs."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("ascii"))])


def read_snapshot(root: str) -> list[str]:
    with open(os.path.join(root, SNAPSHOT), encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _distractor_tokens(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    out: list[str] = []
    seen = set(taken)
    while len(out) < n:
        lengths = rng.integers(6, 12, size=n)
        chars = rng.choice(letters, size=(n, 11))
        for row, length in zip(chars, lengths):
            tok = "".join(row[:length])
            if tok not in seen:
                seen.add(tok)
                out.append(tok)
                if len(out) == n:
                    break
    return out


def write_table(path: str, tokens: list[str], dim: int, rng: np.random.Generator) -> None:
    """``token c1 ... cd`` lines of Gaussian components at four decimals."""
    limit = int(_COMPONENT_LIMIT * _QUANTUM)
    strings = [f"{k / _QUANTUM:.4f}" for k in range(-limit, limit + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(tokens), 2000):
            block = tokens[start : start + 2000]
            values = rng.standard_normal((len(block), dim))
            codes = np.clip(np.rint(values * _QUANTUM), -limit, limit).astype(np.int64) + limit
            fh.write(
                "".join(
                    tok + " " + " ".join(itemgetter(*row)(strings)) + "\n"
                    for tok, row in zip(block, codes.tolist())
                )
            )


def write_corpus(
    path: str, words: list[str], sizes: Sizes, rng: np.random.Generator
) -> None:
    """Zipf-distributed documents; first word capitalized, some commas, a full stop."""
    order = rng.permutation(len(words))
    weights = 1.0 / np.arange(1, len(words) + 1, dtype=np.float64)
    probs = np.empty(len(words))
    probs[order] = weights / weights.sum()
    draws = rng.choice(len(words), size=(sizes.docs, sizes.doc_tokens), p=probs)
    commas = rng.random((sizes.docs, sizes.doc_tokens)) < 0.05
    variants = words + [w + "," for w in words]
    codes = draws + commas * len(words)
    labels = [label for label, _ in sizes.groups]
    cuts = np.cumsum([share for _, share in sizes.groups])
    group_of = np.searchsorted(cuts, rng.random(sizes.docs), side="right")
    outlet_of = rng.permutation(np.arange(sizes.docs) % max(sizes.outlets, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d, row in enumerate(codes.tolist()):
            toks = list(itemgetter(*row)(variants))
            toks[0] = toks[0].capitalize()
            toks[-1] = toks[-1].rstrip(",") + "."
            record: dict = {"id": f"d{d:05d}", "text": " ".join(toks)}
            g = int(group_of[d])
            record["group"] = labels[g] if g < len(labels) else "rest"
            if sizes.outlets:
                record["meta"] = {"outlet": f"outlet{int(outlet_of[d]):02d}"}
            fh.write(json.dumps(record) + "\n")


def generate(root: str, out_dir: str, workload: Workload, seed: int) -> Inputs:
    """Write one workload's inputs under `out_dir`; `root` is the checkout."""
    sizes = workload.sizes
    rng = workload_rng(workload.name, seed)
    words = read_snapshot(root)
    os.makedirs(out_dir, exist_ok=True)
    extra = _distractor_tokens(rng, sizes.distractors, set(words))
    table_tokens = words + extra
    table_order = rng.permutation(len(table_tokens))
    table_tokens = [table_tokens[i] for i in table_order]
    embeddings = os.path.join(out_dir, "vectors.txt")
    write_table(embeddings, table_tokens, sizes.dim, rng)
    corpus = os.path.join(out_dir, "corpus.jsonl")
    write_corpus(corpus, words, sizes, rng)
    topics = tuple(sorted(rng.choice(words, size=sizes.topics, replace=False).tolist()))
    return Inputs(
        embeddings=embeddings,
        corpus=corpus,
        pairs=os.path.join(root, PAIRS),
        topics=topics,
        embedding_lines=len(table_tokens),
        dim=sizes.dim,
        docs=sizes.docs,
        raw_tokens=sizes.docs * sizes.doc_tokens,
    )


def command_argv(workload: Workload, command: str, inputs: Inputs, out: str,
                 seed: int) -> list[str]:
    """The framelens CLI arguments for one command of a workload pass."""
    common = ["--embeddings", inputs.embeddings, "--pairs", inputs.pairs, "--out", out]
    corpus = ["--corpus", inputs.corpus]
    frame = ["--frame", EXPLAIN_FRAME]
    group = workload.sizes.groups[0][0]
    if command == "analyze":
        return ["analyze", *common, *corpus, "--group", group,
                "--n-bootstrap", str(workload.n_bootstrap),
                "--bootstrap-unit", workload.bootstrap_unit,
                "--seed", str(seed), "--workers", str(WORKERS), "--formats", "tsv,json"]
    if command == "shifts":
        return ["shifts", *common, *corpus, *frame, "--group", group, "--k", "20"]
    if command == "spectrum":
        return ["spectrum", *common, *corpus, *frame]
    if command == "map":
        return ["map", *common, *corpus, *frame, "--unit", "outlet"]
    if command == "separation":
        return ["separation", *common, *corpus, "--group-a", "a", "--group-b", "b"]
    if command == "relevance":
        return ["relevance", *common, "--method", "embedding", "--topics", ",".join(inputs.topics)]
    raise ValueError(f"unknown command {command!r}")
