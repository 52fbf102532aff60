"""Command-line surface: ingest, analyze, explain, compare, render.

Subcommands: analyze, shifts, spectrum, map, separation, relevance, and
frames build. Option precedence is CLI flags over config-file entries
over built-in defaults; the config file is plain ``key = value`` lines.
Progress goes to stderr only; reports go to files under --out. Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

from . import __version__, svg
from .corpus import (
    Document,
    NormalizerConfig,
    build_view,
    read_jsonl,
    read_topic_words,
    split_by_group,
)
from .embeddings import load_embeddings
from .engine import (
    BOOTSTRAP_UNITS,
    SHIFT_KINDS,
    FramingResult,
    SeparationResult,
    SpectrumEntry,
    analyze_frames,
    baseline_biases,
    corpus_bias,
    corpus_intensity,  # unused here; perfbench/spans.py traces it by this name
    document_spectrum,
    rank_sum_select,
    separation,
    top_significant_frames,
    view_statistics,
    word_shifts,
)
from .errors import DataError, UsageError
from .frames import build_registry, read_pairs_tsv, registry_record
from .relevance import (
    CharGramPerplexity,
    DEFAULT_TEMPLATES,
    make_relevance_query,
    read_templates,
    relevance_embedding,
    relevance_perplexity,
)
from .reports import ensure_outdir, write_json, write_text, write_tsv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

ENV_EMBEDDINGS = "FRAMELENS_EMBEDDINGS"

RELEVANCE_METHODS = ("embedding", "perplexity")


@dataclass
class RunConfig:
    """One resolved invocation. Paths are validated before any work starts."""

    command: str = ""
    embeddings: str | None = None
    pairs: str | None = None
    corpus: str | None = None
    topic_words: str | None = None
    group: str | None = None
    group_a: str | None = None
    group_b: str | None = None
    unit: str | None = None
    frame: str | None = None
    kind: str = "bias"
    topics: str | None = None
    method: str = "embedding"
    templates: str | None = None
    n_bootstrap: int = 1000
    alpha: float = 0.05
    bonferroni: bool = False
    seed: int = 0
    top_m: int = 10
    k: int = 10
    min_docs: int = 20
    workers: int = 1
    bootstrap_unit: str = "token"
    keep_case: bool = False
    formats: str = "tsv,json,svg"
    out: str = "reports"


class StageFailure(Exception):
    """A DataError tagged with the pipeline stage it came from."""

    def __init__(self, stage: str, error: DataError):
        super().__init__(f"{stage}: {error}")
        self.stage = stage
        self.error = error


@contextmanager
def _stage(name: str):
    try:
        yield
    except DataError as exc:
        raise StageFailure(name, exc) from exc


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Configuration assembly


def parse_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; quotes optional, # starts a comment line."""
    known = {f.name for f in fields(RunConfig)} - {"command"}
    out: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key not in known:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _parse_value(raw)
    return out


def _parse_value(raw: str):
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = parse_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig(command=args.command)
    if getattr(args, "subcommand", None):
        cfg.command = f"{args.command} {args.subcommand}"
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, None)
        if value is None:
            value = file_cfg.get(f.name)
        if value is None and f.name == "embeddings":
            value = os.environ.get(ENV_EMBEDDINGS)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _require_paths(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if not value:
            flag = name.replace("_", "-")
            raise UsageError(f"--{flag} is required for '{cfg.command}'")
        if not os.path.isfile(value):
            raise UsageError(f"--{name.replace('_', '-')}: no such file: {value}")


def _validate(cfg: RunConfig) -> None:
    if cfg.n_bootstrap < 1:
        raise UsageError(f"--n-bootstrap must be >= 1, got {cfg.n_bootstrap}")
    if not (0.0 < cfg.alpha < 1.0):
        raise UsageError(f"--alpha must be in (0, 1), got {cfg.alpha}")
    if cfg.kind not in SHIFT_KINDS:
        raise UsageError(f"--kind must be one of {SHIFT_KINDS}, got {cfg.kind!r}")
    if cfg.method not in RELEVANCE_METHODS:
        raise UsageError(f"--method must be one of {RELEVANCE_METHODS}, got {cfg.method!r}")
    if cfg.bootstrap_unit not in BOOTSTRAP_UNITS:
        raise UsageError(
            f"--bootstrap-unit must be one of {BOOTSTRAP_UNITS}, got {cfg.bootstrap_unit!r}"
        )
    for name in ("top_m", "k", "min_docs", "workers"):
        if getattr(cfg, name) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1")
    if cfg.templates and not os.path.isfile(cfg.templates):
        raise UsageError(f"--templates: no such file: {cfg.templates}")
    if cfg.topic_words and not os.path.isfile(cfg.topic_words):
        raise UsageError(f"--topic-words: no such file: {cfg.topic_words}")
    unknown = _formats(cfg) - {"tsv", "json", "svg"}
    if unknown:
        raise UsageError(f"--formats: unknown format(s) {sorted(unknown)}")


def _formats(cfg: RunConfig) -> set[str]:
    chosen = {f.strip() for f in cfg.formats.split(",") if f.strip()}
    if "svg" in chosen:
        chosen.add("tsv")  # every chart must ship with the table it was drawn from
    return chosen


def _normalizer(cfg: RunConfig) -> NormalizerConfig:
    return NormalizerConfig(lowercase=not cfg.keep_case)


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _read_corpus(cfg: RunConfig) -> tuple[list[Document], set[str]]:
    with _stage("read corpus"):
        docs = read_jsonl(cfg.corpus, _normalizer(cfg))
    _progress(f"corpus: {len(docs)} documents")
    topics: set[str] = set()
    if cfg.topic_words:
        with _stage("read topic words"):
            topics = read_topic_words(cfg.topic_words, _normalizer(cfg))
        _progress(f"topic words: {len(topics)} masked")
    return docs, topics


def _inline_topics(cfg: RunConfig) -> set[str]:
    if not cfg.topics:
        return set()
    return {t for part in cfg.topics.split(",") for t in part.split() if t}


def _load_pairs(cfg: RunConfig) -> list[tuple[str, str]]:
    with _stage("read frame pairs"):
        return read_pairs_tsv(cfg.pairs)


def _load_table(cfg: RunConfig, wanted: set[str]):
    with _stage("load embeddings"):
        table = load_embeddings(cfg.embeddings, vocab_filter=wanted or None)
    _progress(f"embeddings: {len(table)} vectors of dimension {table.dimension}")
    return table


def _build_registry(cfg: RunConfig, pairs, table):
    with _stage("build frame registry"):
        registry = build_registry(pairs, table)
    _progress(f"registry: {len(registry)} frames, {len(registry.dropped)} dropped")
    return registry


def _assemble(cfg: RunConfig):
    """Corpus + pairs + filtered embedding table + registry + full view."""
    docs, topics = _read_corpus(cfg)
    pairs = _load_pairs(cfg)
    wanted = {tok for d in docs for tok in d.tokens}
    wanted.update(w for p in pairs for w in p)
    wanted.update(_inline_topics(cfg))
    table = _load_table(cfg, wanted)
    registry = _build_registry(cfg, pairs, table)
    with _stage("build corpus views"):
        full_view = build_view(docs, table, topics)
    return docs, topics, table, registry, full_view


def _resolve_frame(cfg: RunConfig, registry):
    with _stage("resolve frame"):
        frame = registry.get(cfg.frame or "")
        if frame is None:
            raise DataError(f"unknown frame id {cfg.frame!r}")
    return frame


# ---------------------------------------------------------------------------
# Subcommand handlers

RESULT_COLUMNS = [f.name for f in fields(FramingResult)]


def cmd_analyze(cfg: RunConfig) -> None:
    _require_paths(cfg, "embeddings", "pairs", "corpus")
    if not cfg.group:
        raise UsageError("--group is required for 'analyze'")
    _, _, table, registry, full_view = _assemble(cfg)
    with _stage("build corpus views"):
        target_view, _ = split_by_group(full_view, cfg.group)
    _progress(
        f"analyze: {len(registry)} frames, target {target_view.total_tokens} tokens "
        f"of {full_view.total_tokens}, {cfg.n_bootstrap} bootstraps"
    )
    with _stage("analyze"):
        results = analyze_frames(
            full_view,
            target_view,
            registry,
            table,
            n_bootstrap=cfg.n_bootstrap,
            seed=cfg.seed,
            workers=cfg.workers,
            bootstrap_unit=cfg.bootstrap_unit,
            progress=lambda done, total: _progress(f"analyze: {done}/{total} frames"),
        )
    alpha_eff = cfg.alpha / len(results) if cfg.bonferroni else cfg.alpha
    top_bias = top_significant_frames(results, "bias", cfg.top_m, alpha_eff)
    top_int = top_significant_frames(results, "intensity", cfg.top_m, alpha_eff)
    fmts = _formats(cfg)
    if not fmts & {"tsv", "json"}:
        raise UsageError("analyze writes tsv/json reports; none selected in --formats")
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        config = asdict(cfg)
        # A result's vars() are its fields in declaration order; asdict()
        # deep-copies every field, about 40x slower per row.
        rows = [vars(r) for r in results]
        written = []
        if "tsv" in fmts:
            write_tsv(os.path.join(outdir, "results.tsv"), RESULT_COLUMNS, rows, config)
            written.append("results.tsv")
        if "json" in fmts:
            write_json(
                os.path.join(outdir, "results.json"),
                {
                    "alpha_effective": alpha_eff,
                    "top_significant_bias": [r.frame_id for r in top_bias],
                    "top_significant_intensity": [r.frame_id for r in top_int],
                    "results": rows,
                },
                config,
            )
            written.append("results.json")
    _progress(f"wrote {', '.join(written)} in {outdir}")


SHIFT_COLUMNS = ["frame_id", "kind", "token", "shift_target", "shift_background", "shift_delta"]


def cmd_shifts(cfg: RunConfig) -> None:
    _require_paths(cfg, "embeddings", "pairs", "corpus")
    if not cfg.group:
        raise UsageError("--group is required for 'shifts'")
    if not cfg.frame:
        raise UsageError("--frame is required for 'shifts'")
    _, _, table, registry, full_view = _assemble(cfg)
    frame = _resolve_frame(cfg, registry)
    with _stage("build corpus views"):
        target_view, background_view = split_by_group(full_view, cfg.group)
        if background_view.total_tokens == 0:
            raise DataError("background corpus is empty; every document has the target label")
    with _stage("analyze"):
        baseline = corpus_bias(full_view, frame, table)
        entries = word_shifts(
            target_view, background_view, frame, table, cfg.kind, baseline, cfg.k
        )
    rows = [{"frame_id": frame.id, **vars(e)} for e in entries]
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        config = asdict(cfg)
        stem = f"shifts_{frame.id}_{cfg.kind}"
        fmts = _formats(cfg)
        if "tsv" in fmts:
            write_tsv(os.path.join(outdir, stem + ".tsv"), SHIFT_COLUMNS, rows, config)
        if "svg" in fmts:
            title = f"{frame.id}: {cfg.kind} shifts, {cfg.group} vs background"
            write_text(os.path.join(outdir, stem + ".svg"), svg.chart_shifts(rows, title))
    _progress(f"wrote {stem}.* in {outdir}")


SPECTRUM_COLUMNS = [f.name for f in fields(SpectrumEntry)]


def cmd_spectrum(cfg: RunConfig) -> None:
    _require_paths(cfg, "embeddings", "pairs", "corpus")
    if not cfg.frame:
        raise UsageError("--frame is required for 'spectrum'")
    _, _, table, registry, full_view = _assemble(cfg)
    frame = _resolve_frame(cfg, registry)
    with _stage("analyze"):
        baseline = corpus_bias(full_view, frame, table)
        entries = document_spectrum(full_view, frame, table, baseline)
    rows = [vars(e) for e in entries]
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        config = asdict(cfg)
        stem = f"spectrum_{frame.id}"
        fmts = _formats(cfg)
        if "tsv" in fmts:
            write_tsv(os.path.join(outdir, stem + ".tsv"), SPECTRUM_COLUMNS, rows, config)
        if "svg" in fmts:
            title = f"{frame.id}: document bias spectrum"
            write_text(
                os.path.join(outdir, stem + ".svg"),
                svg.chart_spectrum(rows, title, frame.pole_minus, frame.pole_plus),
            )
    _progress(f"wrote {stem}.* in {outdir}")


MAP_COLUMNS = ["unit", "group", "n_docs", "bias", "intensity"]


def cmd_map(cfg: RunConfig) -> None:
    _require_paths(cfg, "embeddings", "pairs", "corpus")
    if not cfg.frame:
        raise UsageError("--frame is required for 'map'")
    if not cfg.unit:
        raise UsageError("--unit is required for 'map'")
    docs, topics, table, registry, full_view = _assemble(cfg)
    frame = _resolve_frame(cfg, registry)
    with _stage("build unit views"):
        by_unit: dict[str, list[Document]] = {}
        for doc in docs:
            value = doc.group if cfg.unit == "group" else doc.meta.get(cfg.unit)
            if value is None:
                continue
            by_unit.setdefault(str(value), []).append(doc)
        if not by_unit:
            raise DataError(f"unit field {cfg.unit!r} missing from corpus metadata")
    with _stage("analyze"):
        baseline, _ = view_statistics(full_view, [frame], table)
        rows = []
        skipped = 0
        for unit_value in sorted(by_unit):
            unit_docs = by_unit[unit_value]
            if len(unit_docs) < cfg.min_docs:
                skipped += 1
                continue
            try:
                unit_view = build_view(unit_docs, table, topics)
            except DataError:
                skipped += 1
                continue
            groups = sorted(
                (d.group or "" for d in unit_docs),
            )
            majority = max(set(groups), key=lambda g: (groups.count(g), g))
            (bias,), (intensity,) = view_statistics(unit_view, [frame], table, baseline)
            rows.append(
                {
                    "unit": unit_value,
                    "group": majority,
                    "n_docs": len(unit_docs),
                    "bias": float(bias),
                    "intensity": float(intensity),
                }
            )
        if skipped:
            _progress(f"map: skipped {skipped} units below --min-docs {cfg.min_docs} or empty")
        if not rows:
            raise DataError(
                f"no unit has at least {cfg.min_docs} documents; lower --min-docs"
            )
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        config = asdict(cfg)
        stem = f"map_{frame.id}"
        fmts = _formats(cfg)
        if "tsv" in fmts:
            write_tsv(os.path.join(outdir, stem + ".tsv"), MAP_COLUMNS, rows, config)
        if "svg" in fmts:
            title = f"{frame.id}: bias-intensity map by {cfg.unit}"
            write_text(
                os.path.join(outdir, stem + ".svg"),
                svg.chart_map(rows, title, frame.pole_minus, frame.pole_plus),
            )
    _progress(f"wrote {stem}.* in {outdir}")


SEPARATION_COLUMNS = [f.name for f in fields(SeparationResult)]


def cmd_separation(cfg: RunConfig) -> None:
    _require_paths(cfg, "embeddings", "pairs", "corpus")
    if not cfg.group_a or not cfg.group_b:
        raise UsageError("--group-a and --group-b are required for 'separation'")
    docs, topics, table, registry, full_view = _assemble(cfg)
    with _stage("build corpus views"):
        docs_a = [d for d in docs if d.group == cfg.group_a]
        docs_b = [d for d in docs if d.group == cfg.group_b]
        if not docs_a:
            raise DataError(f"no documents labeled {cfg.group_a!r}")
        if not docs_b:
            raise DataError(f"no documents labeled {cfg.group_b!r}")
        view_a = build_view(docs_a, table, topics)
        view_b = build_view(docs_b, table, topics)
    with _stage("analyze"):
        baselines = baseline_biases(full_view, registry, table)
        seps = separation(view_a, view_b, registry, table, baselines)
        selected = rank_sum_select(seps, cfg.top_m)
    rows = [vars(s) for s in seps]
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        config = asdict(cfg)
        stem = f"separation_{cfg.group_a}_vs_{cfg.group_b}"
        fmts = _formats(cfg)
        if "tsv" in fmts:
            write_tsv(
                os.path.join(outdir, stem + ".tsv"),
                SEPARATION_COLUMNS,
                rows,
                config,
                extra={"group_a": cfg.group_a, "group_b": cfg.group_b},
            )
        if "json" in fmts:
            write_json(
                os.path.join(outdir, stem + ".json"),
                {"rank_sum_selection": selected, "separations": rows},
                config,
            )
        if "svg" in fmts:
            title = f"separation: {cfg.group_a} (A) vs {cfg.group_b} (B)"
            write_text(os.path.join(outdir, stem + ".svg"), svg.chart_separation(rows, title))
    _progress(f"wrote {stem}.* in {outdir}")


RELEVANCE_COLUMNS = ["rank", "frame_id", "score", "method"]


def cmd_relevance(cfg: RunConfig) -> None:
    _require_paths(cfg, "embeddings", "pairs")
    topics = _inline_topics(cfg)
    if not topics and cfg.topic_words:
        with _stage("read topic words"):
            topics = read_topic_words(cfg.topic_words, _normalizer(cfg))
    if not topics:
        raise UsageError("provide topic words via --topics or --topic-words")
    pairs = _load_pairs(cfg)
    wanted = {w for p in pairs for w in p} | topics
    table = _load_table(cfg, wanted)
    registry = _build_registry(cfg, pairs, table)
    with _stage("resolve topic words"):
        query = make_relevance_query(topics, registry, table)
    if query.unresolved:
        _progress(f"relevance: dropped topic words without vectors: {list(query.unresolved)}")
    with _stage("score relevance"):
        if cfg.method == "embedding":
            scores = relevance_embedding(query, table)
            convention = "higher_is_more_relevant"
        else:
            if not cfg.corpus:
                raise UsageError(
                    "--corpus is required for --method perplexity "
                    "(the character n-gram provider trains on it)"
                )
            _require_paths(cfg, "corpus")
            docs = read_jsonl(cfg.corpus, _normalizer(cfg))
            provider = CharGramPerplexity("\n".join(d.raw_text for d in docs))
            templates = read_templates(cfg.templates) if cfg.templates else DEFAULT_TEMPLATES
            scores = relevance_perplexity(query, provider, templates)
            convention = "lower_is_more_relevant"
    rows = [
        {"rank": i + 1, "frame_id": s.frame_id, "score": s.score, "method": s.method}
        for i, s in enumerate(scores)
    ]
    fmts = _formats(cfg)
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        config = asdict(cfg)
        stem = f"relevance_{cfg.method}"
        if "tsv" in fmts:
            write_tsv(
                os.path.join(outdir, stem + ".tsv"),
                RELEVANCE_COLUMNS,
                rows,
                config,
                extra={"score_convention": convention, "topic_words": sorted(query.topic_words)},
            )
        if "json" in fmts:
            write_json(
                os.path.join(outdir, stem + ".json"),
                {
                    "score_convention": convention,
                    "topic_words": sorted(query.topic_words),
                    "unresolved_topic_words": sorted(query.unresolved),
                    "scores": [
                        {
                            "rank": i + 1,
                            "frame_id": s.frame_id,
                            "score": s.score,
                            "method": s.method,
                            "details": s.details,
                        }
                        for i, s in enumerate(scores)
                    ],
                },
                config,
            )
    _progress(f"wrote {stem}.* in {outdir}")


def cmd_frames_build(cfg: RunConfig) -> None:
    _require_paths(cfg, "embeddings", "pairs")
    pairs = _load_pairs(cfg)
    table = _load_table(cfg, {w for p in pairs for w in p})
    registry = _build_registry(cfg, pairs, table)
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        write_json(os.path.join(outdir, "registry.json"), registry_record(registry), asdict(cfg))
    _progress(f"wrote registry.json in {cfg.out}")


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 for usage, not argparse's 2
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument(
        "--embeddings",
        help=f"embedding text file (default from ${ENV_EMBEDDINGS})",
    )
    p.add_argument("--pairs", help="antonym pole-pair TSV (w- TAB w+)")
    p.add_argument("--corpus", help="JSONL corpus (id, text, group?, meta?)")
    p.add_argument("--topic-words", dest="topic_words", help="newline file of topic words to mask")
    p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    p.add_argument("--out", help="output directory (default ./reports)")
    p.add_argument(
        "--workers", type=int,
        help="accepted for compatibility; no effect, frames share one set of draws",
    )
    p.add_argument("--keep-case", dest="keep_case", action="store_true", default=None,
                   help="do not lowercase corpus tokens")
    p.add_argument("--formats", help="comma-separated subset of tsv,json,svg (default all)")


def build_parser() -> _Parser:
    parser = _Parser(prog="framelens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"framelens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-frame bias/intensity with bootstrap significance")
    _add_common(p)
    p.add_argument("--group", help="target group label")
    p.add_argument("--n-bootstrap", dest="n_bootstrap", type=int, help="null samples (default 1000)")
    p.add_argument("--alpha", type=float, help="significance threshold (default 0.05)")
    p.add_argument("--bonferroni", action="store_true", default=None,
                   help="divide alpha by the number of frames")
    p.add_argument("--top-m", dest="top_m", type=int, help="top frames to summarize (default 10)")
    p.add_argument("--bootstrap-unit", dest="bootstrap_unit", choices=BOOTSTRAP_UNITS,
                   help="resampling unit (default token)")

    p = sub.add_parser("shifts", help="word-level shift table and bar diagram")
    _add_common(p)
    p.add_argument("--group", help="target group label")
    p.add_argument("--frame", help="frame id, e.g. bad--good")
    p.add_argument("--kind", choices=SHIFT_KINDS, help="bias or intensity (default bias)")
    p.add_argument("--k", type=int, help="top tokens to keep (default 10)")

    p = sub.add_parser("spectrum", help="document-level bias spectrum")
    _add_common(p)
    p.add_argument("--frame", help="frame id")

    p = sub.add_parser("map", help="per-unit bias-intensity map")
    _add_common(p)
    p.add_argument("--frame", help="frame id")
    p.add_argument("--unit", help="metadata field naming the unit (or 'group')")
    p.add_argument("--min-docs", dest="min_docs", type=int,
                   help="smallest unit to keep (default 20)")

    p = sub.add_parser("separation", help="frame-by-frame differences between two groups")
    _add_common(p)
    p.add_argument("--group-a", dest="group_a", help="first group label")
    p.add_argument("--group-b", dest="group_b", help="second group label")
    p.add_argument("--top-m", dest="top_m", type=int,
                   help="frames picked by rank sum (default 10)")

    p = sub.add_parser("relevance", help="rank frames by topic relevance")
    _add_common(p)
    p.add_argument("--topics", help="comma- or space-separated topic words")
    p.add_argument("--method", choices=RELEVANCE_METHODS, help="embedding (default) or perplexity")
    p.add_argument("--templates", help="template file with {topic}/{pole} placeholders")

    p = sub.add_parser("frames", help="frame registry utilities")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    fb = fsub.add_parser("build", help="build the registry and export an audit JSON")
    _add_common(fb)

    return parser


_HANDLERS = {
    "analyze": cmd_analyze,
    "shifts": cmd_shifts,
    "spectrum": cmd_spectrum,
    "map": cmd_map,
    "separation": cmd_separation,
    "relevance": cmd_relevance,
    "frames build": cmd_frames_build,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        _validate(cfg)
        handler = _HANDLERS[cfg.command]
        handler(cfg)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageFailure as exc:
        print(f"error [{exc.stage}]: {exc.error}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
