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
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

from . import __version__, svg
from .corpus import (
    Document,
    NormalizerConfig,
    build_view,
    read_jsonl,
    read_topic_words,
    split_by_group,
    tokenize,
)
from .embeddings import load_embeddings
from .engine import (
    BOOTSTRAP_UNITS,
    SHIFT_KINDS,
    FramingResult,
    SeparationResult,
    SpectrumEntry,
    analyze_frames,
    baseline_biases,  # unused here; perfbench/spans.py traces it by this name
    corpus_bias,  # unused here; perfbench/spans.py traces it by this name
    corpus_intensity,  # unused here; perfbench/spans.py traces it by this name
    document_spectrum,
    rank_sum_select,
    separation,
    top_significant_frames,
    unit_statistics,
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
from .reports import (
    TSV_UNSAFE,
    ensure_outdir,
    escape_stem,
    tsv_unsafe,
    write_json,
    write_text,
    write_tsv,
)
from .textio import numbered_lines, open_text

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
    except OSError as exc:  # e.g. --out names a file, or a report cannot be written
        raise StageFailure(name, DataError(str(exc))) from exc


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Configuration assembly


def parse_config_file(path: str) -> dict:
    """Parse ``key = value`` lines, each value read as the type of its
    RunConfig field; # starts a comment line. Returns each key's value and
    the number of the line that set it."""
    kinds = {f.name: f.type.split(" | ")[0] for f in fields(RunConfig) if f.name != "command"}
    out: dict = {}
    try:
        fh = open_text(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    with fh:
        for lineno, line in numbered_lines(fh, path, UsageError):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in kinds:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _parse_value(raw.strip(), kinds[key]), lineno
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


_BOOLEANS = {"true": True, "yes": True, "false": False, "no": False}
#: RunConfig field type -> what a config value of that type must be, and its reader
_VALUE_READERS = {
    "int": ("an integer", int),
    "float": ("a number", float),
    "bool": ("true, yes, false or no", _BOOLEANS.__getitem__),
}


def _parse_value(raw: str, kind: str):
    """`raw` read as a value of type `kind`; a quoted value is a string."""
    quoted = len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'"
    if kind == "str":
        return raw[1:-1] if quoted else raw
    expected, read = _VALUE_READERS[kind]
    with suppress(KeyError, ValueError):
        if not quoted:
            return read(raw.lower())
    raise ValueError(f"expected {expected}, got {raw!r}")


def _merge_config(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str]]:
    """The resolved configuration, and ``path:line`` of each value a config
    file set."""
    path = getattr(args, "config", None)
    file_cfg = parse_config_file(path) if path else {}
    cfg = RunConfig(command=args.command)
    origins: dict[str, str] = {}
    if getattr(args, "subcommand", None):
        cfg.command = f"{args.command} {args.subcommand}"
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, None)
        if value is None and f.name in file_cfg:
            value, lineno = file_cfg[f.name]
            origins[f.name] = f"{path}:{lineno}"
        if value is None and f.name == "embeddings":
            value = os.environ.get(ENV_EMBEDDINGS)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg, origins


def _validate(cfg: RunConfig, origins: dict[str, str]) -> Command:
    """Check every value and every input the command needs before any is read.

    A bad value that a config file set is reported with the file and line
    it came from, then its key."""

    def bad(name: str, message: str) -> UsageError:
        where = origins.get(name)
        return UsageError(f"{where}: {name}: {message}" if where else message)

    if cfg.seed < 0:
        raise bad("seed", f"--seed must be >= 0, got {cfg.seed}")
    if cfg.n_bootstrap < 1:
        raise bad("n_bootstrap", f"--n-bootstrap must be >= 1, got {cfg.n_bootstrap}")
    if not (0.0 < cfg.alpha < 1.0):
        raise bad("alpha", f"--alpha must be in (0, 1), got {cfg.alpha}")
    if cfg.kind not in SHIFT_KINDS:
        raise bad("kind", f"--kind must be one of {SHIFT_KINDS}, got {cfg.kind!r}")
    if cfg.method not in RELEVANCE_METHODS:
        raise bad("method", f"--method must be one of {RELEVANCE_METHODS}, got {cfg.method!r}")
    if cfg.bootstrap_unit not in BOOTSTRAP_UNITS:
        raise bad(
            "bootstrap_unit",
            f"--bootstrap-unit must be one of {BOOTSTRAP_UNITS}, got {cfg.bootstrap_unit!r}",
        )
    for name in ("top_m", "k", "min_docs", "workers"):
        if getattr(cfg, name) < 1:
            raise bad(name, f"--{name.replace('_', '-')} must be >= 1")
    if cfg.group_a is not None and cfg.group_a == cfg.group_b:
        name = "group_b" if "group_b" in origins else "group_a"
        raise bad(name, f"--group-a and --group-b must differ, both are {cfg.group_a!r}")
    chosen = _formats(cfg)
    unknown = chosen - {"tsv", "json", "svg"}
    if unknown:
        raise bad("formats", f"--formats: unknown format(s) {sorted(unknown)}")
    command = _COMMANDS[cfg.command]
    files, needed_by = command.files, f"'{cfg.command}'"
    if cfg.command == "relevance" and cfg.method == "perplexity":
        # the character n-gram provider trains on the corpus text
        files, needed_by = files + ("corpus",), "--method perplexity"
    for name in files + command.values:
        if not getattr(cfg, name):
            raise UsageError(f"--{name.replace('_', '-')} is required for {needed_by}")
    for name in files + ("templates", "topic_words"):
        path = getattr(cfg, name)
        if path and not os.path.isfile(path):
            raise bad(name, f"--{name.replace('_', '-')}: no such file: {path}")
    if not chosen & set(command.formats):
        raise bad(
            "formats",
            f"{cfg.command} writes {'/'.join(command.formats)} reports; "
            "none selected in --formats",
        )
    return command


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
    """`--topics` words, normalized like corpus text and `--topic-words`."""
    if not cfg.topics:
        return set()
    return {t for part in cfg.topics.split(",") for t in tokenize(part, _normalizer(cfg))}


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
    """Filtered embedding table + registry + full view of the corpus."""
    docs, topics = _read_corpus(cfg)
    pairs = _load_pairs(cfg)
    # One set serves as the embedding filter (corpus, pole and topic words)
    # and then, without the words the corpus lacks, as build_view's corpus
    # types, so no second set of every corpus type is held during the load.
    types = set(chain.from_iterable(d.tokens for d in docs))
    words = chain(chain.from_iterable(pairs), _inline_topics(cfg))
    extra = {w for w in words if w not in types}
    types |= extra
    table = _load_table(cfg, types)
    types -= extra
    registry = _build_registry(cfg, pairs, table)
    with _stage("build corpus views"):
        full_view = build_view(docs, table, topics, types=types)
    return table, registry, full_view


def _resolve_frame(cfg: RunConfig, registry):
    with _stage("resolve frame"):
        frame = registry.get(cfg.frame or "")
        if frame is None:
            raise DataError(f"unknown frame id {cfg.frame!r}")
    return frame


# ---------------------------------------------------------------------------
# Subcommand handlers: each computes its results and returns them as a Report


@dataclass
class Report:
    """What one command computed. `_write_report` writes the parts that
    --formats selects: the TSV from `columns` and `rows` (with `extra` in
    its provenance line), the JSON from `payload`, the SVG that `chart`
    draws."""

    stem: str
    columns: list[str] | None = None
    rows: list[dict] = field(default_factory=list)
    extra: dict | None = None
    payload: dict | None = None
    chart: Callable[[], str] | None = None


RESULT_COLUMNS = [f.name for f in fields(FramingResult)]


def cmd_analyze(cfg: RunConfig) -> Report:
    table, registry, full_view = _assemble(cfg)
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
            bootstrap_unit=cfg.bootstrap_unit,
        )
    alpha_eff = cfg.alpha / len(results) if cfg.bonferroni else cfg.alpha
    top_bias = top_significant_frames(results, "bias", cfg.top_m, alpha_eff)
    top_int = top_significant_frames(results, "intensity", cfg.top_m, alpha_eff)
    # A result's vars() are its fields in declaration order; asdict()
    # deep-copies every field, about 40x slower per row.
    rows = [vars(r) for r in results]
    return Report(
        "results",
        RESULT_COLUMNS,
        rows,
        payload={
            "alpha_effective": alpha_eff,
            "top_significant_bias": [r.frame_id for r in top_bias],
            "top_significant_intensity": [r.frame_id for r in top_int],
            "results": rows,
        },
    )


SHIFT_COLUMNS = ["frame_id", "kind", "token", "shift_target", "shift_background", "shift_delta"]


def cmd_shifts(cfg: RunConfig) -> Report:
    table, registry, full_view = _assemble(cfg)
    frame = _resolve_frame(cfg, registry)
    with _stage("build corpus views"):
        target_view, background_view = split_by_group(full_view, cfg.group)
        if background_view.total_tokens == 0:
            why = (f"no document without label {cfg.group!r} has a countable token"
                   if background_view.documents else "every document has the target label")
            raise DataError(f"background corpus is empty; {why}")
    with _stage("analyze"):
        entries = word_shifts(
            full_view, target_view, background_view, frame, table, cfg.kind, cfg.k
        )
    rows = [{"frame_id": frame.id, **vars(e)} for e in entries]
    title = f"{frame.id}: {cfg.kind} shifts, {cfg.group} vs background"
    return Report(
        f"shifts_{escape_stem(frame.id)}_{cfg.kind}",
        SHIFT_COLUMNS,
        rows,
        chart=lambda: svg.chart_shifts(rows, title),
    )


SPECTRUM_COLUMNS = [f.name for f in fields(SpectrumEntry)]


def cmd_spectrum(cfg: RunConfig) -> Report:
    table, registry, full_view = _assemble(cfg)
    frame = _resolve_frame(cfg, registry)
    with _stage("analyze"):
        entries = document_spectrum(full_view, frame, table)
    rows = [vars(e) for e in entries]
    title = f"{frame.id}: document bias spectrum"
    return Report(
        f"spectrum_{escape_stem(frame.id)}",
        SPECTRUM_COLUMNS,
        rows,
        chart=lambda: svg.chart_spectrum(rows, title, frame.pole_minus, frame.pole_plus),
    )


MAP_COLUMNS = ["unit", "group", "n_docs", "bias", "intensity"]


def cmd_map(cfg: RunConfig) -> Report:
    table, registry, full_view = _assemble(cfg)
    frame = _resolve_frame(cfg, registry)
    with _stage("build unit views"):
        docs = full_view.documents
        units = [doc.group if cfg.unit == "group" else doc.meta.get(cfg.unit) for doc in docs]
        units = [None if u is None else str(u) for u in units]
        groups_of: dict[str, list[str]] = {}  # each unit's documents' group labels
        first_doc: dict[tuple[str, str], str] = {}  # (unit, group label) -> first document id
        for doc, unit_value in zip(docs, units):
            if unit_value is not None:
                group = doc.group or ""
                groups_of.setdefault(unit_value, []).append(group)
                first_doc.setdefault((unit_value, group), doc.doc_id)
        if not groups_of:
            raise DataError("no document has a group label" if cfg.unit == "group"
                            else f"unit field {cfg.unit!r} missing from corpus metadata")
        unit_field = "group" if cfg.unit == "group" else f"meta field {cfg.unit!r}"
        for (unit_value, _), doc_id in first_doc.items():
            if tsv_unsafe(unit_value):
                raise DataError(f"document {doc_id!r}: {unit_field} {unit_value!r} {TSV_UNSAFE}")
    with _stage("analyze"):
        stats = unit_statistics(full_view, frame, table, units)
        rows = []
        for unit_value, groups in sorted(groups_of.items()):
            if len(groups) >= cfg.min_docs and unit_value in stats:
                majority = max(set(groups), key=lambda g: (groups.count(g), g))
                if tsv_unsafe(majority):
                    doc_id = first_doc[unit_value, majority]
                    raise DataError(f"document {doc_id!r}: group {majority!r} {TSV_UNSAFE}")
                row = (unit_value, majority, len(groups), *stats[unit_value])
                rows.append(dict(zip(MAP_COLUMNS, row)))
        skipped = len(groups_of) - len(rows)
        if skipped:
            _progress(f"map: skipped {skipped} units below --min-docs {cfg.min_docs} or empty")
        if not rows:
            raise DataError(
                f"no unit has at least {cfg.min_docs} documents; lower --min-docs"
            )
    title = f"{frame.id}: bias-intensity map by {cfg.unit}"
    return Report(
        f"map_{escape_stem(frame.id)}",
        MAP_COLUMNS,
        rows,
        chart=lambda: svg.chart_map(rows, title, frame.pole_minus, frame.pole_plus),
    )


SEPARATION_COLUMNS = [f.name for f in fields(SeparationResult)]


def cmd_separation(cfg: RunConfig) -> Report:
    table, registry, full_view = _assemble(cfg)
    with _stage("build corpus views"):
        view_a, _ = split_by_group(full_view, cfg.group_a)
        view_b, _ = split_by_group(full_view, cfg.group_b)
    with _stage("analyze"):
        seps = separation(full_view, view_a, view_b, registry, table)
        selected = rank_sum_select(seps, cfg.top_m)
    rows = [vars(s) for s in seps]
    title = f"separation: {cfg.group_a} (A) vs {cfg.group_b} (B)"
    return Report(
        f"separation_{escape_stem(cfg.group_a)}_vs_{escape_stem(cfg.group_b)}",
        SEPARATION_COLUMNS,
        rows,
        extra={"group_a": cfg.group_a, "group_b": cfg.group_b},
        payload={"rank_sum_selection": selected, "separations": rows},
        chart=lambda: svg.chart_separation(rows, title),
    )


RELEVANCE_COLUMNS = ["rank", "frame_id", "score", "method"]


def cmd_relevance(cfg: RunConfig) -> Report:
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
    if cfg.method == "embedding":
        with _stage("score relevance"):
            scores = relevance_embedding(query, table)
        convention = "higher_is_more_relevant"
    else:
        with _stage("read corpus"):
            docs = read_jsonl(cfg.corpus, _normalizer(cfg))
        templates = DEFAULT_TEMPLATES
        if cfg.templates:
            with _stage("read templates"):
                templates = read_templates(cfg.templates)
        with _stage("score relevance"):
            provider = CharGramPerplexity("\n".join(d.raw_text for d in docs))
            scores = relevance_perplexity(query, provider, templates)
        convention = "lower_is_more_relevant"
    # the TSV leaves `details` out: it writes RELEVANCE_COLUMNS only
    rows = [
        {"rank": i + 1, "frame_id": s.frame_id, "score": s.score, "method": s.method,
         "details": s.details}
        for i, s in enumerate(scores)
    ]
    topic_words = sorted(query.topic_words)
    return Report(
        f"relevance_{cfg.method}",
        RELEVANCE_COLUMNS,
        rows,
        extra={"score_convention": convention, "topic_words": topic_words},
        payload={
            "score_convention": convention,
            "topic_words": topic_words,
            "unresolved_topic_words": sorted(query.unresolved),
            "scores": rows,
        },
    )


def cmd_frames_build(cfg: RunConfig) -> Report:
    pairs = _load_pairs(cfg)
    table = _load_table(cfg, {w for p in pairs for w in p})
    registry = _build_registry(cfg, pairs, table)
    return Report("registry", payload=registry_record(registry))


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler, the input files and the values it
    requires, and the report formats it can write."""

    handler: Callable[[RunConfig], Report]
    files: tuple[str, ...]
    values: tuple[str, ...]
    formats: tuple[str, ...]


_CORPUS_INPUTS = ("embeddings", "pairs", "corpus")
_COMMANDS = {
    "analyze": Command(cmd_analyze, _CORPUS_INPUTS, ("group",), ("tsv", "json")),
    "shifts": Command(cmd_shifts, _CORPUS_INPUTS, ("group", "frame"), ("tsv", "svg")),
    "spectrum": Command(cmd_spectrum, _CORPUS_INPUTS, ("frame",), ("tsv", "svg")),
    "map": Command(cmd_map, _CORPUS_INPUTS, ("frame", "unit"), ("tsv", "svg")),
    "separation": Command(
        cmd_separation, _CORPUS_INPUTS, ("group_a", "group_b"), ("tsv", "json", "svg")
    ),
    "relevance": Command(cmd_relevance, ("embeddings", "pairs"), (), ("tsv", "json")),
    "frames build": Command(cmd_frames_build, ("embeddings", "pairs"), (), ("json",)),
}


def _write_report(cfg: RunConfig, report: Report) -> None:
    """Write the parts of `report` that --formats selects; name them on stderr."""
    chosen = _formats(cfg)
    written: list[str] = []
    with _stage("write reports"):
        outdir = ensure_outdir(cfg.out)
        config = asdict(cfg)

        def target(ext: str) -> str:
            written.append(report.stem + ext)
            return os.path.join(outdir, written[-1])

        floats = {}
        if report.columns and "tsv" in chosen:
            floats = write_tsv(
                target(".tsv"), report.columns, report.rows, config, extra=report.extra
            )
        if report.payload is not None and "json" in chosen:
            # the payload entry that is the TSV's rows reuses its float texts
            reuse = {k: floats for k, v in report.payload.items() if v is report.rows}
            write_json(target(".json"), report.payload, config, reuse)
        if report.chart and "svg" in chosen:
            write_text(target(".svg"), report.chart())
    _progress(f"wrote {', '.join(written)} in {outdir}")


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
        cfg, origins = _merge_config(args)
        command = _validate(cfg, origins)
        _write_report(cfg, command.handler(cfg))
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
