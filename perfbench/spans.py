"""In-memory spans around the calls the CLI makes into each layer.

The benchmark wraps the public names ``framelens.cli`` imports (and the
``framelens.svg.chart_*`` functions it calls through the module) for the
duration of a traced pass, then restores them. Each span records its
name, wall interval, parent, pass id, CPU seconds of this process and
its reaped children, the RSS high-water mark at its end, and counts
taken from the call's arguments and result.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps

LAYERS = ("embeddings", "corpus", "frames", "engine", "relevance", "reports", "svg", "cli")

#: Timed group -> names in ``framelens.cli`` whose calls it covers.
CLI_CALLS = {
    "embeddings.load": ("load_embeddings",),
    "corpus.read": ("read_jsonl", "read_topic_words"),
    "corpus.view": ("build_view", "split_by_group"),
    "frames.registry": ("read_pairs_tsv", "build_registry"),
    "engine.analyze": ("analyze_frames", "top_significant_frames"),
    "engine.separation": ("baseline_biases", "separation", "rank_sum_select"),
    "engine.explain": ("corpus_bias", "corpus_intensity", "word_shifts", "document_spectrum"),
    "relevance.score": ("make_relevance_query", "relevance_embedding"),
    "reports.write": ("write_tsv", "write_json", "ensure_outdir"),
}
SVG_CHARTS = ("chart_shifts", "chart_spectrum", "chart_map", "chart_separation")
GROUPS = tuple(CLI_CALLS) + ("svg.render",)
#: Self-time metrics; together they add up to the traced pass's wall time.
SELF_TIMES = tuple(f"{g}_s" for g in GROUPS) + ("cli.self_s",)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def maxrss_mb() -> float:
    """High-water RSS of this process (Linux: KiB). Children are left out:
    the only one is the benchmark's own input preparation, because the
    program runs in-process and starts no workers at ``--workers 1``."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.pass_id)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        cpu0 = _cpu_s()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.cpu_s = _cpu_s() - cpu0
            s.maxrss_mb = maxrss_mb()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                count(s.counts, args, kwargs, result)
            return result

        return traced


def _add(counts: dict, **values) -> None:
    for key, value in values.items():
        counts[key] = counts.get(key, 0) + value


def _count_load(embedding_lines: int):
    def count(c, args, kwargs, table):
        _add(c, lines=embedding_lines, kept=len(table))

    return count


def _count_read(c, args, kwargs, docs):
    if isinstance(docs, list):
        _add(c, tokens=sum(len(d.tokens) for d in docs))


def _view_mass(view) -> tuple[int, int]:
    return view.total_tokens, sum(len(d.tokens) for d in view.documents)


def _count_view(c, args, kwargs, result):
    views = result if isinstance(result, tuple) else (result,)
    for view in views:
        counted, raw = _view_mass(view)
        _add(c, counted=counted, raw=raw)


def _count_registry(c, args, kwargs, registry):
    if hasattr(registry, "dropped"):
        c["kept_frames"] = len(registry)
        c["dropped_frames"] = len(registry.dropped)


def _count_analyze(c, args, kwargs, results):
    if len(args) >= 3:
        _add(c, frames=len(args[2]))


def _count_write(c, args, kwargs, result):
    if args and isinstance(args[0], str) and args[0].endswith((".tsv", ".json")):
        _add(c, bytes=os.path.getsize(args[0]))


@contextmanager
def instrument(tracer: Tracer, cli_module, svg_module, embedding_lines: int):
    """Replace the traced names for the duration of the block, then restore."""
    counters = {
        "load_embeddings": _count_load(embedding_lines),
        "read_jsonl": _count_read,
        "build_view": _count_view,
        "split_by_group": _count_view,
        "build_registry": _count_registry,
        "analyze_frames": _count_analyze,
        "write_tsv": _count_write,
        "write_json": _count_write,
    }
    targets = [(cli_module, name, group) for group, names in CLI_CALLS.items() for name in names]
    targets += [(svg_module, name, "svg.render") for name in SVG_CHARTS]
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for module, name, group in targets:
            setattr(module, name, tracer.wrap(group, getattr(module, name), counters.get(name)))
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


# ---------------------------------------------------------------------------
# Arithmetic over one pass's spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def self_cpu(spans: list[Span]) -> list[float]:
    """Each span's CPU seconds minus its direct children's."""
    child_cpu = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_cpu[s.parent] += s.cpu_s
    return [s.cpu_s - child_cpu[i] for i, s in enumerate(spans)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass. `spans` must be re-indexed so
    parents point into this list (see `pass_spans`)."""
    selfs = self_times(spans)
    cpus = self_cpu(spans)
    m: dict[str, float] = dict.fromkeys(SELF_TIMES, 0.0)
    for layer in LAYERS:
        m[f"{layer}.cpu_s"] = 0.0
        m[f"{layer}.maxrss_mb"] = 0.0
    counts: dict[str, dict] = {}
    cpu_of: dict[str, float] = {}
    for s, t, cpu in zip(spans, selfs, cpus):
        key = "cli.self_s" if s.layer == "cli" else f"{s.name}_s"
        m[key] += t
        m[f"{s.layer}.cpu_s"] += cpu
        m[f"{s.layer}.maxrss_mb"] = max(m[f"{s.layer}.maxrss_mb"], s.maxrss_mb)
        cpu_of[s.name] = cpu_of.get(s.name, 0.0) + cpu
        group = counts.setdefault(s.name, {})
        for k, v in s.counts.items():
            # the registry is rebuilt by every command: report one build's counts
            group[k] = max(group.get(k, 0), v) if k.endswith("_frames") else group.get(k, 0) + v

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    load = counts.get("embeddings.load", {})
    read = counts.get("corpus.read", {})
    view = counts.get("corpus.view", {})
    reg = counts.get("frames.registry", {})
    analyze = counts.get("engine.analyze", {})
    m["embeddings.lines_per_s"] = rate(load.get("lines", 0), m["embeddings.load_s"])
    m["embeddings.kept_ratio"] = rate(load.get("kept", 0), load.get("lines", 0))
    m["corpus.tokens_per_s"] = rate(read.get("tokens", 0), m["corpus.read_s"])
    m["corpus.counted_ratio"] = rate(view.get("counted", 0), view.get("raw", 0))
    m["frames.kept"] = float(reg.get("kept_frames", 0))
    m["frames.dropped"] = float(reg.get("dropped_frames", 0))
    m["engine.analyze_frames_per_s"] = rate(analyze.get("frames", 0), m["engine.analyze_s"])
    m["engine.cpu_per_wall"] = rate(cpu_of.get("engine.analyze", 0.0), m["engine.analyze_s"])
    m["reports.bytes"] = float(counts.get("reports.write", {}).get("bytes", 0))
    return m


def pass_spans(tracer: Tracer, pass_id: int) -> list[Span]:
    """The spans of one pass, with parent indices renumbered into the result."""
    picked = [(i, s) for i, s in enumerate(tracer.spans) if s.pass_id == pass_id]
    new_index = {old: new for new, (old, _) in enumerate(picked)}
    return [
        Span(s.name, s.start, s.end, new_index.get(s.parent) if s.parent is not None else None,
             s.pass_id, s.cpu_s, s.maxrss_mb, dict(s.counts))
        for _, s in picked
    ]
