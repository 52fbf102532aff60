#!/usr/bin/env python3
"""framelens benchmark: seeded inputs, CLI passes, output checks, layer traces.

Run from the root of a framelens checkout:

    python3 perfbench/run.py --workload analyze-token --seed 1 --seconds 20 --trace 0

One process serves one workload. Set-up runs prepare.py in a child
process, which generates the workload's inputs from --seed (several
times, to time it), checks the registry guard and computes the oracle's
expected values; then it runs one untimed warm-up pass. Then it runs passes back to back, a
closed loop of one client, for --seconds: each pass is the workload's
fixed sequence of ``framelens.cli.main`` calls, and every report it
writes is checked against an independent oracle. With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes and prints the per-layer metrics of the median traced
pass. The last line of stdout is one JSON object; the exit code is 0
only when every call succeeded and every check passed.

``--workload all`` runs each workload in a fresh process, one after the
other, and prints their summaries.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
PREPARE_TIMEOUT_S = 120
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Metric names and units; the result line carries exactly the declared metrics.
with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
FRAME_COMMANDS = ("analyze", "separation", "relevance")  # iterate the whole registry
CORPUS_COMMANDS = ("analyze", "shifts", "spectrum", "map", "separation")  # read the corpus
NULL_COUNTS = ("engine.null_draws", "engine.draw_cells", "engine.draw_bytes")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


class Bench:
    def __init__(self, args, root: str, cli, svg, import_s: float):
        import inputs
        import oracle

        self.inputs_mod = inputs
        self.oracle = oracle
        self.args = args
        self.root = root
        self.cli = cli
        self.svg = svg
        self.import_s = import_s
        self.workload = inputs.WORKLOADS[args.workload]
        self.work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.format_defects: set[str] = set()
        self.expected = None
        self.inputs = None
        self.harness_rss_mb = 0.0

    # -- passes ----------------------------------------------------------

    def run_pass(self, out: str, tracer=None) -> list[tuple[str, int, str]]:
        """Every command of the workload, back to back; (command, exit code, stderr)."""
        results = []
        for command in self.workload.commands:
            argv = self.inputs_mod.command_argv(
                self.workload, command, self.inputs, out, self.args.seed
            )
            err = io.StringIO()
            span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:  # a crash is a failed call, not a dead benchmark
                    rc = -1
                    err.write(f"{type(exc).__name__}: {exc}\n")
            results.append((command, rc, err.getvalue()))
        return results

    def check_pass(self, out: str, results) -> None:
        frame = self.inputs_mod.EXPLAIN_FRAME
        for command, rc, err in results:
            self.attempted += 1
            if rc != 0:
                tail = err.strip().splitlines()[-1:] or [""]
                problems = [f"exit {rc}: {tail[0]}"]
            else:
                try:
                    problems, defects = self.oracle.check_command(
                        command, out, self.expected, frame
                    )
                    self.format_defects.update(defects)
                    if not problems:
                        digest = self.oracle.data_digest(
                            self.oracle.report_paths(command, out, frame)
                        )
                        if self.digests.setdefault(command, digest) != digest:
                            problems = ["report data differ from the first pass of this run"]
                except Exception as exc:  # a report the checks cannot read fails the call
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                for p in problems[:5]:
                    print(f"perfbench: {command}: {p}", file=sys.stderr)

    def timed_pass(self, index: int, tracer=None) -> float:
        out = os.path.join(self.work, f"out{index}")
        if tracer is None:
            t0 = time.perf_counter()
            results = self.run_pass(out)
            wall = time.perf_counter() - t0
        else:
            tracer.pass_id = index
            with spans.instrument(tracer, self.cli, self.svg, self.inputs.embedding_lines):
                with tracer.span("cli.pass") as root:
                    results = self.run_pass(out, tracer)
            wall = root.end - root.start
        self.check_pass(out, results)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    # -- set-up ----------------------------------------------------------

    def setup(self) -> float | None:
        """Prepare inputs and expected values in a child process, then warm up.

        Returns set-up seconds: imports + median generation + warm-up pass.
        """
        import prepare

        prepared = os.path.join(self.work, "prepared")
        argv = [sys.executable, os.path.join(HERE, "prepare.py"), "--workload",
                self.workload.name, "--seed", str(self.args.seed), "--out", prepared]
        try:
            rc = subprocess.run(argv, cwd=self.root, timeout=PREPARE_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: prepare.py ran over {PREPARE_TIMEOUT_S} s", file=sys.stderr)
            return None
        if rc != 0:
            return None
        gen_s, self.inputs, self.expected = prepare.load(prepared)
        self.harness_rss_mb = spans.maxrss_mb()
        out = os.path.join(self.work, "warmup")
        t0 = time.perf_counter()
        warm = self.run_pass(out)
        warm_s = time.perf_counter() - t0
        self.check_pass(out, warm)
        shutil.rmtree(out, ignore_errors=True)
        gen = statistics.median(gen_s)
        print(f"{self.workload.name:15s} {'setup parts':14s} imports {self.import_s:.3f} s, "
              f"generation {gen:.3f} s (median of {len(gen_s)}), warm-up pass {warm_s:.3f} s")
        return self.import_s + gen + warm_s

    # -- reporting -------------------------------------------------------

    def provenance(self) -> dict:
        import numpy as np

        blas = None
        try:
            deps = np.show_config(mode="dicts").get("Build Dependencies", {})
            blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
        except TypeError:  # numpy < 1.26 has no dict mode
            pass
        exp = self.expected
        return {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "embedding_lines": self.inputs.embedding_lines,
            "dim": self.inputs.dim,
            "docs": self.inputs.docs,
            "raw_tokens": self.inputs.raw_tokens,
            "counted_tokens": exp.counted_tokens,
            "vocab_size": exp.vocab_size,
            "frames_kept": len(exp.frame_ids),
            "frames_dropped": exp.dropped,
            "n_bootstrap": self.workload.n_bootstrap,
            "bootstrap_unit": self.workload.bootstrap_unit,
            "workers": self.inputs_mod.WORKERS,
            "commands": list(self.workload.commands),
        }

    def computed_null(self) -> dict[str, float]:
        """Exact null-draw counts per pass, derived from the workload's parameters."""
        if "analyze" not in self.workload.commands:
            return {"engine.null_draws": 0.0, "engine.draw_cells": 0.0, "engine.draw_bytes": 0.0}
        exp = self.expected
        draws = len(exp.frame_ids) * self.workload.n_bootstrap
        if self.workload.bootstrap_unit == "token":
            per_draw = exp.vocab_size  # one multinomial count per vocabulary word
        else:
            per_draw = exp.group_docs[self.workload.sizes.groups[0][0]]  # one pick per target doc
        cells = draws * per_draw
        return {"engine.null_draws": float(draws), "engine.draw_cells": float(cells),
                "engine.draw_bytes": float(cells * 8)}

    # -- runs ------------------------------------------------------------

    def measure(self, setup_s: float) -> dict:
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < MIN_PASSES or time.perf_counter() - start < self.args.seconds:
            times.append(self.timed_pass(len(times)))
        pass_s = statistics.median(times)
        frames = sum(
            len(self.expected.frame_ids) if c in FRAME_COMMANDS else 1
            for c in self.workload.commands
        )
        corpus_reads = sum(1 for c in self.workload.commands if c in CORPUS_COMMANDS)
        metrics = {
            "setup_s": (setup_s, "s", "imports + median input generation + 1 warm-up pass"),
            "pass_s": (pass_s, "s", f"median of n={len(times)} passes"),
            "frames_per_s": (frames / pass_s, "1/s", f"{frames} frame evaluations per pass"),
            "tokens_per_s": (self.inputs.raw_tokens * corpus_reads / pass_s, "1/s",
                             f"{self.inputs.raw_tokens} raw tokens x {corpus_reads} commands"),
            "peak_rss_mb": (spans.maxrss_mb(), "MB", "ru_maxrss of this process; "
                            f"{self.harness_rss_mb:.1f} MB before the first CLI call"),
        }
        tail = _tail_percentile(times)
        for name, (value, unit, note) in metrics.items():
            print(f"{self.workload.name:15s} {name:14s} {value:14.6g} {unit:4s} {note}")
        tail_note = (f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                     f"no percentile above the median has 10 samples beyond it (n={len(times)})")
        print(f"{self.workload.name:15s} {'pass_s tail':14s} {tail_note}")
        print(f"{self.workload.name:15s} {'passes':14s} " + " ".join(f"{t:.3f}" for t in times))
        return {name: value for name, (value, _, _) in metrics.items()}

    def measure_traced(self) -> dict:
        tracer = spans.Tracer()
        plain: list[float] = []
        traced: dict[int, float] = {}
        start = time.perf_counter()
        index = 0
        while (min(len(plain), len(traced)) < MIN_PASSES
               or time.perf_counter() - start < self.args.seconds):
            if index % 2:
                traced[index] = self.timed_pass(index, tracer)
            else:
                plain.append(self.timed_pass(index))
            index += 1
        ordered = sorted(traced, key=traced.get)
        chosen = ordered[(len(ordered) - 1) // 2]
        chosen_spans = spans.pass_spans(tracer, chosen)
        metrics = spans.layer_metrics(chosen_spans)
        t0 = chosen_spans[0].start
        print("spans " + json.dumps([
            {**dataclasses.asdict(s), "start": s.start - t0, "end": s.end - t0}
            for s in chosen_spans
        ]))
        untraced_s = statistics.median(plain)
        metrics["trace.pass_s"] = traced[chosen]
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.overhead_s"] = traced[chosen] - untraced_s
        metrics.update(self.computed_null())
        layer_sum = sum(metrics[k] for k in spans.SELF_TIMES)
        for name in sorted(metrics):
            note = " (computed, not measured)" if name in NULL_COUNTS else ""
            print(f"{self.workload.name:15s} {name:30s} {metrics[name]:14.6g}{note}")
        print(f"{self.workload.name:15s} traced pass {traced[chosen]:.6f} s = layer self times "
              f"{layer_sum:.6f} s; tracing overhead {metrics['trace.overhead_s']:+.6f} s "
              f"(n={len(traced)} traced, {len(plain)} untraced passes)")
        return metrics

    def run(self) -> int:
        os.makedirs(self.work, exist_ok=True)
        try:
            setup_s = self.setup()
            if setup_s is None:
                return 2
            print("provenance " + json.dumps(self.provenance(), sort_keys=True))
            if self.args.trace:
                metrics, declared = self.measure_traced(), SPEC["per_layer"]
            else:
                metrics, declared = self.measure(setup_s), SPEC["end_to_end"]
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may still be using it
                os.rmdir(os.path.dirname(self.work))
        for defect in sorted(self.format_defects):
            print(f"{self.workload.name:15s} format defect  {defect} (reported, not failed)")
        rate = self.failed / self.attempted
        print(f"{self.workload.name:15s} {'error_rate':14s} {rate:14.6g}      "
              f"{self.failed} failed of {self.attempted} CLI calls, warm-up included")
        print(json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }))
        return 0 if self.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a combined summary as the last line."""
    import inputs

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in inputs.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="analyze-token, explain-corpus, compare-docs, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "framelens", "cli.py")):
        return _fail("run from the root of a framelens checkout: src/framelens is missing")
    if args.workload == "all":
        return run_all(args)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import framelens.cli
    import framelens.svg

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(framelens.__file__)) != os.path.join(src, "framelens"):
        return _fail(f"imported framelens from {framelens.__file__}, not from {src}")
    import inputs

    if args.workload not in inputs.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}")
    return Bench(args, root, framelens.cli, framelens.svg, import_s).run()


if __name__ == "__main__":
    sys.exit(main())
