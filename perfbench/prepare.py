#!/usr/bin/env python3
"""Generate one workload's inputs and the oracle's expected values.

run.py starts this in a child process before it measures anything, so
the memory the generator and the oracle use never reaches the measured
process's RSS high-water mark:

    python3 perfbench/prepare.py --workload analyze-token --seed 1 --out DIR

It generates the inputs SETUP_REPEATS times (the timing of set-up takes
their median) and fails unless every repeat gives the same bytes. It
checks the registry guard and writes ``DIR/prepared.json``: the
generation times, the input paths and sizes, and the expected values.
Exit code 2 and a message on stderr on any failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time

import inputs
import oracle

SETUP_REPEATS = 3
EXPECTED_REGISTRY = (1621, 207)  # shipped lexicon against the snapshot vocabulary
PREPARED = "prepared.json"


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def prepare(root: str, out_dir: str, workload: inputs.Workload, seed: int) -> str | None:
    """Write the inputs and PREPARED under `out_dir`; an error message on failure."""
    gen_s = []
    first = None
    data = None
    for rep in range(SETUP_REPEATS):
        target = os.path.join(out_dir, f"inputs{rep}")
        t0 = time.perf_counter()
        data = inputs.generate(root, target, workload, seed)
        gen_s.append(time.perf_counter() - t0)
        digest = (_file_digest(data.embeddings), _file_digest(data.corpus))
        if first is not None and digest != first:
            return "input generation is not deterministic"
        first = digest
        if rep:
            shutil.rmtree(os.path.join(out_dir, f"inputs{rep - 1}"))
    exp = oracle.expected_values(data, workload, inputs.EXPLAIN_FRAME)
    if (len(exp.frame_ids), exp.dropped) != EXPECTED_REGISTRY:
        return (f"registry guard: {len(exp.frame_ids)} kept / {exp.dropped} dropped, "
                f"expected {EXPECTED_REGISTRY[0]} / {EXPECTED_REGISTRY[1]}")
    with open(os.path.join(out_dir, PREPARED), "w", encoding="utf-8") as fh:
        json.dump({"gen_s": gen_s, "inputs": dataclasses.asdict(data),
                   "expected": dataclasses.asdict(exp)}, fh)
    return None


def load(out_dir: str) -> tuple[list[float], inputs.Inputs, oracle.Expected]:
    """Read what `prepare` wrote."""
    with open(os.path.join(out_dir, PREPARED), encoding="utf-8") as fh:
        doc = json.load(fh)
    data = doc["inputs"]
    data["topics"] = tuple(data["topics"])
    exp = oracle.Expected(**doc["expected"])
    for name in ("analyze", "shifts", "map_units"):  # JSON gave lists
        setattr(exp, name, {k: tuple(v) for k, v in getattr(exp, name).items()})
    return doc["gen_s"], inputs.Inputs(**data), exp


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    error = prepare(os.getcwd(), args.out, inputs.WORKLOADS[args.workload], args.seed)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
