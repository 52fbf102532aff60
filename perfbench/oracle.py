"""Independent output checks for the benchmark.

The oracle works only from the generated input files and the shipped
pair file. It re-parses them, re-derives the frame registry, and
computes the expected statistics with plain numpy, without going
through any framelens code path. Checks compare the reports the CLI
wrote against these values to 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

TOLERANCE = 1e-9
SAMPLE_FRAMES = 25  # frames of results.tsv checked against the oracle
SAMPLE_DOCS = 50  # documents of the spectrum report checked against the oracle
MIN_AXIS_NORM = 1e-8


@dataclass
class Expected:
    """What every pass of one workload must reproduce."""

    frame_ids: list[str]
    dropped: int
    vocab_size: int
    counted_tokens: int
    group_docs: dict[str, int]
    # frame id -> (bias, intensity, baseline bias) of the analyzed group
    analyze: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    delta_bias: dict[str, float] = field(default_factory=dict)
    doc_bias: dict[str, float] = field(default_factory=dict)
    # token -> (shift_target, shift_background, shift_delta) of bias shifts
    shifts: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    shifts_rows: int = 0
    shifts_cut: float = 0.0  # the shifts_rows-th largest |shift_delta|
    # outlet -> (bias, intensity) for every outlet with at least min_docs documents
    map_units: dict[str, tuple[float, float]] = field(default_factory=dict)


def read_pairs(path: str) -> list[tuple[str, str]]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                minus, plus = line.split("\t")
                pairs.append((minus, plus))
    return pairs


def read_vectors(path: str, wanted: set[str]) -> dict[str, np.ndarray]:
    """float32 storage promoted to float64, as the file format prescribes."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token, _, rest = line.partition(" ")
            if token in wanted:
                out[token] = np.array(rest.split(), dtype=np.float64).astype(np.float32).astype(
                    np.float64
                )
    return out


def read_documents(path: str) -> list[dict]:
    """Generated texts are ASCII words with capitals, commas and full stops."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            rec["tokens"] = [t for t in (w.lower().strip(".,") for w in rec["text"].split()) if t]
            docs.append(rec)
    return docs


def registry(pairs: list[tuple[str, str]], vectors) -> tuple[list[str], int]:
    """Kept frame ids in lexicon order, and the number of dropped pairs."""
    kept = []
    for minus, plus in pairs:
        if minus == plus or minus not in vectors or plus not in vectors:
            continue
        if np.linalg.norm(vectors[plus] - vectors[minus]) < MIN_AXIS_NORM:
            continue
        kept.append(f"{minus}--{plus}")
    return kept, len(pairs) - len(kept)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _counts(docs: list[dict], vocab: dict[str, int]) -> np.ndarray:
    n = np.zeros(len(vocab))
    for d in docs:
        for t in d["tokens"]:
            if t in vocab:
                n[vocab[t]] += 1
    return n


def expected_values(inputs, workload, explain_frame: str, shifts_k: int = 20,
                    min_docs: int = 20) -> Expected:
    """Expected report values for `workload` over the generated `inputs`."""
    pairs = read_pairs(inputs.pairs)
    docs = read_documents(inputs.corpus)
    wanted = {t for d in docs for t in d["tokens"]} | {w for p in pairs for w in p}
    vectors = read_vectors(inputs.embeddings, wanted)
    frame_ids, dropped = registry(pairs, vectors)
    vocab_list = sorted({t for d in docs for t in d["tokens"] if t in vectors})
    vocab = {t: i for i, t in enumerate(vocab_list)}
    units = _unit(np.array([vectors[t] for t in vocab_list]))
    full = _counts(docs, vocab)
    groups: dict[str, int] = {}
    for d in docs:
        groups[d["group"]] = groups.get(d["group"], 0) + 1
    exp = Expected(frame_ids, dropped, len(vocab_list), int(full.sum()), groups)

    def axis(fid: str) -> np.ndarray:
        minus, plus = fid.split("--")
        return _unit(vectors[plus] - vectors[minus])

    commands = set(workload.commands)
    if "analyze" in commands:
        label = workload.sizes.groups[0][0]
        target = _counts([d for d in docs if d["group"] == label], vocab)
        step = max(1, len(frame_ids) // SAMPLE_FRAMES)
        for fid in frame_ids[::step]:
            c = units @ axis(fid)
            base = float(full @ c / full.sum())
            bias = float(target @ c / target.sum())
            intensity = float(target @ (c - base) ** 2 / target.sum())
            exp.analyze[fid] = (bias, intensity, base)
    if "separation" in commands:
        a = _counts([d for d in docs if d["group"] == "a"], vocab)
        b = _counts([d for d in docs if d["group"] == "b"], vocab)
        weights = a / a.sum() - b / b.sum()
        axes = _unit(np.array([vectors[f.split("--")[1]] - vectors[f.split("--")[0]]
                               for f in frame_ids]))
        exp.delta_bias = dict(zip(frame_ids, ((weights @ units) @ axes.T).tolist()))
    c = units @ axis(explain_frame)
    if "spectrum" in commands:
        step = max(1, len(docs) // SAMPLE_DOCS)
        for d in docs[::step]:
            values = [c[vocab[t]] for t in d["tokens"] if t in vocab]
            exp.doc_bias[d["id"]] = math.fsum(values) / len(values)
    if "shifts" in commands:
        label = workload.sizes.groups[0][0]
        target = _counts([d for d in docs if d["group"] == label], vocab)
        rest = _counts([d for d in docs if d["group"] != label], vocab)
        t, b = target * c / target.sum(), rest * c / rest.sum()
        exp.shifts = {tok: values for tok, values in zip(vocab_list, zip(
            t.tolist(), b.tolist(), (t - b).tolist()))}
        exp.shifts_rows = min(shifts_k, len(vocab_list))
        exp.shifts_cut = float(np.sort(np.abs(t - b))[-exp.shifts_rows])
    if "map" in commands:
        base = full @ c / full.sum()
        outlets: dict[str, list[dict]] = {}
        for d in docs:
            outlets.setdefault(d["meta"]["outlet"], []).append(d)
        for outlet, unit_docs in outlets.items():
            if len(unit_docs) >= min_docs:
                n = _counts(unit_docs, vocab)
                exp.map_units[outlet] = (float(n @ c / n.sum()),
                                         float(n @ (c - base) ** 2 / n.sum()))
    return exp


# ---------------------------------------------------------------------------
# Report checks


REPORTS = {
    "analyze": ("results.tsv", "results.json"),
    "shifts": ("shifts_{frame}_bias.tsv", "shifts_{frame}_bias.svg"),
    "spectrum": ("spectrum_{frame}.tsv", "spectrum_{frame}.svg"),
    "map": ("map_{frame}.tsv", "map_{frame}.svg"),
    "separation": ("separation_a_vs_b.tsv", "separation_a_vs_b.json", "separation_a_vs_b.svg"),
    "relevance": ("relevance_embedding.tsv", "relevance_embedding.json"),
}


def report_paths(command: str, out_dir: str, frame: str) -> list[str]:
    return [os.path.join(out_dir, name.format(frame=frame)) for name in REPORTS[command]]


def read_tsv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split("\t")
    return header, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _numeric(rows: list[dict[str, str]], skip: set[str],
             known: set[str]) -> tuple[list[str], dict[str, str]]:
    """Non-finite values and unparsable cells, and one example cell per
    column in `known` whose cells do not parse (a known format defect)."""
    problems: list[str] = []
    defects: dict[str, str] = {}
    for row in rows:
        for key, cell in row.items():
            if key in skip or cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                if key in known:
                    defects.setdefault(key, cell)
                else:
                    problems.append(f"{key}={cell!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"{key}={cell!r} is not finite")
    return problems, defects


def _float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan  # already reported by _numeric; fails every comparison


def _close(got: str, want: float) -> bool:
    return math.isclose(_float(got), want, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


TEXT_COLUMNS = {"frame_id", "kind", "token", "doc_id", "group", "unit", "method"}
#: (command, column) pairs whose cells are known not to parse as numbers:
#: under numpy 2 the separation TSV writes mean_intensity as ``np.float64(...)``.
#: The checks compare no value in them; any other unparsable cell fails.
KNOWN_FORMAT_DEFECTS = {("separation", "mean_intensity")}


def check_command(command: str, out_dir: str, exp: Expected,
                  frame: str) -> tuple[list[str], list[str]]:
    """Problems found in one command's reports (empty when all checks pass),
    and the known format defects seen (see KNOWN_FORMAT_DEFECTS).

    A known format defect is reported, not failed: it breaks no value the
    checks compare, and the program cannot be changed by the benchmark.
    """
    paths = report_paths(command, out_dir, frame)
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        return [f"missing report {os.path.basename(p)}" for p in missing], []
    _, rows = read_tsv(paths[0])
    known = {col for cmd, col in KNOWN_FORMAT_DEFECTS if cmd == command}
    problems, unparsed = _numeric(rows, TEXT_COLUMNS, known)
    name = os.path.basename(paths[0])
    defects = [f"{name} column {col} holds {cell!r}" for col, cell in sorted(unparsed.items())]
    if command == "analyze":
        if [r["frame_id"] for r in rows] != exp.frame_ids:
            problems.append(f"results.tsv has {len(rows)} rows, not one per registry frame")
        by_id = {r["frame_id"]: r for r in rows}
        for fid, (bias, intensity, base) in exp.analyze.items():
            r = by_id.get(fid)
            if r is None:
                problems.append(f"results.tsv lacks frame {fid}")
                continue
            for col, want in (("bias", bias), ("intensity", intensity), ("baseline_bias", base)):
                if not _close(r[col], want):
                    problems.append(f"results.tsv {fid} {col}={r[col]}, oracle {want!r}")
        for r in rows:
            for col in ("p_bias", "p_intensity"):
                if not 0.0 < _float(r[col]) <= 1.0:
                    problems.append(f"results.tsv {r['frame_id']} {col}={r[col]} outside (0, 1]")
    elif command == "separation":
        if sorted(r["frame_id"] for r in rows) != sorted(exp.delta_bias):
            problems.append("separation report does not cover the registry")
        for r in rows:
            want = exp.delta_bias.get(r["frame_id"])
            if want is not None and not _close(r["delta_bias"], want):
                problems.append(f"separation {r['frame_id']} delta_bias={r['delta_bias']}, "
                                f"oracle {want!r}")
    elif command == "spectrum":
        by_doc = {r["doc_id"]: r for r in rows}
        if len(rows) != sum(exp.group_docs.values()):
            problems.append(f"spectrum has {len(rows)} rows")
        for doc_id, want in exp.doc_bias.items():
            r = by_doc.get(doc_id)
            if r is None or not _close(r["doc_bias"], want):
                problems.append(f"spectrum {doc_id} doc_bias={r and r['doc_bias']}, oracle {want!r}")
    elif command == "shifts":
        if len(rows) != exp.shifts_rows:
            problems.append(f"shifts has {len(rows)} rows, expected {exp.shifts_rows}")
        for r in rows:
            want = exp.shifts.get(r["token"])
            if want is None:
                problems.append(f"shifts token {r['token']} is not in the vocabulary")
                continue
            for col, w in zip(("shift_target", "shift_background", "shift_delta"), want):
                if not _close(r[col], w):
                    problems.append(f"shifts {r['token']} {col}={r[col]}, oracle {w!r}")
            if abs(want[2]) < exp.shifts_cut - TOLERANCE:
                problems.append(f"shifts {r['token']} is not among the top {exp.shifts_rows}")
    elif command == "map":
        if sorted(r["unit"] for r in rows) != sorted(exp.map_units):
            problems.append(f"map has units {[r['unit'] for r in rows]}, "
                            f"expected {sorted(exp.map_units)}")
        for r in rows:
            for col, w in zip(("bias", "intensity"), exp.map_units.get(r["unit"], ())):
                if not _close(r[col], w):
                    problems.append(f"map {r['unit']} {col}={r[col]}, oracle {w!r}")
    elif command == "relevance" and len(rows) != len(exp.frame_ids):
        problems.append(f"relevance has {len(rows)} rows, expected {len(exp.frame_ids)}")
    return problems, defects


def data_digest(paths: list[str]) -> str:
    """Digest of report data: TSV rows without the provenance line, JSON
    without its provenance block, SVG as written."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        if path.endswith(".tsv"):
            raw = b"".join(line for line in raw.splitlines(True) if not line.startswith(b"#"))
        elif path.endswith(".json"):
            doc = json.loads(raw)
            doc.pop("provenance", None)
            raw = json.dumps(doc, sort_keys=True).encode()
        h.update(os.path.basename(path).encode() + b"\0" + raw + b"\0")
    return h.hexdigest()
