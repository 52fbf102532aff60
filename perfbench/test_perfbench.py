"""Tests of the benchmark's own code: generator, oracle checks, span arithmetic.

Run from the repository root: ``python -m pytest perfbench``.
"""

import contextlib
import dataclasses
import io
import os
import sys

import pytest

import inputs
import oracle
import prepare
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = inputs.Sizes(dim=4, distractors=50, docs=60, doc_tokens=10,
                    groups=(("a", 0.4), ("b", 0.4), ("target", 0.2)), outlets=3, topics=2)


def _tiny(name: str) -> inputs.Workload:
    return dataclasses.replace(inputs.WORKLOADS[name], sizes=TINY, n_bootstrap=1)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_generator_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    w = _tiny("explain-corpus")
    first = inputs.generate(ROOT, str(tmp_path / "s1a"), w, 1)
    again = inputs.generate(ROOT, str(tmp_path / "s1b"), w, 1)
    other = inputs.generate(ROOT, str(tmp_path / "s2"), w, 2)
    for attr in ("embeddings", "corpus"):
        assert _read(getattr(first, attr)) == _read(getattr(again, attr))
        assert _read(getattr(first, attr)) != _read(getattr(other, attr))
    assert first.topics == again.topics


def test_prepare_round_trips_inputs_and_expected_values(tmp_path):
    w = _tiny("compare-docs")
    assert prepare.prepare(ROOT, str(tmp_path), w, 4) is None
    gen_s, data, exp = prepare.load(str(tmp_path))
    assert len(gen_s) == prepare.SETUP_REPEATS
    assert data == inputs.generate(ROOT, str(tmp_path / "inputs2"), w, 4)
    assert exp == oracle.expected_values(data, w, inputs.EXPLAIN_FRAME)
    assert (len(exp.frame_ids), exp.dropped) == prepare.EXPECTED_REGISTRY


@pytest.mark.parametrize(
    "workload, command, key_column, column",
    [
        ("analyze-token", "analyze", "frame_id", "bias"),
        ("compare-docs", "separation", "frame_id", "delta_bias"),
        ("explain-corpus", "spectrum", "doc_id", "doc_bias"),
        ("explain-corpus", "shifts", "token", "shift_background"),
        ("explain-corpus", "map", "unit", "intensity"),
    ],
)
def test_oracle_rejects_one_perturbed_number(tmp_path, workload, command, key_column, column):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from framelens import cli
    finally:
        sys.path.pop(0)
    w = _tiny(workload)
    data = inputs.generate(ROOT, str(tmp_path / "in"), w, 3)
    out = str(tmp_path / "out")
    argv = inputs.command_argv(w, command, data, out, seed=3)
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    exp = oracle.expected_values(data, w, inputs.EXPLAIN_FRAME)
    frame = inputs.EXPLAIN_FRAME
    assert oracle.check_command(command, out, exp, frame)[0] == []

    path = oracle.report_paths(command, out, frame)[0]
    lines = _read(path).decode().split("\n")
    header = lines[1].split("\t")
    cells = lines[2].split("\t")  # the first data row; TINY puts every row in the samples
    key = cells[header.index(key_column)]
    j = header.index(column)
    cells[j] = repr(float(cells[j]) + 1e-7)
    lines[2] = "\t".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    problems, _ = oracle.check_command(command, out, exp, frame)
    assert len(problems) == 1 and key in problems[0] and column in problems[0]


def _write_tsv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# provenance\n" + "\t".join(header) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in rows)


def test_oracle_fails_unparsable_cells_except_the_known_format_defect(tmp_path):
    exp = oracle.Expected(frame_ids=["a--b"], dropped=0, vocab_size=1, counted_tokens=1,
                          group_docs={}, delta_bias={"a--b": 0.5})
    paths = oracle.report_paths("separation", str(tmp_path), inputs.EXPLAIN_FRAME)
    for path in paths[1:]:
        open(path, "w").close()
    header = ["frame_id", "delta_bias", "mean_intensity", "effect_bias"]
    _write_tsv(paths[0], header, [["a--b", "0.5", "np.float64(0.1)", "0.2"]])
    problems, defects = oracle.check_command("separation", str(tmp_path), exp, "")
    assert problems == [] and len(defects) == 1 and "mean_intensity" in defects[0]

    _write_tsv(paths[0], header, [["a--b", "0.5", "0.1", "np.float64(nan)"]])
    problems, _ = oracle.check_command("separation", str(tmp_path), exp, "")
    assert len(problems) == 1 and "effect_bias" in problems[0]

    _write_tsv(paths[0], header, [["a--b", "np.float64(0.5)", "0.1", "0.2"]])
    problems, _ = oracle.check_command("separation", str(tmp_path), exp, "")
    assert len(problems) == 2 and all("delta_bias" in p for p in problems)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, pass_id=0)


def test_self_times_subtract_child_coverage():
    tree = [
        _span("cli.pass", 0.0, 10.0, None),  # 0
        _span("cli.analyze", 0.5, 9.5, 0),  # 1
        _span("embeddings.load", 1.0, 3.0, 1),  # 2
        _span("engine.analyze", 3.0, 8.0, 1),  # 3
        _span("reports.write", 8.0, 9.0, 1),  # 4
    ]
    assert spans.self_times(tree) == pytest.approx([1.0, 1.0, 2.0, 5.0, 1.0])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["embeddings.load_s"] == pytest.approx(2.0)
    assert m["engine.analyze_s"] == pytest.approx(5.0)
    assert m["reports.write_s"] == pytest.approx(1.0)
    assert sum(m[k] for k in spans.SELF_TIMES) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once_and_clip_to_parent():
    tree = [
        _span("cli.pass", 0.0, 10.0, None),
        _span("corpus.read", 1.0, 4.0, 0),
        _span("corpus.view", 3.0, 6.0, 0),  # overlaps the previous sibling
        _span("svg.render", 9.0, 12.0, 0),  # runs past its parent's end
        _span("engine.explain", 2.0, 2.5, 1),  # grandchild: not the root's child
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.5, 3.0, 3.0, 0.5])
