"""The README's "Library use" block, run as written on small input files
under the names it reads."""

import json
import re
from pathlib import Path

import framelens as fl

README = Path(__file__).resolve().parent.parent / "README.md"

VECTORS = """savory 0.9 0.2 0.1 0.0
unsavory -0.8 -0.3 0.1 0.1
good 1.0 0.1 0.2 0.0
bad -1.0 -0.2 0.1 0.1
fresh 0.7 0.3 -0.2 0.2
stale -0.6 -0.1 -0.3 0.1
fast 0.2 0.9 0.1 -0.1
slow -0.3 -0.8 0.2 0.0
food 0.1 0.1 0.9 0.3
meal 0.2 0.0 0.8 0.4
service 0.0 0.3 0.4 0.9
was 0.05 0.02 0.01 0.03
"""
PAIRS = "unsavory\tsavory\nbad\tgood\nstale\tfresh\nslow\tfast\n"
TEXTS = {
    "positive": ["the food was savory and good", "fresh meal fast service",
                 "savory food good service", "good fresh meal was fast"],
    "negative": ["the food was unsavory and bad", "stale meal slow service",
                 "bad unsavory food", "slow service stale meal was bad"],
}


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("### Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    (tmp_path / "vectors.txt").write_text(VECTORS, encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text(PAIRS, encoding="utf-8")
    records = [
        {"id": f"{group[:3]}{i}", "text": text, "group": group, "meta": {"outlet": f"o{i % 2}"}}
        for group, texts in TEXTS.items() for i, text in enumerate(texts)
    ]
    (tmp_path / "reviews.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(library_block(), str(README), "exec"), names)

    results, top, registry = names["results"], names["top"], names["registry"]
    assert isinstance(results, fl.Table) and len(results) == len(registry) == 4
    assert results.columns["frame_id"] == list(registry.ids)
    assert isinstance(results[0], fl.FramingResult)
    assert isinstance(top, fl.Table) and len(top) <= 10
    assert all(r.p_intensity <= 0.05 for r in top)
    assert capsys.readouterr().out == f"{top.columns['frame_id']} {results[0].p_intensity}\n"
    assert len(names["spectrum"]) == len(records) and len(names["shifts"]) <= 10
    assert set(names["outlets"]) == {"o0", "o1"}
    separations = names["separations"]
    assert isinstance(separations, fl.Table) and len(separations) == 4
    assert isinstance(separations[0], fl.SeparationResult)
