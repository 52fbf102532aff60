import argparse
import importlib.util
import json
import math
import os
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

from framelens import cli, corpus, embeddings, engine, relevance, reports, svg
from framelens.cli import main
from framelens.corpus import read_jsonl
from framelens.embeddings import EmbeddingTable, load_embeddings
from framelens.frames import build_registry, make_frame, read_pairs_tsv

import oracles

EMBEDDINGS = """good 1.0 0.2 0.1
bad -1.0 -0.2 -0.1
great 0.9 0.3 0.0
awful -0.8 -0.4 0.1
fresh 0.8 0.1 0.3
stale -0.7 -0.1 0.2
service 0.3 0.8 0.2
meal 0.2 0.7 -0.1
waiter 0.25 0.75 0.15
slow -0.5 0.1 0.6
fast 0.5 -0.1 0.6
the 0.01 0.02 0.9
was 0.02 0.01 0.8
"""

PAIRS = "bad\tgood\nawful\tgreat\nstale\tfresh\nslow\tfast\n"

DOCS = [
    {"id": "p1", "text": "The meal was good and fresh", "group": "pos", "meta": {"outlet": "sun"}},
    {"id": "p2", "text": "great service fresh meal", "group": "pos", "meta": {"outlet": "sun"}},
    {"id": "p3", "text": "good fast service", "group": "pos", "meta": {"outlet": "moon"}},
    {"id": "n1", "text": "The meal was bad and stale", "group": "neg", "meta": {"outlet": "moon"}},
    {"id": "n2", "text": "awful slow service", "group": "neg", "meta": {"outlet": "moon"}},
    {"id": "n3", "text": "bad stale meal", "group": "neg", "meta": {"outlet": "sun"}},
]

#: Four outlets for `map`: two with countable tokens, one whose tokens are all
#: out of vocabulary, one with a single document; and one document in none.
UNIT_DOCS = [
    {"id": "s1", "text": "good fresh meal xyzzy", "group": "pos", "meta": {"outlet": "sun"}},
    {"id": "s2", "text": "great meal was fast", "group": "pos", "meta": {"outlet": "sun"}},
    {"id": "s3", "text": "the meal was stale", "group": "neg", "meta": {"outlet": "sun"}},
    {"id": "m1", "text": "bad bad service", "group": "neg", "meta": {"outlet": "moon"}},
    {"id": "m2", "text": "awful slow waiter qux", "group": "neg", "meta": {"outlet": "moon"}},
    {"id": "v1", "text": "xyzzy qux", "group": "pos", "meta": {"outlet": "void"}},
    {"id": "v2", "text": "plugh", "group": "pos", "meta": {"outlet": "void"}},
    {"id": "t1", "text": "good service", "group": "pos", "meta": {"outlet": "tiny"}},
    {"id": "x1", "text": "fresh fast meal", "group": "pos"},
]


@pytest.fixture
def setup(tmp_path):
    emb = tmp_path / "vectors.txt"
    emb.write_text(EMBEDDINGS, encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(PAIRS, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "\n".join(json.dumps(d) for d in DOCS) + "\n", encoding="utf-8"
    )
    out = tmp_path / "reports"
    return {
        "emb": str(emb),
        "pairs": str(pairs),
        "corpus": str(corpus),
        "out": str(out),
        "tmp": tmp_path,
    }


#: One invocation of each command on the fixture, with its own flags.
EVERY_COMMAND = [
    ("shifts", ["--group", "pos", "--frame", "bad--good", "--kind", "intensity"]),
    ("spectrum", ["--frame", "bad--good"]),
    ("map", ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "1"]),
    ("separation", ["--group-a", "pos", "--group-b", "neg"]),
    ("relevance", ["--topics", "waiter,meal"]),
    ("frames build", []),
    ("analyze", ["--group", "pos", "--n-bootstrap", "20"]),
]

#: command -> (report stem of its EVERY_COMMAND case, formats it writes, in write order)
WRITES = {
    "shifts": ("shifts_bad--good_intensity", ("tsv", "svg")),
    "spectrum": ("spectrum_bad--good", ("tsv", "svg")),
    "map": ("map_bad--good", ("tsv", "svg")),
    "separation": ("separation_pos_vs_neg", ("tsv", "json", "svg")),
    "relevance": ("relevance_embedding", ("tsv", "json")),
    "frames build": ("registry", ("json",)),
    "analyze": ("results", ("tsv", "json")),
}


def write_unit_corpus(tmp):
    corpus = tmp / "units.jsonl"
    corpus.write_text("\n".join(json.dumps(d) for d in UNIT_DOCS) + "\n", encoding="utf-8")
    return corpus


def with_corpus(setup, docs):
    """`setup` with its corpus replaced by `docs`."""
    corpus = setup["tmp"] / "other.jsonl"
    corpus.write_text("\n".join(json.dumps(d) for d in docs) + "\n", encoding="utf-8")
    return {**setup, "corpus": str(corpus)}


#: A group whose every token is out of vocabulary.
OOV_DOC = {"id": "o1", "text": "xyzzy plugh", "group": "o"}


def base_args(s, command):
    return [
        command,
        "--embeddings", s["emb"],
        "--pairs", s["pairs"],
        "--corpus", s["corpus"],
        "--out", s["out"],
        "--seed", "7",
    ]


def read_tsv(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split("\t")
    rows = [dict(zip(header, ln.split("\t"))) for ln in lines[2:]]
    return json.loads(lines[0][2:]), header, rows


class TestAnalyze:
    def test_end_to_end(self, setup, capsys):
        code = main(base_args(setup, "analyze") + ["--group", "pos", "--n-bootstrap", "50"])
        assert code == 0
        prov, header, rows = read_tsv(os.path.join(setup["out"], "results.tsv"))
        assert prov["tool"] == "framelens"
        assert prov["config"]["seed"] == 7
        assert len(rows) == 4
        assert header[0] == "frame_id"
        doc = json.loads(open(os.path.join(setup["out"], "results.json")).read())
        assert len(doc["results"]) == 4
        assert doc["provenance"]["config"]["n_bootstrap"] == 50
        err = capsys.readouterr().err
        assert "registry: 4 frames" in err

    @pytest.mark.parametrize("alpha", ["0.12", "0.99"])
    def test_bonferroni_selects_at_alpha_over_the_frame_count(self, setup, alpha):
        """At 0.12 Bonferroni drops a frame from the bias selection, at 0.99
        from the intensity one; each selection is an independent filter and
        sort of results.tsv at the divided alpha."""
        args = base_args(setup, "analyze") + [
            "--group", "pos", "--n-bootstrap", "200", "--alpha", alpha, "--top-m", "3"]
        assert main(args + ["--bonferroni"]) == 0
        _, _, rows = read_tsv(os.path.join(setup["out"], "results.tsv"))
        doc = json.loads(Path(setup["out"], "results.json").read_text(encoding="utf-8"))
        assert doc["provenance"]["config"]["bonferroni"] is True
        alpha_eff = float(alpha) / len(rows)
        assert doc["alpha_effective"] == alpha_eff

        def selected(by, at):
            kept = [r for r in rows if float(r[f"p_{by}"]) <= at]
            kept.sort(key=lambda r: (-abs(float(r[f"effect_{by}"])), r["frame_id"]))
            return [r["frame_id"] for r in kept[:3]]

        for by in ("bias", "intensity"):
            assert doc[f"top_significant_{by}"] == selected(by, alpha_eff)
        assert any(selected(by, alpha_eff) != selected(by, float(alpha))
                   for by in ("bias", "intensity"))

    def test_deterministic_reports(self, setup):
        args = base_args(setup, "analyze") + ["--group", "pos", "--n-bootstrap", "40"]
        assert main(args) == 0
        first = open(os.path.join(setup["out"], "results.tsv"), "rb").read()
        first_json = open(os.path.join(setup["out"], "results.json"), "rb").read()
        assert main(args) == 0
        assert open(os.path.join(setup["out"], "results.tsv"), "rb").read() == first
        assert open(os.path.join(setup["out"], "results.json"), "rb").read() == first_json

    @pytest.mark.parametrize("command, extra", EVERY_COMMAND)
    def test_every_command_writes_identical_files_on_rerun(self, setup, command, extra):
        args = command.split() + base_args(setup, command)[1:] + extra

        def snapshot():
            return {p.name: p.read_bytes() for p in sorted(Path(setup["out"]).iterdir())}

        assert main(args) == 0
        first = snapshot()
        assert first
        assert main(args) == 0
        assert snapshot() == first

    @pytest.mark.parametrize("command, extra", EVERY_COMMAND)
    def test_every_command_writes_only_inside_out(self, setup, monkeypatch, command, extra):
        opened = []

        def spy(path, mode="r", *args, **kwargs):
            if set(mode) & set("wxa+"):
                opened.append(os.path.dirname(os.path.abspath(path)))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(reports, "open", spy, raising=False)
        before = sorted(os.listdir(setup["tmp"]))
        assert main(command.split() + base_args(setup, command)[1:] + extra) == 0
        assert opened and set(opened) == {os.path.abspath(setup["out"])}
        assert sorted(os.listdir(setup["tmp"])) == sorted(before + ["reports"])
        assert not [name for name in os.listdir(setup["out"]) if name.startswith(".")]

    def test_empty_corpus_is_data_error(self, setup, capsys):
        bad = setup["tmp"] / "empty.jsonl"
        bad.write_text(
            json.dumps({"id": "x", "text": "zzz qqq"}) + "\n", encoding="utf-8"
        )
        args = [
            "analyze", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
            "--corpus", str(bad), "--group", "pos", "--out", setup["out"],
        ]
        code = main(args)
        assert code == 2
        assert "empty corpus view" in capsys.readouterr().err

    def test_non_object_corpus_line_is_data_error(self, setup, capsys):
        bad = setup["tmp"] / "scalar.jsonl"
        bad.write_text(json.dumps(DOCS[0]) + "\n5\n", encoding="utf-8")
        args = [
            "analyze", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
            "--corpus", str(bad), "--group", "pos", "--out", setup["out"],
        ]
        assert main(args) == 2
        assert "scalar.jsonl:2: record must be a JSON object" in capsys.readouterr().err

    def test_duplicate_corpus_id_is_data_error(self, setup, capsys):
        bad = setup["tmp"] / "dup.jsonl"
        bad.write_text("\n".join(json.dumps(d) for d in DOCS + DOCS[1:2]) + "\n",
                       encoding="utf-8")
        args = [
            "analyze", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
            "--corpus", str(bad), "--group", "pos", "--out", setup["out"],
        ]
        assert main(args) == 2
        assert "dup.jsonl:7: duplicate id 'p2' (first on line 2)" in capsys.readouterr().err

    def test_unwritable_out_is_data_error(self, setup, capsys):
        taken = setup["tmp"] / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        args = base_args(setup, "analyze") + ["--group", "pos", "--n-bootstrap", "5",
                                              "--out", str(taken)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error [write reports]" in err and str(taken) in err

    def test_missing_group_is_usage_error(self, setup, capsys):
        code = main(base_args(setup, "analyze"))
        assert code == 1
        assert "--group" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, setup, capsys):
        code = main(base_args(setup, "analyze") + ["--frobnicate"])
        assert code == 1

    def test_missing_file_is_usage_error(self, setup, capsys):
        args = [
            "analyze", "--embeddings", "/no/such/file", "--pairs", setup["pairs"],
            "--corpus", setup["corpus"], "--group", "pos",
        ]
        assert main(args) == 1
        assert "no such file" in capsys.readouterr().err

    def test_bad_alpha_rejected(self, setup, capsys):
        code = main(base_args(setup, "analyze") + ["--group", "pos", "--alpha", "1.5"])
        assert code == 1


class TestShifts:
    def test_tsv_and_svg_pair(self, setup):
        code = main(
            base_args(setup, "shifts")
            + ["--group", "pos", "--frame", "bad--good", "--kind", "bias", "--k", "5"]
        )
        assert code == 0
        tsv = os.path.join(setup["out"], "shifts_bad--good_bias.tsv")
        svgp = os.path.join(setup["out"], "shifts_bad--good_bias.svg")
        assert os.path.exists(tsv) and os.path.exists(svgp)
        _, header, rows = read_tsv(tsv)
        assert header == ["frame_id", "kind", "token", "shift_target",
                          "shift_background", "shift_delta"]
        assert 0 < len(rows) <= 5
        root = ET.fromstring(open(svgp, encoding="utf-8").read())
        assert root.tag.endswith("svg")

    def test_unknown_frame(self, setup, capsys):
        code = main(
            base_args(setup, "shifts") + ["--group", "pos", "--frame", "up--down"]
        )
        assert code == 2
        assert "unknown frame id" in capsys.readouterr().err

    def test_intensity_kind(self, setup):
        code = main(
            base_args(setup, "shifts")
            + ["--group", "neg", "--frame", "bad--good", "--kind", "intensity"]
        )
        assert code == 0
        assert os.path.exists(
            os.path.join(setup["out"], "shifts_bad--good_intensity.tsv")
        )

    @pytest.mark.parametrize("docs, message", [
        ([d for d in DOCS if d["group"] == "pos"], "every document has the target label"),
        ([d for d in DOCS if d["group"] == "pos"] + [OOV_DOC],
         "no document without label 'pos' has a countable token"),
    ])
    def test_empty_background_says_why(self, setup, capsys, docs, message):
        args = base_args(with_corpus(setup, docs), "shifts")
        assert main(args + ["--group", "pos", "--frame", "bad--good"]) == 2
        err = capsys.readouterr().err
        assert f"background corpus is empty; {message}" in err


class TestSpectrum:
    def test_per_document_rows(self, setup):
        code = main(base_args(setup, "spectrum") + ["--frame", "bad--good"])
        assert code == 0
        _, header, rows = read_tsv(os.path.join(setup["out"], "spectrum_bad--good.tsv"))
        assert header == ["doc_id", "group", "doc_bias", "doc_intensity"]
        assert len(rows) == len(DOCS)
        biases = [float(r["doc_bias"]) for r in rows if r["doc_bias"]]
        assert biases == sorted(biases)
        svgp = os.path.join(setup["out"], "spectrum_bad--good.svg")
        content = open(svgp, encoding="utf-8").read()
        assert "toward bad" in content and "toward good" in content


    def test_a_tab_in_a_document_id_is_a_data_error(self, setup, capsys):
        """The TSV writer refuses a text cell that would split its row."""
        docs = [{**d, "id": "p\t1"} if d["id"] == "p1" else d for d in DOCS]
        args = base_args(with_corpus(setup, docs), "spectrum") + ["--frame", "bad--good"]
        assert main(args) == 2
        assert "report column 'doc_id': cell 'p\\t1' holds a TAB" in capsys.readouterr().err
        assert os.listdir(setup["out"]) == []


class TestMap:
    def test_units_and_filter(self, setup):
        code = main(
            base_args(setup, "map")
            + ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "3"]
        )
        assert code == 0
        _, header, rows = read_tsv(os.path.join(setup["out"], "map_bad--good.tsv"))
        assert header == ["unit", "group", "n_docs", "bias", "intensity"]
        assert [r["unit"] for r in rows] == ["moon", "sun"]
        assert all(int(r["n_docs"]) >= 3 for r in rows)

    def test_min_docs_excludes(self, setup, capsys):
        code = main(
            base_args(setup, "map")
            + ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "4"]
        )
        assert code == 2
        assert "min-docs" in capsys.readouterr().err

    def test_missing_unit_field(self, setup, capsys):
        code = main(
            base_args(setup, "map")
            + ["--frame", "bad--good", "--unit", "nosuchfield", "--min-docs", "1"]
        )
        assert code == 2
        assert "missing from corpus metadata" in capsys.readouterr().err

    def test_no_group_labels(self, setup, capsys):
        docs = [{k: v for k, v in d.items() if k != "group"} for d in DOCS]
        args = base_args(with_corpus(setup, docs), "map")
        assert main(args + ["--frame", "bad--good", "--unit", "group", "--min-docs", "1"]) == 2
        assert "no document has a group label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "unit, change, message",
        [
            ("outlet", {"id": "n3", "meta": {"outlet": "Fox\tNews\nX"}},
             "document 'n3': meta field 'outlet' 'Fox\\tNews\\nX'"),
            ("outlet", {"id": "n3", "group": "neg\r", "meta": {"outlet": "solo"}},
             "document 'n3': group 'neg\\r'"),
            ("group", {"id": "n3", "group": "n\teg"}, "document 'n3': group 'n\\teg'"),
        ],
        ids=["unit", "majority-group", "group-unit"],
    )
    def test_a_tab_lf_or_cr_in_a_written_label_is_a_data_error(
        self, setup, capsys, unit, change, message
    ):
        """A unit or majority group label would split its TSV cell."""
        docs = [{**d, **change} if d["id"] == change["id"] else d for d in DOCS]
        args = base_args(with_corpus(setup, docs), "map")
        assert main(args + ["--frame", "bad--good", "--unit", unit, "--min-docs", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err and "TAB, LF or CR" in err
        assert not os.path.exists(setup["out"])

    def test_units_match_token_stream_oracle(self, setup, capsys):
        """Each unit's bias and intensity, about the bias of the whole corpus,
        with a topic word masked and OOV tokens left out of every total; a
        unit whose tokens are all OOV and a unit below --min-docs are skipped."""
        corpus = write_unit_corpus(setup["tmp"])
        topic_words = setup["tmp"] / "topics.txt"
        topic_words.write_text("meal\n", encoding="utf-8")
        args = base_args({**setup, "corpus": str(corpus)}, "map") + [
            "--frame", "bad--good", "--unit", "outlet", "--min-docs", "2",
            "--topic-words", str(topic_words), "--formats", "tsv"]
        assert main(args) == 0
        assert "map: skipped 2 units below --min-docs 2 or empty" in capsys.readouterr().err
        _, _, rows = read_tsv(os.path.join(setup["out"], "map_bad--good.tsv"))

        table = load_embeddings(setup["emb"])
        frame = make_frame("bad", "good", table)
        docs = read_jsonl(str(corpus))
        full_stream = oracles.counted_stream(docs, table, {"meal"})
        contrib = oracles.contributions_by_token(full_stream, table, frame)
        baseline = oracles.stream_bias(full_stream, contrib)
        assert [r["unit"] for r in rows] == ["moon", "sun"]
        for row in rows:
            unit_docs = [d for d in docs if d.meta.get("outlet") == row["unit"]]
            stream = oracles.counted_stream(unit_docs, table, {"meal"})
            assert int(row["n_docs"]) == len(unit_docs)
            assert float(row["bias"]) == pytest.approx(
                oracles.stream_bias(stream, contrib), abs=1e-12)
            assert float(row["intensity"]) == pytest.approx(
                oracles.stream_intensity(stream, contrib, baseline), abs=1e-12)
        assert [r["group"] for r in rows] == ["neg", "pos"]


class TestSeparation:
    def test_full_table_and_selection(self, setup):
        code = main(
            base_args(setup, "separation")
            + ["--group-a", "pos", "--group-b", "neg", "--top-m", "2"]
        )
        assert code == 0
        stem = os.path.join(setup["out"], "separation_pos_vs_neg")
        _, header, rows = read_tsv(stem + ".tsv")
        assert len(rows) == 4
        doc = json.loads(open(stem + ".json").read())
        assert len(doc["rank_sum_selection"]) == 2
        content = open(stem + ".svg", encoding="utf-8").read()
        assert "bias separation" in content

    def test_every_cell_parses_as_a_number(self, setup):
        code = main(base_args(setup, "separation") + ["--group-a", "pos", "--group-b", "neg"])
        assert code == 0
        _, header, rows = read_tsv(os.path.join(setup["out"], "separation_pos_vs_neg.tsv"))
        for row in rows:
            for column in header[1:]:
                float(row[column])

    @pytest.mark.parametrize("vectors", [
        ("0.6 0.3 0.2", "-0.4 0.5 0.1"),
        ("-0.4 0.5 0.1", "0.6 0.3 0.2"),
    ])
    def test_chart_bolds_a_pole_that_holds_the_id_separator(self, setup, vectors):
        """The pair ``well--known TAB obscure`` has the id
        ``well--known--obscure``; its label bolds one of its two poles
        whole, by the rule of the TSV's numbers."""
        minus, plus = vectors
        emb = setup["tmp"] / "poles.txt"
        emb.write_text(EMBEDDINGS + f"well--known {minus}\nobscure {plus}\n", encoding="utf-8")
        pairs = setup["tmp"] / "poles.tsv"
        pairs.write_text(PAIRS + "well--known\tobscure\n", encoding="utf-8")
        s = {**setup, "emb": str(emb), "pairs": str(pairs)}
        assert main(base_args(s, "separation") + ["--group-a", "pos", "--group-b", "neg"]) == 0
        stem = os.path.join(setup["out"], "separation_pos_vs_neg")
        _, _, rows = read_tsv(stem + ".tsv")
        (row,) = [r for r in rows if r["frame_id"] == "well--known--obscure"]
        di = float(row["delta_intensity"])
        assert abs(di) > 1e-12  # not balanced: a pole is bold
        bias = float(row["bias_a"] if di > 0 else row["bias_b"])
        parts = ("well--known--", "obscure", "") if bias >= 0 else ("", "well--known", "--obscure")
        root = ET.parse(stem + ".svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        (label,) = [t for t in root.iter(f"{ns}text") if "obscure" in "".join(t.itertext())]
        bold, sup = label.findall(f"{ns}tspan")
        assert bold.get("font-weight") == "bold"
        assert (label.text or "", bold.text, sup.tail or "") == parts

    def test_identical_groups_are_a_usage_error(self, setup, capsys, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("input read before the groups were checked")

        monkeypatch.setattr(cli, "read_jsonl", unread)
        code = main(
            base_args(setup, "separation") + ["--group-a", "pos", "--group-b", "pos"]
        )
        assert code == 1
        assert "--group-a and --group-b must differ, both are 'pos'" in capsys.readouterr().err
        assert not os.path.exists(setup["out"])

    def test_empty_group_fails(self, setup, capsys):
        code = main(
            base_args(setup, "separation") + ["--group-a", "pos", "--group-b", "zzz"]
        )
        assert code == 2


class TestEmptyGroupViews:
    """A group with no countable token names itself in the error."""

    @pytest.mark.parametrize("command, extra", [
        ("analyze", ["--group", "o", "--n-bootstrap", "5"]),
        ("shifts", ["--group", "o", "--frame", "bad--good"]),
        ("separation", ["--group-a", "o", "--group-b", "neg"]),
        ("separation", ["--group-a", "pos", "--group-b", "o"]),
    ])
    def test_out_of_vocabulary_group(self, setup, capsys, command, extra):
        args = base_args(with_corpus(setup, DOCS + [OOV_DOC]), command) + extra
        assert main(args) == 2
        assert ("empty corpus view: no countable token in documents labeled 'o'"
                in capsys.readouterr().err)

    def test_masked_group(self, setup, capsys):
        topics = setup["tmp"] / "topics.txt"
        topics.write_text("\n".join(d["text"] for d in DOCS if d["group"] == "pos"),
                          encoding="utf-8")
        args = base_args(setup, "analyze") + [
            "--group", "pos", "--n-bootstrap", "5", "--topic-words", str(topics)]
        assert main(args) == 2
        assert ("empty corpus view: no countable token in documents labeled 'pos'"
                in capsys.readouterr().err)


class TestContributionsOncePerCommand:
    """A command reads the full view's vocabulary once for its observed
    statistics, in one pass over the unit slices, and a null swept in
    analyze sweeps once per batch of bootstrap draws; every narrower
    document set is a count vector."""

    @pytest.mark.parametrize("command, extra", [
        ("shifts", ["--group", "pos", "--frame", "bad--good", "--kind", "intensity"]),
        ("spectrum", ["--frame", "bad--good"]),
        ("map", ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "1"]),
    ])
    def test_one_frame_sweeps_the_unit_slices_once(self, setup, monkeypatch, command, extra):
        """A one-frame command forms its V cosines in one pass over the unit
        slices of the full view's vocabulary, and neither gathers V×d unit
        rows nor takes a multi-frame pass."""
        corpus = write_unit_corpus(setup["tmp"])
        sweeps = []
        unit_slices = EmbeddingTable.unit_slices

        def counted_unit_slices(table, tokens, out=None):
            spans = []
            sweeps.append((tokens, spans))
            for start, part in unit_slices(table, tokens, out):
                spans.append((start, len(part)))
                yield start, part

        def forbidden(*args):
            raise AssertionError("a one-frame command forms V×d unit rows or a multi-frame pass")

        monkeypatch.setattr(EmbeddingTable, "unit_slices", counted_unit_slices)
        monkeypatch.setattr(EmbeddingTable, "unit_rows", forbidden)
        monkeypatch.setattr(engine, "_moments", forbidden)
        monkeypatch.setattr(engine, "_sweep_null", forbidden)
        monkeypatch.setattr(embeddings, "_CHUNK_COMPONENTS", 6)  # two rows of d=3 a slice
        args = base_args({**setup, "corpus": str(corpus)}, command)
        assert main(args + extra + ["--formats", "tsv"]) == 0
        if command == "map":
            _, _, rows = read_tsv(os.path.join(setup["out"], "map_bad--good.tsv"))
            assert len(rows) >= 3
        # every table word occurs in the unit corpus
        vocabulary = sorted(line.split()[0] for line in EMBEDDINGS.splitlines())
        assert [tokens for tokens, _ in sweeps] == [vocabulary]
        assert sweeps[0][1] == [(start, min(2, 13 - start)) for start in range(0, 13, 2)]

    @staticmethod
    def _all_pairs(setup):
        """Every pair of the 13 fixture words, 78 frames in two blocks, over
        a vocabulary of 40 words of d=3: the unit corpus plus 27 more words,
        each in the table and in one document of each group. Returns the
        setup and the sorted vocabulary."""
        words = [line.split()[0] for line in EMBEDDINGS.splitlines()]
        more = [f"x{i:02d}" for i in range(27)]
        emb = setup["tmp"] / "wide.txt"
        emb.write_text(EMBEDDINGS + "".join(
            f"{w} {math.cos(i):.4f} {math.sin(i):.4f} {0.05 * i:.4f}\n"
            for i, w in enumerate(more)), encoding="utf-8")
        pairs = setup["tmp"] / "all_pairs.tsv"
        pairs.write_text("".join(f"{a}\t{b}\n" for i, a in enumerate(words)
                                 for b in words[i + 1:]), encoding="utf-8")
        docs = UNIT_DOCS + [{"id": f"more-{g}", "text": " ".join(more), "group": g}
                            for g in ("pos", "neg")]
        wide = {**with_corpus(setup, docs), "emb": str(emb), "pairs": str(pairs)}
        return wide, sorted(words + more)

    @pytest.mark.parametrize("command, extra, wide", [
        ("separation", ["--group-a", "pos", "--group-b", "neg"], True),
        ("analyze", ["--group", "pos", "--n-bootstrap", "2"], True),
        ("separation", ["--group-a", "pos", "--group-b", "neg"], False),
    ])
    def test_axis_space_makes_one_pass_over_the_unit_slices(
        self, setup, monkeypatch, command, extra, wide
    ):
        """Over 78 frames and 40 words of d=3, separation's three count
        vectors and analyze's two with a two-sample null, and over the 4
        frames and 13 words of the unit corpus separation's three, take the
        axis-space path: one pass over the unit slices of the full
        vocabulary, no V×d unit rows and no sweep."""
        calls = []
        unit_slices = EmbeddingTable.unit_slices

        def counted_unit_slices(table, tokens, out=None):
            calls.append(tokens)
            yield from unit_slices(table, tokens, out)

        def forbidden(*args):
            raise AssertionError("the axis-space path forms V×d unit rows or sweeps")

        monkeypatch.setattr(EmbeddingTable, "unit_slices", counted_unit_slices)
        monkeypatch.setattr(EmbeddingTable, "unit_rows", forbidden)
        monkeypatch.setattr(engine, "_sweep_null", forbidden)
        monkeypatch.setattr(engine, "_MOMENT_ROWS", 2)
        if wide:
            data, vocabulary = self._all_pairs(setup)
        else:
            data = {**setup, "corpus": str(write_unit_corpus(setup["tmp"]))}
            vocabulary = sorted(line.split()[0] for line in EMBEDDINGS.splitlines())
        assert main(base_args(data, command) + extra + ["--formats", "tsv"]) == 0
        assert calls == [vocabulary[start:start + 2]
                         for start in range(0, len(vocabulary), 2)]

    def test_a_null_above_the_switch_walks_the_vocabulary_once_per_batch(
        self, setup, monkeypatch
    ):
        """analyze with more samples than the axis-space path pays for: the
        observed statistics make one axis-space pass, and the null walks
        the unit slices of the vocabulary once per batch of draws; no V×d
        unit rows are gathered."""
        moment_passes, walks = [], []
        moments, vocabulary_slices = engine._moments, engine._vocabulary_slices

        def counted_moments(table, tokens, weights):
            moment_passes.append(len(weights))
            return moments(table, tokens, weights)

        def counted_vocabulary_slices(table, tokens):
            spans = []
            walks.append(spans)
            for start, part in vocabulary_slices(table, tokens):
                spans.append((start, len(part)))
                yield start, part

        def forbidden(*args):
            raise AssertionError("the sweep gathered V×d unit rows")

        monkeypatch.setattr(engine, "_moments", counted_moments)
        monkeypatch.setattr(engine, "_vocabulary_slices", counted_vocabulary_slices)
        monkeypatch.setattr(EmbeddingTable, "unit_rows", forbidden)
        monkeypatch.setattr(engine, "_MOMENT_ROWS", 16)
        n = engine._BOOTSTRAP_BATCH + 1
        wide, vocabulary = self._all_pairs(setup)
        args = base_args(wide, "analyze")
        assert main(args + ["--group", "pos", "--n-bootstrap", str(n), "--formats", "tsv"]) == 0
        assert moment_passes == [2]
        # the moment pass, then one walk per batch of draws
        assert walks == [[(0, 16), (16, 16), (32, 8)]] * 3
        assert len(vocabulary) == 40


class TestGroupViewsOnly:
    """A command counts only the document sets it uses: analyze and
    separation build their labeled groups' views and no background."""

    @pytest.mark.parametrize("command, extra, n_views", [
        ("analyze", ["--group", "pos", "--n-bootstrap", "5"], 1),
        ("separation", ["--group-a", "pos", "--group-b", "neg"], 2),
        ("shifts", ["--group", "pos", "--frame", "bad--good"], 2),
    ])
    def test_subviews_built(self, setup, monkeypatch, command, extra, n_views):
        built = []
        subview = corpus._subview

        def counted_subview(view, in_docs):
            built.append(int(in_docs.sum()))
            return subview(view, in_docs)

        monkeypatch.setattr(corpus, "_subview", counted_subview)
        assert main(base_args(setup, command) + extra + ["--formats", "tsv"]) == 0
        assert built == [3] * n_views  # three documents in each group


class TestRelevance:
    def test_embedding_method_ranks_related_frame_first(self, setup):
        code = main(
            [
                "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                "--topics", "waiter", "--out", setup["out"], "--seed", "1",
            ]
        )
        assert code == 0
        prov, header, rows = read_tsv(
            os.path.join(setup["out"], "relevance_embedding.tsv")
        )
        assert prov["score_convention"] == "higher_is_more_relevant"
        assert header == ["rank", "frame_id", "score", "method"]
        assert len(rows) == 4
        scores = [float(r["score"]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_default_method_is_embedding(self, setup):
        code = main(
            [
                "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                "--topics", "meal", "--out", setup["out"],
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(setup["out"], "relevance_embedding.tsv"))

    def test_perplexity_method_needs_corpus(self, setup, capsys):
        code = main(
            [
                "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                "--topics", "meal", "--method", "perplexity", "--out", setup["out"],
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--corpus" in err
        assert "embeddings:" not in err  # checked before any input is read

    def test_perplexity_corpus_errors_name_the_read_stage(self, setup, capsys):
        bad = setup["tmp"] / "scalar.jsonl"
        bad.write_text(json.dumps(DOCS[0]) + "\n5\n", encoding="utf-8")
        code = main(
            [
                "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                "--corpus", str(bad), "--topics", "meal", "--method", "perplexity",
                "--out", setup["out"],
            ]
        )
        assert code == 2
        assert "error [read corpus]" in capsys.readouterr().err

    def test_perplexity_method_end_to_end(self, setup):
        code = main(
            [
                "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                "--corpus", setup["corpus"], "--topics", "meal",
                "--method", "perplexity", "--out", setup["out"],
            ]
        )
        assert code == 0
        prov, _, rows = read_tsv(os.path.join(setup["out"], "relevance_perplexity.tsv"))
        assert prov["score_convention"] == "lower_is_more_relevant"
        scores = [float(r["score"]) for r in rows]
        assert scores == sorted(scores)

    def test_inline_topics_are_normalized_like_a_topic_words_file(self, setup):
        words = setup["tmp"] / "topics.txt"
        words.write_text("Waiter\nMEAL!\n", encoding="utf-8")
        resolved = []
        for source in (["--topics", "Waiter, MEAL!"], ["--topic-words", str(words)]):
            code = main(
                [
                    "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                    *source, "--out", setup["out"], "--formats", "json",
                ]
            )
            assert code == 0
            with open(os.path.join(setup["out"], "relevance_embedding.json"),
                      encoding="utf-8") as fh:
                resolved.append(json.load(fh)["topic_words"])
        assert resolved == [["meal", "waiter"]] * 2

    def test_inline_topics_keep_their_case_under_keep_case(self, setup, capsys):
        code = main(
            [
                "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                "--topics", "WAITER", "--keep-case", "--out", setup["out"],
            ]
        )
        assert code == 2
        assert "['WAITER']" in capsys.readouterr().err

    def test_unresolvable_topics_fail(self, setup, capsys):
        code = main(
            [
                "relevance", "--embeddings", setup["emb"], "--pairs", setup["pairs"],
                "--topics", "qqqq", "--out", setup["out"],
            ]
        )
        assert code == 2


class TestFramesBuild:
    def test_registry_audit(self, setup):
        code = main(
            [
                "frames", "build", "--embeddings", setup["emb"],
                "--pairs", setup["pairs"], "--out", setup["out"],
            ]
        )
        assert code == 0
        text = open(os.path.join(setup["out"], "registry.json"), encoding="utf-8").read()
        doc = json.loads(text)
        assert [f["id"] for f in doc["frames"]] == [
            "bad--good", "awful--great", "stale--fresh", "slow--fast"
        ]
        assert doc["dropped"] == []
        assert text == json.dumps(doc, indent=2) + "\n"


    def test_duplicate_frame_id_names_its_lines_before_the_load(self, setup, capsys):
        pairs = setup["tmp"] / "dup_pairs.tsv"
        pairs.write_text("# lexicon\nbad\tgood\nslow\tfast\nbad\tgood\n", encoding="utf-8")
        code = main(["frames", "build", "--embeddings", setup["emb"],
                     "--pairs", str(pairs), "--out", setup["out"]])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{pairs}:4: duplicate frame id 'bad--good' (first on line 2)" in err
        assert "embeddings:" not in err  # the table was never loaded


#: reader -> (file bytes, the line with a byte that is not UTF-8, exit code)
BAD_UTF8 = {
    "emb": (EMBEDDINGS.encode() + "caf\u00e9 1 2 3\n".encode() + b"x\xff 1 2 3\n", 15, 2),
    "corpus": ("\n".join(json.dumps(d, ensure_ascii=False) for d in DOCS[:2] + [
        {"id": "z", "text": "caf\u00e9"}]).encode() + b'\n{"id": "y", "text": "\xff"}\n', 4, 2),
    "pairs": (PAIRS.encode() + b"aw\xfful\tgreat\n", 5, 2),
    "topic-words": ("caf\u00e9\n".encode() + b"me\xe9al\n", 2, 2),
    "templates": ("{topic} is {pole} \u00e9\n".encode() + b"{topic} \xc3 {pole}\n", 2, 2),
    "config": ("# caf\u00e9\n".encode() + b"seed = 3 # \xff\n", 2, 1),
}


class TestInvalidUtf8:
    """A byte that is not UTF-8 names its file and line: exit 2 for data, 1 for
    the config file. A valid non-ASCII line before it is read as usual."""

    @pytest.mark.parametrize("reader", list(BAD_UTF8))
    def test_reader_names_the_line(self, setup, capsys, reader):
        content, line, code = BAD_UTF8[reader]
        path = setup["tmp"] / f"bad_{reader}"
        path.write_bytes(content)
        inputs = {**setup, reader: str(path)}
        args = base_args(inputs, "analyze") + ["--group", "pos", "--n-bootstrap", "5"]
        if reader in ("topic-words", "config"):
            args += [f"--{reader}", str(path)]
        elif reader == "templates":
            args = base_args(inputs, "relevance") + [
                "--topics", "meal", "--method", "perplexity", "--templates", str(path)]
        assert main(args) == code
        assert f"{path}:{line}: not valid UTF-8" in capsys.readouterr().err


#: reader -> its content in the fixture, or a file that changes the reports
#: when its first record is read
BOM_READERS = {
    "emb": EMBEDDINGS,
    "corpus": "\n".join(json.dumps(d) for d in DOCS) + "\n",
    "pairs": PAIRS,
    "topic-words": "meal\nthe\n",
    "templates": "{topic} are {pole}.\n{topic} is {pole}.\n",
    "config": "seed = 3\nn_bootstrap = 12\n",
}


class TestByteOrderMark:
    """One UTF-8 byte order mark at the start of any input is skipped: the
    reports equal those of the same file without it."""

    @staticmethod
    def _reports(setup, reader, path):
        inputs = {**setup, reader: str(path), "out": str(setup["tmp"] / f"out_{path.name}")}
        args = base_args(inputs, "analyze") + ["--group", "pos", "--n-bootstrap", "5"]
        if reader in ("topic-words", "config"):
            args += [f"--{reader}", str(path)]
        elif reader == "templates":
            args = base_args(inputs, "relevance") + [
                "--topics", "meal", "--method", "perplexity", "--templates", str(path)]
        if reader == "config":
            args.remove("--seed")
            args.remove("7")
        assert main(args + ["--formats", "tsv"]) == 0
        (name,) = os.listdir(inputs["out"])
        text = open(os.path.join(inputs["out"], name), encoding="utf-8").read()
        return text.split("\n", 1)[1]  # without the provenance line, which names the inputs

    @pytest.mark.parametrize("reader", list(BOM_READERS))
    def test_reader_skips_a_leading_mark(self, setup, reader):
        plain = setup["tmp"] / f"plain_{reader}"
        plain.write_text(BOM_READERS[reader], encoding="utf-8")
        marked = setup["tmp"] / f"marked_{reader}"
        marked.write_bytes(b"\xef\xbb\xbf" + BOM_READERS[reader].encode("utf-8"))
        assert self._reports(setup, reader, marked) == self._reports(setup, reader, plain)


class TestConfigPrecedence:
    def test_file_then_flags(self, setup):
        cfg = setup["tmp"] / "run.cfg"
        cfg.write_text(
            f"embeddings = {setup['emb']}\n"
            f"pairs = {setup['pairs']}\n"
            f"corpus = {setup['corpus']}\n"
            "group = pos\n"
            "n_bootstrap = 30\n"
            "seed = 3\n"
            f"out = {setup['out']}\n",
            encoding="utf-8",
        )
        code = main(["analyze", "--config", str(cfg), "--seed", "9"])
        assert code == 0
        prov, _, _ = read_tsv(os.path.join(setup["out"], "results.tsv"))
        assert prov["config"]["seed"] == 9  # flag wins
        assert prov["config"]["n_bootstrap"] == 30  # file fills the rest

    def test_unknown_config_key(self, setup, capsys):
        cfg = setup["tmp"] / "run.cfg"
        cfg.write_text("frobnicate = 1\n", encoding="utf-8")
        code = main(["analyze", "--config", str(cfg), "--group", "pos"])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_env_var_supplies_embeddings(self, setup, monkeypatch):
        monkeypatch.setenv("FRAMELENS_EMBEDDINGS", setup["emb"])
        code = main(
            [
                "frames", "build", "--pairs", setup["pairs"], "--out", setup["out"],
            ]
        )
        assert code == 0


#: command and its flags -> a config line whose value is not of its key's type,
#: and the message that names it
BAD_CONFIG_VALUES = [
    (("analyze", "--group", "pos"), "seed = 1.5", "seed: expected an integer, got '1.5'"),
    (("analyze", "--group", "pos"), 'alpha = "0.1"', "alpha: expected a number, got '\"0.1\"'"),
    (("map", "--frame", "bad--good", "--unit", "outlet"), 'min_docs = "3"',
     "min_docs: expected an integer"),
    (("shifts", "--group", "pos", "--frame", "bad--good"), "k = 2.5",
     "k: expected an integer, got '2.5'"),
    (("spectrum", "--frame", "bad--good"), "keep_case = maybe",
     "keep_case: expected true, yes, false or no, got 'maybe'"),
]


class TestConfigValues:
    """A config value is read as the type of its key's RunConfig field."""

    @pytest.mark.parametrize("command, line, message", BAD_CONFIG_VALUES)
    def test_wrong_type_is_usage_error_naming_the_line(
        self, setup, capsys, command, line, message
    ):
        cfg = setup["tmp"] / "run.cfg"
        cfg.write_text(f"# typed values\nout = {setup['out']}\n{line}\n", encoding="utf-8")
        args = base_args(setup, command[0]) + list(command[1:]) + ["--config", str(cfg)]
        assert main(args) == 1
        assert f"{cfg}:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "seed: --seed must be >= 0, got -1"),
        ("n_bootstrap = 0", "n_bootstrap: --n-bootstrap must be >= 1, got 0"),
        ("alpha = 1.5", "alpha: --alpha must be in (0, 1), got 1.5"),
        ("kind = sideways", "kind: --kind must be one of ('bias', 'intensity'), got 'sideways'"),
        ("method = guess", "method: --method must be one of ('embedding', 'perplexity')"),
        ("bootstrap_unit = word", "bootstrap_unit: --bootstrap-unit must be one of"),
        ("top_m = 0", "top_m: --top-m must be >= 1"),
        ("k = 0", "k: --k must be >= 1"),
        ("min_docs = 0", "min_docs: --min-docs must be >= 1"),
        ("workers = 0", "workers: --workers must be >= 1"),
        ("formats = 5", "formats: --formats: unknown format(s) ['5']"),
    ])
    def test_out_of_range_value_names_its_line(self, setup, capsys, line, message):
        cfg = setup["tmp"] / "run.cfg"
        cfg.write_text(f"# checked values\nout = {setup['out']}\n{line}\n", encoding="utf-8")
        args = [a for a in base_args(setup, "analyze") if a not in ("--seed", "7")]
        assert main(args + ["--group", "pos", "--config", str(cfg)]) == 1
        assert f"usage error: {cfg}:3: {message}" in capsys.readouterr().err

    def test_equal_groups_name_the_line_that_set_them(self, setup, capsys):
        cfg = setup["tmp"] / "run.cfg"
        cfg.write_text("# groups\ngroup_a = pos\ngroup_b = pos\n", encoding="utf-8")
        assert main(base_args(setup, "separation") + ["--config", str(cfg)]) == 1
        assert (
            f"usage error: {cfg}:3: group_b: --group-a and --group-b must differ, both are 'pos'"
            in capsys.readouterr().err
        )

    def test_a_number_for_a_string_key_is_that_string(self, setup, capsys):
        cfg = setup["tmp"] / "run.cfg"
        cfg.write_text("formats = 5\n", encoding="utf-8")
        assert main(base_args(setup, "spectrum") + ["--frame", "bad--good",
                                                     "--config", str(cfg)]) == 1
        assert "--formats: unknown format(s) ['5']" in capsys.readouterr().err

    def test_group_label_that_looks_like_a_number(self, setup):
        corpus = setup["tmp"] / "numbered.jsonl"
        docs = [{**d, "group": 1 if d["group"] == "pos" else 2} for d in DOCS]
        corpus.write_text("\n".join(json.dumps(d) for d in docs) + "\n", encoding="utf-8")
        cfg = setup["tmp"] / "run.cfg"
        cfg.write_text("group = 1\nkeep_case = no\n", encoding="utf-8")
        args = base_args({**setup, "corpus": str(corpus)}, "shifts") + [
            "--frame", "bad--good", "--config", str(cfg), "--formats", "tsv"]
        assert main(args) == 0
        prov, _, rows = read_tsv(os.path.join(setup["out"], "shifts_bad--good_bias.tsv"))
        assert prov["config"]["group"] == "1" and prov["config"]["keep_case"] is False
        assert rows

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_is_usage_error(self, setup, capsys, where):
        args = base_args(setup, "analyze") + ["--group", "pos", "--n-bootstrap", "5"]
        if where == "flag":
            args += ["--seed", "-1"]
        else:
            cfg = setup["tmp"] / "run.cfg"
            cfg.write_text("seed = -1\n", encoding="utf-8")
            args = [a for a in args if a not in ("--seed", "7")] + ["--config", str(cfg)]
        assert main(args) == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    def test_config_keys_are_the_flags(self):
        """Every RunConfig field but the command is a flag of some subcommand,
        and every flag but --config (and argparse's own) is a config key."""

        def dests(parser):
            out = set()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        out |= dests(sub)
                elif action.option_strings:
                    out.add(action.dest)
            return out

        flags = dests(cli.build_parser()) - {"config", "help", "version"}
        assert flags == {f.name for f in fields(cli.RunConfig)} - {"command"}


@pytest.mark.parametrize("template", ["{topic} is {pole} {x}", "{0} is {topic} {pole}",
                                      "{topic} is } {pole}"])
def test_template_fields_are_topic_and_pole_only(setup, capsys, template):
    path = setup["tmp"] / "templates.txt"
    path.write_text(f"{{topic}} is {{pole}}.\n{template}\n", encoding="utf-8")
    args = base_args(setup, "relevance") + [
        "--topics", "meal", "--method", "perplexity", "--templates", str(path)]
    assert main(args) == 2
    assert f"{path}:2: " in capsys.readouterr().err


class TestFormats:
    def test_tsv_only(self, setup):
        code = main(
            base_args(setup, "shifts")
            + ["--group", "pos", "--frame", "bad--good", "--formats", "tsv"]
        )
        assert code == 0
        assert os.path.exists(os.path.join(setup["out"], "shifts_bad--good_bias.tsv"))
        assert not os.path.exists(os.path.join(setup["out"], "shifts_bad--good_bias.svg"))

    def test_svg_implies_tsv(self, setup):
        code = main(
            base_args(setup, "spectrum")
            + ["--frame", "bad--good", "--formats", "svg"]
        )
        assert code == 0
        assert os.path.exists(os.path.join(setup["out"], "spectrum_bad--good.svg"))
        assert os.path.exists(os.path.join(setup["out"], "spectrum_bad--good.tsv"))

    def test_unknown_format_rejected(self, setup, capsys):
        code = main(base_args(setup, "analyze") + ["--group", "pos", "--formats", "pdf"])
        assert code == 1
        assert "unknown format" in capsys.readouterr().err

    def test_analyze_needs_a_tabular_format(self, setup, capsys):
        code = main(base_args(setup, "analyze") + ["--group", "pos", "--formats", ""])
        assert code == 1

    @pytest.mark.parametrize("formats", ["tsv,json,svg", "tsv,json", "tsv", "json", "svg", ""])
    @pytest.mark.parametrize("command, extra", EVERY_COMMAND)
    def test_writes_exactly_the_selected_formats_it_produces(
        self, setup, capsys, command, extra, formats
    ):
        stem, produced = WRITES[command]
        chosen = set(formats.split(",")) | ({"tsv"} if "svg" in formats else set())
        expected = [f"{stem}.{ext}" for ext in produced if ext in chosen]
        args = command.split() + base_args(setup, command)[1:] + extra + ["--formats", formats]
        code = main(args)
        err = capsys.readouterr().err
        if expected:
            assert code == 0
            assert sorted(os.listdir(setup["out"])) == sorted(expected)
            assert err.splitlines()[-1] == f"wrote {', '.join(expected)} in {setup['out']}"
        else:
            assert code == 1
            assert "none selected in --formats" in err
            assert "embeddings:" not in err  # rejected before any input is read
            assert not os.path.exists(setup["out"])


class TestReportFileNames:
    @pytest.mark.parametrize(
        "command, extra, stem",
        [
            ("shifts", ["--group", "pos/+", "--frame", "bad--w/x"], "shifts_bad--w%2Fx_bias"),
            ("spectrum", ["--frame", "bad--w/x"], "spectrum_bad--w%2Fx"),
            ("map", ["--frame", "bad--w/x", "--unit", "outlet", "--min-docs", "1"],
             "map_bad--w%2Fx"),
            ("separation", ["--group-a", "pos/+", "--group-b", "50% n\u00e9g"],
             "separation_pos%2F%2B_vs_50%25%20n%C3%A9g"),
        ],
    )
    def test_ids_and_labels_are_escaped(self, setup, command, extra, stem):
        with open(setup["emb"], "a", encoding="utf-8") as fh:
            fh.write("w/x 0.4 -0.6 0.3\n")
        with open(setup["pairs"], "a", encoding="utf-8") as fh:
            fh.write("bad\tw/x\n")
        relabel = {"pos": "pos/+", "neg": "50% n\u00e9g"}
        docs = [{**d, "group": relabel[d["group"]]} for d in DOCS]
        Path(setup["corpus"]).write_text(
            "\n".join(json.dumps(d) for d in docs) + "\n", encoding="utf-8"
        )
        assert main(base_args(setup, command) + extra) == 0
        names = os.listdir(setup["out"])
        assert names and {os.path.splitext(n)[0] for n in names} == {stem}


class TestExitCodes:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_version_exits_zero(self):
        assert main(["--version"]) == 0

    def test_no_command_is_usage(self, capsys):
        assert main([]) == 1

    def test_progress_goes_to_stderr_only(self, setup, capsys):
        main(base_args(setup, "analyze") + ["--group", "pos", "--n-bootstrap", "20"])
        out = capsys.readouterr()
        assert out.out == ""
        assert "analyze" in out.err


@pytest.fixture(scope="module")
def perfbench_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


class TestTracedLayers:
    """`perfbench/run.py --trace 1` times each layer by wrapping the names
    `framelens.cli` calls (and `framelens.svg.chart_*`). A CLI that stopped
    calling through them would move report and chart time into `cli.self_s`
    without failing anything else."""

    def test_every_traced_name_resolves(self, perfbench_spans):
        for names in perfbench_spans.CLI_CALLS.values():
            for name in names:
                assert callable(getattr(cli, name, None)), name
        for name in perfbench_spans.SVG_CHARTS:
            assert callable(getattr(svg, name, None)), name

    @pytest.mark.parametrize("command, extra", EVERY_COMMAND)
    def test_report_writes_and_charts_are_traced(self, setup, perfbench_spans, command, extra):
        spans = perfbench_spans
        tracer = spans.Tracer()
        with spans.instrument(tracer, cli, svg, embedding_lines=0):
            assert main(command.split() + base_args(setup, command)[1:] + extra) == 0
        names = {s.name for s in tracer.spans}
        assert {"embeddings.load", "frames.registry", "reports.write"} <= names
        wrote_svg = any(name.endswith(".svg") for name in os.listdir(setup["out"]))
        assert wrote_svg == ("svg" in WRITES[command][1])
        assert ("svg.render" in names) == wrote_svg
        metrics = spans.layer_metrics(spans.pass_spans(tracer, 0))
        assert metrics["reports.bytes"] > 0  # the writers got the report path first
        registry = build_registry(read_pairs_tsv(setup["pairs"]), load_embeddings(setup["emb"]))
        (built,) = [s.counts for s in tracer.spans if s.name == "frames.registry" and s.counts]
        assert built == {"kept_frames": len(registry), "dropped_frames": len(registry.dropped)}
        assert (metrics["frames.kept"], metrics["frames.dropped"]) == (4, 0)

    def test_separation_views_are_traced(self, setup, perfbench_spans):
        """Separation's full view comes from `build_view`, one `corpus.view`
        span that counts every token of the corpus once. Its group views
        come from `group_view`, which the traced names do not include, so
        their time counts as `cli.self_s`."""
        spans = perfbench_spans
        tracer = spans.Tracer()
        with spans.instrument(tracer, cli, svg, embedding_lines=0):
            args = base_args(setup, "separation") + ["--group-a", "pos", "--group-b", "neg"]
            assert main(args) == 0
        views = [s.counts for s in tracer.spans if s.name == "corpus.view"]
        docs = read_jsonl(setup["corpus"])
        table = load_embeddings(setup["emb"])
        counted = len(oracles.counted_stream(docs, table, set()))
        raw = sum(len(d.tokens) for d in docs)
        assert views == [{"counted": counted, "raw": raw}]
        metrics = spans.layer_metrics(spans.pass_spans(tracer, 0))
        assert metrics["corpus.counted_ratio"] == counted / raw


class TestTextReportsCannotHold:
    """Chart text that XML 1.0 cannot hold, and a lone surrogate from a JSON
    escape, are data errors (exit 2) that leave --out unwritten."""

    @pytest.mark.parametrize(
        "command, extra, change",
        [
            ("shifts", ["--group", "pos", "--frame", "bad--good"],
             {"id": "p1", "text": "The me\x01al was good"}),
            ("spectrum", ["--frame", "bad--good"], {"id": "n1", "group": "n\x01eg"}),
            ("map", ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "1"],
             {"id": "n1", "meta": {"outlet": "out\x01A"}}),
            ("separation", ["--group-a", "pos", "--group-b", "n\x0beg"],
             {"id": "n1", "group": "n\x0beg"}),
        ],
        ids=["shifts-token", "spectrum-group", "map-unit", "separation-group"],
    )
    def test_chart_text_xml_cannot_hold(self, setup, capsys, command, extra, change):
        emb = setup["tmp"] / "with_control.txt"
        emb.write_text(EMBEDDINGS + "me\x01al 0.9 0.9 0.9\n", encoding="utf-8")
        docs = [{**d, **change} if d["id"] == change["id"] else d for d in DOCS]
        inputs = {**with_corpus(setup, docs), "emb": str(emb)}
        assert main(base_args(inputs, command) + extra) == 2
        err = capsys.readouterr().err
        assert "error [write reports]: chart text" in err and "which XML cannot hold" in err
        assert not os.path.exists(setup["out"])

    def test_map_of_sixty_documents_with_a_control_character_in_half_the_units(
        self, setup, capsys
    ):
        texts = [d["text"] for d in DOCS]
        docs = [{"id": f"d{i}", "text": texts[i % len(texts)], "group": "pos" if i % 3 else "neg",
                 "meta": {"outlet": "out\u0001A" if i % 2 else "plain"}} for i in range(60)]
        args = base_args(with_corpus(setup, docs), "map")
        assert main(args + ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "5"]) == 2
        assert "'out\\x01A' holds '\\x01'" in capsys.readouterr().err
        assert not os.path.exists(setup["out"])
        # the same run without the chart writes its table
        assert main(args + ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "5",
                            "--formats", "tsv"]) == 0
        _, _, rows = read_tsv(os.path.join(setup["out"], "map_bad--good.tsv"))
        assert [r["unit"] for r in rows] == ["out\x01A", "plain"]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("shifts", ["--group", "pos", "--frame", "bad--good"]),
            ("spectrum", ["--frame", "bad--good"]),
            ("map", ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "1"]),
            ("analyze", ["--group", "pos", "--n-bootstrap", "5"]),
        ],
    )
    def test_lone_surrogate_names_its_line(self, setup, capsys, command, extra):
        lines = [json.dumps(d) for d in DOCS]
        lines[3] = lines[3].replace('"moon"', '"out\\ud800A"')
        corpus = setup["tmp"] / "surrogate.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(base_args({**setup, "corpus": str(corpus)}, command) + extra) == 2
        err = capsys.readouterr().err
        assert f"error [read corpus]: {corpus}:4: lone surrogate '\\ud800'" in err
        assert not os.path.exists(setup["out"])


def test_commands_build_no_result_rows(setup, monkeypatch):
    """analyze, separation and relevance hand their tables to the writers
    without one row object; asking a table for rows still builds them."""
    built = []
    for row in (engine.FramingResult, engine.SeparationResult, relevance.RelevanceScore):
        def counted(self, *args, _init=row.__init__, _name=row.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(row, "__init__", counted)
    for command, extra in EVERY_COMMAND:
        if command in ("analyze", "separation", "relevance"):
            assert main(base_args(setup, command) + extra) == 0
    assert built == []
    table = load_embeddings(setup["emb"])
    registry = build_registry(read_pairs_tsv(setup["pairs"]), table)
    full = corpus.build_view(read_jsonl(setup["corpus"]), table)
    results = engine.analyze_frames(full, corpus.group_view(full, "pos"), registry, table,
                                    n_bootstrap=20, seed=7)
    assert built == []
    assert results[0].p_bias == results.columns["p_bias"][0]
    first, *rest = results
    assert [r.frame_id for r in rest] == results.columns["frame_id"][1:]
    assert built == ["FramingResult"] * (1 + len(results))


def test_analyze_under_a_profiler_writes_the_same_reports(setup):
    """A profiler hook (cProfile, coverage.py, pdb use the same ones) changes
    neither the exit code nor a byte of the reports."""
    args = base_args(setup, "analyze") + ["--group", "pos", "--n-bootstrap", "20"]
    names = ("results.tsv", "results.json")

    def run():
        assert main(args) == 0
        return [Path(setup["out"], name).read_bytes() for name in names]

    expected = run()
    sys.setprofile(lambda *a: None)
    try:
        profiled = run()
    finally:
        sys.setprofile(None)
    assert profiled == expected
