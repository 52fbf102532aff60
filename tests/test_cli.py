import json
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from framelens.cli import main

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

    def test_deterministic_reports(self, setup):
        args = base_args(setup, "analyze") + ["--group", "pos", "--n-bootstrap", "40"]
        assert main(args) == 0
        first = open(os.path.join(setup["out"], "results.tsv"), "rb").read()
        first_json = open(os.path.join(setup["out"], "results.json"), "rb").read()
        assert main(args) == 0
        assert open(os.path.join(setup["out"], "results.tsv"), "rb").read() == first
        assert open(os.path.join(setup["out"], "results.json"), "rb").read() == first_json

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("shifts", ["--group", "pos", "--frame", "bad--good", "--kind", "intensity"]),
            ("spectrum", ["--frame", "bad--good"]),
            ("map", ["--frame", "bad--good", "--unit", "outlet", "--min-docs", "1"]),
            ("separation", ["--group-a", "pos", "--group-b", "neg"]),
            ("relevance", ["--topics", "waiter,meal"]),
            ("frames build", []),
        ],
    )
    def test_every_command_writes_identical_files_on_rerun(self, setup, command, extra):
        args = command.split() + base_args(setup, command)[1:] + extra

        def snapshot():
            return {p.name: p.read_bytes() for p in sorted(Path(setup["out"]).iterdir())}

        assert main(args) == 0
        first = snapshot()
        assert first
        assert main(args) == 0
        assert snapshot() == first

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

    def test_identical_groups_zero_deltas(self, setup):
        code = main(
            base_args(setup, "separation") + ["--group-a", "pos", "--group-b", "pos"]
        )
        assert code == 0
        _, _, rows = read_tsv(
            os.path.join(setup["out"], "separation_pos_vs_pos.tsv")
        )
        assert all(float(r["delta_bias"]) == 0.0 for r in rows)

    def test_empty_group_fails(self, setup, capsys):
        code = main(
            base_args(setup, "separation") + ["--group-a", "pos", "--group-b", "zzz"]
        )
        assert code == 2


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
        assert "--corpus" in capsys.readouterr().err

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
        doc = json.loads(open(os.path.join(setup["out"], "registry.json")).read())
        assert [f["id"] for f in doc["frames"]] == [
            "bad--good", "awful--great", "stale--fresh", "slow--fast"
        ]
        assert doc["dropped"] == []


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
