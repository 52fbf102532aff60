import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from framelens import svg
from framelens.errors import DataError
from framelens.reports import Table

SVG_NS = "{http://www.w3.org/2000/svg}"


def table(rows: list[dict]) -> Table:
    """The table of rows that share one key order."""
    return Table({k: [r[k] for r in rows] for k in rows[0]} if rows else {})


def chart_separation(rows: list[dict], title: str) -> str:
    """The separation chart of `rows`, whose frame ids are their poles
    joined by the first ``--``."""
    poles = [r["frame_id"].partition("--") for r in rows]
    return svg.chart_separation(table(rows), title, [p[0] for p in poles], [p[2] for p in poles])


def parse(content: str) -> ET.Element:
    root = ET.fromstring(content)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("width") == "960" and root.get("height") == "540"
    return root


def test_shift_chart_structure():
    rows = [
        {"token": "delicious", "shift_target": 0.01, "shift_background": 0.002,
         "shift_delta": 0.008},
        {"token": "bland", "shift_target": -0.004, "shift_background": 0.001,
         "shift_delta": -0.005},
    ]
    content = svg.chart_shifts(table(rows), "demo shifts")
    root = parse(content)
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "delicious" in texts and "bland" in texts
    # 3 bars per token plus background and legend swatches
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    assert len(rects) >= 2 * 3


def test_shift_chart_empty():
    parse(svg.chart_shifts(table([]), "empty"))


def test_spectrum_chart_groups_and_means():
    rows = [
        {"doc_id": "a", "group": "pos", "doc_bias": 0.2},
        {"doc_id": "b", "group": "pos", "doc_bias": 0.4},
        {"doc_id": "c", "group": "neg", "doc_bias": -0.3},
        {"doc_id": "d", "group": None, "doc_bias": None},
    ]
    content = svg.chart_spectrum(table(rows), "demo spectrum", "bad", "good")
    parse(content)
    assert "pos mean 0.3" in content
    assert "neg mean -0.3" in content
    assert "toward bad" in content and "toward good" in content


def test_map_chart_units():
    rows = [
        {"unit": "sun", "group": "left", "n_docs": 30, "bias": 0.2, "intensity": 0.5},
        {"unit": "moon", "group": "right", "n_docs": 25, "bias": -0.1, "intensity": 0.8},
    ]
    content = svg.chart_map(table(rows), "demo map", "bad", "good")
    parse(content)
    assert "sun" in content and "moon" in content


def test_separation_chart_labels_best_frames():
    rows = []
    for i in range(10):
        rows.append(
            {
                "frame_id": f"neg{i}--pos{i}",
                "delta_bias": (i - 5) / 10.0,
                "delta_intensity": (5 - i) / 20.0,
                "bias_a": 0.1 if i % 2 == 0 else -0.1,
                "bias_b": -0.1,
            }
        )
    content = chart_separation(rows, "demo separation")
    parse(content)
    assert 'font-weight="bold"' in content
    assert 'baseline-shift="super"' in content


def test_separation_label_rule():
    # group A uses the frame more; its bias points at the positive pole
    prefix, bold, sup, suffix, color = svg._separation_label(0.5, 0.3, -0.2, "bad", "good")
    assert (prefix, bold, sup, suffix) == ("bad--", "good", "+", "")
    assert color == svg.COLOR_A
    # group B uses it more; B's bias points at the negative pole
    prefix, bold, sup, suffix, color = svg._separation_label(-0.5, 0.3, -0.2, "bad", "good")
    assert (prefix, bold, sup, suffix) == ("", "bad", "-", "--good")
    assert color == svg.COLOR_B
    # balanced within epsilon
    prefix, bold, sup, suffix, color = svg._separation_label(0.0, 0.3, -0.2, "bad", "good")
    assert (prefix, bold, sup, suffix) == ("bad--good (balanced)", "", "", "")
    assert color == svg.COLOR_NEUTRAL


def label_parts(content: str) -> tuple[str, str, str, str]:
    """(prefix, bold pole, superscript, suffix) of the one labeled point."""
    (label,) = [t for t in parse(content).iter(f"{SVG_NS}text") if t.find(f"{SVG_NS}tspan") is not None]
    bold, sup = label.findall(f"{SVG_NS}tspan")
    assert bold.get("font-weight") == "bold" and sup.get("baseline-shift") == "super"
    return label.text or "", bold.text, sup.text, sup.tail or ""


@pytest.mark.parametrize("delta_intensity, parts", [
    (0.5, ("well--known--", "obscure", "+", "")),  # group A, leaning plus
    (-0.5, ("", "well--known", "-", "--obscure")),  # group B, leaning minus
])
def test_separation_label_bolds_a_pole_that_holds_the_id_separator(delta_intensity, parts):
    seps = table([{"frame_id": "well--known--obscure", "delta_bias": 0.1,
                   "delta_intensity": delta_intensity, "bias_a": 0.3, "bias_b": -0.2}])
    assert label_parts(svg.chart_separation(seps, "t", ["well--known"], ["obscure"])) == parts


def test_group_color_assignment_is_stable():
    colors = svg.group_colors(["zeta", "alpha"])
    assert colors["alpha"] == svg.COLOR_A
    assert colors["zeta"] == svg.COLOR_B


# One fixed input per chart kind. Its labels hold every character the
# escaper rewrites (&, <, >), quotes it leaves alone, and non-ASCII text.
_LABELS = ("a&b", "x<y>z", "'q'", '"dq"', "café", "日本", "&amp;")


def _fixed_charts() -> dict[str, str]:
    shifts = [
        {"token": tok, "shift_target": 0.01 * (i - 3), "shift_background": 0.002 * i,
         "shift_delta": 0.003 * (3 - i)}
        for i, tok in enumerate(_LABELS)
    ]
    spectrum = [
        {"doc_id": f"d{i}", "group": _LABELS[i % 3], "doc_bias": (i - 4) / 9.0}
        for i in range(9)
    ] + [{"doc_id": "empty", "group": None, "doc_bias": None}]
    units = [
        {"unit": tok, "group": _LABELS[i % 2], "n_docs": 20 + i, "bias": (i - 3) / 7.0,
         "intensity": 0.1 + i / 10.0}
        for i, tok in enumerate(_LABELS)
    ]
    separation = [
        {"frame_id": f"{tok}--p{i}", "delta_bias": (i - 5) / 10.0,
         "delta_intensity": (i % 3 - 1) / 20.0, "bias_a": 0.1 if i % 2 else -0.1,
         "bias_b": -0.2 if i % 3 else 0.2}
        for i, tok in enumerate(_LABELS + ("n<1", "m>2", "k&3"))
    ]
    return {
        "shifts": svg.chart_shifts(table(shifts), "shifts & <title> 'q' \"dq\" é"),
        "spectrum": svg.chart_spectrum(table(spectrum), "spectrum é", "b&d", "g<o>od"),
        "map": svg.chart_map(table(units), "map 日本", "b&d", "g<o>od"),
        "separation": chart_separation(separation, "separation: a&b (A) vs <c> (B)"),
    }


#: SHA-256 of each chart of `_fixed_charts`, as drawn when the text escaper
#: was xml.sax.saxutils.escape.
FIXED_CHART_SHA256 = {
    "shifts": "7eed0dc2f306038f0b29992fd6d6a3fcf7514af32ae8f3bb62b8fa16422d9f4c",
    "spectrum": "95684d99067694faee2298975e67a3ddc29b441d09b3b15f76c9ef0027ae81ed",
    "map": "2d55f6b06c6fb52dc68b01a5844189505b1d35a8630de9600110fcf43c364d96",
    "separation": "b9f09318b8488a76ba11c7f87e5e0cc11877b6cf52aef36571d94a17163bedd3",
}


def test_fixed_charts_keep_their_bytes():
    charts = _fixed_charts()
    digests = {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in charts.items()}
    assert digests == FIXED_CHART_SHA256


def test_labels_with_markup_quotes_and_non_ascii_keep_their_text():
    charts = _fixed_charts()
    for content in charts.values():
        parse(content)
    texts = {kind: [t.text for t in parse(c).iter(f"{SVG_NS}text")] for kind, c in charts.items()}
    assert set(_LABELS) <= set(texts["shifts"])
    assert set(_LABELS) <= set(texts["map"])
    assert "shifts & <title> 'q' \"dq\" é" in texts["shifts"]
    assert "toward g<o>od" in texts["spectrum"] and "map 日本" in texts["map"]
    assert "separation: a&b (A) vs <c> (B)" in texts["separation"]


# Characters XML 1.0 cannot hold: C0 controls but TAB, LF and CR; U+FFFE,
# U+FFFF; surrogate code points.
_NOT_XML = [chr(c) for c in range(0x20) if c not in (0x09, 0x0A, 0x0D)] + [
    "\ufffe", "\uffff", "\ud800", "\udbff", "\udc00", "\udfff"]
_XML_TEXT = st.text(
    alphabet=st.characters(exclude_characters="".join(_NOT_XML), exclude_categories=("Cs",))
)


@given(_XML_TEXT)
@example("&amp;")
@example("a & b < c > d")
@example("'single' \"double\"")
@example("café 日本 😀 \t\n\r")
def test_escape_equals_saxutils_on_text_xml_can_hold(text):
    from xml.sax.saxutils import escape as sax_escape

    assert svg.escape(text) == sax_escape(text)


@pytest.mark.parametrize("char", _NOT_XML, ids=[f"U+{ord(c):04X}" for c in _NOT_XML])
def test_escape_refuses_what_xml_cannot_hold(char):
    with pytest.raises(DataError, match="which XML cannot hold") as info:
        svg.escape(f"out{char}A")
    assert repr(f"out{char}A") in str(info.value)


@pytest.mark.parametrize("kind", list(FIXED_CHART_SHA256))
@pytest.mark.parametrize("char", ["\x01", "\x00", "\uffff", "\ud800"])
def test_every_chart_refuses_a_label_xml_cannot_hold(kind, char):
    label = f"out{char}A"
    draw = {
        "shifts": lambda: svg.chart_shifts(table(
            [{"token": label, "shift_target": 0.1, "shift_background": 0.0,
              "shift_delta": 0.1}]), "t"),
        "spectrum": lambda: svg.chart_spectrum(table(
            [{"doc_id": "d", "group": label, "doc_bias": 0.1}]), "t", "bad", "good"),
        "map": lambda: svg.chart_map(table(
            [{"unit": label, "group": "g", "n_docs": 5, "bias": 0.1, "intensity": 0.2}]),
            "t", "bad", "good"),
        "separation": lambda: chart_separation(
            [{"frame_id": f"{label}--good", "delta_bias": 0.1, "delta_intensity": 0.2,
              "bias_a": 0.1, "bias_b": -0.1}], "t"),
    }[kind]
    with pytest.raises(DataError, match="which XML cannot hold"):
        draw()


#: Stdlib stacks that xml.sax.saxutils pulled in through urllib.request.
_HEAVY_MODULES = ("xml.sax", "urllib.request", "http.client", "email", "socket", "ssl")


def test_cli_and_svg_load_no_network_or_xml_stack():
    """A fresh interpreter's imports of the package, its CLI and its charts
    add none of the heavy modules. The baseline is a bare interpreter's
    modules, since `site` may preload some of them."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import sys; before = set(sys.modules); "
        "import framelens, framelens.cli, framelens.svg; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "framelens.svg" in out
    heavy = [m for m in out if any(m == h or m.startswith(f"{h}.") for h in _HEAVY_MODULES)]
    assert heavy == []
