"""Self-contained SVG rendering for the report charts.

Every chart is drawn from the same row dictionaries that were written to
the accompanying TSV, so nothing in the picture goes beyond the table.
Canvas is fixed at 960x540. Group A is blue, group B red, neutral gray.
"""

from __future__ import annotations

import re

from .errors import DataError

WIDTH = 960
HEIGHT = 540
COLOR_A = "#1f77b4"
COLOR_B = "#d62728"
COLOR_NEUTRAL = "#7f7f7f"
_PALETTE = (COLOR_A, COLOR_B, COLOR_NEUTRAL, "#2ca02c", "#9467bd", "#8c564b")

_BALANCED_EPS = 1e-12  # |delta intensity| below this is neither side's frame

#: The characters XML 1.0 forbids in a document: C0 controls other than TAB,
#: LF and CR, U+FFFE, U+FFFF, and surrogate code points, which a JSON
#: ``\uD8xx`` escape without its pair puts in a Python string.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def escape(s: str) -> str:
    """`s` as XML character data: ``&`` first, then ``<`` and ``>``; quotes
    are left alone: the text ``xml.sax.saxutils.escape(s)`` gives, whose module
    would load ``urllib.request`` and with it the http, email, socket and ssl
    stacks into every CLI process.

    Raises DataError naming `s` when it holds a character XML cannot hold.
    """
    bad = _NOT_XML.search(s)
    if bad:
        raise DataError(f"chart text {s!r} holds {bad.group()!r}, which XML cannot hold")
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _lin(v: float, lo: float, hi: float, plo: float, phi: float) -> float:
    if hi == lo:
        return (plo + phi) / 2.0
    return plo + (v - lo) * (phi - plo) / (hi - lo)


def _pad_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def _text(x: float, y: float, s: str, *, size: int = 12, anchor: str = "start",
          color: str = "#000000", extra: str = "") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}" fill="{color}"{extra}>'
        f"{escape(s)}</text>"
    )


def _line(x1: float, y1: float, x2: float, y2: float, color: str, width: float = 1.0,
          opacity: float = 1.0) -> str:
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{color}" stroke-width="{width}" stroke-opacity="{opacity}"/>'
    )


def _rect(x: float, y: float, w: float, h: float, color: str, opacity: float = 1.0) -> str:
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
        f'fill="{color}" fill-opacity="{opacity}"/>'
    )


def _circle(x: float, y: float, r: float, color: str, opacity: float = 1.0,
            stroke: str = "none") -> str:
    return (
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}" fill="{color}" '
        f'fill-opacity="{opacity}" stroke="{stroke}"/>'
    )


def _document(elements: list[str]) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


def group_colors(groups: list[str]) -> dict[str, str]:
    """Stable group -> color assignment: sorted order over the palette."""
    return {g: _PALETTE[i % len(_PALETTE)] for i, g in enumerate(sorted(groups))}


def chart_shifts(rows: list[dict], title: str) -> str:
    """Horizontal bar diagram: per token, target / background / delta bars."""
    els: list[str] = [_text(20, 28, title, size=16)]
    legend = (("target", COLOR_A), ("background", COLOR_NEUTRAL), ("delta", COLOR_B))
    lx = 640
    for name, color in legend:
        els.append(_rect(lx, 16, 14, 14, color))
        els.append(_text(lx + 18, 28, name, size=12))
        lx += 110
    if not rows:
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no rows", anchor="middle"))
        return _document(els)
    x0, x1, y0, y1 = 180.0, 930.0, 60.0, 500.0
    values = [
        abs(v)
        for r in rows
        for v in (r["shift_target"], r["shift_background"], r["shift_delta"])
    ]
    vmax = max(values) or 1e-12
    lo, hi = -vmax * 1.05, vmax * 1.05
    zero_x = _lin(0.0, lo, hi, x0, x1)
    row_h = (y1 - y0) / len(rows)
    bar_h = min(row_h / 4.0, 14.0)
    for i, r in enumerate(rows):
        yc = y0 + (i + 0.5) * row_h
        els.append(_text(x0 - 10, yc + 4, r["token"], anchor="end"))
        series = (
            (r["shift_target"], COLOR_A, yc - 1.5 * bar_h),
            (r["shift_background"], COLOR_NEUTRAL, yc - 0.5 * bar_h),
            (r["shift_delta"], COLOR_B, yc + 0.5 * bar_h),
        )
        for value, color, ytop in series:
            vx = _lin(value, lo, hi, x0, x1)
            els.append(_rect(min(zero_x, vx), ytop, abs(vx - zero_x), bar_h, color, 0.9))
    els.append(_line(zero_x, y0, zero_x, y1, "#000000", 0.8))
    els.append(_line(x0, y1 + 4, x1, y1 + 4, "#000000", 0.8))
    for v in (lo, 0.0, hi):
        vx = _lin(v, lo, hi, x0, x1)
        els.append(_text(vx, y1 + 20, _fmt(v), anchor="middle", size=11))
    return _document(els)


def chart_spectrum(rows: list[dict], title: str, pole_minus: str, pole_plus: str) -> str:
    """Strip plot: one tick per document at its bias, thick tick per group mean."""
    els: list[str] = [_text(20, 28, title, size=16)]
    present = [r for r in rows if r["doc_bias"] is not None and r["doc_bias"] != ""]
    if not present:
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no scored documents", anchor="middle"))
        return _document(els)
    x0, x1 = 80.0, 910.0
    ymid = 280.0
    lo, hi = _pad_range([float(r["doc_bias"]) for r in present])
    groups = sorted({r["group"] or "" for r in present})
    colors = group_colors(groups)
    lx = 80.0
    for g in groups:
        els.append(_rect(lx, 44, 14, 14, colors[g]))
        els.append(_text(lx + 18, 56, g or "(no group)", size=12))
        lx += 160
    els.append(_line(x0, ymid, x1, ymid, "#cccccc", 1.0))
    for r in present:
        vx = _lin(float(r["doc_bias"]), lo, hi, x0, x1)
        els.append(_line(vx, ymid - 40, vx, ymid + 40, colors[r["group"] or ""], 1.0, 0.55))
    for g in groups:
        vals = [float(r["doc_bias"]) for r in present if (r["group"] or "") == g]
        mean = sum(vals) / len(vals)
        vx = _lin(mean, lo, hi, x0, x1)
        els.append(_line(vx, ymid - 70, vx, ymid + 70, colors[g], 5.0))
        els.append(_text(vx, ymid - 78, f"{g or 'all'} mean {_fmt(mean)}", anchor="middle", size=11))
    els.append(_line(x0, ymid + 90, x1, ymid + 90, "#000000", 0.8))
    for v in (lo, (lo + hi) / 2.0, hi):
        vx = _lin(v, lo, hi, x0, x1)
        els.append(_text(vx, ymid + 108, _fmt(v), anchor="middle", size=11))
    els.append(_text(x0, ymid + 130, f"toward {pole_minus}", size=12, color=COLOR_NEUTRAL))
    els.append(_text(x1, ymid + 130, f"toward {pole_plus}", anchor="end", size=12, color=COLOR_NEUTRAL))
    return _document(els)


def chart_map(rows: list[dict], title: str, pole_minus: str, pole_plus: str) -> str:
    """Scatter of units at (bias, intensity) with group mean markers."""
    els: list[str] = [_text(20, 28, title, size=16)]
    if not rows:
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no units", anchor="middle"))
        return _document(els)
    x0, x1, y0, y1 = 90.0, 910.0, 70.0, 480.0
    xlo, xhi = _pad_range([float(r["bias"]) for r in rows])
    ylo, yhi = _pad_range([float(r["intensity"]) for r in rows])
    groups = sorted({r["group"] or "" for r in rows})
    colors = group_colors(groups)
    lx = 90.0
    for g in groups:
        els.append(_rect(lx, 40, 14, 14, colors[g]))
        els.append(_text(lx + 18, 52, g or "(no group)", size=12))
        lx += 160
    if xlo < 0.0 < xhi:
        zx = _lin(0.0, xlo, xhi, x0, x1)
        els.append(_line(zx, y0, zx, y1, "#cccccc", 1.0))
    for r in rows:
        px = _lin(float(r["bias"]), xlo, xhi, x0, x1)
        py = _lin(float(r["intensity"]), ylo, yhi, y1, y0)
        els.append(_circle(px, py, 5, colors[r["group"] or ""], 0.75))
        els.append(_text(px + 7, py + 4, str(r["unit"]), size=9, color="#444444"))
    for g in groups:
        sub = [r for r in rows if (r["group"] or "") == g]
        mx = sum(float(r["bias"]) for r in sub) / len(sub)
        my = sum(float(r["intensity"]) for r in sub) / len(sub)
        px = _lin(mx, xlo, xhi, x0, x1)
        py = _lin(my, ylo, yhi, y1, y0)
        els.append(_circle(px, py, 9, colors[g], 0.95, stroke="#000000"))
    els.append(_line(x0, y1, x1, y1, "#000000", 0.8))
    els.append(_line(x0, y0, x0, y1, "#000000", 0.8))
    for v in (xlo, (xlo + xhi) / 2.0, xhi):
        px = _lin(v, xlo, xhi, x0, x1)
        els.append(_text(px, y1 + 18, _fmt(v), anchor="middle", size=11))
    for v in (ylo, (ylo + yhi) / 2.0, yhi):
        py = _lin(v, ylo, yhi, y1, y0)
        els.append(_text(x0 - 8, py + 4, _fmt(v), anchor="end", size=11))
    els.append(_text((x0 + x1) / 2, y1 + 38, f"bias ({pole_minus} to {pole_plus})", anchor="middle"))
    els.append(_text(24, (y0 + y1) / 2, "intensity", extra=' transform="rotate(-90 24 275)"', anchor="middle"))
    return _document(els)


def _separation_label(row: dict) -> tuple[str, str, str, str, str]:
    """Label parts for a separation point: (prefix, bold pole, superscript,
    suffix, color).

    The highlighted side is the corpus using the frame more intensively:
    group A when the intensity separation is positive, group B when
    negative, neither when it is balanced (within epsilon). The bold pole
    is the one the highlighted corpus's bias leans toward, and the
    superscript sign names the highlighted group.
    """
    minus, _, plus = row["frame_id"].partition("--")
    di = float(row["delta_intensity"])
    if di > _BALANCED_EPS:
        bias, sup, color = float(row["bias_a"]), "+", COLOR_A
    elif di < -_BALANCED_EPS:
        bias, sup, color = float(row["bias_b"]), "-", COLOR_B
    else:
        return f"{minus}--{plus} (balanced)", "", "", "", COLOR_NEUTRAL
    if bias >= 0.0:
        return f"{minus}--", plus, sup, "", color
    return "", minus, sup, f"--{plus}", color


def chart_separation(rows: list[dict], title: str) -> str:
    """Scatter of per-frame (bias separation, intensity separation).

    Frames above the horizontal line are used more intensively by group
    A. The top 3 and bottom 3 frames by each separation are labeled; the
    label bolds the pole that the highlighted group leans toward and
    marks the group with a superscript sign.
    """
    els: list[str] = [_text(20, 28, title, size=16)]
    if not rows:
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no frames", anchor="middle"))
        return _document(els)
    x0, x1, y0, y1 = 90.0, 910.0, 70.0, 470.0
    xs = [float(r["delta_bias"]) for r in rows]
    ys = [float(r["delta_intensity"]) for r in rows]
    xlo, xhi = _pad_range(xs + [0.0])
    ylo, yhi = _pad_range(ys + [0.0])
    zx = _lin(0.0, xlo, xhi, x0, x1)
    zy = _lin(0.0, ylo, yhi, y1, y0)
    els.append(_line(x0, zy, x1, zy, "#bbbbbb", 1.2))
    els.append(_line(zx, y0, zx, y1, "#bbbbbb", 1.2))

    by_db = sorted(rows, key=lambda r: (float(r["delta_bias"]), r["frame_id"]))
    by_di = sorted(rows, key=lambda r: (float(r["delta_intensity"]), r["frame_id"]))
    labeled = {r["frame_id"] for r in by_db[:3] + by_db[-3:] + by_di[:3] + by_di[-3:]}

    for r in rows:
        px = _lin(float(r["delta_bias"]), xlo, xhi, x0, x1)
        py = _lin(float(r["delta_intensity"]), ylo, yhi, y1, y0)
        if r["frame_id"] in labeled:
            prefix, bold, sup, suffix, color = _separation_label(r)
            els.append(_circle(px, py, 4, color, 0.9))
            spans = escape(prefix)
            if bold:
                spans += f'<tspan font-weight="bold">{escape(bold)}</tspan>'
            if sup:
                spans += f'<tspan baseline-shift="super" font-size="9">{escape(sup)}</tspan>'
            if suffix:
                spans += escape(suffix)
            els.append(
                f'<text x="{px + 6:.1f}" y="{py - 5:.1f}" font-family="sans-serif" '
                f'font-size="11" fill="{color}">{spans}</text>'
            )
        else:
            els.append(_circle(px, py, 3, COLOR_NEUTRAL, 0.45))
    els.append(_line(x0, y1, x1, y1, "#000000", 0.8))
    els.append(_line(x0, y0, x0, y1, "#000000", 0.8))
    for v in (xlo, 0.0, xhi):
        px = _lin(v, xlo, xhi, x0, x1)
        els.append(_text(px, y1 + 18, _fmt(v), anchor="middle", size=11))
    for v in (ylo, 0.0, yhi):
        py = _lin(v, ylo, yhi, y1, y0)
        els.append(_text(x0 - 8, py + 4, _fmt(v), anchor="end", size=11))
    els.append(_text((x0 + x1) / 2, y1 + 38, "bias separation (A - B)", anchor="middle"))
    els.append(_text(24, (y0 + y1) / 2, "intensity separation (A - B)",
                     extra=' transform="rotate(-90 24 270)"', anchor="middle"))
    return _document(els)
