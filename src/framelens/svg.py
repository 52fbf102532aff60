"""Self-contained SVG rendering for the report charts.

Every chart is drawn from the columns of the same `Table` that was written
to the accompanying TSV, so nothing in the picture goes beyond the table.
Canvas is fixed at 960x540. Group A is blue, group B red, neutral gray.
"""

from __future__ import annotations

import re

from .errors import DataError
from .reports import Table

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


def _group_legend(colors: dict[str, str], x: float, y: float) -> list[str]:
    """A swatch and a label per group, 160 apart from `x` on, at height `y`."""
    els = []
    for i, g in enumerate(colors):
        els.append(_rect(x + 160 * i, y, 14, 14, colors[g]))
        els.append(_text(x + 160 * i + 18, y + 12, g or "(no group)", size=12))
    return els


def chart_shifts(table: Table, title: str) -> str:
    """Horizontal bar diagram: per token, target / background / delta bars."""
    els: list[str] = [_text(20, 28, title, size=16)]
    legend = (("target", COLOR_A), ("background", COLOR_NEUTRAL), ("delta", COLOR_B))
    lx = 640
    for name, color in legend:
        els.append(_rect(lx, 16, 14, 14, color))
        els.append(_text(lx + 18, 28, name, size=12))
        lx += 110
    if not len(table):
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no rows", anchor="middle"))
        return _document(els)
    x0, x1, y0, y1 = 180.0, 930.0, 60.0, 500.0
    columns = table.columns
    shifts = list(zip(columns["shift_target"], columns["shift_background"], columns["shift_delta"]))
    vmax = max(abs(v) for row in shifts for v in row) or 1e-12
    lo, hi = -vmax * 1.05, vmax * 1.05
    zero_x = _lin(0.0, lo, hi, x0, x1)
    row_h = (y1 - y0) / len(shifts)
    bar_h = min(row_h / 4.0, 14.0)
    for i, (token, (target, background, delta)) in enumerate(zip(columns["token"], shifts)):
        yc = y0 + (i + 0.5) * row_h
        els.append(_text(x0 - 10, yc + 4, token, anchor="end"))
        series = (
            (target, COLOR_A, yc - 1.5 * bar_h),
            (background, COLOR_NEUTRAL, yc - 0.5 * bar_h),
            (delta, COLOR_B, yc + 0.5 * bar_h),
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


def chart_spectrum(table: Table, title: str, pole_minus: str, pole_plus: str) -> str:
    """Strip plot: one tick per document at its bias, thick tick per group mean."""
    els: list[str] = [_text(20, 28, title, size=16)]
    columns = table.columns
    present = [(g or "", b) for g, b in zip(columns["group"], columns["doc_bias"]) if b is not None]
    if not present:
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no scored documents", anchor="middle"))
        return _document(els)
    x0, x1 = 80.0, 910.0
    ymid = 280.0
    lo, hi = _pad_range([b for _, b in present])
    groups = sorted({g for g, _ in present})
    colors = group_colors(groups)
    els += _group_legend(colors, 80.0, 44)
    els.append(_line(x0, ymid, x1, ymid, "#cccccc", 1.0))
    for g, b in present:
        vx = _lin(b, lo, hi, x0, x1)
        els.append(_line(vx, ymid - 40, vx, ymid + 40, colors[g], 1.0, 0.55))
    for g in groups:
        vals = [b for h, b in present if h == g]
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


def chart_map(table: Table, title: str, pole_minus: str, pole_plus: str) -> str:
    """Scatter of units at (bias, intensity) with group mean markers."""
    els: list[str] = [_text(20, 28, title, size=16)]
    if not len(table):
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no units", anchor="middle"))
        return _document(els)
    x0, x1, y0, y1 = 90.0, 910.0, 70.0, 480.0
    columns = table.columns
    xlo, xhi = _pad_range(columns["bias"])
    ylo, yhi = _pad_range(columns["intensity"])
    units = list(zip(columns["unit"], [g or "" for g in columns["group"]],
                     columns["bias"], columns["intensity"]))
    groups = sorted({g for _, g, _, _ in units})
    colors = group_colors(groups)
    els += _group_legend(colors, 90.0, 40)
    if xlo < 0.0 < xhi:
        zx = _lin(0.0, xlo, xhi, x0, x1)
        els.append(_line(zx, y0, zx, y1, "#cccccc", 1.0))
    for unit, g, b, i in units:
        px = _lin(b, xlo, xhi, x0, x1)
        py = _lin(i, ylo, yhi, y1, y0)
        els.append(_circle(px, py, 5, colors[g], 0.75))
        els.append(_text(px + 7, py + 4, str(unit), size=9, color="#444444"))
    for g in groups:
        sub = [(b, i) for _, h, b, i in units if h == g]
        px = _lin(sum(b for b, _ in sub) / len(sub), xlo, xhi, x0, x1)
        py = _lin(sum(i for _, i in sub) / len(sub), ylo, yhi, y1, y0)
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


def _separation_label(delta_intensity: float, bias_a: float, bias_b: float,
                      minus: str, plus: str) -> tuple[str, str, str, str, str]:
    """Label parts for a separation point of the frame with poles `minus`
    and `plus`: (prefix, bold pole, superscript, suffix, color).

    The highlighted side is the corpus using the frame more intensively:
    group A when the intensity separation is positive, group B when
    negative, neither when it is balanced (within epsilon). The bold pole
    is the one the highlighted corpus's bias leans toward, and the
    superscript sign names the highlighted group.
    """
    if delta_intensity > _BALANCED_EPS:
        bias, sup, color = bias_a, "+", COLOR_A
    elif delta_intensity < -_BALANCED_EPS:
        bias, sup, color = bias_b, "-", COLOR_B
    else:
        return f"{minus}--{plus} (balanced)", "", "", "", COLOR_NEUTRAL
    if bias >= 0.0:
        return f"{minus}--", plus, sup, "", color
    return "", minus, sup, f"--{plus}", color


def chart_separation(table: Table, title: str, poles_minus, poles_plus) -> str:
    """Scatter of per-frame (bias separation, intensity separation).

    `poles_minus` and `poles_plus` hold the poles of each row's frame.
    Frames above the horizontal line are used more intensively by group
    A. The top 3 and bottom 3 frames by each separation are labeled; the
    label bolds the pole that the highlighted group leans toward and
    marks the group with a superscript sign.
    """
    els: list[str] = [_text(20, 28, title, size=16)]
    if not len(table):
        els.append(_text(WIDTH / 2, HEIGHT / 2, "no frames", anchor="middle"))
        return _document(els)
    x0, x1, y0, y1 = 90.0, 910.0, 70.0, 470.0
    columns = table.columns
    ids, xs, ys = columns["frame_id"], columns["delta_bias"], columns["delta_intensity"]
    xlo, xhi = _pad_range(xs + [0.0])
    ylo, yhi = _pad_range(ys + [0.0])
    zx = _lin(0.0, xlo, xhi, x0, x1)
    zy = _lin(0.0, ylo, yhi, y1, y0)
    els.append(_line(x0, zy, x1, zy, "#bbbbbb", 1.2))
    els.append(_line(zx, y0, zx, y1, "#bbbbbb", 1.2))

    by_db = sorted(range(len(ids)), key=lambda i: (xs[i], ids[i]))
    by_di = sorted(range(len(ids)), key=lambda i: (ys[i], ids[i]))
    labeled = {ids[i] for i in by_db[:3] + by_db[-3:] + by_di[:3] + by_di[-3:]}

    rows = zip(ids, xs, ys, columns["bias_a"], columns["bias_b"], poles_minus, poles_plus)
    for fid, db, di, bias_a, bias_b, minus, plus in rows:
        px = _lin(db, xlo, xhi, x0, x1)
        py = _lin(di, ylo, yhi, y1, y0)
        if fid in labeled:
            prefix, bold, sup, suffix, color = _separation_label(di, bias_a, bias_b, minus, plus)
            els.append(_circle(px, py, 4, color, 0.9))
            spans = escape(prefix)
            if bold:  # a balanced frame has neither a bold pole nor a superscript
                spans += (f'<tspan font-weight="bold">{escape(bold)}</tspan>'
                          f'<tspan baseline-shift="super" font-size="9">{escape(sup)}</tspan>')
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
