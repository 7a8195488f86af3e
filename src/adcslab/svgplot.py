"""Minimal SVG time-history plots for telemetry; no plotting dependency.

Renders two stacked panels -- body rates (rad/s) and Euler angles (deg)
against time -- as plain polylines.  Series longer than ``MAX_POINTS`` are
strided down; the output is a self-contained SVG string with no external
references.
"""

from __future__ import annotations

from html import escape

from .harness import Telemetry

__all__ = ["render_plot", "write_plot", "MAX_POINTS"]

MAX_POINTS = 2000

_COLORS = ("#1f77b4", "#d62728", "#2ca02c")
_RATE_LABELS = ("wx", "wy", "wz")
_EULER_LABELS = ("roll", "pitch", "yaw")

_WIDTH = 880
_PANEL_H = 260
_MARGIN_L, _MARGIN_R, _MARGIN_T, _PANEL_GAP, _MARGIN_B = 64, 16, 34, 46, 40


def _fmt(v: float) -> str:
    return f"{v:g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _panel(x: list[float], series: list[list[float]], labels, y_unit: str,
           top: float) -> list[str]:
    left = _MARGIN_L
    width = _WIDTH - _MARGIN_L - _MARGIN_R
    height = _PANEL_H

    x_lo, x_hi = (x[0], x[-1]) if x else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    flat = [v for s in series for v in s]
    y_lo, y_hi = (min(flat), max(flat)) if flat else (0.0, 1.0)
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * width

    def sy(v: float) -> float:
        return top + height - (v - y_lo) / (y_hi - y_lo) * height

    out = [f'<rect x="{left}" y="{top}" width="{width}" height="{height}" '
           'fill="none" stroke="#888" stroke-width="1"/>']
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        out.append(f'<line x1="{px:.2f}" y1="{top + height}" x2="{px:.2f}" '
                   f'y2="{top + height + 4}" stroke="#888"/>')
        out.append(f'<text x="{px:.2f}" y="{top + height + 16}" font-size="11" '
                   f'text-anchor="middle" fill="#444">{_fmt(tv)}</text>')
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        out.append(f'<line x1="{left - 4}" y1="{py:.2f}" x2="{left}" '
                   f'y2="{py:.2f}" stroke="#888"/>')
        out.append(f'<text x="{left - 7}" y="{py + 3.5:.2f}" font-size="11" '
                   f'text-anchor="end" fill="#444">{_fmt(tv)}</text>')
    if y_lo < 0.0 < y_hi:
        zy = sy(0.0)
        out.append(f'<line x1="{left}" y1="{zy:.2f}" x2="{left + width}" '
                   f'y2="{zy:.2f}" stroke="#ccc" stroke-dasharray="4 3"/>')
    out.append(f'<text x="{left - 48}" y="{top + height / 2:.2f}" font-size="12" '
               f'fill="#222" transform="rotate(-90 {left - 48} {top + height / 2:.2f})" '
               f'text-anchor="middle">{escape(y_unit, quote=False)}</text>')
    for s, color in zip(series, _COLORS):
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, s))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.3"/>')
    for i, (label, color) in enumerate(zip(labels, _COLORS)):
        lx = left + width - 150 + i * 50
        out.append(f'<line x1="{lx}" y1="{top + 12}" x2="{lx + 14}" y2="{top + 12}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 18}" y="{top + 16}" font-size="11" '
                   f'fill="#222">{escape(label, quote=False)}</text>')
    return out


def render_plot(telemetry: Telemetry, title: str | None = None) -> str:
    """Two-panel SVG: body rates on top, Euler angles below, versus time."""
    stride = max(1, (len(telemetry.rows) + MAX_POINTS - 1) // MAX_POINTS)
    rows = telemetry.rows[::stride]
    if telemetry.rows and rows[-1] is not telemetry.rows[-1]:
        rows.append(telemetry.rows[-1])
    picked = Telemetry(rows)  # read by column name, so no column index lives here
    x = picked.column("t_s")
    rates = [picked.column(c) for c in ("wx_radps", "wy_radps", "wz_radps")]
    eulers = [picked.column(c) for c in ("roll_deg", "pitch_deg", "yaw_deg")]

    total_h = _MARGIN_T + _PANEL_H + _PANEL_GAP + _PANEL_H + _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{total_h}" viewBox="0 0 {_WIDTH} {total_h}">',
        f'<rect width="{_WIDTH}" height="{total_h}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2}" y="20" font-size="14" '
                     f'text-anchor="middle" fill="#111">{escape(title, quote=False)}</text>')
    parts += _panel(x, rates, _RATE_LABELS, "body rate (rad/s)", _MARGIN_T)
    second_top = _MARGIN_T + _PANEL_H + _PANEL_GAP
    parts += _panel(x, eulers, _EULER_LABELS, "Euler angle (deg)", second_top)
    parts.append(f'<text x="{_WIDTH / 2}" y="{total_h - 8}" font-size="12" '
                 f'text-anchor="middle" fill="#222">time (s)</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_plot(telemetry: Telemetry, path, title: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_plot(telemetry, title))
