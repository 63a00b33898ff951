"""Minimal static SVG line charts: axes, ticks, one polyline per series, legend.

Hand-rolled on purpose so the output is small, deterministic, and easy to
assert on (well-formed XML, one <polyline> element per plotted series).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 24
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 64


@dataclass(frozen=True)
class Series:
    """One plotted line: a label and matching x/y sequences."""

    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError(f"series {self.label!r}: {len(self.xs)} x values vs {len(self.ys)} y values")
        if len(self.xs) < 1:
            raise ValueError(f"series {self.label!r} is empty")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """Ticks k * step in [lo, hi] for integers k, the step 1, 2, 2.5 or 5 times a power of ten.

    A range at most 32 ulps wide gets the one tick ``lo``, like an empty one: its ticks would all
    print alike, and near the smallest floats the step would underflow to 0.
    """
    span = hi - lo
    if not span > 32.0 * math.ulp(max(abs(lo), abs(hi))):
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    ticks = []
    for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-9 * (span / step)) + 1):
        value = k * step
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
    return ticks or [lo]


def _escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils.escape does, without its import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_chart(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
) -> str:
    """Render the series into an SVG document string."""
    if not series:
        raise ValueError("need at least one series")

    def xt(x: float) -> float:
        if logx:
            if x <= 0:
                raise ValueError("logx chart requires positive x values")
            return math.log10(x)
        return float(x)

    all_x = [xt(x) for s in series for x in s.xs]
    all_y = [float(y) for s in series for y in s.ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + plot_w * (xt(x) - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (float(y) - y_lo) / (y_hi - y_lo))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="13">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>'
        )

    if logx:
        lo_exp = math.floor(x_lo)
        hi_exp = math.ceil(x_hi)
        x_ticks = [10.0**e for e in range(lo_exp, hi_exp + 1) if x_lo - 1e-9 <= e <= x_hi + 1e-9]
    else:
        x_ticks = _ticks(x_lo, x_hi)
    for tick in x_ticks:
        x_pixel = px(tick)
        parts.append(
            f'<line x1="{x_pixel:.1f}" y1="{_MARGIN_TOP + plot_h}" x2="{x_pixel:.1f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x_pixel:.1f}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y_pixel = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y_pixel:.1f}" x2="{_MARGIN_LEFT}" y2="{y_pixel:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 9}" y="{y_pixel + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 18}" text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        y_mid = _MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="20" y="{y_mid:.1f}" text-anchor="middle" transform="rotate(-90 20 {y_mid:.1f})">'
            f"{_escape(ylabel)}</text>"
        )

    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>')
        legend_y = _MARGIN_TOP + 16 + 18 * k
        parts.append(
            f'<line x1="{_MARGIN_LEFT + 10}" y1="{legend_y - 4}" x2="{_MARGIN_LEFT + 34}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{_MARGIN_LEFT + 40}" y="{legend_y}">{_escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
