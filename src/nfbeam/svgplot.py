"""Minimal dependency-free SVG line plots for experiment outputs."""

from __future__ import annotations

from typing import Sequence

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 640, 420  # canvas size in px


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _span(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi); a flat range widens by a unit, or by lo/2 toward 0 where a unit rounds away."""
    if hi != lo:
        return lo, hi
    return (lo, lo + 1) if lo + 1 != lo else (min(lo, lo / 2), max(lo, lo / 2))


def line_plot_svg(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    xlabel: str,
    ylabel: str,
    title: str = "",
    log_y: bool = False,
) -> str:
    """Render named (x, y) series as an SVG document string; with no point
    to draw (no series, or no positive y on a log axis) an empty frame."""
    import math

    pad_l, pad_r, pad_t, pad_b = 70, 20, 30, 50
    def ty(v):
        return math.log10(v) if log_y else v

    xs = [x for x_, _ in series.values() for x in x_]
    ys = [ty(y) for _, y_ in series.values() for y in y_ if (y > 0 or not log_y)]
    x0, x1 = _span(min(xs, default=0.0), max(xs, default=0.0))
    y0, y1 = _span(min(ys, default=0.0), max(ys, default=0.0))
    plot_w = _WIDTH - pad_l - pad_r
    plot_h = _HEIGHT - pad_t - pad_b

    def px(x):
        return pad_l + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return pad_t + (y1 - y) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH/2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{pad_t}" x2="{px(tx):.1f}" '
                     f'y2="{_HEIGHT-pad_b}" stroke="#ddd"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{_HEIGHT-pad_b+18}" text-anchor="middle" '
                     f'font-size="11">{tx:.3g}</text>')
    for tv in _ticks(y0, y1):
        label = f"1e{tv:.2f}" if log_y else f"{tv:.3g}"
        parts.append(f'<line x1="{pad_l}" y1="{py(tv):.1f}" x2="{_WIDTH-pad_r}" '
                     f'y2="{py(tv):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{pad_l-6}" y="{py(tv)+4:.1f}" text-anchor="end" '
                     f'font-size="11">{label}</text>')
    parts.append(f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#444"/>')
    for i, (name, (sx, sy)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(ty(y)):.1f}" for x, y in zip(sx, sy)
                       if (y > 0 or not log_y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = pad_t + 16 + 16 * i
        parts.append(f'<line x1="{_WIDTH-pad_r-130}" y1="{ly}" x2="{_WIDTH-pad_r-105}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH-pad_r-100}" y="{ly+4}" font-size="11">{name}</text>')
    parts.append(f'<text x="{(pad_l+_WIDTH-pad_r)/2:.0f}" y="{_HEIGHT-12}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(pad_t+_HEIGHT-pad_b)/2:.0f}" font-size="12" '
                 f'transform="rotate(-90 16 {(pad_t+_HEIGHT-pad_b)/2:.0f})" '
                 f'text-anchor="middle">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
