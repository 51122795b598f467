"""Standalone SVG rendering of contour grids via marching squares.

Output is a deterministic string: no timestamps, fixed float formatting, so
repeated invocations are byte-identical.
"""
from __future__ import annotations

import math

from .landscape import ContourGrid

_CANVAS_W = 640.0
_CANVAS_H = 480.0
_MARGIN = 40.0
_PALETTE = ["#1f77b4", "#2b8cbe", "#41ab5d", "#78c679", "#addd8e",
            "#fee391", "#fe9929", "#ec7014", "#cc4c02", "#8c2d04"]


def default_levels(grid: ContourGrid) -> list[float]:
    """Deciles of the finite grid values; duplicates removed, order kept."""
    flat = sorted(v for row in grid.values for v in row if math.isfinite(v))
    if not flat:
        return []
    levels = []
    for k in range(1, 10):
        q = flat[min(len(flat) - 1, (k * len(flat)) // 10)]
        if not levels or q > levels[-1]:
            levels.append(q)
    return levels


def _segments(grid: ContourGrid, level: float) -> list[tuple[float, float, float, float]]:
    """Marching squares: line segments (in grid coordinates) of one level set."""
    V = grid.values
    A = grid.a_axis
    B = grid.b_axis
    segs = []
    for i in range(len(A) - 1):
        for j in range(len(B) - 1):
            corners = (V[i][j], V[i + 1][j], V[i + 1][j + 1], V[i][j + 1])
            if not all(map(math.isfinite, corners)):
                continue
            case = sum(1 << k for k, c in enumerate(corners) if c > level)
            if case in (0, 15):
                continue

            def lerp(p, q, vp, vq):
                t = 0.5 if vq == vp else (level - vp) / (vq - vp)
                return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

            pts = {
                "s": ((A[i], B[j]), (A[i + 1], B[j]), corners[0], corners[1]),
                "e": ((A[i + 1], B[j]), (A[i + 1], B[j + 1]), corners[1], corners[2]),
                "n": ((A[i], B[j + 1]), (A[i + 1], B[j + 1]), corners[3], corners[2]),
                "w": ((A[i], B[j]), (A[i], B[j + 1]), corners[0], corners[3]),
            }
            edges = {
                1: ("w", "s"), 2: ("s", "e"), 3: ("w", "e"), 4: ("e", "n"),
                6: ("s", "n"), 7: ("w", "n"), 8: ("w", "n"), 9: ("s", "n"),
                11: ("e", "n"), 12: ("w", "e"), 13: ("s", "e"), 14: ("s", "w"),
            }
            if case in (5, 10):
                # ambiguous saddle: resolve by the cell-center value
                center = 0.25 * math.fsum(corners)
                if (case == 5) == (center > level):
                    pairs = [("w", "n"), ("s", "e")]
                else:
                    pairs = [("w", "s"), ("e", "n")]
            else:
                pairs = [edges[case]]
            for e1, e2 in pairs:
                p1 = lerp(*pts[e1])
                p2 = lerp(*pts[e2])
                segs.append((p1[0], p1[1], p2[0], p2[1]))
    return segs


def render_svg(grid: ContourGrid, levels: list[float] | None = None) -> str:
    """An SVG document with one path per level (a horizontal, b vertical)."""
    if levels is None:
        levels = default_levels(grid)
    a_lo, a_hi = grid.a_axis[0], grid.a_axis[-1]
    b_lo, b_hi = grid.b_axis[0], grid.b_axis[-1]
    plot_w = _CANVAS_W - 2 * _MARGIN
    plot_h = _CANVAS_H - 2 * _MARGIN

    def to_px(a, b):
        x = _MARGIN + (a - a_lo) / (a_hi - a_lo) * plot_w
        y = _CANVAS_H - _MARGIN - (b - b_lo) / (b_hi - b_lo) * plot_h
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W:.0f}" '
        f'height="{_CANVAS_H:.0f}" viewBox="0 0 {_CANVAS_W:.0f} {_CANVAS_H:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{_MARGIN:.1f}" y="{_MARGIN:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{_CANVAS_W / 2:.1f}" y="{_CANVAS_H - 8:.1f}" font-size="14" '
        'text-anchor="middle" font-family="sans-serif">a</text>',
        f'<text x="14" y="{_CANVAS_H / 2:.1f}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 14 {_CANVAS_H / 2:.1f})">b</text>',
        f'<title>augmented loss contours, base loss {grid.l_slice!r}, '
        f'lambda {grid.lam!r}</title>',
    ]
    for idx, level in enumerate(levels):
        color = _PALETTE[idx % len(_PALETTE)]
        d = []
        for (a1, b1, a2, b2) in _segments(grid, level):
            x1, y1 = to_px(a1, b1)
            x2, y2 = to_px(a2, b2)
            d.append(f"M{x1:.2f} {y1:.2f}L{x2:.2f} {y2:.2f}")
        if d:
            parts.append(f'<path d="{"".join(d)}" stroke="{color}" '
                         'stroke-width="1" fill="none"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
