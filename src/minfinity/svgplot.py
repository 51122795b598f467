"""Standalone SVG rendering of contour grids via marching squares.

Output is a deterministic string: no timestamps, fixed float formatting, so
repeated invocations are byte-identical.  Marching squares visits only the
cells its level crosses: each row's ``v > level`` flags are packed one byte per
column into an int, a few int operations per row pair mark the crossed cells,
and ``bytes.find`` jumps from one to the next.  The edge table and the
interpolation live at module level.
"""
from __future__ import annotations

from math import fsum, isfinite

from .landscape import ContourGrid

_CANVAS_W = 640.0
_CANVAS_H = 480.0
_MARGIN = 40.0
_PALETTE = ["#1f77b4", "#2b8cbe", "#41ab5d", "#78c679", "#addd8e",
            "#fee391", "#fe9929", "#ec7014", "#cc4c02", "#8c2d04"]


def default_levels(grid: ContourGrid) -> list[float]:
    """Deciles of the finite grid values; duplicates removed, order kept."""
    flat = sorted(v for row in grid.values for v in row if isfinite(v))
    if not flat:
        return []
    levels = []
    for k in range(1, 10):
        q = flat[min(len(flat) - 1, (k * len(flat)) // 10)]
        if not levels or q > levels[-1]:
            levels.append(q)
    return levels


# corners 0 (i, j), 1 (i+1, j), 2 (i+1, j+1), 3 (i, j+1); bit k of a cell's case
# is set when corner k lies above the level; each edge is the corners it joins
_S, _E, _N, _W = (0, 1), (1, 2), (3, 2), (0, 3)
_CASE_EDGES = {
    1: ((_W, _S),), 2: ((_S, _E),), 3: ((_W, _E),), 4: ((_E, _N),),
    6: ((_S, _N),), 7: ((_W, _N),), 8: ((_W, _N),), 9: ((_S, _N),),
    11: ((_E, _N),), 12: ((_W, _E),), 13: ((_S, _E),), 14: ((_S, _W),),
}
_SADDLE_JOINED = ((_W, _N), (_S, _E))  # saddles 5 and 10, by the cell-centre value
_SADDLE_SPLIT = ((_W, _S), (_E, _N))


def _lerp(level, p, q, vp, vq):
    # each picked edge joins a corner above the level to one not above: vq != vp
    t = (level - vp) / (vq - vp)
    return p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])


def _segments(grid: ContourGrid, level: float) -> list[tuple[float, float, float, float]]:
    """Marching squares: line segments (in grid coordinates) of one level set,
    row-major, skipping cells with a non-finite corner."""
    V, A, B = grid.values, grid.a_axis, grid.b_axis
    width = len(B) - 1  # cells per row
    if width < 1:
        return []
    # one byte per column, 1 where v > level; as an int, byte j is column j
    high = [bytes([v > level for v in row]) for row in V]
    packed = [int.from_bytes(h, "little") for h in high]
    cut = (1 << 8 * width) - 1  # the bytes of cell columns 0 .. width - 1
    segs = []
    for i in range(len(A) - 1):
        r0, r1 = packed[i], packed[i + 1]
        # byte j is 1 unless the cell's four corners agree: (i, j) against
        # (i+1, j), then each row's column j against column j + 1
        crossed = ((r0 ^ r1) | (r0 ^ r0 >> 8) | (r1 ^ r1 >> 8)) & cut
        if not crossed:
            continue
        h0, h1 = high[i], high[i + 1]
        cells = crossed.to_bytes(width, "little")
        j = -1
        while (j := cells.find(1, j + 1)) >= 0:
            case = h0[j] | h1[j] << 1 | h1[j + 1] << 2 | h0[j + 1] << 3
            corners = (V[i][j], V[i + 1][j], V[i + 1][j + 1], V[i][j + 1])
            if not all(map(isfinite, corners)):
                continue
            if case == 5 or case == 10:
                try:
                    center = 0.25 * fsum(corners)
                except OverflowError:  # the sum is past the largest float, its quarter is not
                    center = fsum([0.25 * c for c in corners])
                pairs = _SADDLE_JOINED if (case == 5) == (center > level) else _SADDLE_SPLIT
            else:
                pairs = _CASE_EDGES[case]
            xy = ((A[i], B[j]), (A[i + 1], B[j]), (A[i + 1], B[j + 1]), (A[i], B[j + 1]))
            for (k1, m1), (k2, m2) in pairs:
                x1, y1 = _lerp(level, xy[k1], xy[m1], corners[k1], corners[m1])
                x2, y2 = _lerp(level, xy[k2], xy[m2], corners[k2], corners[m2])
                segs.append((x1, y1, x2, y2))
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
