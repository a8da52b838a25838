"""Minimal SVG scatter for two-dimensional biplot archives.

Points are drawn as text labels; cluster labels scale with the cluster's
share of its class, class labels with the class mass, and category
labels at a fixed size.  Origin axes are always drawn.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

_FILL = {"cluster": "#1f4e9c", "class": "#b02a2a", "category": "#1d7a35"}

WIDTH = 760
HEIGHT = 560
MARGIN = 48

# Every character outside XML 1.0's Char production: the C0 controls but
# tab, newline and carriage return, lone surrogates, U+FFFE and U+FFFF.
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _font_size(kind: str, share: float | None) -> float:
    if kind == "cluster":
        return 7.0 + 13.0 * (share if share is not None else 0.5)
    if kind == "class":
        return 9.0 + 8.0 * (share if share is not None else 0.5)
    return 11.0


def render_scatter(points: Sequence[tuple]) -> str:
    """Render (kind, label, x, y, share) points; share may be None.

    The viewport covers all points plus the origin with an 8% pad; y grows
    upward as in the underlying coordinates.  Raises ``ValueError`` when
    its width or height overflows a float.
    """
    xs = [0.0] + [float(x) for _kind, _label, x, _y, _share in points]
    ys = [0.0] + [float(y) for _kind, _label, _x, y, _share in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.08 * max(x_hi - x_lo, 1e-9)
    y_pad = 0.08 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("the padded viewport of the points and the origin is not finite")

    def sx(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{sx(x_lo):.2f}" y1="{sy(0):.2f}" x2="{sx(x_hi):.2f}" y2="{sy(0):.2f}" '
        'stroke="#999" stroke-width="1"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(y_lo):.2f}" x2="{sx(0):.2f}" y2="{sy(y_hi):.2f}" '
        'stroke="#999" stroke-width="1"/>',
    ]
    for kind, label, x, y, share in points:
        parts.append(
            f'<text x="{sx(float(x)):.2f}" y="{sy(float(y)):.2f}" '
            f'text-anchor="middle" font-size="{_font_size(kind, share):.2f}" '
            f'fill="{_FILL.get(kind, "#333")}">{_escape(str(label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    """``text`` as XML character data: markup characters escaped, and each
    character that XML 1.0 forbids replaced by U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML.sub("\ufffd", text)
