"""Static SVG line charts.

Nothing fancy: fixed-size charts with a handful of polylines, axis ticks,
and a legend, written as plain SVG text.  Output is byte-deterministic
for identical inputs (coordinates are formatted with a fixed precision),
which keeps reproduction artifacts diffable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def escape(text: str) -> str:
    """Escape &, > and < for SVG text, as xml.sax.saxutils.escape does,
    without importing xml.sax (which pulls in urllib and email)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 62
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46


@dataclass(frozen=True)
class Series:
    """One labelled polyline: parallel x and y sequences."""

    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(float(v) for v in self.ys)
        if len(xs) != len(ys):
            raise InputError(
                f"series {self.label!r}: {len(xs)} x values vs {len(ys)} y values"
            )
        if not xs:
            raise InputError(f"series {self.label!r} is empty")
        if not all(np.isfinite(xs)) or not all(np.isfinite(ys)):
            raise InputError(f"series {self.label!r} contains non-finite values")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


def _span(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        pad = abs(lo) * 0.05 or 0.5
        return lo - pad, hi + pad
    return lo, hi


def _fmt(v):
    return f"{v:.2f}"


def _tick_text(v):
    return f"{v:.4g}"


def line_chart(series, title="", x_label="", y_label=""):
    """Render series as an SVG line chart; returns the SVG document text."""
    if not series:
        raise InputError("need at least one series")
    x_lo, x_hi = _span([x for s in series for x in s.xs])
    y_lo, y_hi = _span([y for s in series for y in s.ys])
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )

    # gridlines and ticks on 5 even divisions of each axis
    for frac in np.linspace(0.0, 1.0, 5):
        gx = _MARGIN_LEFT + frac * plot_w
        gy = _MARGIN_TOP + frac * plot_h
        out.append(
            f'<line x1="{_fmt(gx)}" y1="{_MARGIN_TOP}" x2="{_fmt(gx)}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(gy)}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{_fmt(gy)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_hi - frac * (y_hi - y_lo)
        out.append(
            f'<text x="{_fmt(gx)}" y="{_MARGIN_TOP + plot_h + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"{_tick_text(x_val)}</text>"
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{_fmt(gy + 3)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="10">'
            f"{_tick_text(y_val)}</text>"
        )

    # frame
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
        if len(s.xs) == 1:
            out.append(
                f'<circle cx="{_fmt(sx(s.xs[0]))}" cy="{_fmt(sy(s.ys[0]))}" '
                f'r="3" fill="{color}"/>'
            )
        else:
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = _MARGIN_TOP + 8 + 14 * i
        lx = _MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{escape(s.label)}</text>'
        )

    if x_label:
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{escape(x_label)}</text>"
        )
    if y_label:
        cy = _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="16" y="{cy:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {cy:.0f})">{escape(y_label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_chart(path, svg_text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg_text)
