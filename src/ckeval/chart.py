"""Grouped-bar SVG charts of metric values per version.

The SVG is assembled as plain markup with fixed numeric formatting, so
identical specs produce identical bytes.
"""

import math
from pathlib import Path
import sys
from typing import NamedTuple

from .errors import InputError
from .tables import format_value, write_text

# One fixed color per metric, in canonical metric order.
SERIES_COLORS = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2")

# Canvas size in pixels.
WIDTH, HEIGHT = 900, 480


class ChartSpec(NamedTuple):
    groups: tuple[str, ...]
    series: tuple[tuple[str, tuple[float, ...]], ...]

    def validate(self) -> None:
        if not self.groups:
            raise InputError("chart needs at least one group")
        for name, values in self.series:
            if len(values) != len(self.groups):
                raise InputError(f"series {name!r} must carry one value per group")
            if not all(map(math.isfinite, values)):
                raise InputError(f"series {name!r} contains a value that is not finite")
            if any(v < 0 for v in values):
                raise InputError(f"series {name!r} contains a negative value")


def escape(text: str) -> str:
    """Markup-safe text: ``&``, ``<`` and ``>`` become entities.

    Written out here because ``xml.sax.saxutils`` imports ``urllib`` and
    through it ``http``, ``email`` and ``ssl``, which every CLI run would pay for.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# characters of font-size 11 that fit left of the y axis, in the 56 px margin
AXIS_LABEL_CHARS = 8


def _axis_label(value: float) -> str:
    """A gridline or tooltip value, as a report prints it when that fits
    the margin; otherwise in three significant digits with a bare exponent
    ("2.2e307"), or in all of them where three would round past the largest
    float."""
    text = format_value(round(value, 3))
    if len(text) <= AXIS_LABEL_CHARS:
        return text
    text = f"{value:.3g}"
    if float(text) == math.inf:
        text = f"{value:.17g}"
    mantissa, exponent = text.split("e")
    return f"{mantissa}e{int(exponent)}"


def build_chart_svg(spec: ChartSpec, title: str = "") -> str:
    spec.validate()
    margin_left, margin_right = 56.0, 160.0
    margin_top, margin_bottom = 40.0, 48.0
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom

    peak = max((v for _, values in spec.series for v in values), default=0.0)
    # capped, so that a peak near the largest float still gets a finite axis
    axis_max = min(peak * 1.1, sys.float_info.max) if peak > 0 else 1.0

    n_groups = len(spec.groups)
    n_series = max(len(spec.series), 1)
    group_w = plot_w / n_groups
    bar_w = group_w * 0.8 / n_series
    x0, y0 = margin_left, margin_top + plot_h  # plot origin (bottom-left)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(f'<text x="{_fmt(WIDTH / 2)}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{escape(title)}</text>')

    # y axis with 5 gridline divisions
    for i in range(6):
        value = axis_max * i / 5
        if value == math.inf:  # axis_max * i overflowed; i / 5 <= 1 cannot
            value = axis_max * (i / 5)
        y = y0 - plot_h * i / 5
        parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(x0 + plot_w)}" y2="{_fmt(y)}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x0 - 6)}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_axis_label(value)}</text>')
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(margin_top)}" '
                 f'x2="{_fmt(x0)}" y2="{_fmt(y0)}" stroke="#333333" stroke-width="1"/>')
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
                 f'x2="{_fmt(x0 + plot_w)}" y2="{_fmt(y0)}" '
                 f'stroke="#333333" stroke-width="1"/>')

    # bars, one cluster per group
    for g, group in enumerate(spec.groups):
        cluster_left = x0 + group_w * g + group_w * 0.1
        for s, (name, values) in enumerate(spec.series):
            value = values[g]
            h = plot_h * (value / axis_max)
            x = cluster_left + s * bar_w
            y = y0 - h
            color = SERIES_COLORS[s % len(SERIES_COLORS)]
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                         f'height="{_fmt(h)}" fill="{color}">'
                         f'<title>{escape(f"{group} {name}: {_axis_label(value)}")}'
                         f'</title></rect>')
        parts.append(f'<text x="{_fmt(x0 + group_w * (g + 0.5))}" '
                     f'y="{_fmt(y0 + 18)}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{escape(group)}</text>')

    # legend
    legend_x = x0 + plot_w + 16
    for s, (name, _) in enumerate(spec.series):
        y = margin_top + 8 + s * 20
        color = SERIES_COLORS[s % len(SERIES_COLORS)]
        parts.append(f'<rect x="{_fmt(legend_x)}" y="{_fmt(y)}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(legend_x + 18)}" y="{_fmt(y + 10)}" '
                     f'font-family="sans-serif" font-size="12">{escape(name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_chart(spec: ChartSpec, destination: str | Path, title: str = "") -> str:
    """Write the chart and return the SVG text."""
    svg = build_chart_svg(spec, title=title)
    write_text(destination, svg)
    return svg
