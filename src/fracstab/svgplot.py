"""Minimal self-contained SVG line plots (no plotting dependency).

Hand-emitted axes, polylines, and labels keep the artifact hermetic and
the output diffable.  Every curve is drawn from each pixel column's first,
last, lowest and highest sample (M4 aggregation; Jugel et al., PVLDB 7(10),
2014), which draws the same line at that width.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

CURVE_COLORS = ("blue", "red", "gold", "green", "purple", "teal")

_PANEL_W = 360
_PANEL_H = 240
_MARGIN = 48


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _m4(first: np.ndarray, last: np.ndarray, columns: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of each column's first, last, min-y and max-y sample, ascending
    and distinct.  ``columns`` is the non-decreasing column of each sample,
    and ``first`` and ``last`` are the first and last index of each column."""
    by_y = np.lexsort((ys, columns))  # column by column, each in ascending y
    return np.unique(np.concatenate((first, last, by_y[first], by_y[last])))


def _panel(svg: list, ox: float, oy: float, times, curves, labels, title: str) -> None:
    w = _PANEL_W - 2 * _MARGIN
    h = _PANEL_H - 2 * _MARGIN
    t0, t1 = float(times[0]), float(times[-1])
    ymin = min(float(np.min(c)) for c in curves)
    ymax = max(float(np.max(c)) for c in curves)
    if ymax == ymin:
        ymax = ymin + 1.0
    sx = w / (t1 - t0)
    sy = h / (ymax - ymin)

    left, top = ox + _MARGIN, oy + _MARGIN
    svg.append(
        f'<rect x="{left}" y="{top}" width="{w}" height="{h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    svg.append(
        f'<text x="{ox + _PANEL_W / 2}" y="{oy + _MARGIN - 10}" '
        f'text-anchor="middle" font-size="13">{title}</text>'
    )
    svg.append(
        f'<text x="{left - 6}" y="{top + 5}" text-anchor="end" font-size="10">{_fmt(ymax)}</text>'
    )
    svg.append(
        f'<text x="{left - 6}" y="{top + h + 5}" text-anchor="end" font-size="10">{_fmt(ymin)}</text>'
    )
    svg.append(
        f'<text x="{left}" y="{top + h + 16}" text-anchor="middle" font-size="10">{_fmt(t0)}</text>'
    )
    svg.append(
        f'<text x="{left + w}" y="{top + h + 16}" text-anchor="middle" font-size="10">{_fmt(t1)}</text>'
    )
    offsets = (times - t0) * sx
    xs = left + offsets
    columns = np.floor(offsets)
    first = np.flatnonzero(np.diff(columns, prepend=-1.0))
    last = np.append(first[1:], times.size) - 1
    for i, (c, label) in enumerate(zip(curves, labels)):
        color = CURVE_COLORS[i % len(CURVE_COLORS)]
        ys = top + (ymax - np.asarray(c, dtype=float)) * sy
        keep = _m4(first, last, columns, ys)
        pts = " ".join(map("{:.2f},{:.2f}".format, xs[keep].tolist(), ys[keep].tolist()))
        svg.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        svg.append(
            f'<text x="{left + w - 4}" y="{top + 14 + 13 * i}" text-anchor="end" '
            f'font-size="10" fill="{color}">{label}</text>'
        )


def plot_panels(path: str, times, panels: list, curve_labels: list) -> None:
    """Write a grid of line-plot panels to an SVG file.

    ``panels`` is a list of (title, list-of-curves); every curve has the
    same length as ``times``, which ascends, and panel i draws one curve
    per entry of ``curve_labels`` in a fixed color order.  Sample k falls
    in pixel column floor((times[k] - times[0]) * w / (times[-1] - times[0]))
    of a plot w pixels wide, and a curve keeps only each column's first,
    last, min-y and max-y samples.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ContractError("need at least 2 time samples to plot")
    ncols = 2 if len(panels) > 1 else 1
    nrows = (len(panels) + ncols - 1) // ncols
    width, height = ncols * _PANEL_W, nrows * _PANEL_H
    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for i, (title, curves) in enumerate(panels):
        for c in curves:
            if len(c) != times.size:
                raise ContractError("curve length does not match time samples")
        _panel(svg, (i % ncols) * _PANEL_W, (i // ncols) * _PANEL_H, times, curves, curve_labels, title)
    svg.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(svg) + "\n")
