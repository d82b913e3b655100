"""Deterministic SVG drawings of packings.

Views project the global frame onto a plane: ``top`` (x/y), ``front``
(x/z), ``side`` (y/z).  ``layers`` renders one top-view cross section per
distinct base height in the packing.  Cases are colored by their catalogue
id; the overlap region of every pair that ``validate`` reports as
overlapping (penetration beyond ``DEFAULT_TOL``) is stroked in the
violation style so defects are visible at a glance.  The pairs come from
``geometry.overlap_pairs`` over all boxes in the shared frame, kept to the
pairs within one bin, in ``validate``'s order.  A render draws the cases,
the marks and the layers from one ``geometry.packing_boxes`` array.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Instance,
    Packing,
    overlap_pairs,
    packing_boxes,
)

VIEWS = ("top", "front", "side", "layers")

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#2f4b7c", "#a05195",
)

_VIOLATION_STYLE = 'fill="none" stroke="#d62728" stroke-width="1.2" stroke-dasharray="4,2" class="violation"'

_SCALE_TARGET = 760.0
_MARGIN = 20.0


def _fmt(value: float) -> str:
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _color(spec_id: int) -> str:
    return _PALETTE[spec_id % len(_PALETTE)]


def _rect(x: float, y: float, w: float, h: float, style: str) -> str:
    return (f'  <rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" {style}/>')


class _Panel:
    """One scaled drawing area with a y-flip (SVG y grows downward)."""

    def __init__(self, ox: float, oy: float, width: float, height: float, scale: float):
        self.ox, self.oy = ox, oy
        self.width, self.height = width, height
        self.scale = scale

    def rect(self, x: float, y: float, w: float, h: float, style: str) -> str:
        sx = self.ox + x * self.scale
        sy = self.oy + (self.height - y - h) * self.scale
        return _rect(sx, sy, w * self.scale, h * self.scale, style)


def _case_style(spec_id: int) -> str:
    return (f'fill="{_color(spec_id)}" fill-opacity="0.8" stroke="#333" '
            f'stroke-width="0.6" class="case"')


_BIN_STYLE = 'fill="none" stroke="#888" stroke-width="1"'


def _overlap_rects(boxes: np.ndarray, bins: np.ndarray, axes: tuple[int, int]) -> list[tuple]:
    """Projected overlap regions of the pairs ``validate`` reports."""
    a, b, _ = overlap_pairs(boxes, DEFAULT_TOL)
    same = bins[a] == bins[b]
    a, b = a[same], b[same]
    low = np.maximum(boxes[a, :3], boxes[b, :3])
    size = np.minimum(boxes[a, :3] + boxes[a, 3:], boxes[b, :3] + boxes[b, 3:]) - low
    u, v = axes
    return list(zip(*(col.tolist() for col in (low[:, u], low[:, v], size[:, u], size[:, v]))))


def render_svg(inst: Instance, pack: Packing, view: str = "top") -> str:
    """Render a packing to SVG text (deterministic for fixed inputs)."""
    boxes, bins = packing_boxes(inst, pack)
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}, got {view!r}")
    if view == "layers":
        return _render_layers(inst, boxes.tolist())

    axes, frame = {
        "top": ((0, 1), (inst.total_length, inst.max_width)),
        "front": ((0, 2), (inst.total_length, inst.max_height)),
        "side": ((1, 2), (inst.max_width, inst.max_height)),
    }[view]
    fw, fh = frame
    scale = _SCALE_TARGET / max(fw, fh)
    panel = _Panel(_MARGIN, _MARGIN, fw, fh, scale)
    lines = [_svg_open(fw * scale + 2 * _MARGIN, fh * scale + 2 * _MARGIN)]

    for j in range(inst.num_bins):
        start, end = inst.bin_window(j)
        bn = inst.bins[j]
        extent = {
            "top": (start, 0.0, end - start, bn.width),
            "front": (start, 0.0, end - start, bn.height),
            "side": (0.0, 0.0, bn.width, bn.height),
        }[view]
        lines.append(panel.rect(*extent, _BIN_STYLE))

    u, v = axes
    for box, case in zip(boxes.tolist(), inst.cases):
        lines.append(panel.rect(box[u], box[v], box[3 + u], box[3 + v],
                                _case_style(case.spec_id)))
    for u0, v0, du, dv in _overlap_rects(boxes, bins, axes):
        lines.append(panel.rect(u0, v0, du, dv, _VIOLATION_STYLE))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_layers(inst: Instance, rows: list) -> str:
    levels = sorted({row[2] for row in rows})
    fw, fh = inst.total_length, inst.max_width
    scale = min(_SCALE_TARGET / max(fw, fh), 240.0 / max(fw, fh))
    panel_h = fh * scale + 28.0
    width = fw * scale + 2 * _MARGIN
    height = _MARGIN + panel_h * max(1, len(levels)) + _MARGIN
    lines = [_svg_open(width, height)]
    for row, level in enumerate(levels):
        oy = _MARGIN + row * panel_h + 20.0
        panel = _Panel(_MARGIN, oy, fw, fh, scale)
        lines.append(f'  <text x="{_fmt(_MARGIN)}" y="{_fmt(oy - 6)}" '
                     f'font-size="12" fill="#333" class="layer-label">'
                     f'z = {_fmt(level)}</text>')
        for j in range(inst.num_bins):
            start, end = inst.bin_window(j)
            lines.append(panel.rect(start, 0.0, end - start,
                                    inst.bins[j].width, _BIN_STYLE))
        for (x, y, z, dx, dy, dz), case in zip(rows, inst.cases):
            if z <= level + DEFAULT_TOL < z + dz:
                lines.append(panel.rect(x, y, dx, dy, _case_style(case.spec_id)))
        lines.append(f'  <g class="layer-sep" data-z="{_fmt(level)}"></g>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _svg_open(width: float, height: float) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
            f'font-family="Helvetica, Arial, sans-serif">')
