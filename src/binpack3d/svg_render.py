"""Deterministic SVG drawings of packings.

Views project the global frame onto a plane: ``top`` (x/y), ``front``
(x/z), ``side`` (y/z).  ``layers`` renders one top-view cross section per
distinct base height in the packing.  Cases are colored by their catalogue
id; the overlap region of every pair that ``validate`` reports as
overlapping (penetration beyond ``DEFAULT_TOL``) is stroked in the
violation style so defects are visible at a glance.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Instance,
    Packing,
    box_array,
    check_packing,
    penetration_matrix,
    placed_box,
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


def _overlap_rects(inst: Instance, pack: Packing, axes: tuple[int, int]) -> list[tuple]:
    """Projected overlap regions of the pairs ``validate`` reports."""
    boxes = box_array(placed_box(inst.cases[p.case_index], p) for p in pack.placements)
    bins = np.array([p.bin_index for p in pack.placements])
    hits = (penetration_matrix(boxes) > DEFAULT_TOL) & (bins[:, None] == bins)
    lo, hi = boxes[:, :3], boxes[:, :3] + boxes[:, 3:]
    u, v = axes
    out = []
    for a, b in zip(*np.triu(hits, 1).nonzero()):
        low = np.maximum(lo[a], lo[b]).tolist()
        high = np.minimum(hi[a], hi[b]).tolist()
        out.append((low[u], low[v], high[u] - low[u], high[v] - low[v]))
    return out


def render_svg(inst: Instance, pack: Packing, view: str = "top") -> str:
    """Render a packing to SVG text (deterministic for fixed inputs)."""
    check_packing(inst, pack)
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}, got {view!r}")
    if view == "layers":
        return _render_layers(inst, pack)

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

    for p in pack.placements:
        box = placed_box(inst.cases[p.case_index], p)
        coords = ((box.x, box.y, box.z), (box.dx, box.dy, box.dz))
        u, v = axes
        lines.append(panel.rect(coords[0][u], coords[0][v], coords[1][u],
                                coords[1][v],
                                _case_style(inst.cases[p.case_index].spec_id)))
    for u0, v0, du, dv in _overlap_rects(inst, pack, axes):
        lines.append(panel.rect(u0, v0, du, dv, _VIOLATION_STYLE))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_layers(inst: Instance, pack: Packing) -> str:
    levels = sorted({p.z for p in pack.placements})
    fw, fh = inst.total_length, inst.max_width
    scale = min(_SCALE_TARGET / max(fw, fh), 240.0 / max(fw, fh))
    panel_h = fh * scale + 28.0
    width = fw * scale + 2 * _MARGIN
    height = _MARGIN + panel_h * max(1, len(levels)) + _MARGIN
    lines = [_svg_open(width, height)]
    boxes = {p.case_index: placed_box(inst.cases[p.case_index], p)
             for p in pack.placements}
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
        for p in pack.placements:
            box = boxes[p.case_index]
            if box.z <= level + DEFAULT_TOL < box.top:
                lines.append(panel.rect(box.x, box.y, box.dx, box.dy,
                                        _case_style(inst.cases[p.case_index].spec_id)))
        lines.append(f'  <g class="layer-sep" data-z="{_fmt(level)}"></g>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _svg_open(width: float, height: float) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
            f'font-family="Helvetica, Arial, sans-serif">')
