"""Geometric feasibility judgement for (instance, packing) pairs.

The validator works on coordinates directly, with no model involved, and
returns a verdict per constraint family rather than raising: infeasibility
is a result, not an error.  Families:

    overlap      two cases in the same bin intersect as open boxes
    boundary     a case leaves its bin's window in x, y or z
    bin_gap      a case straddles the seam between two bins
    support      credited support area below the threshold fraction
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Instance,
    Packing,
    box_array,
    check_packing,
    objective_value,
    penetration_matrix,
    placed_box,
    support_credit,
    support_pairs,
)
from .metrics import bin_utilizations

FAMILIES = ("overlap", "boundary", "bin_gap", "support")

_FAMILY_ORDER = {name: pos for pos, name in enumerate(FAMILIES)}


@dataclass(frozen=True)
class Violation:
    family: str
    cases: tuple[int, ...]
    magnitude: float

    def to_dict(self) -> dict:
        return {"family": self.family, "cases": list(self.cases),
                "magnitude": self.magnitude}


@dataclass
class AuditReport:
    """Verdict plus per-family violations and solution metrics."""

    feasible: bool
    violations: list[Violation]
    objective: float
    utilization: dict[int, float]
    support_coverage: dict[int, float] = field(default_factory=dict)

    @property
    def overall(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "violations": [v.to_dict() for v in self.violations],
            "metrics": {
                "objective": self.objective,
                "utilization": {str(j): u for j, u in sorted(self.utilization.items())},
                "support_coverage": {str(i): c for i, c in
                                     sorted(self.support_coverage.items())},
            },
        }


def validate(inst: Instance, pack: Packing, tol: float = DEFAULT_TOL,
             support: float | None = None) -> AuditReport:
    """Judge a packing against the geometric packing semantics.

    ``support`` overrides the instance's own support threshold; pass None
    to fall back to it (and to disabled when the instance has none).
    Raises ValueError for a ``tol`` that is negative or not finite, a
    ``support`` outside [0, 1] and structurally broken packings (wrong
    placement count or out-of-range indices); every geometric defect
    becomes a violation.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tolerance must be a finite number >= 0")
    if support is not None and not 0 <= support <= 1:
        raise ValueError("support threshold must lie in [0, 1]")
    check_packing(inst, pack)
    threshold = support if support is not None else inst.support_threshold
    violations: list[Violation] = []

    boxes = {}
    for p in pack.placements:
        boxes[p.case_index] = placed_box(inst.cases[p.case_index], p)

    # Boundary: each case within its bin's window along all three axes.
    for p in pack.placements:
        box = boxes[p.case_index]
        start, end = inst.bin_window(p.bin_index)
        bn = inst.bins[p.bin_index]
        spill = max(start - box.x, box.x + box.dx - end,
                    box.y + box.dy - bn.width, box.top - bn.height)
        if spill > tol:
            violations.append(Violation("boundary", (p.case_index,), spill))

    # Bin gap: the x interval must not strictly contain an internal seam.
    for p in pack.placements:
        box = boxes[p.case_index]
        for seam in inst.cum_lengths[:-1]:
            if box.x < seam - tol and box.x + box.dx > seam + tol:
                depth = min(seam - box.x, box.x + box.dx - seam)
                violations.append(Violation("bin_gap", (p.case_index,), depth))

    # Overlap (same-bin pairs disjoint as open boxes) and support (credited
    # contact area against the threshold fraction), one bin at a time.
    by_bin: dict[int, list[int]] = {}
    for p in pack.placements:
        by_bin.setdefault(p.bin_index, []).append(p.case_index)
    coverage: dict[int, float] = {}
    for members in by_bin.values():
        arr = box_array(boxes[i] for i in members)
        depth = penetration_matrix(arr)
        for a, b in zip(*np.triu(depth > tol, 1).nonzero()):
            violations.append(Violation("overlap", (members[a], members[b]),
                                        float(depth[a, b])))
        if threshold is None:
            continue
        x, y, z, dx, dy = arr[:, :5].T
        base, box, area = support_pairs(arr, x, y, z, dx, dy, tol)
        others = base != box
        credits = support_credit(z, dx, dy, base[others], area[others], tol)
        for i, credit in zip(members, credits.tolist()):
            footprint = boxes[i].footprint
            coverage[i] = credit / footprint if footprint > 0 else 1.0
            deficit = threshold * footprint - credit
            if deficit > tol:
                violations.append(Violation("support", (i,), deficit))

    violations.sort(key=lambda v: (_FAMILY_ORDER[v.family], v.cases))
    return AuditReport(
        feasible=not violations,
        violations=violations,
        objective=objective_value(inst, pack),
        utilization=bin_utilizations(inst, pack),
        support_coverage=coverage,
    )
