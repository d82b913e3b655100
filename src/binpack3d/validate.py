"""Geometric feasibility judgement for (instance, packing) pairs.

The validator works on coordinates directly, with no model involved, and
returns a verdict per constraint family rather than raising: infeasibility
is a result, not an error.  Families (each measured and judged by the rules
in ``geometry`` that the solvers place cases by):

    overlap      two cases in the same bin intersect as open boxes
    boundary     a case leaves its bin's window in x, y or z
    bin_gap      a case straddles the seam between two bins
    support      credited support area below the threshold fraction

All of them, the objective and the utilizations are read from the one box
array of the packing that ``geometry.packing_boxes`` makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Instance,
    Packing,
    box_credit,
    box_objective,
    overhang,
    overlap_pairs,
    packing_boxes,
    support_deficit,
    within_tol,
)
from .metrics import box_utilizations

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
    boxes, bins = packing_boxes(inst, pack)
    threshold = support if support is not None else inst.support_threshold
    violations: list[Violation] = []
    x, y, z, dx, dy, dz = boxes.T

    # Boundary: each case within its bin's window along all three axes.
    # Bin gap: the x interval must not strictly contain an internal seam,
    # judged seam by seam.
    frame = np.array([(*inst.bin_window(j), b.width, b.height) for j, b in enumerate(inst.bins)])
    start, end, width, height = frame.reshape(-1, 4)[bins].T
    spill = np.maximum.reduce([overhang(start, 0.0, x), overhang(x, dx, end),
                               overhang(y, dy, width), overhang(z, dz, height)])
    flagged = [("boundary", spill)] + [
        ("bin_gap", np.minimum(overhang(seam, 0.0, x), overhang(x, dx, seam)))
        for seam in inst.cum_lengths[:-1]]
    for family, amount in flagged:
        for i in np.flatnonzero(~within_tol(amount, tol)).tolist():
            violations.append(Violation(family, (i,), amount[i].item()))

    # Overlap: same-bin pairs disjoint as open boxes, all bins' boxes
    # measured at once in the shared frame.
    a, b, depth = overlap_pairs(boxes, tol)
    same = bins[a] == bins[b]
    for pair in zip(a[same].tolist(), b[same].tolist(), depth[same].tolist()):
        violations.append(Violation("overlap", pair[:2], pair[2]))

    # Support: credited contact area against the threshold fraction, from
    # the boxes of the case's own bin.
    coverage: dict[int, float] = {}
    for j in (dict.fromkeys(bins.tolist()) if threshold is not None else ()):
        members = np.flatnonzero(bins == j)
        arr = boxes[members]
        credits = box_credit(arr, tol)
        deficits = support_deficit(threshold, arr[:, 3], arr[:, 4], credits)
        footprints = arr[:, 3] * arr[:, 4]
        for i, credit, deficit, footprint in zip(members.tolist(), credits.tolist(),
                                                 deficits.tolist(), footprints.tolist()):
            coverage[i] = credit / footprint if footprint > 0 else 1.0
            if not within_tol(deficit, tol):
                violations.append(Violation("support", (i,), deficit))

    violations.sort(key=lambda v: (_FAMILY_ORDER[v.family], v.cases))
    return AuditReport(
        feasible=not violations,
        violations=violations,
        objective=box_objective(inst, boxes, bins),
        utilization=box_utilizations(inst, boxes, bins),
        support_coverage=coverage,
    )
