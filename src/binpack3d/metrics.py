"""Solution-quality metrics and run reports."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import Instance, Packing, bin_tops, packing_boxes


class BoundInconsistencyWarning(UserWarning):
    """The supplied bound exceeds the objective it should bound."""


def utilization(inst: Instance, pack: Packing, bin_index: int) -> float | None:
    """Packed case volume over bin volume up to the topmost occupied height.

    Returns None for an unused bin: the occupied height is zero there, so
    the ratio is undefined and reports omit it.
    """
    used = bin_utilizations(inst, pack)
    if not 0 <= bin_index < inst.num_bins:
        raise ValueError(f"unknown bin index {bin_index}")
    return used.get(bin_index)


def bin_utilizations(inst: Instance, pack: Packing) -> dict[int, float]:
    """Utilization for every used bin, keyed by bin index."""
    return box_utilizations(inst, *packing_boxes(inst, pack))


def box_utilizations(inst: Instance, boxes: np.ndarray, bins: np.ndarray) -> dict[int, float]:
    """``bin_utilizations`` of ``packing_boxes``' arrays: each bin's case
    volumes summed in case order, over its floor area times its top."""
    volumes = np.bincount(bins, weights=[c.volume for c in inst.cases],
                          minlength=inst.num_bins).tolist()
    tops = bin_tops(inst, boxes, bins).tolist()
    return {j: volume / (inst.bins[j].length * inst.bins[j].width * tops[j])
            for j, volume in enumerate(volumes) if volume != 0.0}


def gap_vs_bound(objective: float, bound: float) -> float:
    """Relative gap (objective - bound) / objective.

    A bound above the objective is inconsistent; the negative gap is still
    returned but flagged with a BoundInconsistencyWarning.
    """
    if objective <= 0:
        raise ValueError("objective must be positive to compute a relative gap")
    gap = (objective - bound) / objective
    if bound > objective:
        warnings.warn(
            f"bound {bound} exceeds objective {objective}; negative gap",
            BoundInconsistencyWarning, stacklevel=2)
    return gap


@dataclass
class RunReport:
    """One solver run: what ran, what came out, how good it is."""

    instance: str
    solver: str
    time_limit: float
    feasible: bool
    objective: float | None = None
    utilization: dict[int, float] = field(default_factory=dict)
    relative_gap: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "instance": self.instance,
            "solver": self.solver,
            "time_limit": self.time_limit,
            "feasible": self.feasible,
            "objective": self.objective,
            "utilization": {str(j): u for j, u in sorted(self.utilization.items())},
        }
        if self.relative_gap is not None:
            doc["relative_gap"] = self.relative_gap
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        doc = json.loads(text)
        return cls(
            instance=doc["instance"],
            solver=doc["solver"],
            time_limit=doc["time_limit"],
            feasible=doc["feasible"],
            objective=doc.get("objective"),
            utilization={int(j): u for j, u in doc.get("utilization", {}).items()},
            relative_gap=doc.get("relative_gap"),
        )
