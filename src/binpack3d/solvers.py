"""Shared solver configuration and result types."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

from .geometry import Instance, Packing

DEFAULT_NEIGHBORHOOD = {"restart": 1.0}

# Deterministic mode converts the time limit into an iteration budget at
# this fixed rate, so identical configs replay identically on any machine.
DETERMINISTIC_STEPS_PER_SECOND = 200


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the exact and heuristic solvers.

    ``support_threshold`` overrides the instance's threshold when set.
    ``orientations`` is 6 for free rotation or 2 to keep the height axis
    fixed.  ``restarts`` is how many constructions the heuristic runs
    before it searches, budget permitting.  ``neighborhood`` switches its search: with a positive
    ``"restart"`` weight it keeps restarting until the budget is spent or
    restarts stop lowering the objective; an empty map or a zero weight
    means construction only.  In ``deterministic`` mode the time limit
    maps to a fixed iteration budget instead of wall-clock time.

    A config is frozen once validated: fields cannot be reassigned, and
    ``neighborhood`` is a read-only copy of the mapping given.  Use
    ``dataclasses.replace`` for a changed copy.  Pickling and copying
    rebuild a config from its fields.
    """

    time_limit: float = 60.0
    seed: int = 0
    support_threshold: float | None = None
    restarts: int = 4
    neighborhood: Mapping[str, float] = field(default_factory=lambda: DEFAULT_NEIGHBORHOOD)
    orientations: int = 6
    deterministic: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "neighborhood", MappingProxyType(dict(self.neighborhood)))
        if not (math.isfinite(self.time_limit) and self.time_limit > 0):
            raise ValueError("time_limit must be a positive finite number")
        if not math.isfinite(self.time_limit * DETERMINISTIC_STEPS_PER_SECOND):
            raise ValueError("time_limit is too large for a finite step budget, "
                             f"got {self.time_limit!r}")
        if self.support_threshold is not None and not 0 <= self.support_threshold <= 1:
            raise ValueError("support_threshold must be in [0, 1]")
        for name in ("restarts", "orientations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.orientations not in (2, 6):
            raise ValueError("orientations must be 2 or 6")
        for name, weight in self.neighborhood.items():
            if name not in DEFAULT_NEIGHBORHOOD:
                raise ValueError(f"neighborhood: unknown search {name!r} "
                                 f"(known: {', '.join(DEFAULT_NEIGHBORHOOD)})")
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"neighborhood[{name!r}] must be a non-negative "
                                 f"finite weight, got {weight!r}")

    def __reduce__(self):
        # pickle cannot copy the read-only proxy: rebuild the config from its
        # fields, so a loaded copy is validated again
        args = {f.name: getattr(self, f.name) for f in fields(self)}
        args["neighborhood"] = dict(self.neighborhood)
        return type(self), tuple(args.values())

    def effective_support(self, inst: Instance) -> float | None:
        if self.support_threshold is not None:
            return self.support_threshold
        return inst.support_threshold

    def step_budget(self) -> int:
        return max(1, int(self.time_limit * DETERMINISTIC_STEPS_PER_SECOND))


@dataclass
class ExactResult:
    """Outcome of exhaustive grid enumeration.

    ``optimal`` is True when the enumeration ran to completion, so the
    result is the true grid optimum (or a proof of grid infeasibility when
    ``packing`` is None).
    """

    packing: Packing | None
    objective: float | None
    optimal: bool
    nodes: int = 0

    @property
    def feasible(self) -> bool:
        return self.packing is not None


@dataclass
class HeuristicResult:
    """Best packing found plus the trace of best-objective improvements.

    ``restarts_run`` counts constructions.  ``stats`` counts the run's
    work: ``best_spot_calls``, ``rows_settled`` (placement cells, one per
    searched slot and distinct shape of the searched orientations, whose
    resting height and fit were computed; a search settles each distinct
    shape once, and a bin keeps its cells between searches and settles a
    cell again only when a box that could change it was added),
    ``restarts_failed`` (constructions that met a case fitting nowhere)
    and ``restarts_rescued`` (restarts run beyond ``SolverConfig.restarts``
    while none had packed yet).  Under ``deterministic`` they replay
    exactly.
    """

    packing: Packing | None
    objective: float | None
    trace: list[tuple[float, float]] = field(default_factory=list)
    restarts_run: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.packing is not None
