"""Exhaustive exact solver for tiny instances.

Coordinates are restricted to the canonical grid: along each axis a case
sits at a sum of effective extents of other same-bin cases, offset by the
bin window.  Every bin assignment, orientation combination and grid
position is enumerated with overlap, boundary and objective-bound pruning,
so the result is the optimum over that grid.  This is the test oracle;
continuous-coordinate optimality is the job of external solvers fed with
the emitted model text.  Overlap and support come from the scalar
predicates in ``geometry``, which beat its vector kernel at four boxes.
"""

from __future__ import annotations

import time
from itertools import combinations, product

from .geometry import (
    DEFAULT_TOL,
    ORIENTATIONS,
    UPRIGHT_ORIENTATIONS,
    Instance,
    Packing,
    PlacedBox,
    Placement,
    effective_dims,
    ground_support,
    penetration_depth,
    support_area,
)
from .solvers import ExactResult, SolverConfig

_CHECK_EVERY = 4096
_NODES_PER_SECOND = 200_000


def _subset_sums(values: tuple[float, ...]) -> list[float]:
    sums = {0.0}
    for size in range(1, len(values) + 1):
        for combo in combinations(values, size):
            sums.add(sum(combo))
    return sorted(sums)


def solve_exact(inst: Instance, cfg: SolverConfig | None = None) -> ExactResult:
    """Enumerate the canonical grid and return the best feasible packing.

    Raises ValueError when the instance exceeds the case cap; returns an
    explicitly infeasible result (packing None, optimal True) when the
    completed enumeration finds nothing.
    """
    cfg = cfg or SolverConfig()
    m, n = inst.num_cases, inst.num_bins
    if m > cfg.exact_cap:
        raise ValueError(
            f"exact solver capped at {cfg.exact_cap} cases, instance has {m}")
    if m == 0:
        return ExactResult(Packing(()), 0.0, True)

    allowed = ORIENTATIONS if cfg.orientations == 6 else UPRIGHT_ORIENTATIONS
    threshold = cfg.effective_support(inst)
    cases, bins = inst.cases, inst.bins
    vmax = max(c.volume for c in cases)
    weights = [c.volume / (m * vmax) for c in cases]

    deadline = None
    node_budget = None
    if cfg.deterministic:
        node_budget = int(cfg.time_limit * _NODES_PER_SECOND)
    else:
        deadline = time.monotonic() + cfg.time_limit

    # Type groups for the canonical prefix rule on identical bins.
    groups = []
    start = 0
    for spec in inst.bin_specs:
        groups.append(range(start, start + spec.quantity))
        start += spec.quantity

    best_obj: float | None = None
    best: list[Placement] | None = None
    nodes = 0
    timed_out = False

    def out_of_budget() -> bool:
        if node_budget is not None:
            return nodes > node_budget
        return nodes % _CHECK_EVERY == 0 and time.monotonic() > deadline

    for k_combo in product(allowed, repeat=m):
        dims = [effective_dims(cases[i], k_combo[i]) for i in range(m)]
        for bin_combo in product(range(n), repeat=m):
            used = set(bin_combo)
            if any(
                sorted(j for j in grp if j in used) != list(grp)[:sum(j in used for j in grp)]
                for grp in groups
            ):
                continue  # identical bins must be used in index order
            bins_h = sum(bins[j].height for j in used)
            static_lb = bins_h + sum(w * d[2] for w, d in zip(weights, dims))
            for j in used:
                static_lb += max(dims[i][2] for i in range(m) if bin_combo[i] == j)
            if best_obj is not None and static_lb >= best_obj - 1e-12:
                continue

            # Per-case position grids from same-bin peers' extents.
            grids: list[list[PlacedBox]] = []
            feasible_combo = True
            for i in range(m):
                j = bin_combo[i]
                x0, x1 = inst.bin_window(j)
                peers = [dims[i2] for i2 in range(m)
                         if i2 != i and bin_combo[i2] == j]
                xs = [x0 + v for v in _subset_sums(tuple(p[0] for p in peers))
                      if x0 + v + dims[i][0] <= x1 + DEFAULT_TOL]
                ys = [v for v in _subset_sums(tuple(p[1] for p in peers))
                      if v + dims[i][1] <= bins[j].width + DEFAULT_TOL]
                zs = [v for v in _subset_sums(tuple(p[2] for p in peers))
                      if v + dims[i][2] <= bins[j].height + DEFAULT_TOL]
                if not xs or not ys or not zs:
                    feasible_combo = False
                    break
                grids.append([PlacedBox(x, y, z, *dims[i])
                              for z, y, x in sorted(product(zs, ys, xs))])
            if not feasible_combo:
                continue

            placed: list[PlacedBox] = []

            def descend(idx: int, term1: float, tops: dict[int, float]) -> None:
                nonlocal nodes, best_obj, best, timed_out
                nodes += 1
                if timed_out or out_of_budget():
                    timed_out = True
                    return
                if idx == m:
                    obj = term1 + sum(tops.values()) + bins_h
                    if threshold is not None and not _stable(placed, bin_combo, threshold):
                        return
                    if best_obj is None or obj < best_obj - 1e-12:
                        best_obj = obj
                        best = [
                            Placement(i, bin_combo[i], box.x, box.y, box.z, k_combo[i])
                            for i, box in enumerate(placed)
                        ]
                    return
                dzi = dims[idx][2]
                j = bin_combo[idx]
                for box in grids[idx]:
                    top = box.z + dzi
                    new_top = max(tops.get(j, 0.0), top)
                    lb = term1 + weights[idx] * top
                    for i2 in range(idx + 1, m):
                        lb += weights[i2] * dims[i2][2]
                    lb += sum(tops.values()) - tops.get(j, 0.0) + new_top + bins_h
                    if best_obj is not None and lb >= best_obj - 1e-12:
                        continue
                    if any(bin_combo[i2] == j and penetration_depth(box, other) > DEFAULT_TOL
                           for i2, other in enumerate(placed)):
                        continue
                    placed.append(box)
                    old = tops.get(j, 0.0)
                    tops[j] = new_top
                    descend(idx + 1, term1 + weights[idx] * top, tops)
                    tops[j] = old
                    placed.pop()
                    if timed_out:
                        return

            descend(0, 0.0, {})
            if timed_out:
                break
        if timed_out:
            break

    if best is None:
        return ExactResult(None, None, not timed_out, nodes)
    return ExactResult(Packing(tuple(best)), best_obj, not timed_out, nodes)


def _stable(placed, bin_combo, threshold) -> bool:
    """Does every placed box get ``threshold`` of its footprint as support
    from the floor and the same-bin boxes below it?"""
    for i, box in enumerate(placed):
        credit = ground_support(box) + sum(
            support_area(other, box) for i2, other in enumerate(placed)
            if i2 != i and bin_combo[i2] == bin_combo[i])
        if credit < threshold * box.footprint - DEFAULT_TOL:
            return False
    return True
