"""Exhaustive exact solver for tiny instances.

Coordinates are restricted to the canonical grid: along each axis a case
sits at a sum of effective extents of other same-bin cases, offset by the
bin window.  Every bin assignment, orientation combination and grid
position is enumerated with overlap, boundary and objective-bound pruning,
so the result is the optimum over that grid.  This is the test oracle;
continuous-coordinate optimality is the job of external solvers fed with
the emitted model text.  Overlap, support credit and the bin-boundary and
support verdicts (``overhang``, ``support_deficit``) come from the scalar
forms in ``geometry``, which beat its vector kernel at four boxes, so a
packing found here passes the validator's checks by construction.
"""

from __future__ import annotations

import time
from itertools import combinations, product

from .geometry import (
    DEFAULT_TOL,
    Instance,
    Packing,
    PlacedBox,
    Placement,
    effective_dims,
    ground_support,
    orientation_set,
    overhang,
    penetration_depth,
    support_area,
    support_deficit,
    within_tol,
)
from .solvers import ExactResult, SolverConfig

_CHECK_EVERY = 4096
# largest instance, in cases, the enumeration takes on
_CASE_CAP = 4
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
    if m > _CASE_CAP:
        raise ValueError(f"exact solver capped at {_CASE_CAP} cases, instance has {m}")
    if m == 0:
        return ExactResult(Packing(()), 0.0, True)

    allowed = orientation_set(cfg.orientations)
    threshold = cfg.effective_support(inst)
    cases, bins = inst.cases, inst.bins
    weights = inst.case_weights

    deadline = None
    node_budget = None
    if cfg.deterministic:
        # a float: an infinite budget runs the enumeration to completion
        node_budget = cfg.time_limit * _NODES_PER_SECOND
    else:
        deadline = time.monotonic() + cfg.time_limit

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
            if any(j in used and j - 1 not in used
                   for grp in inst.type_ranges for j in grp[1:]):
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
                limits = ((x0, x1), (0.0, bins[j].width), (0.0, bins[j].height))
                xs, ys, zs = ([lo + v for v in _subset_sums(tuple(p[ax] for p in peers))
                               if within_tol(overhang(lo + v, dims[i][ax], hi))]
                              for ax, (lo, hi) in enumerate(limits))
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
        if not within_tol(support_deficit(threshold, box.dx, box.dy, credit)):
            return False
    return True
