"""Constructive multi-start heuristic for benchmark-scale instances.

Construction inserts cases in volume-descending order (perturbed per
restart) at the anchor minimizing the incremental objective over all
allowed orientations.  Anchors are corner points of placed cases plus the
bin-floor origin; the z coordinate always comes from dropping the case
onto the highest surface below its footprint, which keeps placements
overlap-free by construction.  A dense anchor grid is tried before giving
up on a case; that search first drops the rows whose floor overhangs the
bin's top (a footprint of the rows' least length and width overlaps a
subset of the boxes each row's footprint does, even under rounding, so no
row rests below its floor).  One placement search settles each bin once:
the in-bin anchors of every allowed orientation go through
``rest_heights`` and the support check as one batch of rows with per-row
dimensions, and each orientation's best row is then picked by
(score, z, y, x) as if it had been scanned alone.  Resting heights,
support credit and the boundary and support verdicts come from
``geometry``, the rules the validator judges by.  A case that fits nowhere
is repaired: a few cases are taken out while their dependents stay
supported (``_evict``), the stuck case goes in first and the evicted ones
are re-placed largest-first, or the attempt is undone (``_undo``).

The search is the restart loop: restart r constructs with the insertion
order and orientation noise drawn from ``random.Random(f"{seed}:{r}")``,
perturbed harder as r grows.  After the configured restarts, and the
rescue restarts run while nothing has packed, restarts go on until the
budget is spent or ``_STALL_RESTARTS`` in a row have not lowered the best
objective.  In deterministic mode the time limit maps to a fixed step
budget so runs replay identically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Instance,
    Packing,
    Placement,
    effective_dims,
    orientation_set,
    overhang,
    rest_heights,
    support_credit,
    support_deficit,
    support_pairs,
    within_tol,
)
from .solvers import DETERMINISTIC_STEPS_PER_SECOND, HeuristicResult, SolverConfig

_ANCHOR_CHUNK = 4096


def _new_stats() -> dict[str, int]:
    """Zeroed run counters, the keys of ``HeuristicResult.stats``."""
    return dict.fromkeys(("best_spot_calls", "rows_settled", "rows_pruned", "restarts_failed",
                          "restarts_rescued", "repairs_attempted", "repairs_undone"), 0)


class _BinState:
    """Mutable working set of one bin's placed boxes: the item records and,
    row for row, their boxes as a ``(k, 6)`` array.  The top, the support
    pairs and the anchors are cached until the next change."""

    def __init__(self, inst: Instance, j: int):
        self.index = j
        self.x0, self.x1 = inst.bin_window(j)
        self.width = inst.bins[j].width
        self.height = inst.bins[j].height
        # rows: (case_index, x, y, z, dx, dy, dz)
        self.items: list[tuple] = []
        self._boxes = np.empty((0, 6))
        self._changed()

    def _changed(self) -> None:
        self._top = self._pairs = None
        self._anchors: dict[bool, np.ndarray] = {}

    def arrays(self) -> np.ndarray:
        """The items' boxes as a ``(k, 6)`` array, in item order."""
        return self._boxes

    def support(self):
        """``support_pairs`` of the items' boxes resting on one another."""
        if self._pairs is None:
            arr = self._boxes
            self._pairs = support_pairs(arr, *arr[:, :5].T)
        return self._pairs

    def add(self, case_index: int, x: float, y: float, z: float,
            dx: float, dy: float, dz: float) -> None:
        self.restore((case_index, x, y, z, dx, dy, dz))

    def remove(self, case_index: int) -> tuple:
        for pos, it in enumerate(self.items):
            if it[0] == case_index:
                self._boxes = np.delete(self._boxes, pos, axis=0)
                self._changed()
                return self.items.pop(pos)
        raise KeyError(case_index)

    def restore(self, item: tuple) -> None:
        self.items.append(item)
        self._boxes = np.vstack((self._boxes, item[1:]))
        self._changed()

    def top(self) -> float:
        if self._top is None:
            self._top = float((self._boxes[:, 2] + self._boxes[:, 5]).max(initial=0.0))
        return self._top

    def anchors(self, dense: bool = False) -> np.ndarray:
        """Candidate (x, y) anchors, sorted by x then y: the bin-floor origin
        plus placed-case corners, or with ``dense`` every pair of corner
        coordinates."""
        if dense not in self._anchors:
            x, y, _, dx, dy, _ = self._boxes.T
            if dense:
                xs = np.unique(np.concatenate(([self.x0], x, x + dx)))
                ys = np.unique(np.concatenate(([0.0], y, y + dy)))
                pts = np.column_stack((np.repeat(xs, len(ys)), np.tile(ys, len(xs))))
            else:
                # complex keys sort by real part, then imaginary: by x, then y
                keys = np.unique(np.concatenate((
                    [complex(self.x0, 0.0)], x + dx + 1j * y, x + 1j * (y + dy), x + 1j * y)))
                pts = np.column_stack((keys.real, keys.imag))
            self._anchors[dense] = pts
        return self._anchors[dense]


@dataclass
class _Spot:
    score: float
    z: float
    y: float
    x: float
    bin_index: int
    orientation: int
    dims: tuple[float, float, float]


class _WorkState:
    """A full tentative packing under construction."""

    def __init__(self, inst: Instance, threshold: float | None,
                 stats: dict[str, int] | None = None):
        self.inst = inst
        self.threshold = threshold
        self.bins = [_BinState(inst, j) for j in range(inst.num_bins)]
        self.place: dict[int, tuple[int, float, float, float, int]] = {}
        # each placed case's top z + dz, in the same insertion order as place
        self.tops: dict[int, float] = {}
        self.weight = inst.case_weights
        self.stats = _new_stats() if stats is None else stats

    def objective(self) -> float:
        total = 0.0
        for i, top in self.tops.items():
            total += self.weight[i] * top
        for bs in self.bins:
            if bs.items:
                total += bs.top() + self.inst.bins[bs.index].height
        return total

    def commit(self, case_index: int, spot: _Spot) -> None:
        dx, dy, dz = spot.dims
        self.bins[spot.bin_index].add(case_index, spot.x, spot.y, spot.z, dx, dy, dz)
        self.place[case_index] = (spot.bin_index, spot.x, spot.y, spot.z, spot.orientation)
        self.tops[case_index] = spot.z + dz

    def remove(self, case_index: int) -> tuple:
        """Take a case out; ``restore`` appends the returned record back."""
        row = self.place.pop(case_index)
        self.tops.pop(case_index)
        return case_index, row, self.bins[row[0]].remove(case_index)

    def restore(self, record: tuple) -> None:
        case_index, row, item = record
        self.bins[row[0]].restore(item)
        self.place[case_index] = row
        self.tops[case_index] = item[3] + item[6]

    def packing(self) -> Packing:
        return Packing(tuple(
            Placement(i, j, x, y, z, k)
            for i, (j, x, y, z, k) in sorted(self.place.items())))

    # -- placement search -------------------------------------------------

    def best_spot(self, case_index: int, allowed: tuple[int, ...],
                  dense: bool = False,
                  noise: dict[int, float] | None = None) -> _Spot | None:
        """Cheapest placement for a case over all bins and orientations.

        ``noise`` optionally scales each orientation's score; restarts use
        it to escape the pure-greedy orientation choice.  ``dense`` searches
        every bin's full anchor grid, less the rows whose floor overhangs
        the bin's top.
        """
        self.stats["best_spot_calls"] += 1
        case = self.inst.cases[case_index]
        dims = {k: effective_dims(case, k) for k in allowed}
        best: _Spot | None = None
        best_key = None
        for bs in self.bins:
            opening = 0.0 if bs.items else self.inst.bins[bs.index].height
            # the full anchor grid is small enough to use outright when few
            # boxes are placed, and it finds tucked spots corners miss
            anchors = bs.anchors(dense or len(bs.items) <= 8)
            fits = [k for k in allowed
                    if within_tol(max(overhang(bs.x0, dims[k][0], bs.x1),
                                      overhang(0.0, dims[k][1], bs.width),
                                      overhang(0.0, dims[k][2], bs.height)))]
            spots = self._scan(bs, anchors, [dims[k] for k in fits], bs.top(), opening,
                               self.weight[case_index], dense)
            for k, spot in zip(fits, spots):
                if spot is not None:
                    score, z, y, x = spot
                    scale = noise[k] if noise else 1.0
                    key = (score * scale, z, y, x, bs.index, k)
                    if best_key is None or key < best_key:
                        best, best_key = _Spot(score, z, y, x, bs.index, k, dims[k]), key
        return best

    def _scan(self, bs: _BinState, anchors: np.ndarray, dims: list[tuple],
              g_cur: float, opening: float, weight: float,
              dense: bool = False) -> list:
        """Best (score, z, y, x) over an anchor array for each ``(a, b, c)``
        in ``dims``, or None where no anchor fits.  The in-bin anchors of all
        dims are settled together, ``_ANCHOR_CHUNK`` rows at a time.  With
        ``dense``, rows whose floor overhangs the bin's top are dropped
        first."""
        if not dims:
            return []
        xs, ys = anchors[:, 0], anchors[:, 1]
        rows = [(within_tol(overhang(xs, a, bs.x1))
                 & within_tol(overhang(ys, b, bs.width))).nonzero()[0] for a, b, _ in dims]
        group = np.repeat(np.arange(len(dims)), [len(r) for r in rows])
        rows = np.concatenate(rows)
        abc = np.array(dims)[group]
        arr = bs.arrays()
        if dense and len(rows):
            # the floor: where a footprint of the least a and b rests, which
            # no row rests below
            floor = rest_heights(arr, xs, ys, *abc[:, :2].min(axis=0))[rows]
            keep = within_tol(overhang(floor, abc[:, 2], bs.height))
            self.stats["rows_pruned"] += len(rows) - int(keep.sum())
            rows, group, abc = rows[keep], group[keep], abc[keep]
        xs, ys = xs[rows], ys[rows]
        self.stats["rows_settled"] += len(rows)
        best = [None] * len(dims)
        for start in range(0, len(rows), _ANCHOR_CHUNK):
            part = slice(start, start + _ANCHOR_CHUNK)
            x, y, g = xs[part], ys[part], group[part]
            a, b, c = abc[part].T
            z, fit = self._settle(bs, arr, x, y, a, b, c)
            if not fit.any():
                continue
            x, y, g, z, c = x[fit], y[fit], g[fit], z[fit], c[fit]
            score = weight * (z + c) + np.maximum(0.0, z + c - g_cur) + opening
            # each group's first row in (score, z, y, x) order
            order = np.lexsort((x, y, z, score, g))
            firsts = order[np.flatnonzero(np.diff(g[order], prepend=-1))]
            for p in firsts.tolist():
                cand = (float(score[p]), float(z[p]), float(y[p]), float(x[p]))
                if best[g[p]] is None or cand < best[g[p]]:
                    best[g[p]] = cand
        return best

    def _settle(self, bs: _BinState, arr: np.ndarray, xs, ys, a, b, c):
        """Resting heights of ``a x b x c`` boxes dropped at ``(xs, ys)``, and
        whether each stays below the bin's top with enough support.  ``a``,
        ``b`` and ``c`` are scalars or one value per anchor."""
        z = rest_heights(arr, xs, ys, a, b)
        fit = within_tol(overhang(z, c, bs.height))
        if self.threshold is not None:
            base, _, area = support_pairs(arr, xs, ys, z, a, b)
            credit = support_credit(z, a, b, base, area)
            fit &= within_tol(support_deficit(self.threshold, a, b, credit))
        return z, fit

    def removal_safe(self, case_index: int) -> bool:
        """Would removing this case leave every case resting on it supported?"""
        if self.threshold is None:
            return True
        bs = self.bins[self.place[case_index][0]]
        pos = next(p for p, it in enumerate(bs.items) if it[0] == case_index)
        base, box, area = bs.support()
        resting = base[(box == pos) & (base != pos) & (area > 0)]
        if not len(resting):
            return True
        keep = (box != pos) & (box != base)
        arr = bs.arrays()
        z, dx, dy = arr[:, 2], arr[:, 3], arr[:, 4]
        credit = support_credit(z, dx, dy, base[keep], area[keep])
        return bool(within_tol(support_deficit(self.threshold, dx, dy, credit))[resting].all())


def _case_order(inst: Instance, restart: int, rng: random.Random) -> list[int]:
    """Volume-descending insertion order, perturbed harder each restart."""
    if restart == 0:
        keys = {i: -inst.cases[i].volume for i in range(inst.num_cases)}
    else:
        strength = min(3.0, 0.4 * restart)
        keys = {i: -inst.cases[i].volume * (1.0 + strength * rng.random())
                for i in range(inst.num_cases)}
    return sorted(range(inst.num_cases), key=lambda i: (keys[i], i))


class _Budget:
    """Step budget (deterministic) or wall-clock deadline, and the run's
    counters."""

    def __init__(self, cfg: SolverConfig):
        self.stats = _new_stats()
        self.deterministic = cfg.deterministic
        self.steps_total = cfg.step_budget()
        self.steps = 0
        self.start = time.monotonic()
        self.deadline = self.start + cfg.time_limit

    def tick(self, amount: int = 1) -> None:
        self.steps += amount

    def exhausted(self) -> bool:
        if self.deterministic:
            return self.steps >= self.steps_total
        return time.monotonic() >= self.deadline

    def elapsed(self) -> float:
        if self.deterministic:
            return self.steps / DETERMINISTIC_STEPS_PER_SECOND
        return time.monotonic() - self.start


_RESCUE_RESTARTS = 200
_STALL_RESTARTS = 4


def solve_heuristic(inst: Instance, cfg: SolverConfig | None = None) -> HeuristicResult:
    """Best-effort packing within the configured budget.

    Construction runs once per restart with increasingly perturbed
    insertion orders; while nothing feasible has been found and budget
    remains, rescue restarts keep trying.  Unless ``cfg.neighborhood``
    turns the search off, restarts then go on until the budget is spent or
    ``_STALL_RESTARTS`` in a row have not lowered the best objective.
    Returns an explicit failure (packing None) when no restart places
    every case.
    """
    cfg = cfg or SolverConfig()
    if inst.num_cases == 0:
        return HeuristicResult(Packing(()), 0.0, [], 0, _new_stats())
    allowed = orientation_set(cfg.orientations)
    threshold = cfg.effective_support(inst)
    budget = _Budget(cfg)
    search = cfg.neighborhood.get("restart", 0.0) > 0

    best_obj: float | None = None
    best_packing: Packing | None = None
    trace: list[tuple[float, float]] = []
    restart = stall = 0  # stall: restarts since the best objective last dropped
    while (restart < cfg.restarts
           or (best_obj is None and restart < _RESCUE_RESTARTS)
           or (search and best_obj is not None and stall < _STALL_RESTARTS)):
        if restart > 0 and budget.exhausted():
            break
        if best_obj is None and restart >= cfg.restarts:
            budget.stats["restarts_rescued"] += 1
        rng = random.Random(f"{cfg.seed}:{restart}")
        state = _construct(inst, cfg, allowed, threshold, restart, rng, budget)
        restart += 1
        stall += 1
        if state is None:
            budget.stats["restarts_failed"] += 1
            continue
        obj = state.objective()
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj, best_packing = obj, state.packing()
            trace.append((budget.elapsed(), obj))
            stall = 0

    return HeuristicResult(best_packing, best_obj, trace, restart, budget.stats)


def _orientation_noise(allowed, restart: int, rng) -> dict[int, float] | None:
    if restart == 0:
        return None
    strength = min(1.5, 0.25 * restart)
    return {k: 1.0 + strength * rng.random() for k in allowed}


def _construct(inst, cfg, allowed, threshold, restart, rng, budget) -> _WorkState | None:
    state = _WorkState(inst, threshold, budget.stats)
    order = _case_order(inst, restart, rng)
    for i in order:
        budget.tick()
        noise = _orientation_noise(allowed, restart, rng)
        if not _insert(state, i, allowed, noise):
            if not _repair(state, i, allowed, rng, budget, noise):
                return None
    return state


def _insert(state: _WorkState, i: int, allowed, noise=None) -> bool:
    spot = state.best_spot(i, allowed, noise=noise)
    if spot is None:
        spot = state.best_spot(i, allowed, dense=True, noise=noise)
    if spot is None:
        return False
    state.commit(i, spot)
    return True


def _repair(state: _WorkState, stuck: int, allowed, rng, budget, noise=None,
            tries: int = 24) -> bool:
    """Unstick construction: evict a few cases, place the stuck one first,
    then re-place the evicted ones largest-first."""
    population = sorted(state.place)
    if not population:
        return False
    for attempt in range(tries):
        if budget.exhausted() and attempt > 0:
            return False
        budget.tick()
        victims = rng.sample(population, min(2 + attempt // 4, len(population)))
        if any(not state.removal_safe(v) for v in victims):
            continue
        taken = _evict(state, sorted(victims))
        if taken is None:
            continue
        state.stats["repairs_attempted"] += 1
        placed = []
        for v in [stuck] + sorted(victims, key=lambda v: -state.inst.cases[v].volume):
            if not _insert(state, v, allowed, noise):
                break
            placed.append(v)
        if len(placed) == len(victims) + 1:
            return True
        state.stats["repairs_undone"] += 1
        _undo(state, placed, taken)
    return False


def _evict(state: _WorkState, cases) -> list[tuple] | None:
    """Take ``cases`` out in order, each only while ``removal_safe`` holds at
    its turn.  All or nothing: returns the removal records, or None after
    putting back what was already taken."""
    taken = []
    for i in cases:
        if not state.removal_safe(i):
            _undo(state, (), taken)
            return None
        taken.append(state.remove(i))
    return taken


def _undo(state: _WorkState, placed, taken) -> None:
    """Remove the re-placed cases newest first, then restore the taken ones
    in order."""
    for i in reversed(placed):
        state.remove(i)
    for record in taken:
        state.restore(record)
