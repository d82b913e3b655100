"""Constructive + local-search heuristic for benchmark-scale instances.

Construction inserts cases in volume-descending order (perturbed per
restart) at the anchor minimizing the incremental objective over all
allowed orientations.  Anchors are corner points of placed cases plus the
bin-floor origin; the z coordinate always comes from dropping the case
onto the highest surface below its footprint, which keeps placements
overlap-free by construction.  A dense anchor grid is tried before giving
up on a case.  Resting heights, support credit and the boundary and support
verdicts come from ``geometry``, the rules the validator judges by.

Improvement applies strict-descent moves until the budget runs out.  Each
move is one evict/re-place step (``_move``): take cases out while their
dependents stay supported (``_evict``), put them back largest-first at their
best spots, and keep the result only if the objective drops (``_undo``
otherwise).  Reinsert moves one case, swap two, and reorient one case at its
own bin and anchor in another orientation.  Construction's repair evicts and
re-places through the same two primitives.  In deterministic mode the time
limit maps to a fixed step budget so runs replay identically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOL,
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
from .solvers import (
    DETERMINISTIC_STEPS_PER_SECOND,
    CandidatePoint,
    HeuristicResult,
    SolverConfig,
)

_ANCHOR_CHUNK = 4096
_STALL_FACTOR = 60


class _BinState:
    """Mutable working set of one bin's placed boxes."""

    def __init__(self, inst: Instance, j: int):
        self.index = j
        self.x0, self.x1 = inst.bin_window(j)
        self.width = inst.bins[j].width
        self.height = inst.bins[j].height
        self.reset([])

    def reset(self, items: list[tuple]) -> None:
        # rows: (case_index, x, y, z, dx, dy, dz)
        self.items = items
        self._cache = self._pairs = None

    def arrays(self) -> np.ndarray:
        """The items' boxes as a ``(k, 6)`` array, in item order."""
        if self._cache is None:
            self._cache = np.array([it[1:] for it in self.items], dtype=float).reshape(-1, 6)
        return self._cache

    def support(self):
        """``support_pairs`` of the items' boxes resting on one another."""
        if self._pairs is None:
            arr = self.arrays()
            self._pairs = support_pairs(arr, *arr[:, :5].T)
        return self._pairs

    def add(self, case_index: int, x: float, y: float, z: float,
            dx: float, dy: float, dz: float) -> None:
        self.restore((case_index, x, y, z, dx, dy, dz))

    def remove(self, case_index: int) -> tuple:
        for pos, it in enumerate(self.items):
            if it[0] == case_index:
                item = self.items.pop(pos)
                self.reset(self.items)
                return item
        raise KeyError(case_index)

    def restore(self, item: tuple) -> None:
        self.items.append(item)
        self.reset(self.items)

    def top(self) -> float:
        return max((it[3] + it[6] for it in self.items), default=0.0)

    def anchors(self, dense: bool = False) -> np.ndarray:
        """Candidate (x, y) anchors: the bin-floor origin plus placed-case
        corners, or with ``dense`` every pair of corner coordinates."""
        if dense:
            xs = {self.x0}
            ys = {0.0}
            for _, px, py, _, dx, dy, _ in self.items:
                xs.update((px, px + dx))
                ys.update((py, py + dy))
            pairs = [(x, y) for x in sorted(xs) for y in sorted(ys)]
        else:
            pairs = {(self.x0, 0.0)}
            for _, px, py, _, dx, dy, _ in self.items:
                pairs.update(((px + dx, py), (px, py + dy), (px, py)))
            pairs = sorted(pairs)
        return np.array(pairs, dtype=float).reshape(-1, 2)


def candidate_anchors(inst: Instance, pack: Packing, bin_index: int) -> tuple[CandidatePoint, ...]:
    """Anchor points the constructor would consider for a bin, resolved to
    the surface under them: where a footprint just wider than the tolerance
    would rest.  Exposed for inspection; always includes the bin-floor
    origin."""
    state = _BinState(inst, bin_index)
    for p in pack.placements:
        if p.bin_index == bin_index:
            dx, dy, dz = effective_dims(inst.cases[p.case_index], p.orientation)
            state.add(p.case_index, p.x, p.y, p.z, dx, dy, dz)
    anchors = state.anchors()
    side = 2 * DEFAULT_TOL
    zs = rest_heights(state.arrays(), anchors[:, 0], anchors[:, 1], side, side)
    return tuple(CandidatePoint(bin_index, x, y, z)
                 for (x, y), z in zip(anchors.tolist(), zs.tolist()))


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
    """A full tentative packing under construction/improvement."""

    def __init__(self, inst: Instance, threshold: float | None):
        self.inst = inst
        self.threshold = threshold
        self.bins = [_BinState(inst, j) for j in range(inst.num_bins)]
        self.place: dict[int, tuple[int, float, float, float, int]] = {}
        self.weight = inst.case_weights

    def objective(self) -> float:
        total = 0.0
        for i, (j, _, _, z, k) in self.place.items():
            total += self.weight[i] * (z + effective_dims(self.inst.cases[i], k)[2])
        for bs in self.bins:
            if bs.items:
                total += bs.top() + self.inst.bins[bs.index].height
        return total

    def commit(self, case_index: int, spot: _Spot) -> None:
        dx, dy, dz = spot.dims
        self.bins[spot.bin_index].add(case_index, spot.x, spot.y, spot.z, dx, dy, dz)
        self.place[case_index] = (spot.bin_index, spot.x, spot.y, spot.z, spot.orientation)

    def remove(self, case_index: int) -> tuple:
        """Take a case out; ``restore`` appends the returned record back."""
        row = self.place.pop(case_index)
        return case_index, row, self.bins[row[0]].remove(case_index)

    def restore(self, record: tuple) -> None:
        case_index, row, item = record
        self.bins[row[0]].restore(item)
        self.place[case_index] = row

    def packing(self) -> Packing:
        return Packing(tuple(
            Placement(i, j, x, y, z, k)
            for i, (j, x, y, z, k) in sorted(self.place.items())))

    # -- placement search -------------------------------------------------

    def best_spot(self, case_index: int, allowed: tuple[int, ...],
                  dense: bool = False,
                  noise: dict[int, float] | None = None,
                  at: tuple[int, float, float] | None = None) -> _Spot | None:
        """Cheapest placement for a case over all bins and orientations.

        ``noise`` optionally scales each orientation's score; restarts use
        it to escape the pure-greedy orientation choice.  ``at=(bin, x, y)``
        limits the search to that one bin and anchor.
        """
        case = self.inst.cases[case_index]
        best: _Spot | None = None
        best_key = None
        for bs in self.bins if at is None else (self.bins[at[0]],):
            opening = 0.0 if bs.items else self.inst.bins[bs.index].height
            g_cur = bs.top()
            if at is not None:
                anchors = np.array([at[1:]], dtype=float)
            else:
                # the full anchor grid is small enough to use outright when
                # few boxes are placed, and it finds tucked spots corners miss
                anchors = bs.anchors(dense or len(bs.items) <= 8)
            for k in allowed:
                a, b, c = effective_dims(case, k)
                if not within_tol(max(overhang(bs.x0, a, bs.x1), overhang(0.0, b, bs.width),
                                      overhang(0.0, c, bs.height))):
                    continue
                spot = self._scan(bs, anchors, a, b, c, g_cur, opening,
                                  self.weight[case_index])
                if spot is not None:
                    score, z, y, x = spot
                    scale = noise[k] if noise else 1.0
                    cand = _Spot(score, z, y, x, bs.index, k, (a, b, c))
                    key = (score * scale, z, y, x, bs.index, k)
                    if best_key is None or key < best_key:
                        best, best_key = cand, key
        return best

    def _scan(self, bs: _BinState, anchors: np.ndarray, a: float, b: float,
              c: float, g_cur: float, opening: float, weight: float):
        """Best (score, z, y, x) over an anchor array for fixed dims."""
        arr = bs.arrays()
        best = None
        for start in range(0, len(anchors), _ANCHOR_CHUNK):
            xs = anchors[start:start + _ANCHOR_CHUNK, 0]
            ys = anchors[start:start + _ANCHOR_CHUNK, 1]
            ok = within_tol(overhang(xs, a, bs.x1)) & within_tol(overhang(ys, b, bs.width))
            xs, ys = xs[ok], ys[ok]
            z, fit = self._settle(bs, arr, xs, ys, a, b, c)
            if not fit.any():
                continue
            xs, ys, z = xs[fit], ys[fit], z[fit]
            score = weight * (z + c) + np.maximum(0.0, z + c - g_cur) + opening
            pick = np.lexsort((xs, ys, z, score))[0]
            cand = (float(score[pick]), float(z[pick]), float(ys[pick]), float(xs[pick]))
            if best is None or cand < best:
                best = cand
        return best

    def _settle(self, bs: _BinState, arr: np.ndarray, xs, ys, a, b, c):
        """Resting heights of ``a x b x c`` boxes dropped at ``(xs, ys)``, and
        whether each stays below the bin's top with enough support."""
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
    """Step budget (deterministic) or wall-clock deadline."""

    def __init__(self, cfg: SolverConfig):
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


def solve_heuristic(inst: Instance, cfg: SolverConfig | None = None) -> HeuristicResult:
    """Best-effort packing within the configured budget.

    Construction runs once per restart with increasingly perturbed
    insertion orders; while nothing feasible has been found and budget
    remains, extra rescue restarts keep trying.  The best construction
    then takes the remaining budget as improvement moves.  Returns an
    explicit failure (packing None) when no restart places every case.
    """
    cfg = cfg or SolverConfig()
    if inst.num_cases == 0:
        return HeuristicResult(Packing(()), 0.0, [], 0)
    allowed = orientation_set(cfg.orientations)
    threshold = cfg.effective_support(inst)
    budget = _Budget(cfg)

    best_state: _WorkState | None = None
    best_obj: float | None = None
    best_packing: Packing | None = None
    trace: list[tuple[float, float]] = []
    restarts_run = 0

    restart = 0
    while restart < cfg.restarts or (best_state is None and restart < _RESCUE_RESTARTS):
        if restart > 0 and budget.exhausted():
            break
        restarts_run += 1
        rng = random.Random(f"{cfg.seed}:{restart}")
        state = _construct(inst, cfg, allowed, threshold, restart, rng, budget)
        restart += 1
        if state is None:
            continue
        obj = state.objective()
        if best_obj is None or obj < best_obj - 1e-12:
            best_state, best_obj, best_packing = state, obj, state.packing()
            trace.append((budget.elapsed(), obj))

    if best_state is not None and not budget.exhausted():
        def on_improve(new_obj: float, st: _WorkState) -> None:
            nonlocal best_obj, best_packing
            if new_obj < best_obj - 1e-12:
                best_obj, best_packing = new_obj, st.packing()
                trace.append((budget.elapsed(), new_obj))

        rng = random.Random(f"{cfg.seed}:improve")
        _improve(best_state, best_obj, cfg, allowed, rng, budget, on_improve,
                 stall_limit=_STALL_FACTOR * inst.num_cases)

    return HeuristicResult(best_packing, best_obj, trace, restarts_run)


def _orientation_noise(allowed, restart: int, rng) -> dict[int, float] | None:
    if restart == 0:
        return None
    strength = min(1.5, 0.25 * restart)
    return {k: 1.0 + strength * rng.random() for k in allowed}


def _construct(inst, cfg, allowed, threshold, restart, rng, budget) -> _WorkState | None:
    state = _WorkState(inst, threshold)
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
        placed = []
        for v in [stuck] + sorted(victims, key=lambda v: -state.inst.cases[v].volume):
            if not _insert(state, v, allowed, noise):
                break
            placed.append(v)
        if len(placed) == len(victims) + 1:
            return True
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


def _improve(state: _WorkState, obj: float, cfg: SolverConfig, allowed, rng,
             budget, on_improve, stall_limit: int) -> float:
    m = state.inst.num_cases
    names = sorted(k for k, w in cfg.neighborhood.items() if w > 0)
    if not names:
        return obj
    weights = [cfg.neighborhood[k] for k in names]
    stall = 0
    while not budget.exhausted() and stall < stall_limit:
        budget.tick()
        move = rng.choices(names, weights)[0]
        improved = False
        if move == "reinsert":
            improved, obj = _move(state, obj, allowed, (rng.randrange(m),))
        elif move == "swap" and m >= 2:
            i1 = rng.randrange(m)
            i2 = rng.randrange(m - 1)
            if i2 >= i1:
                i2 += 1
            improved, obj = _move(state, obj, allowed, (i1, i2))
        elif move == "reorient":
            i = rng.randrange(m)
            j, x, y, _, k = state.place[i]
            others = tuple(k2 for k2 in allowed if k2 != k)
            improved, obj = _move(state, obj, others, (i,), at=(j, x, y))
        if improved:
            stall = 0
            on_improve(obj, state)
        else:
            stall += 1
    return obj


def _move(state: _WorkState, obj: float, allowed, cases, at=None):
    """Evict ``cases``, re-place them largest-first at their best spots
    (``at`` pins bin and anchor) and keep that only if the objective drops.
    Returns (improved, objective)."""
    taken = _evict(state, cases)
    if taken is None:
        return False, obj
    placed = []
    for i in sorted(cases, key=lambda i: -state.inst.cases[i].volume):
        spot = state.best_spot(i, allowed, at=at)
        if spot is None:
            break
        state.commit(i, spot)
        placed.append(i)
    if len(placed) == len(cases):
        new_obj = state.objective()
        if new_obj < obj - 1e-12:
            return True, new_obj
    _undo(state, placed, taken)
    return False, obj
