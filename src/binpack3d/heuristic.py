"""Constructive + local-search heuristic for benchmark-scale instances.

Construction inserts cases in volume-descending order (perturbed per
restart) at the anchor minimizing the incremental objective over all
allowed orientations.  Anchors are corner points of placed cases plus the
bin-floor origin; the z coordinate always comes from dropping the case
onto the highest surface below its footprint, which keeps placements
overlap-free by construction.  A dense anchor grid is tried before giving
up on a case.  Resting heights, support credit and bounds come from the
vector kernel in ``geometry`` at ``DEFAULT_TOL``, the validator's tolerance.

Improvement applies strict-descent moves (reinsert one case, swap a pair,
reorient in place) until the budget runs out.  In deterministic mode the
time limit maps to a fixed step budget so runs replay identically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    ORIENTATIONS,
    UPRIGHT_ORIENTATIONS,
    Instance,
    Packing,
    Placement,
    effective_dims,
    rest_heights,
    support_credit,
    support_pairs,
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
        m = inst.num_cases
        vmax = max(c.volume for c in inst.cases) if m else 1.0
        self.weight = [c.volume / (m * vmax) for c in inst.cases] if m else []

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

    def remove(self, case_index: int) -> tuple[int, tuple]:
        j = self.place.pop(case_index)[0]
        return j, self.bins[j].remove(case_index)

    def restore(self, case_index: int, j: int, item: tuple, orientation: int) -> None:
        self.bins[j].restore(item)
        self.place[case_index] = (j, item[1], item[2], item[3], orientation)

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
        it to escape the pure-greedy orientation choice.
        """
        case = self.inst.cases[case_index]
        best: _Spot | None = None
        best_key = None
        for bs in self.bins:
            opening = 0.0 if bs.items else self.inst.bins[bs.index].height
            g_cur = bs.top()
            # the full anchor grid is small enough to use outright when few
            # boxes are placed, and it finds tucked spots corners miss
            anchors = bs.anchors(dense or len(bs.items) <= 8)
            for k in allowed:
                a, b, c = effective_dims(case, k)
                if (a > bs.x1 - bs.x0 + DEFAULT_TOL or b > bs.width + DEFAULT_TOL
                        or c > bs.height + DEFAULT_TOL):
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
            ok = (xs + a <= bs.x1 + DEFAULT_TOL) & (ys + b <= bs.width + DEFAULT_TOL)
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
        fit = z + c <= bs.height + DEFAULT_TOL
        if self.threshold is not None:
            base, _, area = support_pairs(arr, xs, ys, z, a, b)
            fit &= support_credit(z, a, b, base, area) >= self.threshold * a * b - DEFAULT_TOL
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
        return bool((credit >= self.threshold * dx * dy - DEFAULT_TOL)[resting].all())


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
    allowed = ORIENTATIONS if cfg.orientations == 6 else UPRIGHT_ORIENTATIONS
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
    placed = sorted(state.place)
    if not placed:
        return False
    for attempt in range(tries):
        if budget.exhausted() and attempt > 0:
            return False
        budget.tick()
        victims = rng.sample(placed, min(2 + attempt // 4, len(placed)))
        if any(not state.removal_safe(v) for v in victims):
            continue
        snapshot = _snapshot(state)
        ok = True
        for v in sorted(victims):
            if not state.removal_safe(v):
                ok = False
                break
            state.remove(v)
        if ok:
            todo = [stuck] + sorted(victims, key=lambda v: -state.inst.cases[v].volume)
            ok = all(_insert(state, v, allowed, noise) for v in todo)
        if ok:
            return True
        _rollback(state, snapshot)
    return False


def _snapshot(state: _WorkState):
    return (dict(state.place), [list(bs.items) for bs in state.bins])


def _rollback(state: _WorkState, snapshot) -> None:
    place, items = snapshot
    state.place = dict(place)
    for bs, saved in zip(state.bins, items):
        bs.reset(list(saved))


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
            improved, obj = _move_reinsert(state, obj, allowed, rng.randrange(m))
        elif move == "swap" and m >= 2:
            i1 = rng.randrange(m)
            i2 = rng.randrange(m - 1)
            if i2 >= i1:
                i2 += 1
            improved, obj = _move_swap(state, obj, allowed, i1, i2)
        elif move == "reorient":
            improved, obj = _move_reorient(state, obj, allowed, rng.randrange(m))
        if improved:
            stall = 0
            on_improve(obj, state)
        else:
            stall += 1
    return obj


def _move_reinsert(state: _WorkState, obj: float, allowed, i: int):
    if not state.removal_safe(i):
        return False, obj
    _, _, _, _, k = state.place[i]
    j, item = state.remove(i)
    spot = state.best_spot(i, allowed)
    if spot is not None:
        state.commit(i, spot)
        new_obj = state.objective()
        if new_obj < obj - 1e-12:
            return True, new_obj
        state.remove(i)
    state.restore(i, j, item, k)
    return False, obj


def _move_swap(state: _WorkState, obj: float, allowed, i1: int, i2: int):
    if not state.removal_safe(i1):
        return False, obj
    k1 = state.place[i1][4]
    k2 = state.place[i2][4]
    j1, item1 = state.remove(i1)
    if not state.removal_safe(i2):
        state.restore(i1, j1, item1, k1)
        return False, obj
    j2, item2 = state.remove(i2)
    order = sorted((i1, i2), key=lambda i: -state.inst.cases[i].volume)
    committed = []
    for i in order:
        spot = state.best_spot(i, allowed)
        if spot is None:
            break
        state.commit(i, spot)
        committed.append(i)
    if len(committed) == 2:
        new_obj = state.objective()
        if new_obj < obj - 1e-12:
            return True, new_obj
    for i in reversed(committed):
        state.remove(i)
    state.restore(i1, j1, item1, k1)
    state.restore(i2, j2, item2, k2)
    return False, obj


def _move_reorient(state: _WorkState, obj: float, allowed, i: int):
    if not state.removal_safe(i):
        return False, obj
    j, x, y, _, k = state.place[i]
    _, item = state.remove(i)
    bs = state.bins[j]
    case = state.inst.cases[i]
    others = [k2 for k2 in allowed if k2 != k]
    dims = [effective_dims(case, k2) for k2 in others]
    a, b, c = np.array(dims).reshape(-1, 3).T
    xs, ys = np.full(len(dims), x), np.full(len(dims), y)
    z, fit = state._settle(bs, bs.arrays(), xs, ys, a, b, c)
    fit &= (xs + a <= bs.x1 + DEFAULT_TOL) & (ys + b <= bs.width + DEFAULT_TOL)
    best = None
    for k2, d, z2, ok in zip(others, dims, z.tolist(), fit.tolist()):
        if not ok:
            continue
        cand = _Spot(0.0, z2, y, x, j, k2, d)
        state.commit(i, cand)
        new_obj = state.objective()
        state.remove(i)
        if new_obj < obj - 1e-12 and (best is None or new_obj < best[0]):
            best = (new_obj, cand)
    if best is not None:
        state.commit(i, best[1])
        return True, best[0]
    state.restore(i, j, item, k)
    return False, obj
