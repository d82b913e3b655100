"""Constructive + local-search heuristic for benchmark-scale instances.

Construction inserts cases in volume-descending order (perturbed per
restart) at the anchor minimizing the incremental objective over all
allowed orientations.  Anchors are corner points of placed cases plus the
bin-floor origin; the z coordinate always comes from dropping the case
onto the highest surface below its footprint, which keeps placements
overlap-free by construction.  A dense anchor grid is tried before giving
up on a case.  One placement search settles each bin once: the in-bin
anchors of every allowed orientation go through ``rest_heights`` and the
support check as one batch of rows with per-row dimensions, and each
orientation's best row is then picked by (score, z, y, x) as if it had been
scanned alone.  Resting heights, support credit and the boundary and
support verdicts come from ``geometry``, the rules the validator judges by.

Improvement applies strict-descent moves until the budget runs out.  Each
move is one evict/re-place step (``_move``): take cases out while their
dependents stay supported (``_evict``), put them back largest-first at their
best spots, and keep the result only if the objective drops (``_undo``
otherwise).  Reinsert moves one case, swap two, and reorient one case at its
own bin and anchor in another orientation.  Construction's repair evicts and
re-places through the same two primitives.  In deterministic mode the time
limit maps to a fixed step budget so runs replay identically.

Between two accepted moves the packing does not change, and the placement
search draws no random numbers, so a move rejected once would be rejected
again; only the order of float sums can differ, which matters only for a
value within a few ulps of the 1e-12 acceptance margin or the 1e-6
tolerance.  ``_improve`` therefore keeps the keys of the moves rejected
since the last acceptance (``("reinsert", i)``, ``("swap", i1, i2)`` in
draw order, ``("reorient", i)``) and clears them on every acceptance.  A
drawn move whose key is in that set is not searched again; it only evicts
and puts back its cases, which orders the bin lists and the placement
dicts exactly as the rejected move did, so later float sums, and with them
the objective and the trace, are the same as when every move is searched.

Each search of a move is bounded by what the move must beat: after the
evict, a case's spot must score below the room (what the re-placed cases
may add and still lower the objective, plus a relative rounding slack) less
the least score (weight times smallest side) of each case still to place,
and each commit spends its score.  A bounded ``best_spot`` returns the
unbounded best spot if that scores below the bound and None otherwise, so
moves are decided as without bounds and one cut short is undone in the same
order.  Before settling, it drops rows by a floor per anchor: a footprint
of the rows' least length and width overlaps a subset of the boxes each
row's footprint does, even under rounding, so it rests no higher, and the
score only grows with z.  Construction's dense fallback drops only the rows
whose floor overhangs the bin's top.
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
    DEFAULT_NEIGHBORHOOD,
    DETERMINISTIC_STEPS_PER_SECOND,
    CandidatePoint,
    HeuristicResult,
    SolverConfig,
)

_ANCHOR_CHUNK = 4096
_STALL_FACTOR = 60
_MOVES = tuple(DEFAULT_NEIGHBORHOOD)


def _new_stats() -> dict[str, int]:
    """Zeroed run counters, the keys of ``HeuristicResult.stats``."""
    keys = ["best_spot_calls", "rows_settled", "rows_pruned", "restarts_failed",
            "restarts_rescued", "repairs_attempted", "repairs_undone"]
    keys += [f"{move}_{what}" for move in _MOVES for what in ("tried", "accepted")]
    keys.append("moves_recalled")
    return dict.fromkeys(keys, 0)


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
                  noise: dict[int, float] | None = None,
                  at: tuple[int, float, float] | None = None,
                  bound: float | None = None) -> _Spot | None:
        """Cheapest placement for a case over all bins and orientations.

        ``noise`` optionally scales each orientation's score; restarts use
        it to escape the pure-greedy orientation choice.  ``at=(bin, x, y)``
        limits the search to that one bin and anchor.  With a ``bound``, the
        spot is returned only if its score is below it, else None; anchor
        rows that cannot score below it are not settled.
        """
        self.stats["best_spot_calls"] += 1
        case = self.inst.cases[case_index]
        dims = {k: effective_dims(case, k) for k in allowed}
        best: _Spot | None = None
        best_key = None
        for bs in self.bins if at is None else (self.bins[at[0]],):
            opening = 0.0 if bs.items else self.inst.bins[bs.index].height
            if at is not None:
                anchors = np.array([at[1:]], dtype=float)
            else:
                # the full anchor grid is small enough to use outright when
                # few boxes are placed, and it finds tucked spots corners miss
                anchors = bs.anchors(dense or len(bs.items) <= 8)
            fits = [k for k in allowed
                    if within_tol(max(overhang(bs.x0, dims[k][0], bs.x1),
                                      overhang(0.0, dims[k][1], bs.width),
                                      overhang(0.0, dims[k][2], bs.height)))]
            spots = self._scan(bs, anchors, [dims[k] for k in fits], bs.top(), opening,
                               self.weight[case_index], bound)
            for k, spot in zip(fits, spots):
                if spot is not None:
                    score, z, y, x = spot
                    scale = noise[k] if noise else 1.0
                    key = (score * scale, z, y, x, bs.index, k)
                    if best_key is None or key < best_key:
                        best, best_key = _Spot(score, z, y, x, bs.index, k, dims[k]), key
        if best is not None and bound is not None and best.score >= bound:
            return None
        return best

    def _scan(self, bs: _BinState, anchors: np.ndarray, dims: list[tuple],
              g_cur: float, opening: float, weight: float,
              bound: float | None = None) -> list:
        """Best (score, z, y, x) over an anchor array for each ``(a, b, c)``
        in ``dims``, or None where no anchor fits.  The in-bin anchors of all
        dims are settled together, ``_ANCHOR_CHUNK`` rows at a time.  With a
        ``bound``, rows whose floor already scores at least ``bound`` or
        overhangs the bin's top are dropped first."""
        if not dims:
            return []

        def scores(z, c):
            return weight * (z + c) + np.maximum(0.0, z + c - g_cur) + opening

        xs, ys = anchors[:, 0], anchors[:, 1]
        rows = [(within_tol(overhang(xs, a, bs.x1))
                 & within_tol(overhang(ys, b, bs.width))).nonzero()[0] for a, b, _ in dims]
        group = np.repeat(np.arange(len(dims)), [len(r) for r in rows])
        rows = np.concatenate(rows)
        abc = np.array(dims)[group]
        arr = bs.arrays()
        if bound is not None and len(rows):
            # the floor: where a footprint of the least a and b rests, which
            # no row rests below (scores grow with z)
            floor, c = rest_heights(arr, xs, ys, *abc[:, :2].min(axis=0))[rows], abc[:, 2]
            keep = within_tol(overhang(floor, c, bs.height)) & (scores(floor, c) < bound)
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
            score = scores(z, c)
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
        return HeuristicResult(Packing(()), 0.0, [], 0, _new_stats())
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
        if restart >= cfg.restarts:
            budget.stats["restarts_rescued"] += 1
        rng = random.Random(f"{cfg.seed}:{restart}")
        state = _construct(inst, cfg, allowed, threshold, restart, rng, budget)
        restart += 1
        if state is None:
            budget.stats["restarts_failed"] += 1
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

    return HeuristicResult(best_packing, best_obj, trace, restarts_run, budget.stats)


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
        spot = state.best_spot(i, allowed, dense=True, noise=noise, bound=float("inf"))
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


def _improve(state: _WorkState, obj: float, cfg: SolverConfig, allowed, rng,
             budget, on_improve, stall_limit: int) -> float:
    m = state.inst.num_cases
    names = sorted(k for k, w in cfg.neighborhood.items() if w > 0)
    if not names:
        return obj
    weights = [cfg.neighborhood[k] for k in names]
    rejected: set[tuple] = set()  # keys of moves rejected since the last acceptance
    stall = 0
    while not budget.exhausted() and stall < stall_limit:
        budget.tick()
        move = rng.choices(names, weights)[0]
        state.stats[f"{move}_tried"] += 1
        orients, at = allowed, None
        if move == "reinsert":
            cases = (rng.randrange(m),)
        elif move == "swap" and m >= 2:
            i1 = rng.randrange(m)
            i2 = rng.randrange(m - 1)
            if i2 >= i1:
                i2 += 1
            cases = (i1, i2)
        elif move == "reorient":
            i = rng.randrange(m)
            j, x, y, _, k = state.place[i]
            orients, at = tuple(k2 for k2 in allowed if k2 != k), (j, x, y)
            cases = (i,)
        else:  # a swap needs two cases
            stall += 1
            continue
        key = (move, *cases)
        if key in rejected:
            state.stats["moves_recalled"] += 1
            # reorder the bins and dicts as the rejected move's own undo did
            taken = _evict(state, cases)
            if taken is not None:
                _undo(state, (), taken)
            improved = False
        else:
            improved, obj = _move(state, obj, orients, cases, at)
        if improved:
            state.stats[f"{move}_accepted"] += 1
            rejected.clear()
            stall = 0
            on_improve(obj, state)
        else:
            rejected.add(key)
            stall += 1
    return obj


def _move(state: _WorkState, obj: float, allowed, cases, at=None):
    """Evict ``cases``, re-place them largest-first at their best spots
    (``at`` pins bin and anchor) and keep that only if the objective drops.
    Returns (improved, objective)."""
    taken = _evict(state, cases)
    if taken is None:
        return False, obj
    order = sorted(cases, key=lambda i: -state.inst.cases[i].volume)
    # the slack covers rounding between summed scores and objective()
    room = obj - 1e-12 - state.objective() + 1e-9 * max(1.0, abs(obj))
    least = [state.weight[i] * min(state.inst.cases[i].dims) for i in order]
    placed = []
    for n, i in enumerate(order):
        spot = state.best_spot(i, allowed, at=at, bound=room - sum(least[n + 1:]))
        if spot is None:
            break
        state.commit(i, spot)
        placed.append(i)
        room -= spot.score
    if len(placed) == len(cases):
        new_obj = state.objective()
        if new_obj < obj - 1e-12:
            return True, new_obj
    _undo(state, placed, taken)
    return False, obj
