"""Constructive multi-start heuristic for benchmark-scale instances.

Construction inserts cases in volume-descending order (perturbed per
restart) at the anchor minimizing the incremental objective over all
allowed orientations.  Anchors are slots a bin keeps: the bin-floor
origin and the corner points of placed cases, and while a bin holds at
most ``_GRID_BOXES`` cases every pair of an x and a y corner coordinate
too; the case after those drops the grid-only slots.  The z coordinate
always comes from dropping the case onto the highest surface below its
footprint, which keeps placements overlap-free by construction.  Each
(slot, shape) row is a cell: where the box rests there and whether it
fits.  A search settles each distinct ``(a, b, c)`` the allowed
orientations give once, and the cells of all of them in a bin through
``rest_heights`` and the support check as one batch; it picks each
shape's feasible cell lowest in (z, y, x), which is its first in
(score, z, y, x) order because the score does not fall as z rises, and
every orientation with that shape takes it under its own noise-scaled
score.  A bin keeps the cells between searches, per case type, and
settles again only the cells of new slots and those that a box added
since overlaps by more than ``tol - _SLACK``: a cell's resting height
depends only on the boxes it overlaps by more than ``tol``, its support
credit only on boxes it overlaps at all, so every other cell is what a
fresh settle would give.
Resting heights, support credit and the boundary and support verdicts
come from ``geometry``, the rules the validator judges by.  A case that
fits nowhere ends the construction, and the restart counts as failed.

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
from functools import lru_cache

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Case,
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
# a bin searches the grid of its boxes' corner coordinates while it holds
# at most this many boxes: the grid finds tucked spots the corners miss
_GRID_BOXES = 8
# a box re-settles the cells it overlaps by more than tol - _SLACK
_SLACK = 2 * DEFAULT_TOL
# bound on the (cells x logged boxes) mask of ``_touched``
_HIT_CELLS = 1 << 16


def _new_stats() -> dict[str, int]:
    """Zeroed run counters, the keys of ``HeuristicResult.stats``."""
    return dict.fromkeys(("best_spot_calls", "rows_settled", "restarts_failed",
                          "restarts_rescued"), 0)


class _BinState:
    """Mutable working set of one bin's placed boxes: the item records and,
    row for row, their boxes in the first rows of a ``(capacity, 6)``
    buffer, which doubles when full.

    The anchors are slots.  The bin-floor origin and each distinct corner
    of a placed box has one; while the bin holds at most ``_GRID_BOXES``
    boxes so does every pair of an x and a y coordinate of their corners.
    Slots are appended, except that the box after those drops the
    grid-only ones from the slots and the kept cells.  Every box added goes to ``log``,
    from which the kept ``cells`` of each case type learn which of their
    cells to settle again."""

    def __init__(self, inst: Instance, j: int):
        self.index = j
        self.x0, self.x1 = inst.bin_window(j)
        self.width = inst.bins[j].width
        self.height = inst.bins[j].height
        # rows: (case_index, x, y, z, dx, dy, dz)
        self.items: list[tuple] = []
        self._boxes = np.empty((8, 6))
        self._slot: dict[tuple[float, float], int] = {}
        self._xy = np.empty((64, 2))
        # the grid's coordinates, in first-seen order
        self._gx, self._gy = {self.x0: None}, {0.0: None}
        self._point((self.x0, 0.0))
        # (x, y, dx, dy) of every box added, in order
        self.log: list[tuple] = []
        self.cells: dict[tuple, _Cells] = {}
        self._top = 0.0

    def _point(self, xy: tuple[float, float]) -> None:
        """Give ``xy`` a slot unless it has one."""
        if xy not in self._slot:
            slot = self._slot[xy] = len(self._slot)
            if slot == len(self._xy):
                self._xy = np.concatenate((self._xy, np.empty_like(self._xy)))
            self._xy[slot] = xy

    def _keep_corners(self) -> None:
        """Drop the grid-only slots, in the slots and every kept cell, and
        keep the origin and the corners in their order."""
        corners = {(self.x0, 0.0)}
        for _, x, y, _, dx, dy, _ in self.items:
            corners.update(((x + dx, y), (x, y + dy), (x, y)))
        kept = [xy for xy in self._slot if xy in corners]
        keep = np.array([self._slot[xy] for xy in kept])
        self._slot = {xy: n for n, xy in enumerate(kept)}
        self._xy = self._xy[keep]
        for cells in self.cells.values():
            cols = keep[keep < cells.z.shape[1]]
            cells.z, cells.fit, cells.fresh, cells.inbin = (
                v[:, cols] for v in (cells.z, cells.fit, cells.fresh, cells.inbin))

    def arrays(self) -> np.ndarray:
        """The items' boxes as a ``(k, 6)`` array, in item order: a view that
        the next change overwrites."""
        return self._boxes[:len(self.items)]

    def add(self, case_index: int, x: float, y: float, z: float,
            dx: float, dy: float, dz: float) -> None:
        end = len(self.items)
        if end == len(self._boxes):
            self._boxes = np.concatenate((self._boxes, np.empty_like(self._boxes)))
        self._boxes[end] = x, y, z, dx, dy, dz
        self.items.append((case_index, x, y, z, dx, dy, dz))
        self.log.append((x, y, dx, dy))
        if end < _GRID_BOXES:
            self._gx.update(dict.fromkeys((x, x + dx)))
            self._gy.update(dict.fromkeys((y, y + dy)))
            for gx in self._gx:
                for gy in self._gy:
                    self._point((gx, gy))
        for corner in ((x + dx, y), (x, y + dy), (x, y)):
            self._point(corner)
        if end == _GRID_BOXES:
            self._keep_corners()
        self._top = max(self._top, z + dz)

    def top(self) -> float:
        return self._top

    def slots(self) -> np.ndarray:
        """Every slot's (x, y), in the order the points appeared."""
        return self._xy[:len(self._slot)]


class _Cells:
    """One bin's kept placement cells for one tuple of box dimensions
    ``(a, b, c)``: per dimensions (row) and slot (column), where the
    box rests, whether it fits there (in the bin, below its top, supported)
    and whether that is still known (``fresh``: settled, and no box logged
    since could have changed it).  ``seen`` counts the log entries applied."""

    def __init__(self, dims: tuple, seen: int):
        self.abc = np.array(dims)
        shape = (len(dims), 0)
        self.z = np.empty(shape)
        self.fit, self.fresh, self.inbin = (np.empty(shape, dtype=bool) for _ in range(3))
        self.seen = seen


def _touched(xs, ys, a, b, boxes) -> np.ndarray:
    """Which cells, ``a x b`` footprints at ``(xs, ys)`` with one row of
    ``a`` and ``b`` per dimensions, some of ``boxes`` (rows x, y, dx, dy,
    the boxes added since the cells were settled) overlaps by more than
    ``tol - _SLACK`` along x and y.  Only such a box can change a cell: its resting height comes from the boxes it overlaps
    by more than ``tol``, its support credit from those it overlaps at all.
    The boxes are tested ``_HIT_CELLS // cells`` at a time."""
    reach = DEFAULT_TOL - _SLACK
    hx, hy = xs + a - reach, ys + b - reach
    hit = np.zeros(hx.shape, dtype=bool)
    step = max(1, _HIT_CELLS // hx.size)
    for start in range(0, len(boxes), step):
        x, y, dx, dy = boxes[start:start + step].T
        hit |= ((x < hx[..., None]) & (xs[:, None] < x + dx - reach)
                & (y < hy[..., None]) & (ys[:, None] < y + dy - reach)).any(axis=2)
    return hit


def _lowest(z: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list:
    """Per row of ``z`` (dims by anchor, inf where the box does not fit),
    the lowest (z, y, x), or None."""
    zmin = z.min(axis=1, keepdims=True)
    y = np.where(z == zmin, ys, np.inf)
    ymin = y.min(axis=1, keepdims=True)
    xmin = np.where(y == ymin, xs, np.inf).min(axis=1)
    return [low if low[0] < np.inf else None
            for low in zip(zmin[:, 0].tolist(), ymin[:, 0].tolist(), xmin.tolist())]


def _scored(lowest: list, dims: list[tuple], g_cur: float, opening: float,
            weight: float) -> list:
    """(score, z, y, x) of each dims' lowest feasible (z, y, x), or None.
    Within one ``c``, ``weight*(z+c) + max(0, z+c-g_cur) + opening`` does
    not fall as z rises, in floating point too, so the lowest cell is also
    the first in (score, z, y, x) order."""
    out = []
    for low, (_, _, c) in zip(lowest, dims):
        if low is not None:
            top = low[0] + c
            low = (weight * top + max(0.0, top - g_cur) + opening, *low)
        out.append(low)
    return out


@lru_cache(maxsize=1 << 12)
def _fitting(case: Case, allowed: tuple[int, ...], x0: float, x1: float, width: float,
             height: float) -> tuple[tuple[int, ...], tuple[tuple, ...], tuple[int, ...]]:
    """The orientations in ``allowed`` under which ``case`` fits in an empty
    bin spanning ``[x0, x1]`` by ``width`` by ``height``, the distinct
    ``(a, b, c)`` they give, in first-seen order, and each one's index
    among those."""
    fits, dims = [], []
    for k in allowed:
        a, b, c = effective_dims(case, k)
        if within_tol(max(overhang(x0, a, x1), overhang(0.0, b, width),
                          overhang(0.0, c, height))):
            fits.append(k)
            dims.append((a, b, c))
    shapes = tuple(dict.fromkeys(dims))
    return tuple(fits), shapes, tuple(shapes.index(d) for d in dims)


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

    def packing(self) -> Packing:
        return Packing(tuple(
            Placement(i, j, x, y, z, k)
            for i, (j, x, y, z, k) in sorted(self.place.items())))

    # -- placement search -------------------------------------------------

    def best_spot(self, case_index: int, allowed: tuple[int, ...],
                  noise: dict[int, float] | None = None) -> _Spot | None:
        """Cheapest placement for a case over all bins and orientations.

        Each distinct ``(a, b, c)`` the orientations give is searched once
        per bin, and every orientation takes its spot.  ``noise`` optionally
        scales each orientation's score; restarts use it to escape the
        pure-greedy orientation choice.
        """
        self.stats["best_spot_calls"] += 1
        case = self.inst.cases[case_index]
        best: _Spot | None = None
        best_key = None
        for bs in self.bins:
            fits, shapes, shape_of = _fitting(case, allowed, bs.x0, bs.x1, bs.width, bs.height)
            if not fits:
                continue
            opening = 0.0 if bs.items else self.inst.bins[bs.index].height
            spots = self._search(bs, shapes, bs.top(), opening, self.weight[case_index])
            for k, s in zip(fits, shape_of):
                if spots[s] is not None:
                    score, z, y, x = spots[s]
                    scale = noise[k] if noise else 1.0
                    key = (score * scale, z, y, x, bs.index, k)
                    if best_key is None or key < best_key:
                        best, best_key = _Spot(score, z, y, x, bs.index, k, shapes[s]), key
        return best

    def _search(self, bs: _BinState, dims: tuple,
                g_cur: float, opening: float, weight: float) -> list:
        """Best (score, z, y, x) over the bin's slots for each ``(a, b, c)``
        in ``dims``, or None where none fits.  The cells kept for ``dims``
        are settled again only where a slot is new or a box logged since
        could touch the cell."""
        cells = bs.cells.get(dims)
        if cells is None:
            cells = bs.cells[dims] = _Cells(dims, len(bs.log))
        xy = bs.slots()
        xs, ys = xy[:, 0], xy[:, 1]
        a, b, _ = cells.abc.T[:, :, None]
        old = cells.z.shape[1]
        if old and cells.seen < len(bs.log):
            cells.fresh &= ~_touched(xs[:old], ys[:old], a, b, np.array(bs.log[cells.seen:]))
        cells.seen = len(bs.log)
        if len(xs) > old:
            new = (len(dims), len(xs) - old)
            inbin = (within_tol(overhang(xs[old:], a, bs.x1))
                     & within_tol(overhang(ys[old:], b, bs.width)))
            cells.inbin = np.concatenate((cells.inbin, inbin), axis=1)
            cells.fresh = np.concatenate((cells.fresh, np.zeros(new, dtype=bool)), axis=1)
            cells.fit = np.concatenate((cells.fit, np.zeros(new, dtype=bool)), axis=1)
            cells.z = np.concatenate((cells.z, np.zeros(new)), axis=1)
        for g, s, z, fit in self._settle_rows(bs, cells.inbin & ~cells.fresh, xs, ys, cells.abc):
            cells.z[g, s], cells.fit[g, s], cells.fresh[g, s] = z, fit, True
        z = np.where(cells.inbin & cells.fit, cells.z, np.inf)
        return _scored(_lowest(z, xs, ys), dims, g_cur, opening, weight)

    def _settle_rows(self, bs: _BinState, rows: np.ndarray, xs, ys, abc: np.ndarray):
        """``_settle`` the rows marked in ``rows`` (dims by anchor),
        ``_ANCHOR_CHUNK`` at a time: yields their dims and anchor indices,
        resting heights and fit."""
        group, anchor = rows.nonzero()
        self.stats["rows_settled"] += len(group)
        arr = bs.arrays()
        for start in range(0, len(group), _ANCHOR_CHUNK):
            g, s = group[start:start + _ANCHOR_CHUNK], anchor[start:start + _ANCHOR_CHUNK]
            yield (g, s, *self._settle(bs, arr, xs[s], ys[s], *abc[g].T))

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
        state = _construct(inst, allowed, threshold, restart, rng, budget)
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


def _construct(inst, allowed, threshold, restart, rng, budget) -> _WorkState | None:
    state = _WorkState(inst, threshold, budget.stats)
    order = _case_order(inst, restart, rng)
    for i in order:
        budget.tick()
        noise = _orientation_noise(allowed, restart, rng)
        if not _insert(state, i, allowed, noise):
            return None
    return state


def _insert(state: _WorkState, i: int, allowed, noise=None) -> bool:
    spot = state.best_spot(i, allowed, noise=noise)
    if spot is None:
        return False
    state.commit(i, spot)
    return True
