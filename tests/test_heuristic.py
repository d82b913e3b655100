import dataclasses
import hashlib
import math
import random
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binpack3d import heuristic
from binpack3d.exact import solve_exact
from binpack3d.geometry import (DEFAULT_TOL, ORIENTATIONS, BinSpec, CaseSpec, Instance,
                                effective_dims)
from binpack3d.heuristic import solve_heuristic
from binpack3d.instance_io import load_bundled, write_packing
from binpack3d.metrics import BoundInconsistencyWarning, gap_vs_bound
from binpack3d.solvers import DEFAULT_NEIGHBORHOOD, DETERMINISTIC_STEPS_PER_SECOND, SolverConfig
from binpack3d.validate import validate

from conftest import LARGEST_TIME_LIMIT, make_instance


def quick_cfg(**kw):
    base = dict(time_limit=3.0, seed=7, restarts=2)
    base.update(kw)
    return SolverConfig(**base)


class TestConstruction:
    def test_small_bundled_instances_feasible(self):
        for number in (1, 3, 4):
            inst = load_bundled(number)
            res = solve_heuristic(inst, quick_cfg())
            assert res.feasible
            assert validate(inst, res.packing).feasible

    def test_support_constrained_solve(self):
        inst = load_bundled(1)
        res = solve_heuristic(inst, quick_cfg(support_threshold=0.8))
        assert res.feasible
        report = validate(inst, res.packing, support=0.8)
        assert report.feasible
        assert min(report.support_coverage.values()) >= 0.8 - 1e-6

    def test_failure_is_explicit(self):
        inst = Instance("wontfit", (CaseSpec(0, 9, 9, 9),), (BinSpec(0, 2, 2, 2),))
        res = solve_heuristic(inst, quick_cfg(time_limit=0.5))
        assert res.packing is None and res.objective is None
        assert not res.feasible
        assert res.stats["restarts_failed"] == res.restarts_run
        assert res.stats["restarts_rescued"] == res.restarts_run - 2 > 0

    @pytest.mark.parametrize("support,seed", [(None, 15), (None, 50), (0.8, 25), (0.8, 42)])
    def test_bench08_packs_at_the_benchmark_budget(self, support, seed):
        """At these seeds bench-08 packs only because a construction that
        meets a case fitting nowhere gives up at once, leaving the budget
        to further restarts."""
        inst = load_bundled(8)
        res = solve_heuristic(inst, SolverConfig(time_limit=20, seed=seed, restarts=2,
                                                 deterministic=True, support_threshold=support))
        assert res.feasible
        assert validate(inst, res.packing, support=support).feasible

    def test_upright_orientations_respected(self):
        inst = Instance("upright", (CaseSpec(0, 4, 3, 2, quantity=3),),
                        (BinSpec(0, 12, 12, 12),))
        res = solve_heuristic(inst, quick_cfg(orientations=2))
        assert res.feasible
        assert all(p.orientation in (1, 3) for p in res.packing.placements)

    def test_multi_bin_spillover(self):
        inst = Instance("spill", (CaseSpec(0, 4, 4, 4, quantity=3),),
                        (BinSpec(0, 4, 4, 4, quantity=3),))
        res = solve_heuristic(inst, quick_cfg())
        assert res.feasible
        assert len({p.bin_index for p in res.packing.placements}) == 3
        assert validate(inst, res.packing).feasible


class TestQuality:
    def test_never_worse_than_exact_on_tiny_instances(self):
        rng = random.Random(5)
        gaps = []
        for trial in range(12):
            inst = make_instance(trial, rng, max_cases=3, max_bins=1)
            exact = solve_exact(inst)
            if exact.packing is None:
                continue
            heur = solve_heuristic(inst, quick_cfg(time_limit=1.0))
            assert heur.feasible
            assert heur.objective >= exact.objective - 1e-9
            gaps.append(gap_vs_bound(heur.objective, exact.objective))
        assert gaps and all(g >= -1e-12 for g in gaps)

    def test_matches_exact_grid_optimum_usually(self):
        rng = random.Random(6)
        total = hits = 0
        for trial in range(20):
            inst = make_instance(trial, rng, max_cases=3, max_bins=1)
            exact = solve_exact(inst)
            if exact.packing is None:
                continue
            heur = solve_heuristic(inst, quick_cfg(time_limit=2.0, restarts=8,
                                                   deterministic=True))
            total += 1
            if heur.feasible and heur.objective <= exact.objective + 1e-6:
                hits += 1
        assert total >= 10
        assert hits / total >= 0.8

    def test_trace_strictly_decreasing(self):
        inst = load_bundled(2)
        res = solve_heuristic(inst, quick_cfg(time_limit=4.0))
        objs = [obj for _, obj in res.trace]
        assert objs, "construction must log the first incumbent"
        assert all(b < a for a, b in zip(objs, objs[1:]))
        assert res.trace[-1][1] == pytest.approx(res.objective)

    def test_reported_objective_matches_geometry(self):
        from binpack3d.geometry import objective_value
        inst = load_bundled(1)
        res = solve_heuristic(inst, quick_cfg(time_limit=1.0, deterministic=True))
        assert res.objective == pytest.approx(
            objective_value(inst, res.packing), abs=1e-9)


class TestSearch:
    """Restarts go on after the configured ones while they lower the best
    objective, and stop after ``_STALL_RESTARTS`` in a row that do not."""

    @pytest.mark.parametrize("number", [1, 2, 10])
    @pytest.mark.parametrize("support", [None, 0.8])
    def test_never_worse_than_construction(self, number, support):
        inst = load_bundled(number)
        cfg = dict(time_limit=5.0, seed=7, restarts=2, deterministic=True,
                   support_threshold=support)
        built = solve_heuristic(inst, SolverConfig(neighborhood={}, **cfg))
        full = solve_heuristic(inst, SolverConfig(**cfg))
        assert full.objective <= built.objective
        assert full.trace[:len(built.trace)] == built.trace
        assert full.restarts_run > built.restarts_run

    def test_stall_count_restarts_on_each_improvement(self, monkeypatch):
        objs = []
        real_construct = heuristic._construct

        def spy(*args):
            state = real_construct(*args)
            objs.append(None if state is None else state.objective())
            return state

        monkeypatch.setattr(heuristic, "_construct", spy)
        res = solve_heuristic(load_bundled(2), quick_cfg(time_limit=100.0, deterministic=True,
                                                         support_threshold=0.8))
        best, lowered = math.inf, []
        for r, obj in enumerate(objs):
            if obj is not None and obj < best - 1e-12:
                best = obj
                lowered.append(r)
        # seed 7 lowers the objective on restarts 0, 1, 3 and 4
        assert len(lowered) > 2 and lowered[-1] >= heuristic._STALL_RESTARTS
        assert all(b - a <= heuristic._STALL_RESTARTS for a, b in zip(lowered, lowered[1:]))
        assert res.restarts_run == len(objs) == lowered[-1] + 1 + heuristic._STALL_RESTARTS
        assert res.objective == best

    def test_stall_rule_ends_the_search(self):
        # the deterministic budget alone would allow about 12,500 restarts
        res = solve_heuristic(load_bundled(1), quick_cfg(time_limit=1000.0, deterministic=True))
        assert res.restarts_run < 100
        start = time.monotonic()
        res = solve_heuristic(load_bundled(1), quick_cfg(time_limit=600.0))
        assert res.feasible and time.monotonic() - start < 30


class TestDeterminism:
    def test_identical_runs_identical_documents(self):
        inst = load_bundled(1)
        cfg = dict(time_limit=1.0, seed=11, restarts=2, deterministic=True)
        a = solve_heuristic(inst, SolverConfig(**cfg))
        b = solve_heuristic(inst, SolverConfig(**cfg))
        assert write_packing(inst, a.packing) == write_packing(inst, b.packing)
        assert a.trace == b.trace

    def test_counters_replay(self):
        inst = load_bundled(2)
        cfg = dict(time_limit=2.0, seed=7, restarts=2, deterministic=True,
                   support_threshold=0.8)
        a = solve_heuristic(inst, SolverConfig(**cfg))
        b = solve_heuristic(inst, SolverConfig(**cfg))
        assert a.stats == b.stats
        assert a.stats["best_spot_calls"] > 0 and a.stats["rows_settled"] > 0
        assert all(type(v) is int for v in a.stats.values())
        # search restarts after a packing was found are not rescues
        assert a.restarts_run > 2 and a.stats["restarts_rescued"] == 0
        cfg = SolverConfig(time_limit=20.0, seed=7, restarts=2, deterministic=True,
                           neighborhood={})
        a, b = (solve_heuristic(load_bundled(8), cfg) for _ in range(2))
        assert a.stats == b.stats
        assert a.stats["restarts_rescued"] > 0

    def test_construct_only_counts_no_moves(self):
        """Construction only runs the configured restarts, and no search."""
        for neighborhood in ({}, {"restart": 0.0}):
            res = solve_heuristic(load_bundled(1), quick_cfg(neighborhood=neighborhood,
                                                             deterministic=True))
            assert res.stats["best_spot_calls"] > 0
            assert res.restarts_run == 2

    def test_deterministic_budget_ignores_wall_clock(self):
        inst = load_bundled(1)
        cfg = SolverConfig(time_limit=0.5, seed=3, deterministic=True)
        res = solve_heuristic(inst, cfg)
        assert res.feasible  # even a tiny budget still runs construction


# (bundled instance, support, run settings) -> sha256 of the result
PINNED_RESULTS = {
    (1, None, "improve"): "5d8a8a8546898f6d51a05f715546290612d9b99398c452e2f61b5eca4005bea9",
    (1, 0.8, "improve"): "fd7f9148ac5a27dfdacfff0972cf2dbeda526e1bc8056212ecebe9dc5afcc7f1",
    (2, None, "improve"): "c0b89da989ec1d20a198a11e7fb45bee901a63d9809759e4874c57981808bb55",
    (2, 0.8, "improve"): "c710be172dba090cea83f9b0c63fa6a2cb1dd3d2918d1d908ca70325ebd2a076",
    (8, None, "construct"): "8fc88893d5f2fce28d163f0f31a79952cea052a5e7e27d6ba8d5d99d4f84849d",
    (2, 0.8, "construct"): "bbb8facbfcaafbf098948508811253fc09f3765c723a3b6ef13e543e9a91d398",
    (8, 0.8, "construct"): "30c87f16828fea6f9c3da4f22d3490816e881dead8908fbdbd344b2d90f174fd",
    (6, 0.8, "improve-20s"): "8ddebd57a83a2c5d38a0c160f2810f71737f11d6649584c2a70e6a35b673037a",
    (8, 0.8, "improve-20s"): "125ed80c063172de7cf2d6c089bbaf600adba9ddb0faa7867606706ddb433fe7",
    (10, None, "improve-20s"): "f9d170b590825be5d36aa82d9f028b8e2d36f689e8757d214d33d1bd102b3d41",
    (15, None, "improve-20s"): "d87401c711a7f760883470ca1a9afa0d695f10970f4cfe6c120c123780dc27dd",
    (12, 0.8, "improve-20s"): "5cb91471886500ea143c6ded096063519378758e4ffd8514b21226e309c5bbd5",
    (15, 0.8, "improve-20s"): "6e348a92bd472cda211bd5cfb1d464b7d9de97ec2c5c35e0a6a4e22a329b63f3",
    (8, None, "improve-20s"): "c2fbbbfcb426e57c28dbc774572073e623b9cb3425bdf29c891567fc39456b07",
    (9, 0.8, "improve-20s"): "c05f54ad0929cb0dbe935913fb3bd61154742cb06c4d32daf1c8d8430da7c092",
    (11, None, "improve-20s"): "75e887d4304a0359fc4287b0508bf0fc4d166bec1f42a7c9e033c2d84b1f657e",
    (12, None, "improve-20s"): "ae10dd1d1deae8c9bc915cc23146f74cb8ce3aa9d7e871ff2fa8162fc6b01958",
    (14, None, "improve-20s"): "6ceacea9363c20ae8ff6820ee708f168306c0a4d9db89f0e0f069e53a4c4c680",
    (15, 0.8, "construct"): "995d428312e435fcc601b4ebf77428f5725bdcee229350d90183b58a2786bd3e",
}
_PIN_SETTINGS = {"improve": dict(time_limit=5.0, restarts=2),
                 "improve-20s": dict(time_limit=20.0, restarts=2),
                 "construct": dict(time_limit=20.0, restarts=2, neighborhood={})}


@pytest.mark.parametrize("number,support,run", sorted(PINNED_RESULTS, key=str))
def test_bundled_results_pinned(number, support, run):
    """Deterministic heuristic results on bundled instances are byte-identical
    to the reference: packing document, objective repr, trace and restart
    count.

    The construct-only digests were recorded at commit 61fa264 (support
    None) and at 58210a9 (support 0.8), before the restart search replaced
    the move neighbourhood, and must not change with the search.  bench-08
    needs rescue restarts.  The other digests pin the full search: bench-02
    at 0.8 lowers its objective on three search restarts and bench-10 on
    one, and bench-08 at 0.8 searches after rescue restarts.  bench-12 and
    bench-15 at 0.8, recorded at 2625d50 before the placement cells were
    kept between searches, are where that saves the most settling.  The
    last six, recorded at 7ae8098 before each distinct shape was searched
    once, are runs whose cases have orientations with equal dimensions
    (a square face).  bench-08's four digests were re-recorded when a stuck
    construction stopped being repaired: the packing, objective and restart
    count stayed, and the trace's one entry moved earlier (12.265 -> 9.35
    deterministic seconds without support, 2.88 -> 2.28 at 0.8).
    """
    inst = load_bundled(number)
    cfg = SolverConfig(seed=7, deterministic=True, support_threshold=support,
                       **_PIN_SETTINGS[run])
    res = solve_heuristic(inst, cfg)
    blob = f"{write_packing(inst, res.packing)}\n{res.objective!r}\n{res.trace!r}\n{res.restarts_run}"
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_RESULTS[number, support, run]


def _tie_instance():
    return Instance("ties", (CaseSpec(0, 2, 2, 2), CaseSpec(1, 1, 1, 1)),
                    (BinSpec(0, 10, 10, 10, quantity=2),))


def _scan(state, bs, anchors, dims, g_cur, opening, weight):
    """Fresh-settle oracle: best (score, z, y, x) over an anchor array for
    each ``(a, b, c)`` in ``dims``, or None where no anchor fits, with
    every dims' in-bin anchors settled on their own."""
    xs, ys = anchors[:, 0], anchors[:, 1]
    z = np.full((len(dims), len(xs)), np.inf)
    for g, (a, b, c) in enumerate(dims):
        inbin = np.flatnonzero((xs + a - bs.x1 <= DEFAULT_TOL) & (ys + b - bs.width <= DEFAULT_TOL))
        zs, fit = state._settle(bs, bs.arrays(), xs[inbin], ys[inbin], a, b, c)
        z[g, inbin[fit]] = zs[fit]
    return heuristic._scored(heuristic._lowest(z, xs, ys), dims, g_cur, opening, weight)


def _reference_anchors(state, dense):
    """Anchors as sorted sets of corner tuples: the grid of the first
    ``_GRID_BOXES`` boxes' corner coordinates, or every box's corners."""
    if dense:
        xs, ys = {state.x0}, {0.0}
        for _, px, py, _, dx, dy, _ in state.items[:heuristic._GRID_BOXES]:
            xs.update((px, px + dx))
            ys.update((py, py + dy))
        return [(x, y) for x in sorted(xs) for y in sorted(ys)]
    pairs = {(state.x0, 0.0)}
    for _, px, py, _, dx, dy, _ in state.items:
        pairs.update(((px + dx, py), (px, py + dy), (px, py)))
    return sorted(pairs)


def _searched(bs):
    """The anchors a bin's search covers, worked out from its items: the
    grid while it holds at most ``_GRID_BOXES`` boxes, the corners after."""
    return np.array(_reference_anchors(bs, len(bs.items) <= heuristic._GRID_BOXES))


class TestAnchorChunks:
    """Cells are settled in chunks; the chunk size must not change the
    pick, so chunks merge in the (score, z, y, x) order used within one."""

    @staticmethod
    def states():
        """Fresh states, so that no bin's kept cells carry over between
        chunk sizes, and the case each one searches for."""
        inst = _tie_instance()
        empty = heuristic._WorkState(inst, None)
        # a unit cube fits on the floor at three tied anchors around this box
        corner = heuristic._WorkState(inst, None)
        corner.commit(0, heuristic._Spot(0.0, 0.0, 0.0, 0.0, 0, 1, (2.0, 2.0, 2.0)))
        bench = heuristic._WorkState(load_bundled(1), 0.8)
        for i in range(10):
            assert heuristic._insert(bench, i, ORIENTATIONS)
        return [(empty, 1), (corner, 1), (bench, 10)]

    def test_best_spot_independent_of_chunk_size(self, monkeypatch):
        spots = {}
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(heuristic, "_ANCHOR_CHUNK", chunk)
            spots[chunk] = [state.best_spot(i, ORIENTATIONS) for state, i in self.states()]
        assert spots[1] == spots[7] == spots[4096]
        assert (spots[1][1].x, spots[1][1].y, spots[1][1].z) == (2.0, 0.0, 0.0)

    def test_ties_on_an_empty_bin_break_by_y_then_x(self):
        state = heuristic._WorkState(_tie_instance(), None)
        diagonal = np.array([(x, 4.0 - x) for x in range(5)], dtype=float)
        spots = _scan(state, state.bins[0], diagonal, [(1.0, 1.0, 1.0)], 0.0, 0.0, 0.0)
        assert spots == [(1.0, 0.0, 0.0, 4.0)]  # (score, z, y, x)


_coord = st.integers(0, 40).map(lambda v: v / 4)
_item = st.tuples(_coord, _coord, st.integers(1, 20).map(lambda v: v / 4),
                  st.integers(1, 20).map(lambda v: v / 4))


class TestBinState:
    def _solved_state(self, inst, j):
        """Bin ``j``'s state holding a heuristic packing's placements."""
        res = solve_heuristic(inst, quick_cfg(time_limit=1.0))
        state = heuristic._BinState(inst, j)
        for p in res.packing.placements:
            if p.bin_index == j:
                state.add(p.case_index, p.x, p.y, p.z,
                          *effective_dims(inst.cases[p.case_index], p.orientation))
        return state

    def test_floor_origin_always_present(self):
        state = self._solved_state(load_bundled(1), 0)
        assert state.items
        assert state.slots()[0].tolist() == [0.0, 0.0]

    def test_anchors_inside_bin(self):
        inst = Instance("anch", (CaseSpec(0, 2, 2, 2, quantity=2),),
                        (BinSpec(0, 6, 6, 6, quantity=2),))
        for j in range(inst.num_bins):
            state = self._solved_state(inst, j)
            for x, y in state.slots().tolist():
                assert state.x0 <= x <= state.x1 + 1e-9
                assert 0 <= y <= state.width + 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(_item, max_size=24), st.sampled_from([0, 1]))
    # past the first two doublings of the box buffer
    @example([(0.0, 0.0, 1.0, 1.0)] * 20, 0)
    def test_slots_and_top_follow_add(self, items, j):
        """The slots, the box array and the top equal their definitions
        after every addition: the slots are the corners, and the grid of the
        boxes while there are at most ``_GRID_BOXES``, each once.  They are
        appended in place, except that the next box drops the grid-only
        ones and keeps the rest in order."""
        inst = Instance("grid", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 10, 10, 10, quantity=2),))
        state = heuristic._BinState(inst, j)
        before = []
        for i, (x, y, dx, dy) in enumerate(items):
            state.add(i, state.x0 + x, y, i / 7, dx, dy, 1.0 + i / 3)
            slots = list(map(tuple, state.slots().tolist()))
            corners = _reference_anchors(state, False)
            if len(state.items) == heuristic._GRID_BOXES + 1:
                before = [p for p in before if p in corners]
            assert slots[:len(before)] == before
            grid = _reference_anchors(state, len(state.items) <= heuristic._GRID_BOXES)
            assert sorted(slots) == sorted({*grid, *corners})
            before = slots
            assert state.arrays().tolist() == [list(it[1:]) for it in state.items]
            assert state.top() == max(it[3] + it[6] for it in state.items)

    # a 9th box that fills the gap's far end, or whose corner lands on (3, 2)
    @pytest.mark.parametrize("ninth,after", [((3.0, 8.0, 1.0, 2.0, 2.5), (3.0, 0.0, 1.5)),
                                             ((3.0, 0.0, 0.5, 2.0, 1.5), (3.0, 2.0, 0.0))])
    def test_grid_slots_serve_the_first_grid_boxes_only(self, ninth, after):
        """Boxes too tall to stack a unit cube on leave it a floor gap
        ``[3, 4) x [2, 10)`` whose low end (3, 2) is a grid slot and no
        box's corner: the search takes it while the bin holds 8 boxes, and
        after a 9th box only if that box has a corner there."""
        inst = Instance("gap", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 10, 10, 3),))
        state = heuristic._WorkState(inst, None)
        bs = state.bins[0]
        boxes = [(0.0, 0.0, 3.0, 10.0, 2.5), (3.5, 0.0, 6.5, 2.0, 1.5)] + [
            (4.0, y0, 6.0, y1 - y0, 2.5) for y0, y1 in ((2, 3), (3, 4), (4, 5), (5, 6), (6, 8),
                                                        (8, 10))]
        picks = []
        for n, (x, y, dx, dy, dz) in enumerate([*boxes, ninth]):
            bs.add(n, x, y, 0.0, dx, dy, dz)
            if n >= heuristic._GRID_BOXES - 1:
                spot = state.best_spot(0, (1,))
                picks.append((spot.x, spot.y, spot.z))
        assert picks == [(3.0, 2.0, 0.0), after]
        assert ([3.0, 2.0] in bs.slots().tolist()) == (after == (3.0, 2.0, 0.0))


TOL = DEFAULT_TOL
# grid coordinates, some nudged by up to 1.5*tol: slivers of at most tol
# overlap and tops within tol of each other
_nudged = st.tuples(st.integers(0, 14), st.sampled_from([0.0] * 6 + [-1.5, -1.0, -0.5, 0.5, 1.0])
                    ).map(lambda t: t[0] / 4 + t[1] * TOL)
_extent = st.tuples(st.integers(1, 8), st.sampled_from([0.0] * 6 + [-1.0, 0.5, 1.0])
                    ).map(lambda t: t[0] / 4 + t[1] * TOL)
# (box added, search afterwards)
_step = st.tuples(st.tuples(_nudged, _nudged, _nudged.map(lambda z: z / 2), _extent, _extent,
                            _extent),
                  st.booleans())
_CELL_DIMS = [((1.0, 1.0, 1.0),), ((1.0, 0.75, 1.5), (0.75, 1.0, 1.5), (2.5, 0.25, 0.5))]


class TestCellCache:
    """The cells a bin keeps between searches equal a fresh settle after any
    sequence of additions, and the lowest feasible (z, y, x) is the
    (score, z, y, x) pick."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([None, 0.8]), st.sampled_from([0, 1]),
           st.sampled_from(_CELL_DIMS), st.lists(_step, max_size=14),
           st.sampled_from([1, 100, 1 << 16]))
    # a sliver within tol of the cell at the origin lifts its credit to 0.8
    # at the height it rests at, without changing that height
    @example(0.8, 0, _CELL_DIMS[0], [((0.0, 0.0, 0.0, 0.8 - 1.5 * TOL, 1.0, 1.0), True),
                                     ((1.0 - TOL, 0.0, 0.0, 1.0, 1.0, 1.0), True)], 1 << 16)
    # searches on either side of the grid's last box, with kept grid cells
    @example(None, 1, _CELL_DIMS[1], [((n % 4, n // 4 * 0.75, 0.0, 1.0, 0.75, 0.5), n >= 6)
                                      for n in range(11)], 1 << 16)
    def test_kept_cells_equal_a_fresh_settle(self, threshold, j, dims, steps, hit_cells):
        """``hit_cells`` bounds the hit mask: at 1 and 100 the logged boxes
        are tested one or a few at a time."""
        inst = Instance("cells", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 4, 4, 4, quantity=2),))
        state = heuristic._WorkState(inst, threshold)
        bs = state.bins[j]
        with mock.patch.object(heuristic, "_HIT_CELLS", hit_cells):
            for n, ((x, y, z, dx, dy, dz), search) in enumerate(steps):
                bs.add(n, bs.x0 + x, y, z, dx, dy, dz)
                if search or n == len(steps) - 1:
                    self.check(state, bs, dims)

    @staticmethod
    def check(state, bs, dims):
        """The kept cells of the anchors the search covers, and its pick,
        equal the oracle's fresh settle of those anchors."""
        spots = state._search(bs, dims, bs.top(), 1.5, 0.01)
        cells = bs.cells[dims]
        xy = bs.slots()
        searched = _searched(bs)
        wanted = set(map(tuple, searched.tolist()))
        used = np.array([p in wanted for p in map(tuple, xy.tolist())])
        for g, (a, b, c) in enumerate(dims):
            inbin = ((xy[:, 0] + a - bs.x1 <= TOL) & (xy[:, 1] + b - bs.width <= TOL))
            assert cells.inbin[g].tolist() == inbin.tolist()
            inbin &= used
            z, fit = state._settle(bs, bs.arrays(), xy[inbin, 0], xy[inbin, 1], a, b, c)
            assert cells.z[g, inbin].tolist() == z.tolist()
            assert cells.fit[g, inbin].tolist() == fit.tolist()
        assert spots == _scan(state, bs, searched, dims, bs.top(), 1.5, 0.01)

    def test_sliver_example_turns_feasible(self):
        """The example above: the sliver's credit decides the verdict."""
        inst = Instance("cells", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 4, 4, 4),))
        state = heuristic._WorkState(inst, 0.8)
        bs = state.bins[0]
        cells = []
        for i, x, dx in ((0, 0.0, 0.8 - 1.5 * TOL), (1, 1.0 - TOL, 1.0)):
            bs.add(i, x, 0.0, 0.0, dx, 1.0, 1.0)
            state._search(bs, ((1.0, 1.0, 1.0),), 1.0, 0.0, 0.01)
            origin = bs.cells[(1.0, 1.0, 1.0),]
            cells.append((float(origin.z[0, 0]), bool(origin.fit[0, 0])))
        assert cells == [(1.0, False), (1.0, True)]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 5),
                              st.booleans()),
                    min_size=1, max_size=30, unique_by=lambda t: t[1:3]),
           st.sampled_from([0.0, 1e-17, 1e-9, 0.003, 0.4, 1.0, 3.0]),
           st.sampled_from([0.0, 0.3, 1.0, 2.5, 1e9]), st.sampled_from([0.0, 0.1, 30.0, 1e17]),
           st.sampled_from([0.1, 1.0, 2.7]))
    def test_lowest_cell_is_the_score_pick(self, cells, weight, g_cur, opening, c):
        """Among one orientation's feasible cells, the (score, z, y, x)
        minimum is the (z, y, x) minimum, also where rounding ties scores
        (a tiny weight, a huge opening)."""
        z, y, x, fit = (np.array(v) for v in zip(*cells))
        z, y, x = z / 3, y / 3, x / 3
        score = weight * (z + c) + np.maximum(0.0, z + c - g_cur) + opening
        want = None
        if fit.any():
            p = np.flatnonzero(fit)[np.lexsort((x[fit], y[fit], z[fit], score[fit]))[0]]
            want = (float(score[p]), float(z[p]), float(y[p]), float(x[p]))
        lowest = heuristic._lowest(np.where(fit, z, np.inf)[None, :], x, y)
        assert heuristic._scored(lowest, [(1.0, 1.0, c)], g_cur, opening, weight) == [want]


def _reference_spot(state, i, allowed, noise):
    """``best_spot`` with every allowed orientation searched on its own over
    a fresh settle of the anchors the bin would search."""
    case = state.inst.cases[i]
    best = None
    for bs in state.bins:
        opening = 0.0 if bs.items else state.inst.bins[bs.index].height
        for k in allowed:
            a, b, c = effective_dims(case, k)
            if max(bs.x0 + a - bs.x1, b - bs.width, c - bs.height) > DEFAULT_TOL:
                continue
            [spot] = _scan(state, bs, _searched(bs), [(a, b, c)], bs.top(), opening,
                           state.weight[i])
            if spot is not None:
                key = (spot[0] * (noise[k] if noise else 1.0), *spot[1:], bs.index, k)
                if best is None or key < best[0]:
                    best = key, heuristic._Spot(*spot, bs.index, k, (a, b, c))
    return None if best is None else best[1]


class TestDistinctShapes:
    """A search settles each distinct ``(a, b, c)`` once, and every
    orientation with those dimensions takes the shared spot under its own
    noise-scaled key."""

    @pytest.mark.parametrize("threshold", [None, 0.8])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_square_base_case_matches_six_separate_searches(self, threshold, noisy):
        # bench-08 holds 40 cases of 7 x 7 x 6.1: six orientations, three shapes
        inst = load_bundled(8)
        case = inst.cases[0]
        assert (case.length, case.width, case.height) == (7.0, 7.0, 6.1)
        assert len({effective_dims(case, k) for k in ORIENTATIONS}) == 3
        assert heuristic._fitting(case, ORIENTATIONS, *inst.bin_window(0), 38.1, 25.0)[2] == (
            0, 1, 0, 1, 2, 2)
        state = heuristic._WorkState(inst, threshold)
        rng = random.Random(3)
        compared = 0
        # the 8 x 7 x 7.2 cases first, then 7 x 7 x 6.1 ones, searching
        # for case 0 on the empty bin, on the full grid and on kept corners
        for i in [*range(40, 76), *range(39, 0, -1)]:
            if len(state.bins[0].items) in (0, 3, 8, 9, 15, 30, 45, 60):
                # equal noise on equal shapes ties their scores: k breaks it
                noise = ({k: 1.0 + rng.random() for k in ORIENTATIONS} if noisy
                         else None)
                if noisy and compared % 2:
                    noise[3] = noise[1]
                want = _reference_spot(state, 0, ORIENTATIONS, noise)
                assert state.best_spot(0, ORIENTATIONS, noise) == want
                compared += want is not None
            if not heuristic._insert(state, i, ORIENTATIONS):
                break
        assert compared >= 4

    def test_upright_orientations_of_a_square_base_share_one_shape(self):
        inst = load_bundled(8)
        fits, shapes, shape_of = heuristic._fitting(inst.cases[0], (1, 3),
                                                    *inst.bin_window(0), 38.1, 25.0)
        assert fits == (1, 3) and shapes == ((7.0, 7.0, 6.1),) and shape_of == (0, 0)
        state = heuristic._WorkState(inst, None)
        spot = state.best_spot(0, (1, 3))
        # the tie between the two orientations breaks to the lower k
        assert (spot.orientation, spot.x, spot.y, spot.z) == (1, 0.0, 0.0, 0.0)
        assert state.stats["rows_settled"] == 1

    def test_orientations_that_do_not_fit_the_bin_are_left_out(self):
        # only the orientations with the 9-long side along x fit
        inst = Instance("narrow", (CaseSpec(0, 9, 2, 2),), (BinSpec(0, 10, 3, 3),))
        fits, shapes, shape_of = heuristic._fitting(inst.cases[0], ORIENTATIONS,
                                                    0.0, 10.0, 3.0, 3.0)
        assert fits == (1, 2) and shapes == ((9.0, 2.0, 2.0),) and shape_of == (0, 0)
        assert heuristic._fitting(inst.cases[0], (3, 4, 5, 6), 0.0, 10.0, 3.0, 3.0) == (
            (), (), ())
        assert heuristic._WorkState(inst, None).best_spot(0, (3, 4, 5, 6)) is None


class TestConfig:
    def test_largest_time_limit_accepted(self):
        cfg = SolverConfig(time_limit=LARGEST_TIME_LIMIT, seed=7, restarts=1)
        assert cfg.step_budget() == int(LARGEST_TIME_LIMIT * DETERMINISTIC_STEPS_PER_SECOND)
        for deterministic in (False, True):
            assert solve_heuristic(load_bundled(1), dataclasses.replace(
                cfg, deterministic=deterministic)).feasible

    def test_config_is_frozen(self):
        given = {"restart": 1.0}
        cfg = SolverConfig(time_limit=5, neighborhood=given)
        # assignment would skip the checks the constructor makes
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.time_limit = 1e307
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.restarts = 0
        with pytest.raises(TypeError):
            cfg.neighborhood["restart"] = -1.0
        given["restart"] = -1.0
        assert cfg.neighborhood == {"restart": 1.0}
        assert dataclasses.replace(cfg, restarts=2).neighborhood == {"restart": 1.0}
        with pytest.raises(ValueError, match="restarts"):
            dataclasses.replace(cfg, restarts=0)

    @pytest.mark.parametrize("time_limit", [math.nextafter(LARGEST_TIME_LIMIT, math.inf), 1e307,
                                            sys.float_info.max])
    def test_time_limit_without_a_finite_step_budget_rejected(self, time_limit):
        with pytest.raises(ValueError, match="time_limit") as err:
            SolverConfig(time_limit=time_limit)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("kw,message", [
        ({"time_limit": float("inf")}, "time_limit"),
        ({"time_limit": float("nan")}, "time_limit"),
        ({"time_limit": 0.0}, "time_limit"),
        ({"support_threshold": 1.5}, "support_threshold"),
        ({"support_threshold": -1.0}, "support_threshold"),
        ({"support_threshold": float("nan")}, "support_threshold"),
        ({"neighborhood": {"reinsert_typo": 1.0}}, "'reinsert_typo'"),
        ({"neighborhood": {"restart": 0.5, "shuffle": 0.5}}, "'shuffle'"),
        # the deleted move names are unknown
        ({"neighborhood": {"swap": -0.1}}, "'swap'"),
        ({"neighborhood": {"reorient": float("nan")}}, "'reorient'"),
        ({"neighborhood": {"reinsert": float("inf")}}, "'reinsert'"),
        ({"restarts": 2.5}, "restarts"),
        ({"restarts": True}, "restarts"),
        ({"orientations": 6.0}, "orientations"),
        ({"orientations": False}, "orientations"),
        ({"restarts": 0}, "restarts"),
        ({"orientations": 4}, "orientations"),
        ({"neighborhood": {"restart": -0.1}}, "'restart'"),
        ({"neighborhood": {"restart": float("nan")}}, "'restart'"),
        ({"neighborhood": {"restart": float("inf")}}, "'restart'")])
    def test_out_of_range_values_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kw)

    def test_known_neighborhoods_accepted(self):
        assert SolverConfig().neighborhood == DEFAULT_NEIGHBORHOOD == {"restart": 1.0}
        assert SolverConfig(neighborhood={}).neighborhood == {}
        assert SolverConfig(neighborhood={"restart": 0}).neighborhood == {"restart": 0}


class TestGap:
    def test_ten_percent_gap(self):
        assert gap_vs_bound(100.0, 90.0) == pytest.approx(0.10)

    def test_zero_gap(self):
        assert gap_vs_bound(42.0, 42.0) == 0.0

    def test_inconsistent_bound_warns_and_goes_negative(self):
        with pytest.warns(BoundInconsistencyWarning):
            gap = gap_vs_bound(100.0, 110.0)
        assert gap == pytest.approx(-0.10)

    def test_nonpositive_objective_rejected(self):
        with pytest.raises(ValueError):
            gap_vs_bound(0.0, 1.0)
