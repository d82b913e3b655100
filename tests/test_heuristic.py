import random

import numpy as np
import pytest

from binpack3d import heuristic
from binpack3d.exact import solve_exact
from binpack3d.geometry import (
    DEFAULT_TOL,
    ORIENTATIONS,
    BinSpec,
    CaseSpec,
    Instance,
    effective_dims,
)
from binpack3d.heuristic import candidate_anchors, solve_heuristic
from binpack3d.instance_io import load_bundled, write_packing
from binpack3d.metrics import BoundInconsistencyWarning, gap_vs_bound
from binpack3d.solvers import SolverConfig
from binpack3d.validate import validate

from conftest import make_instance


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


class TestDeterminism:
    def test_identical_runs_identical_documents(self):
        inst = load_bundled(1)
        cfg = dict(time_limit=1.0, seed=11, restarts=2, deterministic=True)
        a = solve_heuristic(inst, SolverConfig(**cfg))
        b = solve_heuristic(inst, SolverConfig(**cfg))
        assert write_packing(inst, a.packing) == write_packing(inst, b.packing)
        assert a.trace == b.trace

    def test_deterministic_budget_ignores_wall_clock(self):
        inst = load_bundled(1)
        cfg = SolverConfig(time_limit=0.5, seed=3, deterministic=True)
        res = solve_heuristic(inst, cfg)
        assert res.feasible  # even a tiny budget still runs construction


class TestCandidateAnchors:
    def test_floor_origin_always_present(self):
        inst = load_bundled(1)
        res = solve_heuristic(inst, quick_cfg(time_limit=1.0))
        anchors = candidate_anchors(inst, res.packing, 0)
        assert any(a.x == 0.0 and a.y == 0.0 for a in anchors)

    def test_anchors_inside_bin(self):
        inst = Instance("anch", (CaseSpec(0, 2, 2, 2, quantity=2),),
                        (BinSpec(0, 6, 6, 6, quantity=2),))
        res = solve_heuristic(inst, quick_cfg(time_limit=1.0))
        for j in range(inst.num_bins):
            x0, x1 = inst.bin_window(j)
            for a in candidate_anchors(inst, res.packing, j):
                assert x0 <= a.x <= x1 + 1e-9
                assert 0 <= a.y <= inst.bins[j].width + 1e-9
                assert 0 <= a.z <= inst.bins[j].height + 1e-9


def _tie_instance():
    return Instance("ties", (CaseSpec(0, 2, 2, 2), CaseSpec(1, 1, 1, 1)),
                    (BinSpec(0, 10, 10, 10, quantity=2),))


class TestAnchorChunks:
    """Anchors are scanned in chunks; the chunk size must not change the
    pick, so chunks merge in the (score, z, y, x) order used within one."""

    @pytest.fixture
    def states(self):
        inst = _tie_instance()
        empty = heuristic._WorkState(inst, None)
        # a unit cube fits on the floor at three tied anchors around this box
        corner = heuristic._WorkState(inst, None)
        corner.commit(0, heuristic._Spot(0.0, 0.0, 0.0, 0.0, 0, 1, (2.0, 2.0, 2.0)))
        bench = heuristic._WorkState(load_bundled(1), 0.8)
        for i in range(10):
            assert heuristic._insert(bench, i, ORIENTATIONS)
        return [(empty, 1), (corner, 1), (bench, 10)]

    def test_best_spot_independent_of_chunk_size(self, monkeypatch, states):
        spots = {}
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(heuristic, "_ANCHOR_CHUNK", chunk)
            spots[chunk] = [state.best_spot(i, ORIENTATIONS, dense=True)
                            for state, i in states]
        assert spots[1] == spots[7] == spots[4096]
        assert (spots[1][1].x, spots[1][1].y, spots[1][1].z) == (2.0, 0.0, 0.0)

    def test_ties_on_an_empty_bin_break_by_y_then_x(self, monkeypatch):
        state = heuristic._WorkState(_tie_instance(), None)
        diagonal = np.array([(x, 4.0 - x) for x in range(5)], dtype=float)
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(heuristic, "_ANCHOR_CHUNK", chunk)
            spot = state._scan(state.bins[0], diagonal, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
            assert spot == (1.0, 0.0, 0.0, 4.0)  # (score, z, y, x)


class TestRemovalSafe:
    @pytest.mark.parametrize("threshold,safe", [(0.8, [False, False, True]),
                                                (0.5, [True, True, True])])
    def test_dependents_keep_their_support(self, threshold, safe):
        inst = Instance("bridge", (CaseSpec(0, 2, 2, 2, quantity=3),),
                        (BinSpec(0, 10, 10, 10),))
        state = heuristic._WorkState(inst, threshold)
        # case 2 rests half on case 0 and half on case 1
        for i, (x, z) in enumerate([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]):
            state.commit(i, heuristic._Spot(0.0, z, 0.0, x, 0, 1, (2.0, 2.0, 2.0)))
        assert [state.removal_safe(i) for i in range(3)] == safe


def _tower_state():
    """Case 1 stands on case 0 at threshold 0.8; case 2 stands free."""
    inst = Instance("tower", (CaseSpec(0, 2, 2, 2, quantity=3),),
                    (BinSpec(0, 10, 10, 10),))
    state = heuristic._WorkState(inst, 0.8)
    for i, (x, z) in enumerate([(0.0, 0.0), (0.0, 2.0), (4.0, 0.0)]):
        state.commit(i, heuristic._Spot(0.0, z, 0.0, x, 0, 1, (2.0, 2.0, 2.0)))
    return state


def _bench01_construction(threshold):
    cfg = quick_cfg(deterministic=True, support_threshold=threshold)
    state = heuristic._construct(load_bundled(1), cfg, ORIENTATIONS, threshold, 0,
                                 random.Random(0), heuristic._Budget(cfg))
    assert state is not None
    return state


def _bin_rows(state):
    """Each bin's (case, x, y, z) rows as the bin states hold them; they
    must equal the ones ``state.place`` lists."""
    held = sorted((bs.index, *it[:4]) for bs in state.bins for it in bs.items)
    assert held == sorted((j, i, x, y, z) for i, (j, x, y, z, _) in state.place.items())
    return held


class TestEvictAndMove:
    def test_evict_is_all_or_nothing(self):
        state = _tower_state()
        pack, obj = state.packing(), state.objective()
        assert heuristic._evict(state, (2, 0)) is None
        assert state.packing() == pack
        assert state.objective() == obj
        assert len(_bin_rows(state)) == 3

    def test_evict_then_undo_restores(self):
        state = _tower_state()
        pack = state.packing()
        taken = heuristic._evict(state, (1, 0))
        assert [record[0] for record in taken] == [1, 0] and list(state.place) == [2]
        heuristic._undo(state, (), taken)
        assert state.packing() == pack

    @pytest.mark.parametrize("threshold", [None, 0.8])
    def test_rejected_move_leaves_packing_unchanged(self, threshold):
        state = _bench01_construction(threshold)
        m = state.inst.num_cases
        obj = state.objective()
        rejected = 0
        for i in range(m):
            for cases in ((i,), (i, (i + 1) % m)):
                pack, rows = state.packing(), _bin_rows(state)
                improved, new_obj = heuristic._move(state, obj, ORIENTATIONS, cases)
                if improved:
                    assert new_obj < obj and new_obj == state.objective()
                    obj = new_obj
                else:
                    rejected += 1
                    assert new_obj == obj and state.packing() == pack
                    assert _bin_rows(state) == rows
        assert rejected > 0
        assert validate(state.inst, state.packing(), support=threshold).feasible

    @pytest.mark.parametrize("threshold", [None, 0.8])
    def test_reorient_matches_brute_force(self, threshold):
        state = _bench01_construction(threshold)
        checked = 0
        for i in range(state.inst.num_cases):
            if not state.removal_safe(i):
                continue
            j, x, y, _, k = state.place[i]
            others = tuple(k2 for k2 in ORIENTATIONS if k2 != k)
            record = state.remove(i)
            bs = state.bins[j]
            brute = None
            for k2 in others:
                a, b, c = effective_dims(state.inst.cases[i], k2)
                if x + a > bs.x1 + DEFAULT_TOL or y + b > bs.width + DEFAULT_TOL:
                    continue
                z, fit = state._settle(bs, bs.arrays(), np.array([x]), np.array([y]),
                                       a, b, c)
                if not fit[0]:
                    continue
                state.commit(i, heuristic._Spot(0.0, float(z[0]), y, x, j, k2, (a, b, c)))
                obj = state.objective()
                state.remove(i)
                if brute is None or obj < brute[0]:
                    brute = (obj, k2, float(z[0]))
            spot = state.best_spot(i, others, at=(j, x, y))
            state.restore(record)
            if brute is None:
                assert spot is None
            else:
                assert (spot.orientation, spot.z, spot.x, spot.y, spot.bin_index) == (
                    brute[1], brute[2], x, y, j)
                checked += 1
        assert checked > 0


class TestConfig:
    @pytest.mark.parametrize("kw,message", [
        ({"time_limit": float("inf")}, "time_limit"),
        ({"time_limit": float("nan")}, "time_limit"),
        ({"time_limit": 0.0}, "time_limit"),
        ({"support_threshold": 1.5}, "support_threshold"),
        ({"support_threshold": -1.0}, "support_threshold"),
        ({"support_threshold": float("nan")}, "support_threshold")])
    def test_out_of_range_values_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kw)


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
