"""Differential tests of the packing map, the big-M audit and the row names.

``packing_to_assignment`` and ``audit_big_m`` address the model by the
index ranges ``build_model`` records.  The name-keyed loops they replaced
are kept in ``model_reference`` and define the expected results: value
maps must be repr-identical (same keys, same order, same floats) and
failure lists identical, also after coefficients are corrupted.  The
vectorized map rests on numpy's ``triu_indices``/``nonzero`` order and on
``argmax`` returning the first True of a row.

Row names are made on request from the block records; the eager list
``build_model`` used to store, ``model_reference.row_names``, defines them,
whole, sliced and gathered, and as the violation and audit reports give them.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpack3d.geometry import (
    ORIENTATIONS,
    UPRIGHT_ORIENTATIONS,
    BinSpec,
    CaseSpec,
    Instance,
    Packing,
    Placement,
)
from binpack3d.heuristic import solve_heuristic
from binpack3d.instance_io import load_bundled
from binpack3d.lp_format import _row_names
from binpack3d.model import audit_big_m, build_model, check_assignment, packing_to_assignment
from binpack3d.solvers import SolverConfig

import model_reference
from conftest import mixed_bin_instance

SIDES = st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0])
# Lattice offsets make cases touch, stack and share faces; the jitter
# lands just inside or outside the 1e-6 tolerance.
OFFSETS = st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 4.0])
JITTER = st.sampled_from([0.0, 0.0, 0.0, 5e-7, -5e-7, 2e-6, 0.3])


@st.composite
def instances(draw):
    cases = tuple(CaseSpec(i, draw(SIDES), draw(SIDES), draw(SIDES))
                  for i in range(draw(st.integers(1, 5))))
    bins = tuple(BinSpec(t, draw(st.sampled_from([5.0, 6.0, 8.0])),
                         draw(st.sampled_from([5.0, 6.0, 8.0])),
                         draw(st.sampled_from([5.0, 6.0, 8.0])),
                         quantity=draw(st.integers(1, 2)))
                 for t in range(draw(st.integers(1, 2))))
    return Instance("diff", cases, bins)


@st.composite
def packings(draw, inst):
    """Lattice placements, each case on the floor or on a case placed
    before it in the same bin, then jittered."""
    placements, tops = [], {}
    for i in range(inst.num_cases):
        j = draw(st.integers(0, inst.num_bins - 1))
        z = draw(st.sampled_from([0.0, 1.0] + tops.get(j, [])))
        x, y, z = (max(0.0, v + draw(JITTER)) for v in
                   (inst.bin_window(j)[0] + draw(OFFSETS), draw(OFFSETS), z))
        k = draw(st.sampled_from(ORIENTATIONS))
        placements.append(Placement(i, j, x, y, z, k))
        tops.setdefault(j, []).extend(z + side for side in inst.cases[i].dims)
    return Packing(tuple(placements))


@st.composite
def models(draw):
    return build_model(
        draw(instances()), support=draw(st.sampled_from([None, 0.0, 0.8, 1.0])),
        mode=draw(st.sampled_from(["linearized", "quadratic"])),
        big_m=draw(st.sampled_from(["paper", "tight"])),
        mccormick_pieces=draw(st.integers(1, 4)),
        allowed_orientations=draw(st.sampled_from([ORIENTATIONS, UPRIGHT_ORIENTATIONS])))


def assert_same(model, packs, draw_terms):
    for pack in packs:
        assert repr(packing_to_assignment(model, pack)) == repr(
            model_reference.packing_to_assignment(model, pack))
    assert audit_big_m(model) == model_reference.audit_big_m(model)
    coefs = model.constraints.coefs
    for term in draw_terms(len(coefs)):
        coefs[term] *= 0.5
    assert audit_big_m(model) == model_reference.audit_big_m(model)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_small_models_match_the_name_keyed_loops(data):
    model = data.draw(models())
    packs = [data.draw(packings(model.instance)) for _ in range(3)]
    assert_same(model, packs, lambda terms: data.draw(
        st.lists(st.integers(0, terms - 1), max_size=5)))


def perturbed(base, rng, count):
    out = [base]
    for _ in range(count):
        moved = list(base.placements)
        for i in rng.sample(range(len(moved)), min(3, len(moved))):
            p = moved[i]
            moved[i] = dataclasses.replace(
                p, x=max(0.0, p.x + rng.choice((0.0, rng.uniform(-3.0, 3.0)))),
                z=p.z + rng.choice((0.0, rng.uniform(0.5, 3.0))),
                orientation=rng.choice(ORIENTATIONS))
        out.append(Packing(tuple(moved)))
    return out


@pytest.mark.parametrize("number", range(1, 8))
def test_bundled_models_match_the_name_keyed_loops(number):
    inst = load_bundled(number)
    rng = random.Random(number)
    base = solve_heuristic(inst, SolverConfig(
        time_limit=1, seed=7, restarts=1, deterministic=True, neighborhood={},
        support_threshold=0.8)).packing
    packs = perturbed(base, rng, 2)
    for support, mode, policy in ((None, "linearized", "tight"),
                                  (0.8, "linearized", "paper"),
                                  (0.8, "quadratic", "tight")):
        model = build_model(inst, support=support, mode=mode, big_m=policy)
        assert_same(model, packs, lambda terms: rng.sample(range(terms), 5))


# --- row names ---------------------------------------------------------------

NAMED_INSTANCES = [*range(1, 8), "mixed"]


def named_model(which, support, mode):
    inst = mixed_bin_instance() if which == "mixed" else load_bundled(which)
    return build_model(inst, support=support, mode=mode)


@pytest.mark.parametrize("which", NAMED_INSTANCES)
@pytest.mark.parametrize("support", [None, 0.8])
@pytest.mark.parametrize("mode", ["linearized", "quadratic"])
def test_row_names_match_the_eager_list(which, support, mode):
    model = named_model(which, support, mode)
    rows, expected = model.constraints, model_reference.row_names(model)
    assert rows.names == expected
    # every block's first and last row, and random rows
    rng = random.Random(f"{which}-{support}-{mode}")
    index = [first + step for first, _, _ in rows.blocks for step in (-1, 0)][1:]
    index = np.array(index + [len(rows) - 1] + [rng.randrange(len(rows)) for _ in range(500)])
    assert [rows.name(r) for r in index.tolist()] == [expected[r] for r in index]
    heads, labels, family, label = rows.name_index()
    assert len(family) == len(label) == len(rows)
    assert [heads[f][0] + labels[u] + heads[f][1] for f, u in
            zip(family[index].tolist(), label[index].tolist())] == [expected[r] for r in index]
    # the emitters' gatherer: separators around the name, "obj" at row -1
    index = np.append(index, -1)
    parts = _row_names(rows, lambda lo, hi: index[lo:hi], "<", ">\n")(0, len(index))
    assert ["".join(p) for p in zip(*(part.tolist() for part in parts))] == (
        [f"<{expected[r]}>\n" for r in index[:-1]] + ["<obj>\n"])


def violated_rows(model, values, tol=1e-6) -> list[int]:
    """Rows ``values`` violates, found by a plain loop over row terms."""
    vec = [values.get(name, 0.0) for name in model.registry.names]
    out = []
    for row, con in enumerate(model.constraints):
        lhs = sum(coef * vec[idx] for idx, coef in con.terms)
        lhs += sum(coef * vec[a] * vec[b] for a, b, coef in con.qterms or ())
        gap = lhs - con.rhs
        excess = gap if con.sense == "<=" else -gap if con.sense == ">=" else abs(gap)
        if not excess <= tol:
            out.append(row)
    return out


@pytest.mark.parametrize("which", [1, "mixed"])
@pytest.mark.parametrize("support,mode", [
    (None, "linearized"), (0.8, "linearized"), (0.8, "quadratic")])
def test_reports_name_rows_as_the_eager_list(which, support, mode):
    model = named_model(which, support, mode)
    expected, reg = model_reference.row_names(model), model.registry
    rng = random.Random(f"{which}-{support}-{mode}")
    # all zero, then each variable anywhere in its bounds
    for values in ({}, {name: rng.uniform(lo, hi)
                        for name, lo, hi in zip(reg.names, reg.lb, reg.ub)}):
        reported = [r.name for r in check_assignment(model, values)
                    if not r.name.startswith(("lb:", "ub:"))]
        assert reported and reported == [expected[row] for row in violated_rows(model, values)]
    # Halve the terms of the first, middle and last row of every family:
    # the audit names those whose activator constant is now short.
    rows = model.constraints
    shrunk = set()
    for first, stride, count in rows.families.values():
        for row in {first, first + stride * (count // 2), first + stride * (count - 1)}:
            shrunk.add(row)
            for term in range(rows.indptr[row], rows.indptr[row + 1]):
                rows.coefs[term] *= 0.5
    failures = audit_big_m(model)
    assert failures == model_reference.audit_big_m(model)
    assert failures and failures == [expected[row] for row in sorted(shrunk)
                                     if expected[row] in failures]
