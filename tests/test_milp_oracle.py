"""The emitted model solved by a MILP solver agrees with the exact oracle.

``build_model``'s linearized rows and variable bounds go to
``scipy.optimize.milp`` (HiGHS) as they are stored: CSR rows, one sense
per row, binaries as integers.  On small random instances the optimum
must equal ``solve_exact``'s grid optimum, and the packing imported from
HiGHS's values must pass the validator and the model's own row check.
"""

import random

import numpy as np
import pytest

from binpack3d.exact import solve_exact
from binpack3d.geometry import DEFAULT_TOL
from binpack3d.model import BINARY, KINDS, build_model, check_assignment, import_solution
from binpack3d.solvers import SolverConfig
from binpack3d.validate import validate

from conftest import make_instance

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

# HiGHS's primal feasibility tolerance equals DEFAULT_TOL, so its optimum
# can sit just over DEFAULT_TOL below the grid optimum
OBJECTIVE_MARGIN = 4 * DEFAULT_TOL
TRIALS = 20


def solve_model(model):
    """Optimal variable values of ``model`` by HiGHS, or None if infeasible."""
    reg, rows = model.registry, model.constraints
    assert not rows.qrows, "the linearized model has no quadratic terms"
    n = len(reg)
    matrix = sparse.csr_array(
        (np.frombuffer(rows.coefs), np.frombuffer(rows.cols, dtype=np.int32),
         np.frombuffer(rows.indptr, dtype=np.int64)), shape=(len(rows), n))
    rhs = np.frombuffer(rows.rhs)
    sense = np.frombuffer(rows.senses, dtype=np.uint8)  # SENSES: "<=", ">=", "="
    lower = np.where(sense == 0, -np.inf, rhs)
    upper = np.where(sense == 1, np.inf, rhs)
    cost = np.zeros(n)
    for idx, coef in model.objective:
        cost[idx] += coef
    integral = np.frombuffer(bytes(reg.kinds), dtype=np.uint8) == KINDS.index(BINARY)
    res = optimize.milp(cost, constraints=optimize.LinearConstraint(matrix, lower, upper),
                        integrality=integral.astype(int),
                        bounds=optimize.Bounds(np.frombuffer(reg.lb), np.frombuffer(reg.ub)),
                        options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return dict(zip(reg.names, res.x.tolist()))


@pytest.mark.parametrize("support", [None, 0.8])
def test_highs_optimum_matches_the_exact_oracle(support):
    rng = random.Random(20240811)
    solved = 0
    for trial in range(TRIALS):
        inst = make_instance(trial, rng, max_cases=3, max_bins=2, support=support)
        exact = solve_exact(inst, SolverConfig(time_limit=60.0))
        model = build_model(inst, support=support)
        values = solve_model(model)
        assert (values is None) == (exact.packing is None), trial
        if values is None:
            continue
        assert model.objective_at(values) == pytest.approx(exact.objective,
                                                           abs=OBJECTIVE_MARGIN), trial
        pack, report = import_solution(model, values)
        assert report.clean, (trial, report)
        assert validate(inst, pack, support=support).feasible, trial
        assert not check_assignment(model, values), trial
        solved += 1
    assert solved >= TRIALS // 2
