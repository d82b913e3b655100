#!/usr/bin/env python3
"""Self-test of the benchmark's volume lower bound.

    python3 perfbench/selftest.py

The solve workloads report their gap against ``common.lower_bound``.  That
gap is only meaningful if the bound never exceeds an achievable objective,
so this checks ``lower_bound <= solve_exact optimum`` on seeded random
single-bin instances of 2-3 cases, without support and at support 0.8.
Exits 1 on the first violation.
"""

from __future__ import annotations

import random
import sys

from common import import_package, lower_bound

INSTANCES = 200
SEED = 7


def random_instance(bp, tag: int, rng: random.Random):
    bin_dims = [round(rng.uniform(6.0, 10.0), 1) for _ in range(3)]
    cases = []
    for cid in range(rng.randint(2, 3)):
        dims = [round(rng.uniform(2.0, 0.8 * d), 2) for d in bin_dims]
        cases.append(bp.CaseSpec(cid, *dims))
    return bp.Instance(f"lb-{tag}", tuple(cases), (bp.BinSpec(0, *bin_dims),))


def main() -> int:
    bp = import_package()
    rng = random.Random(SEED)
    checked = tightest = 0
    slack = float("inf")
    for tag in range(INSTANCES):
        inst = random_instance(bp, tag, rng)
        lb = lower_bound(inst)
        for support in (None, 0.8):
            result = bp.solve_exact(inst, bp.SolverConfig(support_threshold=support))
            if result.packing is None:
                continue
            if not result.optimal:
                print(f"{inst.name} support={support}: search did not finish",
                      file=sys.stderr)
                return 1
            if lb > result.objective + 1e-9:
                print(f"{inst.name} support={support}: bound {lb!r} exceeds "
                      f"optimum {result.objective!r}", file=sys.stderr)
                return 1
            checked += 1
            if result.objective - lb < slack:
                slack, tightest = result.objective - lb, tag
    print(f"lower bound <= exact optimum on {checked} solves over "
          f"{INSTANCES} instances; smallest slack {slack:.2e} (lb-{tightest})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
