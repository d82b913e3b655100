import math
import os
import random
import sys
from pathlib import Path

import pytest

from binpack3d.geometry import BinSpec, CaseSpec, Instance, Packing, Placement
from binpack3d.solvers import DETERMINISTIC_STEPS_PER_SECOND

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """Environment for a ``python -m binpack3d`` child process: this
    checkout's ``src`` first on ``PYTHONPATH``, where pytest's
    ``pythonpath`` setting puts it on the test process's own path, so the
    child imports the same package whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _largest_time_limit() -> float:
    """The largest time limit whose deterministic step budget is finite."""
    limit = math.nextafter(sys.float_info.max / DETERMINISTIC_STEPS_PER_SECOND, math.inf)
    while not math.isfinite(limit * DETERMINISTIC_STEPS_PER_SECOND):
        limit = math.nextafter(limit, 0.0)
    return limit


LARGEST_TIME_LIMIT = _largest_time_limit()


@pytest.fixture
def tiny_instance():
    """One 3x2x1 case in a 10x10x10 bin."""
    return Instance("tiny", (CaseSpec(0, 3, 2, 1),), (BinSpec(0, 10, 10, 10),))


@pytest.fixture
def two_case_instance():
    return Instance(
        "two",
        (CaseSpec(0, 4, 3, 2), CaseSpec(1, 2, 2, 2)),
        (BinSpec(0, 8, 8, 8),),
    )


def make_instance(tag, rng: random.Random, max_cases: int = 4, max_bins: int = 2,
                  support=None) -> Instance:
    """Random instance with dims proportionate to the bin, so the exact
    grid stays small."""
    bin_dims = [round(rng.uniform(6.0, 10.0), 1) for _ in range(3)]
    specs = []
    total = 0
    sid = 0
    target = rng.randint(2, max_cases)
    while total < target:
        qty = min(rng.randint(1, 2), target - total)
        specs.append(CaseSpec(
            sid,
            round(rng.uniform(2.0, bin_dims[0] * 0.8), 2),
            round(rng.uniform(2.0, bin_dims[1] * 0.8), 2),
            round(rng.uniform(2.0, bin_dims[2] * 0.8), 2),
            quantity=qty))
        total += qty
        sid += 1
    bins = (BinSpec(0, *bin_dims, quantity=rng.randint(1, max_bins)),)
    return Instance(f"rand-{tag}", tuple(specs), bins, support)


def random_packing(inst: Instance, rng: random.Random) -> Packing:
    """Uniformly random placements; usually infeasible."""
    placements = []
    for i in range(inst.num_cases):
        j = rng.randrange(inst.num_bins)
        x0, x1 = inst.bin_window(j)
        placements.append(Placement(
            i, j,
            round(rng.uniform(x0, x1), 2),
            round(rng.uniform(0, inst.bins[j].width), 2),
            round(rng.uniform(0, inst.bins[j].height), 2),
            rng.randint(1, 6)))
    return Packing(tuple(placements))


def stacked_packing(inst: Instance) -> Packing:
    """All cases piled into one column of bin 0 (tests support credit)."""
    z = 0.0
    placements = []
    for i, case in enumerate(inst.cases):
        placements.append(Placement(i, 0, 0.0, 0.0, z, 1))
        z += case.height
    return Packing(tuple(placements))


def mixed_bin_instance() -> Instance:
    """Two bin types (two bins of one, one of the other) of different sizes:
    bins 1 and 2 start off the frame origin, and each type has its own
    in-order usage rows."""
    return Instance("mixed-bins",
                    (CaseSpec(0, 2.3, 1.7, 0.9, quantity=2), CaseSpec(1, 3.1, 2.2, 1.3),
                     CaseSpec(2, 1.1, 0.7, 2.6)),
                    (BinSpec(0, 6.1, 4.3, 3.7, quantity=2), BinSpec(1, 7.3, 5.2, 2.9)))
