"""Axis-aligned cuboid geometry for multi-bin packing.

All bins share a single global coordinate frame: bins sit back to back
along the x axis, so bin j owns the window from the end of bin j-1 to the
end of bin j, while y and z start at 0 in every bin.  A placed case is the
half-open box [x, x+x') x [y, y+y') x [z, z+z') where (x', y', z') are its
effective dimensions after orientation.

Everything in this module is a pure function on immutable values.  It is
the one place that decides when boxes overlap, where a footprint comes to
rest and how much support a base gets, at the one tolerance ``DEFAULT_TOL``:
in scalar form over ``PlacedBox`` values, and as a vector kernel over
``(k, 6)`` box arrays with rows ``[x, y, z, dx, dy, dz]`` that repeats the
scalar arithmetic (``rest_heights`` excepted, see there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_TOL = 1e-6

ORIENTATIONS = (1, 2, 3, 4, 5, 6)

# Vertical-axis rotations only: the height dimension stays on the z axis.
UPRIGHT_ORIENTATIONS = (1, 3)

# Which physical dimension (0=length, 1=width, 2=height) lands on each of
# the x, y, z axes, per orientation index.
_AXIS_SOURCE = {
    1: (0, 1, 2),
    2: (0, 2, 1),
    3: (1, 0, 2),
    4: (1, 2, 0),
    5: (2, 0, 1),
    6: (2, 1, 0),
}


@dataclass(frozen=True)
class CaseSpec:
    """One row of a case catalogue: dimensions plus how many units exist."""

    id: int
    length: float
    width: float
    height: float
    quantity: int = 1

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError(f"case {self.id}: dimensions must be positive")
        if self.quantity < 1:
            raise ValueError(f"case {self.id}: quantity must be >= 1")
        for attr in ("length", "width", "height"):
            object.__setattr__(self, attr, float(getattr(self, attr)))

    @property
    def volume(self) -> float:
        return self.length * self.width * self.height

    @property
    def dims(self) -> tuple[float, float, float]:
        return (self.length, self.width, self.height)


@dataclass(frozen=True)
class BinSpec:
    """One bin type: dimensions plus how many identical bins exist."""

    type_id: int
    length: float
    width: float
    height: float
    quantity: int = 1

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError(f"bin type {self.type_id}: dimensions must be positive")
        if self.quantity < 1:
            raise ValueError(f"bin type {self.type_id}: quantity must be >= 1")
        for attr in ("length", "width", "height"):
            object.__setattr__(self, attr, float(getattr(self, attr)))

    @property
    def volume(self) -> float:
        return self.length * self.width * self.height


@dataclass(frozen=True)
class Case:
    """A single physical case (one unit of a CaseSpec)."""

    index: int
    spec_id: int
    length: float
    width: float
    height: float

    @property
    def volume(self) -> float:
        return self.length * self.width * self.height

    @property
    def dims(self) -> tuple[float, float, float]:
        return (self.length, self.width, self.height)


@dataclass(frozen=True)
class Bin:
    """A single physical bin (one unit of a BinSpec)."""

    index: int
    type_id: int
    length: float
    width: float
    height: float


@dataclass(frozen=True)
class Instance:
    """A named problem: case catalogue, ordered bin list, support threshold.

    ``support_threshold`` is the minimum fraction of a case's footprint that
    must rest on other cases or the bin floor; ``None`` disables support
    checking entirely.
    """

    name: str
    case_specs: tuple[CaseSpec, ...]
    bin_specs: tuple[BinSpec, ...]
    support_threshold: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "case_specs", tuple(self.case_specs))
        object.__setattr__(self, "bin_specs", tuple(self.bin_specs))
        ids = [c.id for c in self.case_specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate case ids")
        type_ids = [b.type_id for b in self.bin_specs]
        if len(set(type_ids)) != len(type_ids):
            raise ValueError("duplicate bin type ids")
        t = self.support_threshold
        if t is not None and not 0.0 <= t <= 1.0:
            raise ValueError("support threshold must lie in [0, 1]")

    @cached_property
    def cases(self) -> tuple[Case, ...]:
        """Cases expanded one entry per unit, in declaration order."""
        out = []
        for spec in self.case_specs:
            for _ in range(spec.quantity):
                out.append(Case(len(out), spec.id, spec.length, spec.width, spec.height))
        return tuple(out)

    @cached_property
    def bins(self) -> tuple[Bin, ...]:
        """Bins expanded one entry per unit, grouped by type in order."""
        out = []
        for spec in self.bin_specs:
            for _ in range(spec.quantity):
                out.append(Bin(len(out), spec.type_id, spec.length, spec.width, spec.height))
        return tuple(out)

    @property
    def num_cases(self) -> int:
        return len(self.cases)

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    @cached_property
    def case_weights(self) -> tuple[float, ...]:
        """Objective weight v_i / (m * v_max) of each case, in case order."""
        m = self.num_cases
        if not m:
            return ()
        vmax = max(c.volume for c in self.cases)
        return tuple(c.volume / (m * vmax) for c in self.cases)

    @cached_property
    def cum_lengths(self) -> tuple[float, ...]:
        """End coordinate of each bin in the back-to-back frame."""
        ends, total = [], 0.0
        for b in self.bins:
            total += b.length
            ends.append(total)
        return tuple(ends)

    @property
    def total_length(self) -> float:
        return self.cum_lengths[-1] if self.bins else 0.0

    @cached_property
    def max_width(self) -> float:
        return max((b.width for b in self.bins), default=0.0)

    @cached_property
    def max_height(self) -> float:
        return max((b.height for b in self.bins), default=0.0)

    def bin_window(self, bin_index: int) -> tuple[float, float]:
        """x interval [start, end) that bin ``bin_index`` occupies."""
        start = self.cum_lengths[bin_index - 1] if bin_index > 0 else 0.0
        return start, self.cum_lengths[bin_index]


@dataclass(frozen=True)
class Placement:
    """Back-lower-left corner and orientation of one case inside one bin."""

    case_index: int
    bin_index: int
    x: float
    y: float
    z: float
    orientation: int

    def __post_init__(self) -> None:
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be in 1..6, got {self.orientation}")
        if self.x < 0 or self.y < 0 or self.z < 0:
            raise ValueError("coordinates must be non-negative")
        if self.case_index < 0 or self.bin_index < 0:
            raise ValueError("indices must be non-negative")
        for attr in ("x", "y", "z"):
            object.__setattr__(self, attr, float(getattr(self, attr)))


@dataclass(frozen=True)
class Packing:
    """A complete solution: exactly one placement per case."""

    placements: tuple[Placement, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.placements, key=lambda p: p.case_index))
        seen = [p.case_index for p in ordered]
        if len(set(seen)) != len(seen):
            raise ValueError("duplicate placement for a case")
        object.__setattr__(self, "placements", ordered)

    def used_bins(self) -> tuple[int, ...]:
        return tuple(sorted({p.bin_index for p in self.placements}))

    def top_heights(self, inst: Instance) -> tuple[float, ...]:
        """Topmost z + z' per bin (0 for unused bins)."""
        tops = [0.0] * inst.num_bins
        for p in self.placements:
            _, _, zp = effective_dims(inst.cases[p.case_index], p.orientation)
            tops[p.bin_index] = max(tops[p.bin_index], p.z + zp)
        return tuple(tops)


@dataclass(frozen=True)
class PlacedBox:
    """A case resolved to its concrete box in the global frame."""

    x: float
    y: float
    z: float
    dx: float
    dy: float
    dz: float

    @property
    def top(self) -> float:
        return self.z + self.dz

    @property
    def footprint(self) -> float:
        return self.dx * self.dy


def check_packing(inst: Instance, pack: Packing) -> None:
    """Raise ValueError unless the packing matches the instance shape."""
    if len(pack.placements) != inst.num_cases:
        raise ValueError(
            f"packing has {len(pack.placements)} placements, "
            f"instance has {inst.num_cases} cases"
        )
    for p in pack.placements:
        if not 0 <= p.case_index < inst.num_cases:
            raise ValueError(f"unknown case index {p.case_index}")
        if not 0 <= p.bin_index < inst.num_bins:
            raise ValueError(f"unknown bin index {p.bin_index}")


def effective_dims(case, orientation: int) -> tuple[float, float, float]:
    """Extents of ``case`` along the x, y, z axes under ``orientation``.

    The six orientations produce the six permutations of (length, width,
    height), one each.
    """
    try:
        ix, iy, iz = _AXIS_SOURCE[orientation]
    except KeyError:
        raise ValueError(f"orientation must be in 1..6, got {orientation}") from None
    dims = (case.length, case.width, case.height)
    return dims[ix], dims[iy], dims[iz]


def footprint_area(case, orientation: int) -> float:
    """Area x' * y' that ``case`` projects onto the bin floor."""
    dx, dy, _ = effective_dims(case, orientation)
    return dx * dy


def max_footprint_area(case) -> float:
    """Largest floor projection over all orientations."""
    l, w, h = case.length, case.width, case.height
    return max(l * w, l * h, w * h)


def interval_overlap(a_start: float, a_len: float, b_start: float, b_len: float) -> float:
    """Overlap length of intervals [a_start, a_start+a_len] and [b_start, b_start+b_len].

    Clamped at zero for disjoint intervals, so the result is total.
    """
    return max(0.0, min(a_start + a_len - b_start, b_start + b_len - a_start, a_len, b_len))


def placed_box(case, placement: Placement) -> PlacedBox:
    dx, dy, dz = effective_dims(case, placement.orientation)
    return PlacedBox(placement.x, placement.y, placement.z, dx, dy, dz)


def support_area(lower: PlacedBox, upper: PlacedBox, tol: float = DEFAULT_TOL) -> float:
    """Area of ``upper``'s base resting on ``lower``'s top face.

    Nonzero only when the two faces touch along z (within ``tol``); then it
    is the product of the x and y interval overlaps.
    """
    if abs(upper.z - lower.top) > tol:
        return 0.0
    ox = interval_overlap(lower.x, lower.dx, upper.x, upper.dx)
    oy = interval_overlap(lower.y, lower.dy, upper.y, upper.dy)
    return ox * oy


def ground_support(box: PlacedBox, tol: float = DEFAULT_TOL) -> float:
    """Footprint credited to the bin floor when the box rests on it."""
    return box.footprint if box.z <= tol else 0.0


def penetration_depth(a: PlacedBox, b: PlacedBox) -> float:
    """Smallest translation separating two boxes; 0 when they do not overlap."""
    ox = min(a.x + a.dx - b.x, b.x + b.dx - a.x, a.dx, b.dx)
    oy = min(a.y + a.dy - b.y, b.y + b.dy - a.y, a.dy, b.dy)
    oz = min(a.z + a.dz - b.z, b.z + b.dz - a.z, a.dz, b.dz)
    depth = min(ox, oy, oz)
    return depth if depth > 0 else 0.0


def objective_value(inst: Instance, pack: Packing) -> float:
    """Packing cost: volume-weighted average case top height, plus the
    topmost height of each used bin, plus the height of every used bin.

    Lower is better; all three terms reward packing cases down and using
    fewer bins.
    """
    check_packing(inst, pack)
    total = 0.0
    for p in pack.placements:
        _, _, zp = effective_dims(inst.cases[p.case_index], p.orientation)
        total += (p.z + zp) * inst.case_weights[p.case_index]
    tops = pack.top_heights(inst)
    used = set(pack.used_bins())
    for j, b in enumerate(inst.bins):
        total += tops[j]
        if j in used:
            total += b.height
    return total


def separating_relations(a, b, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    """Relations (0..5) that hold between two placed boxes.

    0: a left of b, 1: a behind b, 2: a below b; 3..5 swap the roles.
    Disjoint boxes always satisfy at least one.
    """
    out = []
    pairs = ((a.x, a.dx, b.x), (a.y, a.dy, b.y), (a.z, a.dz, b.z),
             (b.x, b.dx, a.x), (b.y, b.dy, a.y), (b.z, b.dz, a.z))
    for q, (lo, ext, hi) in enumerate(pairs):
        if lo + ext <= hi + tol:
            out.append(q)
    return tuple(out)


# --- vector kernel -----------------------------------------------------------


def box_array(boxes) -> np.ndarray:
    """``(k, 6)`` array of an iterable of ``PlacedBox``."""
    return np.array([(b.x, b.y, b.z, b.dx, b.dy, b.dz) for b in boxes],
                    dtype=float).reshape(-1, 6)


def _overlap(a_start, a_len, b_start, b_len):
    """``interval_overlap`` over broadcast arrays."""
    return np.maximum(0.0, np.minimum(np.minimum(a_start + a_len - b_start,
                                                 b_start + b_len - a_start),
                                      np.minimum(a_len, b_len)))


def penetration_matrix(boxes: np.ndarray) -> np.ndarray:
    """``penetration_depth`` of every pair of rows of a box array."""
    lo, ext = boxes[:, None, :3], boxes[:, None, 3:]
    return _overlap(lo, ext, boxes[None, :, :3], boxes[None, :, 3:]).min(axis=2)


def support_pairs(boxes: np.ndarray, xs, ys, zs, a, b,
                  tol: float = DEFAULT_TOL):
    """The support-credit matrix, sparse: ``(base, box, area)`` for every
    ``a x b`` base at ``(xs, ys, zs)`` that touches a box's top within
    ``tol``, ordered by base then box, with ``area = support_area(box,
    base)``.  ``a`` and ``b`` are scalars or arrays, one value per base."""
    base, box = (np.abs(zs[:, None] - (boxes[:, 2] + boxes[:, 5])) <= tol).nonzero()
    if isinstance(a, np.ndarray):
        a, b = a[base], b[base]
    lower = boxes[box]
    area = (_overlap(lower[:, 0], lower[:, 3], xs[base], a)
            * _overlap(lower[:, 1], lower[:, 4], ys[base], b))
    return base, box, area


def support_credit(zs, a, b, base, area, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Credit of ``a x b`` bases at heights ``zs``: the floor's
    ``ground_support`` plus the ``area`` entries of each base, added in the
    order given, as a loop over ``support_area`` adds them."""
    credit = np.where(zs <= tol, np.multiply(a, b), 0.0)
    np.add.at(credit, base, area)
    return credit


def rest_heights(boxes: np.ndarray, xs, ys, a, b,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """Height at which an ``a x b`` footprint with its corner at each
    ``(xs, ys)`` comes to rest: the highest top among the boxes it overlaps
    by more than ``tol`` along x and y, else the floor.  ``a`` and ``b`` are
    scalars or one value per anchor.

    The test is ``x < xs + a - tol and xs < x + dx - tol`` (and so in y):
    one comparison per box and anchor, where ``interval_overlap > tol``
    takes a subtraction and a comparison, and this loop is most of the
    heuristic's time.  For extents over ``tol`` the two differ only when an
    overlap lies within one rounding of ``tol``.
    """
    x, y, dx, dy = boxes[:, 0], boxes[:, 1], boxes[:, 3], boxes[:, 4]
    over = ((x < (xs + a - tol)[:, None]) & (xs[:, None] < x + dx - tol)
            & (y < (ys + b - tol)[:, None]) & (ys[:, None] < y + dy - tol))
    return np.where(over, boxes[:, 2] + boxes[:, 5], 0.0).max(axis=1, initial=0.0)
