"""Mixed-integer model generation for the packing problem.

The generated model minimizes the volume-weighted average top height of
the cases plus the per-bin topmost height plus the height of every used
bin, subject to orientation, assignment, pairwise non-overlap, bin
boundary and (optionally) area-support constraints.

Variable families (names are stable and deterministic for an instance):

    e[j]        bin j used                                   binary
    u[i,j]      case i assigned to bin j                     binary
    b[i,i',q]   spatial relation q between pair i < i'       binary
    r[i,k]      case i packed in orientation k               binary
    x/y/z[i]    back-lower-left corner of case i             continuous
    xp/yp/zp[i] effective dims of case i after orientation   continuous
    g[j]        topmost case height in bin j                 continuous
    s[i,i']     support area case i' gives case i            continuous
    f[i,i']     cases i and i' touch along z (i on top)      binary
    ox/oy[i,i'] x / y overlap widths for the support pair    continuous
    sg[i]       support area the floor gives case i          continuous
    fg[i]       case i rests on the bin floor                binary
    lam[i,i',p] active overlap segment (linearized support)  binary

Two modes exist.  ``quadratic`` keeps the bilinear forms: products of
assignment binaries in the non-overlap activators and the bilinear
support-area cap.  ``linearized`` replaces the activator product with the
standard sum form (equivalent for binaries) and the bilinear cap with a
piecewise-McCormick overestimate partitioned along the x-overlap axis.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    ORIENTATIONS,
    Instance,
    Packing,
    Placement,
    check_packing,
    effective_dims,
    footprint_area,
    interval_overlap,
    placed_box,
    separating_relations,
)

BINARY = "binary"
CONTINUOUS = "continuous"

INTEGRALITY_TOL = 1e-5


class SolutionImportError(ValueError):
    """A solver value map lacks a required variable or holds a coordinate
    that no placement can take."""


@dataclass(frozen=True, slots=True)
class Variable:
    name: str
    kind: str  # binary | continuous
    lb: float
    ub: float


class VariableRegistry:
    """Ordered, named variable table with deterministic numbering."""

    def __init__(self) -> None:
        self._vars: list[Variable] = []
        self._index: dict[str, int] = {}

    def add(self, name: str, kind: str, lb: float, ub: float) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable {name}")
        if not (math.isfinite(lb) and math.isfinite(ub)):
            raise ArithmeticError(f"non-finite bound for {name}")
        idx = len(self._vars)
        self._vars.append(Variable(name, kind, lb, ub))
        self._index[name] = idx
        return idx

    def index(self, name: str) -> int:
        return self._index[name]

    def __len__(self) -> int:
        return len(self._vars)

    def __getitem__(self, idx: int) -> Variable:
        return self._vars[idx]

    def __iter__(self):
        return iter(self._vars)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> list[str]:
        return [v.name for v in self._vars]


@dataclass(frozen=True, slots=True)
class Constraint:
    """One row, as read from a ``RowStore``."""

    name: str
    sense: str  # "<=", "=", ">="
    rhs: float
    terms: list[tuple[int, float]]
    qterms: list[tuple[int, int, float]] | None = None


SENSES = ("<=", ">=", "=")
_SENSE_CODE = {sense: code for code, sense in enumerate(SENSES)}


class RowStore(Sequence):
    """Constraint rows in flat arrays, read as a sequence of ``Constraint``.

    Row r has name ``names[r]``, sense ``SENSES[senses[r]]``, right-hand
    side ``rhs[r]`` and linear terms ``cols``/``coefs`` over
    ``indptr[r]:indptr[r + 1]`` (CSR).  Quadratic terms are kept only for
    the rows that have them, in row order: ``qrows[t]`` owns the product
    ``qcoefs[t] * v[qa[t]] * v[qb[t]]``.  Indexing builds a fresh
    ``Constraint``; rows are only ever appended, through ``add``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.senses = bytearray()
        self.rhs = array("d")
        self.indptr = array("q", [0])
        self.cols = array("i")
        self.coefs = array("d")
        self.qrows = array("i")
        self.qa = array("i")
        self.qb = array("i")
        self.qcoefs = array("d")

    def add(self, name: str, sense: str, rhs: float, terms: list[tuple[int, float]],
            qterms: list[tuple[int, int, float]] | None = None) -> None:
        row = len(self.names)
        self.names.append(name)
        self.senses.append(_SENSE_CODE[sense])
        self.rhs.append(rhs)
        cols, coefs = self.cols, self.coefs
        for col, coef in terms:
            cols.append(col)
            coefs.append(coef)
        self.indptr.append(len(cols))
        for a, b, coef in qterms or ():
            self.qrows.append(row)
            self.qa.append(a)
            self.qb.append(b)
            self.qcoefs.append(coef)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, row: int) -> Constraint:
        if row < 0:
            row += len(self.names)
        if not 0 <= row < len(self.names):
            raise IndexError("row index out of range")
        start, stop = self.indptr[row], self.indptr[row + 1]
        qstart = bisect_left(self.qrows, row)
        qstop = bisect_right(self.qrows, row, qstart)
        qterms = None
        if qstop > qstart:
            qterms = list(zip(self.qa[qstart:qstop], self.qb[qstart:qstop],
                              self.qcoefs[qstart:qstop]))
        return Constraint(self.names[row], SENSES[self.senses[row]], self.rhs[row],
                          list(zip(self.cols[start:stop], self.coefs[start:stop])),
                          qterms)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.names)))

    def row_of(self):
        """Row index of every linear term, as a numpy array."""
        counts = np.diff(np.frombuffer(self.indptr, dtype=np.int64))
        return np.repeat(np.arange(len(self.names), dtype=np.int32), counts)


@dataclass
class Model:
    """A generated model: registry, linear objective, constraint rows."""

    instance: Instance
    mode: str  # "linearized" | "quadratic"
    support: float | None
    big_m: str
    mccormick_pieces: int
    registry: VariableRegistry = field(default_factory=VariableRegistry)
    objective: list[tuple[int, float]] = field(default_factory=list)
    # A read-only sequence of Constraint views; build_model appends rows
    # through RowStore.add.
    constraints: RowStore = field(default_factory=RowStore)

    @property
    def num_variables(self) -> int:
        return len(self.registry)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def objective_at(self, values) -> float:
        if isinstance(values, dict):
            values = [values.get(v.name, 0.0) for v in self.registry]
        return sum(coef * values[idx] for idx, coef in self.objective)


def expected_variable_count(m: int, n: int, *, support: bool = False,
                            mode: str = "linearized", mccormick_pieces: int = 4) -> int:
    """Closed-form size of the variable registry."""
    pairs = m * (m - 1) // 2
    ordered = m * (m - 1)
    count = n + m * n + 6 * pairs + 6 * m + 6 * m + n
    if support:
        count += 4 * ordered + 2 * m
        if mode == "linearized":
            count += mccormick_pieces * ordered
    return count


def expected_constraint_count(m: int, n: int, type_group_sizes: tuple[int, ...] = (),
                              *, support: bool = False, mode: str = "linearized",
                              mccormick_pieces: int = 4) -> int:
    """Closed-form number of constraint rows.

    ``type_group_sizes`` lists how many bins each bin type expands to; the
    in-order bin usage rows need it.  Defaults to one group of n bins.
    """
    if not type_group_sizes:
        type_group_sizes = (n,)
    pairs = m * (m - 1) // 2
    ordered = m * (m - 1)
    order_rows = sum(max(0, size - 1) for size in type_group_sizes)
    count = (m            # pick one orientation
             + 3 * m      # effective dimension equalities
             + m          # assign to one bin
             + m * n      # assignment only to used bins
             + order_rows  # same-type bins used in order
             + 6 * pairs * n  # pairwise non-overlap, per bin and relation
             + pairs      # pick one relation
             + 5 * m * n)  # boundary windows and topmost height
    if support:
        count += (m            # minimum support per case
                  + 6 * ordered  # touch-along-z and overlap gates
                  + ordered      # support capped by max overlap area
                  + 8 * ordered  # overlap width upper bounds
                  + 2 * m)       # floor touch and floor support cap
        if mode == "quadratic":
            count += ordered   # bilinear support-area cap
        else:
            count += (3 + 2 * mccormick_pieces) * ordered
    return count


def build_model(inst: Instance, *, support: float | None = None,
                mode: str = "linearized", big_m: str = "paper",
                mccormick_pieces: int = 4,
                allowed_orientations: tuple[int, ...] = ORIENTATIONS) -> Model:
    """Generate the full model for an instance.

    ``support`` is the support threshold (None disables the support block).
    ``big_m`` selects the activation constants: "paper" uses the global
    frame envelope on every row, "tight" shrinks the boundary rows to the
    provably sufficient per-bin slack.
    """
    m, n = inst.num_cases, inst.num_bins
    if m == 0 or n == 0:
        raise ValueError("model needs at least one case and one bin")
    if mode not in ("linearized", "quadratic"):
        raise ValueError(f"unknown mode {mode!r}")
    if big_m not in ("paper", "tight"):
        raise ValueError(f"unknown big-M policy {big_m!r}")
    if support is not None and not 0 <= support <= 1:
        raise ValueError("support threshold must lie in [0, 1]")
    if mccormick_pieces < 1:
        raise ValueError("mccormick_pieces must be >= 1")
    bad = [k for k in allowed_orientations if k not in ORIENTATIONS]
    if bad or not allowed_orientations:
        raise ValueError(f"invalid orientation set {allowed_orientations!r}")

    model = Model(inst, mode, support, big_m, mccormick_pieces)
    reg = model.registry
    cases, bins = inst.cases, inst.bins
    l_total = inst.total_length
    w_env = inst.max_width
    h_env = inst.max_height
    if not (math.isfinite(l_total) and math.isfinite(w_env) and math.isfinite(h_env)):
        raise ArithmeticError("non-finite activation constant")

    # --- variables -------------------------------------------------------
    e = [reg.add(f"e[{j}]", BINARY, 0, 1) for j in range(n)]
    u = [[reg.add(f"u[{i},{j}]", BINARY, 0, 1) for j in range(n)] for i in range(m)]
    b = {}
    for i in range(m):
        for i2 in range(i + 1, m):
            for q in range(6):
                b[i, i2, q] = reg.add(f"b[{i},{i2},{q}]", BINARY, 0, 1)
    r = [[reg.add(f"r[{i},{k}]", BINARY, 0,
                  1 if k in allowed_orientations else 0)
          for k in ORIENTATIONS] for i in range(m)]
    x = [reg.add(f"x[{i}]", CONTINUOUS, 0, l_total) for i in range(m)]
    y = [reg.add(f"y[{i}]", CONTINUOUS, 0, w_env) for i in range(m)]
    z = [reg.add(f"z[{i}]", CONTINUOUS, 0, h_env) for i in range(m)]
    min_dim = [min(c.dims) for c in cases]
    max_dim = [max(c.dims) for c in cases]
    xp = [reg.add(f"xp[{i}]", CONTINUOUS, min_dim[i], max_dim[i]) for i in range(m)]
    yp = [reg.add(f"yp[{i}]", CONTINUOUS, min_dim[i], max_dim[i]) for i in range(m)]
    zp = [reg.add(f"zp[{i}]", CONTINUOUS, min_dim[i], max_dim[i]) for i in range(m)]
    g = [reg.add(f"g[{j}]", CONTINUOUS, 0, bins[j].height) for j in range(n)]

    ordered_pairs = [(i, i2) for i in range(m) for i2 in range(m) if i2 != i]
    if support is not None:
        max_fp = [max(footprint_area(c, k) for k in ORIENTATIONS) for c in cases]
        pair_cap = {(i, i2): min(max_fp[i], max_fp[i2]) for i, i2 in ordered_pairs}
        ov_cap = {(i, i2): min(max_dim[i], max_dim[i2]) for i, i2 in ordered_pairs}
        s = {p: reg.add(f"s[{p[0]},{p[1]}]", CONTINUOUS, 0, pair_cap[p])
             for p in ordered_pairs}
        f = {p: reg.add(f"f[{p[0]},{p[1]}]", BINARY, 0, 1) for p in ordered_pairs}
        ox = {p: reg.add(f"ox[{p[0]},{p[1]}]", CONTINUOUS, 0, ov_cap[p])
              for p in ordered_pairs}
        oy = {p: reg.add(f"oy[{p[0]},{p[1]}]", CONTINUOUS, 0, ov_cap[p])
              for p in ordered_pairs}
        sg = [reg.add(f"sg[{i}]", CONTINUOUS, 0, max_fp[i]) for i in range(m)]
        fg = [reg.add(f"fg[{i}]", BINARY, 0, 1) for i in range(m)]
        if mode == "linearized":
            lam = {(i, i2, p): reg.add(f"lam[{i},{i2},{p}]", BINARY, 0, 1)
                   for i, i2 in ordered_pairs for p in range(mccormick_pieces)}

    # --- objective -------------------------------------------------------
    obj = model.objective
    for i, case in enumerate(cases):
        weight = inst.case_weights[i]
        obj.append((z[i], weight))
        for kpos, k in enumerate(ORIENTATIONS):
            obj.append((r[i][kpos], weight * effective_dims(case, k)[2]))
    for j in range(n):
        obj.append((g[j], 1.0))
    for j in range(n):
        obj.append((e[j], bins[j].height))

    add = model.constraints.add

    # --- orientation -----------------------------------------------------
    for i in range(m):
        add(f"orient_pick[{i}]", "=", 1.0, [(v, 1.0) for v in r[i]])
    for i, case in enumerate(cases):
        for axis, var in enumerate((xp[i], yp[i], zp[i])):
            terms = [(var, 1.0)]
            for kpos, k in enumerate(ORIENTATIONS):
                terms.append((r[i][kpos], -effective_dims(case, k)[axis]))
            add(f"eff_{'xyz'[axis]}[{i}]", "=", 0.0, terms)

    # --- assignment ------------------------------------------------------
    for i in range(m):
        add(f"assign_one[{i}]", "=", 1.0, [(v, 1.0) for v in u[i]])
    for i in range(m):
        for j in range(n):
            add(f"assign_use[{i},{j}]", "<=", 0.0,
                [(u[i][j], 1.0), (e[j], -1.0)])
    for group in inst.type_ranges:
        for j in group[1:]:
            add(f"bin_order[{j - 1}]", "<=", 0.0,
                [(e[j], 1.0), (e[j - 1], -1.0)])

    # --- pairwise non-overlap --------------------------------------------
    # Relation q separates the pair along one axis: 0/3 along x, 1/4 along
    # y, 2/5 along z, with the roles of i and i2 swapped in 3..5.  A row is
    # active only when both cases share bin j and the relation is chosen.
    axis_m = (l_total, w_env, h_env)
    for i in range(m):
        for i2 in range(i + 1, m):
            for j in range(n):
                for q in range(6):
                    axis = q % 3
                    big = axis_m[axis]
                    lo, hi = (i, i2) if q < 3 else (i2, i)
                    coord = (x, y, z)[axis]
                    ext = (xp, yp, zp)[axis]
                    terms = [(coord[lo], 1.0), (ext[lo], 1.0), (coord[hi], -1.0),
                             (b[i, i2, q], big)]
                    if mode == "quadratic":
                        qterms = [(u[i][j], u[i2][j], big)]
                        add(f"sep[{i},{i2},{j},{q}]", "<=", 2 * big,
                            terms, qterms)
                    else:
                        terms.extend([(u[i][j], big), (u[i2][j], big)])
                        add(f"sep[{i},{i2},{j},{q}]", "<=", 3 * big, terms)
    for i in range(m):
        for i2 in range(i + 1, m):
            add(f"sep_pick[{i},{i2}]", "=", 1.0,
                [(b[i, i2, q], 1.0) for q in range(6)])

    # --- bin boundaries ----------------------------------------------------
    for i in range(m):
        for j in range(n):
            start, end = inst.bin_window(j)
            bj = bins[j]
            mx = l_total - end if big_m == "tight" else l_total
            my = w_env - bj.width if big_m == "tight" else w_env
            mz = h_env - bj.height if big_m == "tight" else h_env
            add(f"bound_xhi[{i},{j}]", "<=", end + mx,
                [(x[i], 1.0), (xp[i], 1.0), (u[i][j], mx)])
            xlo_terms = [(x[i], 1.0)]
            if start != 0:
                xlo_terms.append((u[i][j], -start))
            add(f"bound_xlo[{i},{j}]", ">=", 0.0, xlo_terms)
            add(f"bound_yhi[{i},{j}]", "<=", bj.width + my,
                [(y[i], 1.0), (yp[i], 1.0), (u[i][j], my)])
            add(f"bound_zhi[{i},{j}]", "<=", bj.height + mz,
                [(z[i], 1.0), (zp[i], 1.0), (u[i][j], mz)])
            add(f"top_height[{i},{j}]", "<=", h_env,
                [(z[i], 1.0), (zp[i], 1.0), (g[j], -1.0),
                 (u[i][j], h_env)])

    # --- support -----------------------------------------------------------
    if support is not None:
        t = float(support)
        # Minimum support: credited areas from other cases plus the floor
        # must cover fraction t of the oriented footprint, whose area is
        # linear in the orientation binaries because exactly one is set.
        for i, case in enumerate(cases):
            terms = [(s[i, i2], 1.0) for i2 in range(m) if i2 != i]
            terms.append((sg[i], 1.0))
            for kpos, k in enumerate(ORIENTATIONS):
                terms.append((r[i][kpos], -t * footprint_area(case, k)))
            add(f"sup_min[{i}]", ">=", 0.0, terms)

        for i, i2 in ordered_pairs:
            fv = f[i, i2]
            # Touching along z: base of i meets top of i2 when f is set.
            add(f"touch_zlo[{i},{i2}]", "<=", h_env,
                [(z[i2], 1.0), (zp[i2], 1.0), (z[i], -1.0), (fv, h_env)])
            add(f"touch_zhi[{i},{i2}]", "<=", h_env,
                [(z[i], 1.0), (z[i2], -1.0), (zp[i2], -1.0), (fv, h_env)])
            # Touching pairs must intersect in x and y so the overlap
            # widths below stay non-negative.
            add(f"touch_xlo[{i},{i2}]", "<=", l_total,
                [(x[i2], 1.0), (x[i], -1.0), (xp[i], -1.0), (fv, l_total)])
            add(f"touch_xhi[{i},{i2}]", "<=", l_total,
                [(x[i], 1.0), (x[i2], -1.0), (xp[i2], -1.0), (fv, l_total)])
            add(f"touch_ylo[{i},{i2}]", "<=", w_env,
                [(y[i2], 1.0), (y[i], -1.0), (yp[i], -1.0), (fv, w_env)])
            add(f"touch_yhi[{i},{i2}]", "<=", w_env,
                [(y[i], 1.0), (y[i2], -1.0), (yp[i2], -1.0), (fv, w_env)])
            add(f"sup_cap[{i},{i2}]", "<=", 0.0,
                [(s[i, i2], 1.0), (fv, -pair_cap[i, i2])])
            if mode == "quadratic":
                add(f"sup_area[{i},{i2}]", "<=", 0.0,
                    [(s[i, i2], 1.0)],
                    [(ox[i, i2], oy[i, i2], -1.0)])
            else:
                cap_a = pair_cap[i, i2]
                ub_x = ov_cap[i, i2]
                ub_y = ov_cap[i, i2]
                pieces = mccormick_pieces
                bps = [ub_x * p / pieces for p in range(pieces + 1)]
                lam_terms = [(lam[i, i2, p], 1.0) for p in range(pieces)]
                add(f"mc_pick[{i},{i2}]", "=", 1.0, list(lam_terms))
                add(f"mc_lo[{i},{i2}]", ">=", 0.0,
                    [(ox[i, i2], 1.0)]
                    + [(lam[i, i2, p], -bps[p]) for p in range(pieces)])
                add(f"mc_hi[{i},{i2}]", "<=", 0.0,
                    [(ox[i, i2], 1.0)]
                    + [(lam[i, i2, p], -bps[p + 1]) for p in range(pieces)])
                for p in range(pieces):
                    # Segment-local overestimates of the overlap product.
                    add(f"mc_ub1[{i},{i2},{p}]", "<=", cap_a,
                        [(s[i, i2], 1.0), (oy[i, i2], -bps[p + 1]),
                         (lam[i, i2, p], cap_a)])
                    big2 = cap_a + bps[p] * ub_y
                    add(f"mc_ub2[{i},{i2},{p}]", "<=", cap_a,
                        [(s[i, i2], 1.0), (oy[i, i2], -bps[p]),
                         (ox[i, i2], -ub_y), (lam[i, i2, p], big2)])

            # Overlap widths bounded by the actual interval overlaps when
            # the pair touches, and by both effective extents always.
            add(f"ovx_a[{i},{i2}]", "<=", l_total,
                [(ox[i, i2], 1.0), (x[i], -1.0), (xp[i], -1.0),
                 (x[i2], 1.0), (fv, l_total)])
            add(f"ovx_b[{i},{i2}]", "<=", l_total,
                [(ox[i, i2], 1.0), (x[i2], -1.0), (xp[i2], -1.0),
                 (x[i], 1.0), (fv, l_total)])
            add(f"ovx_c[{i},{i2}]", "<=", 0.0,
                [(ox[i, i2], 1.0), (xp[i], -1.0)])
            add(f"ovx_d[{i},{i2}]", "<=", 0.0,
                [(ox[i, i2], 1.0), (xp[i2], -1.0)])
            add(f"ovy_a[{i},{i2}]", "<=", w_env,
                [(oy[i, i2], 1.0), (y[i], -1.0), (yp[i], -1.0),
                 (y[i2], 1.0), (fv, w_env)])
            add(f"ovy_b[{i},{i2}]", "<=", w_env,
                [(oy[i, i2], 1.0), (y[i2], -1.0), (yp[i2], -1.0),
                 (y[i], 1.0), (fv, w_env)])
            add(f"ovy_c[{i},{i2}]", "<=", 0.0,
                [(oy[i, i2], 1.0), (yp[i], -1.0)])
            add(f"ovy_d[{i},{i2}]", "<=", 0.0,
                [(oy[i, i2], 1.0), (yp[i2], -1.0)])

        for i in range(m):
            add(f"ground_touch[{i}]", "<=", h_env,
                [(z[i], 1.0), (fg[i], h_env)])
            add(f"ground_cap[{i}]", "<=", 0.0,
                [(sg[i], 1.0), (fg[i], -max_fp[i])])

    assert model.num_variables == expected_variable_count(
        m, n, support=support is not None, mode=mode,
        mccormick_pieces=mccormick_pieces)
    assert model.num_constraints == expected_constraint_count(
        m, n, tuple(map(len, inst.type_ranges)), support=support is not None, mode=mode,
        mccormick_pieces=mccormick_pieces)
    return model


# --- assignments ----------------------------------------------------------

def packing_to_assignment(model: Model, pack: Packing,
                          tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Map a packing to the canonical variable assignment.

    The map is maximal-credit: it claims every support contact the
    geometry provides, picks the first spatial relation that actually
    separates each pair, and opens bins so that same-type bins are used in
    index order.  For a feasible packing the result satisfies every model
    row; for an infeasible one at least one row fails.
    """
    inst = model.instance
    check_packing(inst, pack)
    m, n = inst.num_cases, inst.num_bins
    values: dict[str, float] = {v.name: 0.0 for v in model.registry}
    placements = pack.placements
    boxes = [placed_box(inst.cases[p.case_index], p) for p in placements]

    used = {p.bin_index for p in placements}
    # Open bins as a prefix within each type group so in-order rows hold.
    for group in inst.type_ranges:
        last_used = max((j for j in group if j in used), default=group.start - 1)
        for j in range(group.start, last_used + 1):
            values[f"e[{j}]"] = 1.0

    tops = [0.0] * n
    for p, box in zip(placements, boxes):
        i = p.case_index
        values[f"u[{i},{p.bin_index}]"] = 1.0
        values[f"r[{i},{p.orientation}]"] = 1.0
        values[f"x[{i}]"] = box.x
        values[f"y[{i}]"] = box.y
        values[f"z[{i}]"] = box.z
        values[f"xp[{i}]"] = box.dx
        values[f"yp[{i}]"] = box.dy
        values[f"zp[{i}]"] = box.dz
        tops[p.bin_index] = max(tops[p.bin_index], box.top)
    for j in range(n):
        values[f"g[{j}]"] = tops[j]

    for i in range(m):
        for i2 in range(i + 1, m):
            relations = separating_relations(boxes[i], boxes[i2], tol)
            values[f"b[{i},{i2},{relations[0] if relations else 0}]"] = 1.0

    if model.support is not None:
        pieces = model.mccormick_pieces
        for i, box in enumerate(boxes):
            if box.z <= tol:
                values[f"fg[{i}]"] = 1.0
                values[f"sg[{i}]"] = box.footprint
        for i, up in enumerate(boxes):
            for i2, lo in enumerate(boxes):
                if i2 == i:
                    continue
                touches = abs(up.z - lo.top) <= tol
                meets_x = lo.x <= up.x + up.dx + tol and up.x <= lo.x + lo.dx + tol
                meets_y = lo.y <= up.y + up.dy + tol and up.y <= lo.y + lo.dy + tol
                oxv = oyv = 0.0
                if touches and meets_x and meets_y:
                    values[f"f[{i},{i2}]"] = 1.0
                    oxv = interval_overlap(up.x, up.dx, lo.x, lo.dx)
                    oyv = interval_overlap(up.y, up.dy, lo.y, lo.dy)
                    values[f"ox[{i},{i2}]"] = oxv
                    values[f"oy[{i},{i2}]"] = oyv
                    values[f"s[{i},{i2}]"] = oxv * oyv
                if model.mode == "linearized":
                    ub = model.registry[model.registry.index(f"ox[{i},{i2}]")].ub
                    seg = 0
                    if ub > 0:
                        seg = min(int(oxv / ub * pieces), pieces - 1)
                    values[f"lam[{i},{i2},{seg}]"] = 1.0
    return values


@dataclass
class RowViolation:
    name: str
    amount: float


def check_assignment(model: Model, values, tol: float = DEFAULT_TOL) -> list[RowViolation]:
    """Evaluate every row and variable bound; return the violated ones.

    ``values`` maps variable names (or registry indices via a sequence) to
    values.  Empty result means the assignment satisfies the model.
    """
    if isinstance(values, dict):
        vec = [values.get(v.name, 0.0) for v in model.registry]
    else:
        vec = list(values)
        if len(vec) != len(model.registry):
            raise ValueError("value vector length mismatch")
    out: list[RowViolation] = []
    for pos, var in enumerate(model.registry):
        val = vec[pos]
        if val < var.lb - tol:
            out.append(RowViolation(f"lb:{var.name}", var.lb - val))
        elif not val <= var.ub + tol:  # a NaN fails this test too
            out.append(RowViolation(f"ub:{var.name}", val - var.ub))
    # Each row's terms are summed in stored order from 0.0 (bincount adds
    # its weights sequentially), the quadratic part separately, then added.
    rows = model.constraints
    v = np.asarray(vec, dtype=np.float64)
    cols = np.frombuffer(rows.cols, dtype=np.int32)
    lhs = np.bincount(rows.row_of(), weights=np.frombuffer(rows.coefs) * v[cols],
                      minlength=len(rows))
    if rows.qrows:
        qa = np.frombuffer(rows.qa, dtype=np.int32)
        qb = np.frombuffer(rows.qb, dtype=np.int32)
        lhs += np.bincount(np.frombuffer(rows.qrows, dtype=np.int32),
                           weights=np.frombuffer(rows.qcoefs) * v[qa] * v[qb],
                           minlength=len(rows))
    gap = lhs - np.frombuffer(rows.rhs)
    sense = np.frombuffer(rows.senses, dtype=np.uint8)
    # How far each row is past its sense, in SENSES order "<=", ">=", "=";
    # a NaN excess is a violation.
    excess = np.select([sense == 0, sense == 1], [gap, -gap], np.abs(gap))
    for row in np.flatnonzero(~(excess <= tol)).tolist():
        out.append(RowViolation(rows.names[row], excess[row].item()))
    return out


@dataclass
class ImportReport:
    """Reconstruction notes for a solver value map.

    ``clamped`` names the x/y/z variables whose small negative solver noise
    (within ``DEFAULT_TOL`` of 0) was read as 0.0.
    """

    integrality_violations: tuple[str, ...] = ()
    clamped: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.integrality_violations


def import_solution(model: Model, values: dict[str, float]) -> tuple[Packing, ImportReport]:
    """Rebuild a packing from solver variable values.

    Requires every x/y/z, r and u variable; bin and orientation come from
    the largest u and r values.  Binary values off {0, 1} by more than the
    integrality tolerance are reported but do not abort the import; a u or
    r value that is not finite raises ``SolutionImportError``.  A
    coordinate in [-DEFAULT_TOL, 0) is clamped to 0.0 and reported; one
    below that, or not finite, raises ``SolutionImportError``.
    """
    inst = model.instance
    m, n = inst.num_cases, inst.num_bins

    def need(name: str) -> float:
        if name not in values:
            raise SolutionImportError(f"missing variable {name}")
        return float(values[name])

    suspicious: list[str] = []
    clamped: list[str] = []

    def coordinate(name: str) -> float:
        val = need(name)
        if not -DEFAULT_TOL <= val < math.inf:
            raise SolutionImportError(
                f"{name} = {val!r} is not a finite non-negative coordinate")
        if val < 0:
            clamped.append(name)
            return 0.0
        return val

    def binary_val(name: str) -> float:
        val = need(name)
        if not math.isfinite(val):
            raise SolutionImportError(f"{name} = {val!r} is not a finite value")
        if min(abs(val), abs(val - 1.0)) > INTEGRALITY_TOL:
            suspicious.append(name)
        return val

    placements = []
    for i in range(m):
        uvals = [binary_val(f"u[{i},{j}]") for j in range(n)]
        rvals = [binary_val(f"r[{i},{k}]") for k in ORIENTATIONS]
        bin_index = max(range(n), key=lambda j: (uvals[j], -j))
        kpos = max(range(6), key=lambda q: (rvals[q], -q))
        placements.append(Placement(
            case_index=i, bin_index=bin_index,
            x=coordinate(f"x[{i}]"), y=coordinate(f"y[{i}]"), z=coordinate(f"z[{i}]"),
            orientation=ORIENTATIONS[kpos]))
    return Packing(tuple(placements)), ImportReport(tuple(suspicious), tuple(clamped))


def parse_value_file(text: str) -> dict[str, float]:
    """Parse a solver value file: one ``name value`` pair per line, each
    name once and each value a finite number."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"value file line {lineno}: expected 'name value'")
        try:
            value = float(parts[1])
        except ValueError:
            raise ValueError(f"value file line {lineno}: bad number {parts[1]!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"value file line {lineno}: non-finite number {parts[1]!r}")
        if parts[0] in values:
            raise ValueError(f"value file line {lineno}: {parts[0]!r} given twice")
        values[parts[0]] = value
    return values


# --- activation-constant audit ---------------------------------------------

def audit_big_m(model: Model, slack: float = 1e-9) -> list[str]:
    """Verify every activation constant is large enough; return failures.

    A big-M row must impose nothing in its relaxed state: one unit of
    activator slack has to cover the largest value the rest of the row can
    take.  The raw variable box overstates that value for coordinate +
    extent sums, so the audit uses the frame caps every assigned case
    obeys: x + xp never exceeds the frame length, y + yp the frame width,
    z + zp the frame height.  Each row family has a closed-form
    requirement for its constant, checked here per generated row.
    """
    inst = model.instance
    reg = model.registry
    cases = inst.cases
    l_total, w_env, h_env = inst.total_length, inst.max_width, inst.max_height
    axis_cap = {"x": l_total, "y": w_env, "z": h_env}
    min_dim = [min(c.dims) for c in cases]
    failures: list[str] = []

    def coef_of(con: Constraint, name: str) -> float:
        idx = reg.index(name)
        for vid, coef in con.terms:
            if vid == idx:
                return coef
        for a, b2, coef in con.qterms or ():
            if a == idx or b2 == idx:
                return coef
        raise KeyError(name)

    def fields(name: str) -> list[int]:
        inner = name[name.index("[") + 1:-1]
        return [int(v) for v in inner.split(",")]

    for con in model.constraints:
        family = con.name.split("[", 1)[0]
        need = None
        have = None
        if family == "sep":
            i, i2, j, q = fields(con.name)
            # One activator unit must cover the separated pair's reach.
            have = coef_of(con, f"b[{i},{i2},{q}]")
            need = axis_cap[("x", "y", "z")[q % 3]]
        elif family in ("bound_xhi", "bound_yhi", "bound_zhi"):
            i, j = fields(con.name)
            have = coef_of(con, f"u[{i},{j}]")
            axis = family[6]
            cap = axis_cap[axis]
            local = {"x": inst.bin_window(j)[1], "y": inst.bins[j].width,
                     "z": inst.bins[j].height}[axis]
            need = cap - local
        elif family == "top_height":
            i, j = fields(con.name)
            have = coef_of(con, f"u[{i},{j}]")
            need = h_env  # g[j] may sit at 0 for an unrelated bin
        elif family in ("touch_zlo", "touch_zhi"):
            i, i2 = fields(con.name)
            have = coef_of(con, f"f[{i},{i2}]")
            need = h_env
        elif family in ("touch_xlo", "touch_xhi", "touch_ylo", "touch_yhi"):
            i, i2 = fields(con.name)
            have = coef_of(con, f"f[{i},{i2}]")
            need = axis_cap[family[6]]
        elif family in ("ovx_a", "ovx_b", "ovy_a", "ovy_b"):
            # Relaxed rows only need to admit the canonical value 0; the
            # de-facto requirement is covering 0 <= rest + M.
            i, i2 = fields(con.name)
            have = coef_of(con, f"f[{i},{i2}]")
            source = i if family.endswith("a") else i2
            need = axis_cap[family[2]] - min_dim[source]
        elif family in ("sup_cap", "ground_cap"):
            idx = fields(con.name)
            svar = f"s[{idx[0]},{idx[1]}]" if family == "sup_cap" else f"sg[{idx[0]}]"
            have = -min(coef for _, coef in con.terms if coef < 0)
            need = reg[reg.index(svar)].ub
        elif family == "ground_touch":
            i, = fields(con.name)
            have = coef_of(con, f"fg[{i}]")
            need = h_env
        elif family == "mc_ub1":
            i, i2, p = fields(con.name)
            have = coef_of(con, f"lam[{i},{i2},{p}]")
            need = reg[reg.index(f"s[{i},{i2}]")].ub
        elif family == "mc_ub2":
            i, i2, p = fields(con.name)
            have = coef_of(con, f"lam[{i},{i2},{p}]")
            ub_y = reg[reg.index(f"oy[{i},{i2}]")].ub
            pieces = model.mccormick_pieces
            bp = reg[reg.index(f"ox[{i},{i2}]")].ub * p / pieces
            need = reg[reg.index(f"s[{i},{i2}]")].ub + bp * ub_y
        if need is not None and have < need - slack:
            failures.append(con.name)
    return failures
