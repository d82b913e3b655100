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

The model is built in array blocks: one registry append per variable
family, and one block per row family, or per group of families whose rows
alternate case by case or pair by pair.  A block writes each family's
term columns straight into the grown row store, so building holds no
stacked copy of a block next to the store.  Each block records
where it sits (``VariableRegistry.families``, ``RowStore.families``), and
the packing map and the big-M audit address the model by those index
ranges.  Variable names are kept; row names are not.  A row block keeps
its families' name heads and its units' labels, and a row's name is made
from them when the LP/MPS text or a violation report asks for it.
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
    _overlap,
    box_array,
    check_packing,
    effective_dims,
    placed_box,
)

BINARY = "binary"
CONTINUOUS = "continuous"
KINDS = (BINARY, CONTINUOUS)  # kind code -> kind

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
    """Ordered, named variable table with deterministic numbering.

    Variable v has name ``names[v]``, kind ``KINDS[kinds[v]]`` and bounds
    ``lb[v]``/``ub[v]``, in flat arrays.  ``add`` appends a block of
    variables and records its index range in ``families``; indexing builds
    a fresh ``Variable``.  The name-to-index map is built on the first
    ``index`` or ``in``, so neither writing a model out nor mapping a
    packing onto it builds it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kinds = bytearray()
        self.lb, self.ub = array("d"), array("d")
        self.families: dict[str, range] = {}
        self._index: dict[str, int] | None = None

    def add(self, family: str, labels: list[str], kind: str, lb, ub) -> np.ndarray:
        """Append variables ``family[label]``, one per label; ``lb`` and
        ``ub`` are one value or one per label.  Returns their indices."""
        names = [f"{family}[{label}]" for label in labels]
        lb, ub = (np.full(len(names), v, dtype=np.float64) for v in (lb, ub))
        finite = np.isfinite(lb) & np.isfinite(ub)
        if not finite.all():
            raise ArithmeticError(f"non-finite bound for {names[int(np.argmin(finite))]}")
        start = len(self.names)
        self.names.extend(names)
        self.kinds.extend(bytes([KINDS.index(kind)]) * len(names))
        self.lb.frombytes(lb.tobytes())
        self.ub.frombytes(ub.tobytes())
        self._index = None
        self.families[family] = range(start, len(self.names))
        return np.arange(start, len(self.names))

    def _positions(self) -> dict[str, int]:
        if self._index is None:
            self._index = dict(zip(self.names, range(len(self.names))))
            if len(self._index) != len(self.names):
                raise ValueError("duplicate variable name")
        return self._index

    def index(self, name: str) -> int:
        return self._positions()[name]

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, idx: int) -> Variable:
        return Variable(self.names[idx], KINDS[self.kinds[idx]], self.lb[idx], self.ub[idx])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.names)))

    def __contains__(self, name: str) -> bool:
        return name in self._positions()


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

    Row r has sense ``SENSES[senses[r]]``, right-hand side ``rhs[r]`` and
    linear terms ``cols``/``coefs`` over ``indptr[r]:indptr[r + 1]`` (CSR).
    Quadratic terms are kept only for the rows that have them, in row
    order: ``qrows[t]`` owns the product ``qcoefs[t] * v[qa[t]] * v[qb[t]]``.
    Indexing builds a fresh ``Constraint``; rows are only ever appended, a
    block at a time, each array growing once and filled in place.
    ``families`` locates each row family, keyed by its
    name and suffix (``sep,3``): ``(first, stride, count)`` means rows
    ``first + stride * u`` for units ``u < count``.

    Names are not stored.  ``blocks`` holds one ``(first, heads, labels)``
    per block: from row ``first`` on, unit u has one row per (head, tail)
    pair in ``heads``, named ``head + labels[u] + tail``.  ``name`` and
    ``name_index`` make names from these on request, and ``names`` makes
    all of them.
    """

    def __init__(self) -> None:
        self.senses = bytearray()
        self.rhs = array("d")
        self.indptr = array("q", [0])
        self.cols, self.coefs = array("i"), array("d")
        self.qrows = array("i")
        self.qa, self.qb = array("i"), array("i")
        self.qcoefs = array("d")
        self.families: dict[str, tuple[int, int, int]] = {}
        self.blocks: list[tuple[int, tuple[tuple[str, str], ...], list[str]]] = []

    def __len__(self) -> int:
        return len(self.senses)

    def __getitem__(self, row: int) -> Constraint:
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("row index out of range")
        start, stop = self.indptr[row], self.indptr[row + 1]
        qstart = bisect_left(self.qrows, row)
        qstop = bisect_right(self.qrows, row, qstart)
        qterms = None
        if qstop > qstart:
            qterms = list(zip(self.qa[qstart:qstop], self.qb[qstart:qstop],
                              self.qcoefs[qstart:qstop]))
        return Constraint(self.name(row), SENSES[self.senses[row]], self.rhs[row],
                          list(zip(self.cols[start:stop], self.coefs[start:stop])),
                          qterms)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def names(self) -> list[str]:
        """Every row name, in row order (a fresh list)."""
        return [head + label + tail for _, heads, labels in self.blocks
                for label in labels for head, tail in heads]

    def name(self, row: int) -> str:
        """The name of row ``row`` (0 <= row < len)."""
        first, heads, labels = self.blocks[
            bisect_right([first for first, _, _ in self.blocks], row) - 1]
        unit, family = divmod(row - first, len(heads))
        head, tail = heads[family]
        return head + labels[unit] + tail

    def name_index(self) -> tuple[list[tuple[str, str]], list[str], np.ndarray, np.ndarray]:
        """The names as two small tables and two indexes into them: row r
        is named ``head + labels[label[r]] + tail`` with ``(head, tail) =
        heads[family[r]]``.  The tables hold each block's entries in turn."""
        heads: list[tuple[str, str]] = []
        labels: list[str] = []
        family, label = np.empty(len(self), dtype=np.int32), np.empty(len(self), dtype=np.int32)
        for first, block_heads, block_labels in self.blocks:
            shape = (len(block_labels), len(block_heads))
            stop = first + shape[0] * shape[1]
            family[first:stop].reshape(shape)[:] = np.arange(len(heads), len(heads) + shape[1])
            label[first:stop].reshape(shape)[:] = np.arange(len(labels),
                                                            len(labels) + shape[0])[:, None]
            heads += block_heads
            labels += block_labels
        return heads, labels, family, label

    def row_of(self):
        """Row index of every linear term, as a numpy array."""
        counts = np.diff(np.frombuffer(self.indptr, dtype=np.int64))
        return np.repeat(np.arange(len(self), dtype=np.int32), counts)


# Terms a block writes per pass over its families: the slots stay in cache.
_WRITE_TERMS = 1 << 18


class _RowBlock:
    """Row families generated together over a list of units, for ``rows``.

    Every unit (a case, a case and a bin, a pair, ...) gets one row of each
    family, in the order the families were added; ``labels[u]`` is the
    unit's part of the row names.  A family's terms are (column,
    coefficient) pairs: a column is an index array with one entry per unit,
    or a (units, k) array of k consecutive terms; a coefficient is a
    number or an array of the column's shape.  ``add`` keeps the terms as
    given, and ``write`` puts each of them straight into the store.
    """

    def __init__(self, rows: RowStore, labels: list[str]) -> None:
        self.rows, self.labels = rows, labels
        self.families: list[tuple] = []

    def add(self, name: str, sense: str, rhs, terms, *, suffix: str = "",
            count=None, q=None) -> _RowBlock:
        """Add a family, its terms kept as given.  ``count`` gives the number
        of leading terms each unit's row keeps (all by default); ``q`` is
        the one quadratic term (a, b, coefficient) of each row."""
        if self.labels:
            self.families.append((name + suffix, (f"{name}[", f"{suffix}]"),
                                  _SENSE_CODE[sense], rhs, terms, count, q))
        return self

    def write(self) -> None:
        """Append the rows to the store, unit by unit, as one CSR block, and
        record where each family's rows sit and what their names are made of.
        Every store array grows once, and each term column goes straight into
        its slots in the new tail; then the families are dropped."""
        if not self.families:
            return
        rows, units = self.rows, len(self.labels)
        keys, heads, senses, rhs, terms, count, quad = zip(*self.families)
        first = len(rows)
        for pos, key in enumerate(keys):
            rows.families[key] = (first + pos, len(keys), units)
        # Each row's term count and first slot in the tail, [family, unit].
        counts = np.empty((len(keys), units), dtype=np.int64)
        for f, family in enumerate(terms):
            width = sum(np.size(col) for col, _ in family) // units
            counts[f] = width if count[f] is None else count[f]
        ends = np.cumsum(counts.T)
        starts = ends.reshape(units, -1).T - counts
        # At most one quadratic term per row, so row-major order sorts them.
        qf = [f for f, q in enumerate(quad) if q]
        base, terms_size, q_size = rows.indptr[-1], int(ends[-1]), units * len(qf)
        tails = []
        for store, size in ((rows.rhs, counts.size), (rows.indptr, counts.size),
                            (rows.cols, terms_size), (rows.coefs, terms_size),
                            (rows.qrows, q_size), (rows.qa, q_size), (rows.qb, q_size),
                            (rows.qcoefs, q_size)):
            store.frombytes(bytes(size * store.itemsize))
            tails.append(np.frombuffer(store, dtype=store.typecode)[len(store) - size:])
        rhs_tail, indptr_tail, cols_tail, coefs_tail, *q_tails = tails
        indptr_tail[:] = base + ends
        for f, family in enumerate(terms):
            rhs_tail[f::len(keys)] = rhs[f]
        step = max(1, _WRITE_TERMS * units // terms_size) if terms_size else units
        for lo in range(0, units, step):
            hi = min(lo + step, units)
            for f, family in enumerate(terms):
                at = 0
                for col, coef in family:
                    coef = np.broadcast_to(coef, np.shape(col)).reshape(units, -1)[lo:hi]
                    pos = at + np.arange(coef.shape[1])
                    kept = pos < counts[f, lo:hi, None]
                    slots = (starts[f, lo:hi, None] + pos)[kept]
                    cols_tail[slots] = np.reshape(col, (units, -1))[lo:hi][kept]
                    coefs_tail[slots] = coef[kept]
                    at += coef.shape[1]
        for tail, t in zip(q_tails, (None, 0, 1, 2)):
            tail = tail.reshape(units, len(qf))
            for j, f in enumerate(qf):
                tail[:, j] = first + f + len(keys) * np.arange(units) if t is None else quad[f][t]
        # A store cannot grow while a view of it lives, even in a held frame.
        del tails, rhs_tail, indptr_tail, cols_tail, coefs_tail, q_tails, tail
        rows.blocks.append((first, heads, self.labels))
        rows.senses.extend(bytes(senses) * units)
        self.families.clear()


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
    # A read-only sequence of Constraint views; build_model appends its
    # rows in blocks, one or more row families at a time.
    constraints: RowStore = field(default_factory=RowStore)

    @property
    def num_variables(self) -> int:
        return len(self.registry)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def objective_at(self, values) -> float:
        if isinstance(values, dict):
            values = [values.get(name, 0.0) for name in self.registry.names]
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow is inf, as in float arithmetic
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
    l_total, w_env, h_env = inst.total_length, inst.max_width, inst.max_height
    if not (math.isfinite(l_total) and math.isfinite(w_env) and math.isfinite(h_env)):
        raise ArithmeticError("non-finite activation constant")

    # Index arrays: the cases and bins of each (case, bin) unit, the pairs
    # i < i2 and the ordered pairs i != i2, all in lexicographic order.
    ci, bj = np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
    pi, pi2 = np.triu_indices(m, 1)
    oi, oi2 = np.nonzero(~np.eye(m, dtype=bool))
    case_labels, bin_labels = [str(i) for i in range(m)], [str(j) for j in range(n)]
    unit_labels = [f"{i},{j}" for i in range(m) for j in range(n)]
    pair_labels = [f"{i},{i2}" for i, i2 in zip(pi.tolist(), pi2.tolist())]
    # eff[i, kpos] holds the (x, y, z) extents of case i in orientation kpos.
    eff = np.array([[effective_dims(c, k) for k in ORIENTATIONS] for c in cases])
    footprint = eff[:, :, 0] * eff[:, :, 1]
    dims = eff[:, 0, :]
    heights = np.array([bn.height for bn in bins])

    # --- variables -------------------------------------------------------
    e = reg.add("e", bin_labels, BINARY, 0, 1)
    u = reg.add("u", unit_labels, BINARY, 0, 1).reshape(m, n)
    b = reg.add("b", [f"{label},{q}" for label in pair_labels for q in range(6)],
                BINARY, 0, 1).reshape(-1, 6)
    r = reg.add("r", [f"{i},{k}" for i in range(m) for k in ORIENTATIONS], BINARY, 0,
                np.tile(np.isin(ORIENTATIONS, allowed_orientations), m)).reshape(m, 6)
    x, y, z = (reg.add(axis, case_labels, CONTINUOUS, 0, cap)
               for axis, cap in zip("xyz", (l_total, w_env, h_env)))
    min_dim, max_dim = dims.min(axis=1), dims.max(axis=1)
    xp, yp, zp = (reg.add(f"{axis}p", case_labels, CONTINUOUS, min_dim, max_dim)
                  for axis in "xyz")
    g = reg.add("g", bin_labels, CONTINUOUS, 0, heights)

    if support is not None:
        ordered_labels = [f"{i},{i2}" for i, i2 in zip(oi.tolist(), oi2.tolist())]
        max_fp = footprint.max(axis=1)
        pair_cap = np.minimum(max_fp[oi], max_fp[oi2])
        ov_cap = np.minimum(max_dim[oi], max_dim[oi2])
        s = reg.add("s", ordered_labels, CONTINUOUS, 0, pair_cap)
        f = reg.add("f", ordered_labels, BINARY, 0, 1)
        ox, oy = (reg.add(f"o{axis}", ordered_labels, CONTINUOUS, 0, ov_cap) for axis in "xy")
        sg = reg.add("sg", case_labels, CONTINUOUS, 0, max_fp)
        fg = reg.add("fg", case_labels, BINARY, 0, 1)
        if mode == "linearized":
            lam = reg.add("lam", [f"{label},{p}" for label in ordered_labels
                                  for p in range(mccormick_pieces)],
                          BINARY, 0, 1).reshape(-1, mccormick_pieces)

    # --- objective -------------------------------------------------------
    weights = np.array(inst.case_weights)
    obj_cols = np.concatenate([np.column_stack([z, r]).ravel(), g, e])
    obj_coefs = np.concatenate([np.column_stack([weights, weights[:, None] * eff[:, :, 2]])
                                .ravel(), np.ones(n), heights])
    model.objective.extend(zip(obj_cols.tolist(), obj_coefs.tolist()))

    rows = model.constraints

    # --- orientation -----------------------------------------------------
    _RowBlock(rows, case_labels).add("orient_pick", "=", 1.0, [(r, 1.0)]).write()
    block = _RowBlock(rows, case_labels)
    for axis, var in enumerate((xp, yp, zp)):
        block.add(f"eff_{'xyz'[axis]}", "=", 0.0, [(var, 1.0), (r, -eff[:, :, axis])])
    block.write()

    # --- assignment ------------------------------------------------------
    _RowBlock(rows, case_labels).add("assign_one", "=", 1.0, [(u, 1.0)]).write()
    _RowBlock(rows, unit_labels).add("assign_use", "<=", 0.0,
                                     [(u.ravel(), 1.0), (e[bj], -1.0)]).write()
    later = np.array([j for group in inst.type_ranges for j in group[1:]], dtype=np.int64)
    _RowBlock(rows, [str(j - 1) for j in later.tolist()]).add(
        "bin_order", "<=", 0.0, [(e[later], 1.0), (e[later - 1], -1.0)]).write()

    # --- pairwise non-overlap --------------------------------------------
    # Relation q separates the pair along one axis: 0/3 along x, 1/4 along
    # y, 2/5 along z, with the roles of i and i2 swapped in 3..5.  A row is
    # active only when both cases share bin j and the relation is chosen.
    sp, sj = np.repeat(np.arange(len(pi)), n), np.tile(np.arange(n), len(pi))
    si, si2 = pi[sp], pi2[sp]
    block = _RowBlock(rows, [f"{label},{j}" for label in pair_labels for j in range(n)])
    for q in range(6):
        big = (l_total, w_env, h_env)[q % 3]
        coord, ext = (x, y, z)[q % 3], (xp, yp, zp)[q % 3]
        lo, hi = (si, si2) if q < 3 else (si2, si)
        terms = [(coord[lo], 1.0), (ext[lo], 1.0), (coord[hi], -1.0), (b[sp, q], big)]
        if mode == "quadratic":
            block.add("sep", "<=", 2 * big, terms, suffix=f",{q}",
                      q=(u[si, sj], u[si2, sj], big))
        else:
            block.add("sep", "<=", 3 * big,
                      terms + [(u[si, sj], big), (u[si2, sj], big)], suffix=f",{q}")
    block.write()
    _RowBlock(rows, pair_labels).add("sep_pick", "=", 1.0, [(b, 1.0)]).write()

    # --- bin boundaries ----------------------------------------------------
    starts, ends = (np.array(v) for v in zip(*map(inst.bin_window, range(n))))
    widths = np.array([bn.width for bn in bins])
    mx, my, mz = ((l_total - ends, w_env - widths, h_env - heights) if big_m == "tight"
                  else (np.full(n, l_total), np.full(n, w_env), np.full(n, h_env)))
    uu = u.ravel()
    block = _RowBlock(rows, unit_labels)
    block.add("bound_xhi", "<=", (ends + mx)[bj], [(x[ci], 1.0), (xp[ci], 1.0), (uu, mx[bj])])
    block.add("bound_xlo", ">=", 0.0, [(x[ci], 1.0), (uu, -starts[bj])],
              count=np.where(starts[bj] != 0, 2, 1))
    for axis, coord, ext, size, slack in (("y", y, yp, widths, my), ("z", z, zp, heights, mz)):
        block.add(f"bound_{axis}hi", "<=", (size + slack)[bj],
                  [(coord[ci], 1.0), (ext[ci], 1.0), (uu, slack[bj])])
    block.add("top_height", "<=", h_env,
              [(z[ci], 1.0), (zp[ci], 1.0), (g[bj], -1.0), (uu, h_env)]).write()

    # --- support -----------------------------------------------------------
    if support is not None:
        t = float(support)
        # Minimum support: credited areas from other cases plus the floor
        # must cover fraction t of the oriented footprint, whose area is
        # linear in the orientation binaries because exactly one is set.
        _RowBlock(rows, case_labels).add(
            "sup_min", ">=", 0.0,
            [(s.reshape(m, m - 1), 1.0), (sg, 1.0), (r, -t * footprint)]).write()

        block = _RowBlock(rows, ordered_labels)
        # Touching along z: base of i meets top of i2 when f is set.
        block.add("touch_zlo", "<=", h_env,
                  [(z[oi2], 1.0), (zp[oi2], 1.0), (z[oi], -1.0), (f, h_env)])
        block.add("touch_zhi", "<=", h_env,
                  [(z[oi], 1.0), (z[oi2], -1.0), (zp[oi2], -1.0), (f, h_env)])
        # Touching pairs must intersect in x and y so the overlap widths
        # below stay non-negative.
        for axis, coord, ext, cap in (("x", x, xp, l_total), ("y", y, yp, w_env)):
            block.add(f"touch_{axis}lo", "<=", cap, [(coord[oi2], 1.0), (coord[oi], -1.0),
                                                     (ext[oi], -1.0), (f, cap)])
            block.add(f"touch_{axis}hi", "<=", cap, [(coord[oi], 1.0), (coord[oi2], -1.0),
                                                     (ext[oi2], -1.0), (f, cap)])
        block.add("sup_cap", "<=", 0.0, [(s, 1.0), (f, -pair_cap)])
        if mode == "quadratic":
            block.add("sup_area", "<=", 0.0, [(s, 1.0)], q=(ox, oy, -1.0))
        else:
            pieces = mccormick_pieces
            bps = ov_cap[:, None] * np.arange(pieces + 1) / pieces
            big2 = pair_cap[:, None] + bps[:, :-1] * ov_cap[:, None]
            block.add("mc_pick", "=", 1.0, [(lam, 1.0)])
            block.add("mc_lo", ">=", 0.0, [(ox, 1.0), (lam, -bps[:, :-1])])
            block.add("mc_hi", "<=", 0.0, [(ox, 1.0), (lam, -bps[:, 1:])])
            for p in range(pieces):
                # Segment-local overestimates of the overlap product.
                block.add("mc_ub1", "<=", pair_cap, [(s, 1.0), (oy, -bps[:, p + 1]),
                                                     (lam[:, p], pair_cap)], suffix=f",{p}")
                block.add("mc_ub2", "<=", pair_cap, [(s, 1.0), (oy, -bps[:, p]), (ox, -ov_cap),
                                                     (lam[:, p], big2[:, p])], suffix=f",{p}")
        # Overlap widths bounded by the actual interval overlaps when the
        # pair touches, and by both effective extents always.
        for axis, over, coord, ext, cap in (("x", ox, x, xp, l_total), ("y", oy, y, yp, w_env)):
            block.add(f"ov{axis}_a", "<=", cap, [(over, 1.0), (coord[oi], -1.0),
                                                 (ext[oi], -1.0), (coord[oi2], 1.0), (f, cap)])
            block.add(f"ov{axis}_b", "<=", cap, [(over, 1.0), (coord[oi2], -1.0),
                                                 (ext[oi2], -1.0), (coord[oi], 1.0), (f, cap)])
            block.add(f"ov{axis}_c", "<=", 0.0, [(over, 1.0), (ext[oi], -1.0)])
            block.add(f"ov{axis}_d", "<=", 0.0, [(over, 1.0), (ext[oi2], -1.0)])
        block.write()

        _RowBlock(rows, case_labels).add(
            "ground_touch", "<=", h_env, [(z, 1.0), (fg, h_env)]).add(
            "ground_cap", "<=", 0.0, [(sg, 1.0), (fg, -max_fp)]).write()

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
    row; for an infeasible one at least one row fails.  Values are set by
    index into the variable families' recorded ranges, all cases, pairs
    or ordered pairs of a family at once.
    """
    inst = model.instance
    check_packing(inst, pack)
    m, n = inst.num_cases, inst.num_bins
    reg = model.registry
    at = {family: block.start for family, block in reg.families.items()}
    v = np.zeros(len(reg))
    # A Packing holds its placements in case order, one per case.
    placements = pack.placements
    box = box_array(map(placed_box, inst.cases, placements))
    pos, ext = box[:, :3], box[:, 3:]
    bins = np.array([p.bin_index for p in placements], dtype=np.int64)
    kpos = np.array([ORIENTATIONS.index(p.orientation) for p in placements], dtype=np.int64)

    used = set(bins.tolist())
    # Open bins as a prefix within each type group so in-order rows hold.
    for group in inst.type_ranges:
        last_used = max((j for j in group if j in used), default=group.start - 1)
        v[at["e"] + group.start:at["e"] + last_used + 1] = 1.0

    cases = np.arange(m)
    v[at["u"] + n * cases + bins] = 1.0
    v[at["r"] + 6 * cases + kpos] = 1.0
    for k, family in enumerate(("x", "y", "z", "xp", "yp", "zp")):
        v[at[family] + cases] = box[:, k]
    tops = np.zeros(n)
    np.fmax.at(tops, bins, pos[:, 2] + ext[:, 2])
    v[at["g"]:at["g"] + n] = tops

    # Relation q holds when lo + ext <= hi + tol (see separating_relations);
    # argmax picks the first that holds, and relation 0 when none does.
    pi, pi2 = np.triu_indices(m, 1)
    holds = (np.hstack([pos[pi], pos[pi2]]) + np.hstack([ext[pi], ext[pi2]])
             <= np.hstack([pos[pi2], pos[pi]]) + tol)
    v[at["b"] + 6 * np.arange(len(pi)) + holds.argmax(axis=1)] = 1.0

    if model.support is not None:
        ground = pos[:, 2] <= tol
        v[at["fg"] + cases] = ground
        v[at["sg"] + cases] = np.where(ground, ext[:, 0] * ext[:, 1], 0.0)
        # Ordered pair (up, lo): up's base meets lo's top, and their x and y
        # extents meet, within tol; then the overlaps are claimed.
        up, lo = np.nonzero(~np.eye(m, dtype=bool))
        touches = ((np.abs(pos[up, 2] - (pos[lo, 2] + ext[lo, 2])) <= tol)
                   & ((pos[lo, :2] <= pos[up, :2] + ext[up, :2] + tol)
                      & (pos[up, :2] <= pos[lo, :2] + ext[lo, :2] + tol)).all(axis=1))
        over = _overlap(pos[up, :2], ext[up, :2], pos[lo, :2], ext[lo, :2])
        over[~touches] = 0.0
        ordered = np.arange(len(up))
        v[at["f"] + ordered] = touches
        v[at["ox"] + ordered], v[at["oy"] + ordered] = over.T
        v[at["s"] + ordered] = over[:, 0] * over[:, 1]
        if model.mode == "linearized":
            # The x-overlap's upper bound is split into equal segments; the
            # overlap never exceeds it, and the last segment is closed.
            pieces = model.mccormick_pieces
            ox_ub = np.frombuffer(reg.ub)[at["ox"] + ordered]
            seg = np.minimum((over[:, 0] / ox_ub * pieces).astype(np.int64), pieces - 1)
            v[at["lam"] + pieces * ordered + seg] = 1.0
    return dict(zip(reg.names, v.tolist()))


@dataclass
class RowViolation:
    name: str
    amount: float


def check_assignment(model: Model, values, tol: float = DEFAULT_TOL) -> list[RowViolation]:
    """Evaluate every row and variable bound; return the violated ones.

    ``values`` maps variable names (or registry indices via a sequence) to
    values.  Empty result means the assignment satisfies the model.
    """
    names, lb, ub = (model.registry.names, np.frombuffer(model.registry.lb),
                     np.frombuffer(model.registry.ub))
    if isinstance(values, dict):
        values = [values.get(name, 0.0) for name in names]
    v = np.asarray(list(values), dtype=np.float64)
    if v.shape != (len(names),):
        raise ValueError("value vector length mismatch")
    low = v < lb - tol
    high = ~low & ~(v <= ub + tol)  # a NaN fails the upper test
    out = [RowViolation(f"lb:{names[pos]}", (lb[pos] - v[pos]).item()) if low[pos] else
           RowViolation(f"ub:{names[pos]}", (v[pos] - ub[pos]).item())
           for pos in np.flatnonzero(low | high).tolist()]
    # Each row's terms are summed in stored order from 0.0 (bincount adds
    # its weights sequentially), the quadratic part separately, then added.
    rows = model.constraints
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
    return out + [RowViolation(rows.name(row), excess[row].item())
                  for row in np.flatnonzero(~(excess <= tol)).tolist()]


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
    requirement for its constant, checked for all its rows at once: the
    rows and their activator columns come from the ranges ``build_model``
    records, and each coefficient is read through one sorted (row, column)
    key over the linear terms.  A row without its activator raises
    ``KeyError``.  Failing row names are returned in row order.
    """
    inst, reg, rows = model.instance, model.registry, model.constraints
    m, n = inst.num_cases, inst.num_bins
    at = {family: block.start for family, block in reg.families.items()}
    ub = np.frombuffer(reg.ub)
    cap = np.array([inst.total_length, inst.max_width, inst.max_height])
    local = np.array([(inst.bin_window(j)[1], bn.width, bn.height)
                      for j, bn in enumerate(inst.bins)])
    units = at["u"] + np.arange(m * n)
    pairs = np.repeat(np.arange(m * (m - 1) // 2), n)
    # (row family, activator column of each row, constant it needs, sign
    # of the activator's coefficient)
    table = [(f"sep,{q}", at["b"] + 6 * pairs + q, cap[q % 3], 1.0) for q in range(6)]
    table += [(f"bound_{axis}hi", units, cap[k] - np.tile(local[:, k], m), 1.0)
              for k, axis in enumerate("xyz")]
    table.append(("top_height", units, cap[2], 1.0))  # g[j] may sit at 0 for an unrelated bin
    if model.support is not None:
        oi, oi2 = np.nonzero(~np.eye(m, dtype=bool))
        ordered, cases = np.arange(len(oi)), np.arange(m)
        f, fg, s_ub = at["f"] + ordered, at["fg"] + cases, ub[at["s"] + ordered]
        min_dim = np.array([min(c.dims) for c in inst.cases])
        table += [(f"touch_{axis}{end}", f, cap["xyz".index(axis)], 1.0)
                  for axis in "zxy" for end in ("lo", "hi")]
        # Relaxed overlap rows only need to admit the canonical value 0;
        # the de-facto requirement is covering 0 <= rest + M.
        table += [(f"ov{axis}_{side}", f, cap[k] - min_dim[source], 1.0)
                  for k, axis in enumerate("xy") for side, source in (("a", oi), ("b", oi2))]
        table += [("sup_cap", f, s_ub, -1.0), ("ground_cap", fg, ub[at["sg"] + cases], -1.0),
                  ("ground_touch", fg, cap[2], 1.0)]
        if model.mode == "linearized":
            pieces = model.mccormick_pieces
            lam = at["lam"] + pieces * ordered
            ox_ub, oy_ub = ub[at["ox"] + ordered], ub[at["oy"] + ordered]
            for p in range(pieces):
                table += [(f"mc_ub1,{p}", lam + p, s_ub, 1.0),
                          (f"mc_ub2,{p}", lam + p, s_ub + ox_ub * p / pieces * oy_ub, 1.0)]

    parts = []
    for family, activator, needed, signed in table:
        # A family over no units (no pairs with one case) has no rows.
        first, stride, count = rows.families.get(family, (0, 0, 0))
        parts.append((first + stride * np.arange(count), activator,
                      np.broadcast_to(needed, (count,)), np.full(count, signed)))
    row, col, need, sign = map(np.concatenate, zip(*parts))
    key = rows.row_of().astype(np.int64) * len(reg) + np.frombuffer(rows.cols, dtype=np.int32)
    order = np.argsort(key, kind="stable")  # a repeated column reads its first term
    want = row * len(reg) + col
    hit = np.minimum(np.searchsorted(key, want, sorter=order), len(key) - 1)
    missing = key[order[hit]] != want
    if missing.any():
        raise KeyError(reg.names[col[missing][np.argmin(row[missing])]])
    have = sign * np.frombuffer(rows.coefs)[order[hit]]
    return [rows.name(r) for r in np.sort(row[have < need - slack]).tolist()]
