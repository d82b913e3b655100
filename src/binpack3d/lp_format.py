"""LP and MPS text emission for generated models.

Output is byte-deterministic for a given model.  The LP dialect follows
the common CPLEX/Gurobi grammar: a quadratic product inside a constraint
is written as a ``[ ... ]`` block, which restricts quadratic models to LP
output; MPS output accepts linearized models only.

No line and no term is formatted on its own.  Each distinct number is
formatted once, with its separators (``" 0.5\\n"``, ``"- 2 "``); row
names, variable names and these number strings are then gathered by
index into fixed-stride parts, and the parts of about ``_CHUNK_LINES``
lines are joined at a time.  No row name is made as a string: a row's
name is three parts, head, label and tail, gathered from the small tables
of ``RowStore.name_index``, with the separators around the name folded
into the head and tail tables.  MPS columns are the objective and row
terms sorted stably by variable, one variable range at a time; each chunk
gathers its rows, coefficients and name parts.  No whole-length sorted
copy of anything is made.

Each joined chunk goes to one ``write`` callable as soon as it is made:
``emit_lp(model, fh)`` streams the text into ``fh`` and keeps no chunk,
while ``emit_lp(model)`` collects the chunks and returns their join.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .model import BINARY, KINDS, SENSES, Model

_BINARY = KINDS.index(BINARY)

# Small chunks keep the gathered parts of one chunk, not of the whole text,
# alive at a time; when the text is returned as a string, the finished
# chunks and their final join are the peak.
_CHUNK_LINES = 1 << 12

# Whole-length passes that would copy their input take this many items at a
# time, and MPS columns are sorted in this many variable ranges.
_SLICE, _RANGES = 1 << 16, 16

_MPS_SENSE = {"<=": "L", ">=": "G", "=": "E"}

_MARKERS = ("    MARKER M1 'MARKER' 'INTORG'\n", "    MARKER M2 'MARKER' 'INTEND'\n",
            "    MARKER M3 'MARKER' 'INTEND'\n")


class UnsupportedModeError(ValueError):
    """The requested text format cannot express this model."""


def _num(value: float) -> str:
    """Shortest exact decimal for a coefficient; never ``-0``."""
    if value == 0:
        return "0"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _signed(value: float) -> str:
    return f"- {_num(-value)}" if value < 0 else f"+ {_num(value)}"


def _objects(items) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


class _Numbers:
    """``numbers[values]``: the text ``fmt(v)`` of each value, formatted
    once per distinct value of the arrays ``parts`` (as Python floats),
    found a slice at a time and then once more over the slices' results."""

    def __init__(self, fmt, *parts: np.ndarray) -> None:
        found = [np.unique(part[lo:lo + _SLICE]) for part in parts
                 for lo in range(0, len(part), _SLICE)]
        # ±0.0 share a key; both print "0"
        self.keys = np.unique(np.concatenate(found)) if found else np.zeros(0)
        self.text = _objects([fmt(v) for v in self.keys.tolist()])

    def __getitem__(self, values: np.ndarray) -> np.ndarray:
        return self.text[np.searchsorted(self.keys, values)]


def _take(table, index: np.ndarray):
    """A field whose line i reads ``table[index[i]]``."""
    return lambda lo, hi: table[index[lo:hi]]


def _repeated(items: list[str], count: np.ndarray):
    """A field whose lines read each of ``items`` in turn, item v on
    ``count[v] >= 1`` lines: each chunk converts only the items it spans."""
    end = np.cumsum(count)

    def field(lo: int, hi: int) -> np.ndarray:
        v0, v1 = np.searchsorted(end, (lo, hi - 1), side="right")
        last = end[v0:v1 + 1]
        return np.repeat(_objects(items[v0:v1 + 1]),
                         np.minimum(last, hi) - np.maximum(last - count[v0:v1 + 1], lo))

    return field


def _lines(write, n: int, *fields, cuts: dict[int, str] | None = None) -> None:
    """Hand lines 0..n-1 to ``write``, joined at most ``_CHUNK_LINES`` at a time.

    Line i is its fields concatenated; a field is a constant string, a
    sequence (item i) or a function of (lo, hi) giving the items of lines
    lo..hi-1, or a tuple of such item arrays for that many consecutive
    parts.  ``cuts`` maps a line number (up to n) to text put before it.
    """
    cuts = cuts or {}
    bounds = sorted({*range(0, n, _CHUNK_LINES), *cuts, n})
    for lo, hi in zip(bounds, bounds[1:]):
        if lo in cuts:
            write(cuts[lo])
        columns = []
        for field in fields:
            if callable(field):
                field = field(lo, hi)
            elif not isinstance(field, str):
                field = field[lo:hi]
            columns += field if isinstance(field, tuple) else (field,)
        parts = np.empty((hi - lo, len(columns)), dtype=object)
        for k, column in enumerate(columns):
            parts[:, k] = column
        write("".join(parts.ravel().tolist()))
    if n in cuts:
        write(cuts[n])


def _wrapped(write, indent: str, n: int, *fields) -> None:
    """Parts 0..n-1 eight to a line, each line led by ``indent``."""
    if n:
        seps = np.full(n, " ", dtype=object)
        seps[0], seps[8::8] = indent, "\n" + indent
        _lines(write, n, seps, *fields)
        write("\n")


def _objective(model: Model) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([idx for idx, _ in model.objective], dtype=np.int64)
    return idx, np.array([coef for _, coef in model.objective], dtype=np.float64)


def _bounds(reg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether each variable is binary, and its bounds."""
    return (np.frombuffer(reg.kinds, dtype=np.uint8) == _BINARY,
            np.frombuffer(reg.lb), np.frombuffer(reg.ub))


_ROW_SEPARATORS = _objects(["", " ", "\n  "])
_Q_LEADS = _objects(["+ [ ", " "])


def _separators(part: np.ndarray) -> np.ndarray:
    """What goes before part k of a row: nothing before part 0, a line
    break before parts 8, 16, ... and a space before the rest."""
    return _ROW_SEPARATORS[np.where(part % 8, 1, 2 * (part > 0))]


def _row_names(rows, index=None, lead: str = "", trail: str = ""):
    """A `_lines` field of three parts: the head, label and tail of the name
    of row ``index(lo, hi)[i - lo]`` (of row i when ``index`` is None),
    with ``lead`` before and ``trail`` after the name.  Row -1 is named
    "obj"."""
    heads, labels, family, label = rows.name_index()
    head_text = _objects([lead + head for head, _ in heads] + [lead + "obj"])
    tail_text = _objects([tail + trail for _, tail in heads] + [trail])
    label_text = _objects(labels + [""])
    family = np.append(family, np.int32(len(heads)))
    label = np.append(label, np.int32(len(labels)))

    def field(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        at = slice(lo, hi) if index is None else index(lo, hi)
        fam = family[at]
        return head_text[fam], label_text[label[at]], tail_text[fam]

    return field


def _constraint_rows(write, rows, names: np.ndarray, signed: _Numbers) -> None:
    """The ``Subject To`` rows, 1/4 ``_CHUNK_LINES`` rows at a time.

    A row is its name (three slots, led by " " and followed by ":\\n  "),
    its parts, then its sense tag and right-hand side.  A linear part is
    three slots: separator, signed coefficient and variable name; the
    separator starts a new line before every eighth part.  The quadratic
    block is one more part: separator, then five slots per product, its
    closing " ]" led by the sense tag.
    """
    indptr = np.frombuffer(rows.indptr, dtype=np.int64)
    cols, coefs = np.frombuffer(rows.cols, dtype=np.int32), np.frombuffer(rows.coefs)
    qrows = np.frombuffer(rows.qrows, dtype=np.int32)
    qa, qb = np.frombuffer(rows.qa, dtype=np.int32), np.frombuffer(rows.qb, dtype=np.int32)
    qcoefs = np.frombuffer(rows.qcoefs)
    senses, rhs = np.frombuffer(rows.senses, dtype=np.uint8), np.frombuffer(rows.rhs)
    tags = _objects([f"{close}\n  {sense} " for close in ("", " ]") for sense in SENSES])
    rhs_text = _Numbers(lambda v: _num(v) + "\n", rhs)
    row_names = _row_names(rows, lead=" ", trail=":\n  ")
    block = _CHUNK_LINES // 4  # a row takes three lines or more
    for lo in range(0, len(rows), block):
        hi = min(lo + block, len(rows))
        base, stop = indptr[lo], indptr[hi]
        starts = indptr[lo:hi] - base
        nt = np.diff(indptr[lo:hi + 1])
        q0, q1 = np.searchsorted(qrows, (lo, hi))
        qrow = qrows[q0:q1] - lo
        nq = np.bincount(qrow, minlength=hi - lo)
        has_q = nq > 0
        width = 5 + 3 * nt + has_q + 5 * nq
        end = np.cumsum(width)
        head = end - width
        slots = np.empty(end[-1], dtype=object)
        slots[head], slots[head + 1], slots[head + 2] = row_names(lo, hi)
        row = np.repeat(np.arange(hi - lo), nt)
        part = np.arange(stop - base) - starts[row]
        at = head[row] + 3 + 3 * part
        slots[at] = _separators(part)
        slots[at + 1] = signed[coefs[base:stop]]
        slots[at + 2] = names[cols[base:stop]]
        if q1 > q0:
            quad = np.flatnonzero(has_q)
            at = head[quad] + 3 + 3 * nt[quad]
            slots[at] = _separators(nt[quad])
            product = np.arange(q1 - q0) - (np.cumsum(nq) - nq)[qrow]
            at = head[qrow] + 4 + 3 * nt[qrow] + 5 * product
            slots[at] = _Q_LEADS[np.minimum(product, 1)]
            slots[at + 1] = signed[qcoefs[q0:q1]]
            slots[at + 2], slots[at + 3] = names[qa[q0:q1]], " * "
            slots[at + 4] = names[qb[q0:q1]]
        slots[end - 2] = tags[senses[lo:hi] + 3 * has_q]
        slots[end - 1] = rhs_text[rhs[lo:hi]]
        write("".join(slots.tolist()))


def emit_lp(model: Model, out: TextIO | None = None) -> str | TextIO:
    """Render the model as LP text.

    With ``out`` None, return the text as one string.  Otherwise hand each
    chunk of the text to ``out.write`` as soon as it is made, keep none of
    it, and return ``out``; the chunks concatenate to the same text.
    """
    chunks: list[str] = []
    write = chunks.append if out is None else out.write
    rows = model.constraints
    names = _objects(model.registry.names)
    binary, lb, ub = _bounds(model.registry)
    obj_idx, obj_coefs = _objective(model)
    signed = _Numbers(lambda v: _signed(v) + " ", obj_coefs, np.frombuffer(rows.coefs),
                      np.frombuffer(rows.qcoefs))
    write(f"\\ Model for instance {model.instance.name}\nMinimize\n obj:\n")
    _wrapped(write, "  ", len(obj_idx), _take(signed, obj_coefs), _take(names, obj_idx))
    write("Subject To\n")
    _constraint_rows(write, rows, names, signed)
    write("Bounds\n")
    shown = np.flatnonzero(~binary | (ub == 0))
    before = np.full(len(shown), " ", dtype=object)
    after = np.full(len(shown), " = 0\n", dtype=object)
    cont = ~binary[shown]
    low, high = lb[shown[cont]], ub[shown[cont]]
    before[cont] = _Numbers(lambda v: f" {_num(v)} <= ", low)[low]
    after[cont] = _Numbers(lambda v: f" <= {_num(v)}\n", high)[high]
    _lines(write, len(shown), before, _take(names, shown), after)
    write("Binaries\n")
    binaries = np.flatnonzero(binary)
    _wrapped(write, " ", len(binaries), _take(names, binaries))
    write("End\n")
    return "".join(chunks) if out is None else out


def _mps_columns(write, model: Model) -> None:
    """The ``COLUMNS`` entries, with integer markers where the kind flips.

    There is one entry per objective term, per variable in no term
    ("obj 0") and per row term, in that order; sorted stably by variable,
    they list a variable's objective entries first and its rows in model
    order.  Each variable's entry count gives its first position; the
    variables fall into ``_RANGES`` ranges of about equal numbers of
    entries, each sorted on its own.  Each chunk gathers the row (-1 for
    "obj") and coefficient of each entry.
    """
    reg, rows = model.registry, model.constraints
    obj_idx, obj_coefs = _objective(model)
    cols, coefs = np.frombuffer(rows.cols, dtype=np.int32), np.frombuffer(rows.coefs)
    # bincount copies its input as int64, so it counts a slice at a time.
    count = np.bincount(obj_idx, minlength=len(reg))
    for lo in range(0, len(cols), _SLICE):
        count += np.bincount(cols[lo:lo + _SLICE], minlength=len(reg))
    unused = np.flatnonzero(count == 0)
    count[unused] = 1
    lead = np.concatenate([obj_coefs, np.zeros(len(unused))])
    lead_var = np.concatenate([obj_idx, unused])
    numbers = _Numbers(lambda v: f" {_num(v)}\n", lead, coefs)
    end = np.cumsum(count)
    total = int(end[-1]) if len(end) else 0
    # Variable v's range is where its first position falls among _RANGES
    # equal parts of the order; the ranges' entries follow each other.
    ranges = ((end - count) * _RANGES // max(total, 1)).astype(np.uint8)
    in_range, lead_range = ranges[cols], ranges[lead_var]
    order = np.empty(total, dtype=np.int32)
    lo = 0
    for r in range(_RANGES):
        entries = np.concatenate([np.flatnonzero(lead_range == r),
                                  len(lead) + np.flatnonzero(in_range == r)])
        head = np.searchsorted(entries, len(lead))
        key = np.concatenate([lead_var[entries[:head]], cols[entries[head:] - len(lead)]])
        order[lo:lo + len(entries)] = entries[np.argsort(key, kind="stable")]
        lo += len(entries)
    del in_range
    # Row -1 ("obj") once per leading entry, then each row once per term.
    indptr = np.frombuffer(rows.indptr, dtype=np.int64)
    row_of = np.full(len(lead) + len(cols), -1, dtype=np.int32)
    for lo in range(0, len(rows), _SLICE):
        part = indptr[lo:lo + _SLICE + 1]
        row_of[len(lead) + part[0]:len(lead) + part[-1]] = np.repeat(
            np.arange(lo, lo + len(part) - 1, dtype=np.int32), np.diff(part))

    def coefficients(lo: int, hi: int) -> np.ndarray:
        entry = order[lo:hi]
        first = entry < len(lead)
        values = np.empty(hi - lo)
        values[first] = lead[entry[first]]
        values[~first] = coefs[entry[~first] - len(lead)]
        return numbers[values]

    binary = _bounds(reg)[0]
    flips = np.flatnonzero(np.diff(binary.astype(np.int8), prepend=0))
    cuts = {pos: _MARKERS[0] if binary[v] else _MARKERS[1]
            for pos, v in zip((end - count)[flips].tolist(), flips.tolist())}
    if len(binary) and binary[-1]:
        cuts[total] = _MARKERS[2]
    _lines(write, total, "    ", _repeated(reg.names, count),
           _row_names(rows, _take(row_of, order), " "), coefficients, cuts=cuts)


def _mps_bounds(write, reg) -> None:
    """A variable's ``BOUNDS`` lines: FX, BV, or LO (when lb != 0) then UP."""
    binary, lb, ub = _bounds(reg)
    low = ~binary & (lb != 0)
    count = 1 + low
    kind = np.repeat(np.where(binary, np.where(ub == 0, 0, 1), 3), count)
    kind[(np.cumsum(count) - count)[low]] = 2
    bounded = np.repeat(np.arange(len(reg)), count)
    suffix = _objects([" 0\n", "\n", None, None])[kind]
    valued = kind >= 2
    value = np.where(kind == 2, lb[bounded], ub[bounded])[valued]
    suffix[valued] = _Numbers(lambda v: f" {_num(v)}\n", value)[value]
    prefixes = _objects([" FX BND ", " BV BND ", " LO BND ", " UP BND "])
    _lines(write, len(kind), _take(prefixes, kind), _repeated(reg.names, count), suffix)


def emit_mps(model: Model, out: TextIO | None = None) -> str | TextIO:
    """Render a linearized model as free-format MPS text.

    ``out`` works as in `emit_lp`: None returns the text as one string,
    and a writable text stream receives it chunk by chunk and is returned.
    A quadratic model raises `UnsupportedModeError` before anything is
    written.
    """
    if model.mode != "linearized":
        raise UnsupportedModeError(
            "MPS output requires a linearized model; quadratic rows have no MPS form")
    chunks: list[str] = []
    write = chunks.append if out is None else out.write
    rows = model.constraints
    write(f"NAME {model.instance.name}\nROWS\n N obj\n")
    tags = _objects([f" {_MPS_SENSE[sense]} " for sense in SENSES])
    _lines(write, len(rows), _take(tags, np.frombuffer(rows.senses, dtype=np.uint8)),
           _row_names(rows, trail="\n"))
    write("COLUMNS\n")
    _mps_columns(write, model)
    write("RHS\n")
    rhs = np.frombuffer(rows.rhs)
    nonzero = np.flatnonzero(rhs != 0)
    _lines(write, len(nonzero), _row_names(rows, lambda lo, hi: nonzero[lo:hi], "    RHS "),
           _take(_Numbers(lambda v: f" {_num(v)}\n", rhs[nonzero]), rhs[nonzero]))
    write("BOUNDS\n")
    _mps_bounds(write, model.registry)
    write("ENDATA\n")
    return "".join(chunks) if out is None else out
