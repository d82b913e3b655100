"""Reference LP and MPS emitters for the differential tests.

These are the per-line emitters that ``binpack3d.lp_format`` replaced,
kept verbatim (the text of every line is an f-string of its own).  They
define the bytes the gathered emitters must reproduce.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from binpack3d.lp_format import UnsupportedModeError
from binpack3d.model import BINARY, KINDS, SENSES, Model

_BINARY = KINDS.index(BINARY)

_CHUNK_LINES = 1 << 16

_MPS_SENSE = {"<=": "L", ">=": "G", "=": "E"}


def _num(value: float) -> str:
    """Shortest exact decimal for a coefficient; never ``-0``."""
    if value == 0:
        return "0"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _signed(value: float) -> str:
    return f"- {_num(-value)}" if value < 0 else f"+ {_num(value)}"


class _Formatted(dict):
    """``fmt(value)`` for each distinct value, formatted once."""

    def __init__(self, fmt) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, value: float) -> str:
        text = self[value] = self.fmt(value)
        return text


class _Text:
    """Output lines, joined into a text chunk by each ``flush``.

    Writers append to ``lines`` and flush about every ``_CHUNK_LINES``
    lines.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.chunks: list[str] = []

    def flush(self) -> None:
        lines = self.lines
        lines.append("")  # every chunk ends with a newline
        self.chunks.append("\n".join(lines))
        lines.clear()

    def join(self) -> str:
        self.flush()
        return "".join(self.chunks)


def _wrap(out: list[str], parts: list[str], indent: str = "  ",
          per_line: int = 8) -> None:
    for start in range(0, len(parts), per_line):
        out.append(indent + " ".join(parts[start:start + per_line]))


def emit_lp(model: Model) -> str:
    """Render the model as LP text."""
    reg = model.registry
    rows = model.constraints
    names, row_names = reg.names, rows.names
    signed = _Formatted(_signed)
    num = _Formatted(_num)
    text = _Text()
    out = text.lines
    out.append(f"\\ Model for instance {model.instance.name}")
    out.append("Minimize")
    out.append(" obj:")
    _wrap(out, [f"{signed[coef]} {names[idx]}" for idx, coef in model.objective])
    out.append("Subject To")
    indptr, qrows = rows.indptr, rows.qrows
    q = 0
    block = _CHUNK_LINES // 4  # a row takes three lines or more
    for lo in range(0, len(rows), block):
        hi = min(lo + block, len(rows))
        base, end = indptr[lo], indptr[hi]
        terms = [f"{signed[coef]} {names[idx]}"
                 for idx, coef in zip(rows.cols[base:end], rows.coefs[base:end])]
        for row in range(lo, hi):
            parts = terms[indptr[row] - base:indptr[row + 1] - base]
            qparts = []
            while q < len(qrows) and qrows[q] == row:
                qparts.append(f"{signed[rows.qcoefs[q]]} {names[rows.qa[q]]}"
                              f" * {names[rows.qb[q]]}")
                q += 1
            if qparts:
                parts.append("+ [ " + " ".join(qparts) + " ]")
            out.append(f" {row_names[row]}:")
            if len(parts) <= 8:  # most rows: one line, without the call
                out.append("  " + " ".join(parts))
            else:
                _wrap(out, parts)
            out.append(f"  {SENSES[rows.senses[row]]} {num[rows.rhs[row]]}")
        text.flush()
    out.append("Bounds")
    for name, kind, lb, ub in zip(names, reg.kinds, reg.lb, reg.ub):
        if kind == _BINARY:
            if ub == 0:
                out.append(f" {name} = 0")
            continue
        out.append(f" {num[lb]} <= {name} <= {num[ub]}")
        if len(out) >= _CHUNK_LINES:
            text.flush()
    out.append("Binaries")
    _wrap(out, [name for name, kind in zip(names, reg.kinds) if kind == _BINARY], indent=" ")
    out.append("End")
    return text.join()


def _column_entries(rows, order: np.ndarray):
    """(row, coefficient) of each linear term, in the order ``order`` gives."""
    row_of = rows.row_of()
    coefs = np.frombuffer(rows.coefs)
    for lo in range(0, len(order), _CHUNK_LINES):
        sel = order[lo:lo + _CHUNK_LINES]
        yield from zip(row_of[sel].tolist(), coefs[sel].tolist())


def mps_columns(model: Model) -> str:
    """The text of the MPS ``COLUMNS`` entries and markers, from one stable
    sort of all row terms by variable."""
    reg = model.registry
    rows = model.constraints
    row_names = rows.names
    num = _Formatted(_num)
    text = _Text()
    out = text.lines
    # Column-major entries, variables in registry order: a variable's
    # objective entries first, then its rows in model order (the sort is
    # stable and the terms are stored row by row).
    cols = np.frombuffer(rows.cols, dtype=np.int32)
    counts = np.bincount(cols, minlength=len(reg)).tolist()
    entries = _column_entries(rows, np.argsort(cols, kind="stable"))
    objective: dict[int, list[float]] = {}
    for idx, coef in model.objective:
        objective.setdefault(idx, []).append(coef)

    in_integer = False
    for idx, (name, kind) in enumerate(zip(reg.names, reg.kinds)):
        is_int = kind == _BINARY
        if is_int and not in_integer:
            out.append("    MARKER M1 'MARKER' 'INTORG'")
            in_integer = True
        elif not is_int and in_integer:
            out.append("    MARKER M2 'MARKER' 'INTEND'")
            in_integer = False
        head = f"    {name} "
        obj_coefs = objective.get(idx, ())
        for coef in obj_coefs:
            out.append(f"{head}obj {num[coef]}")
        for row, coef in islice(entries, counts[idx]):
            out.append(f"{head}{row_names[row]} {num[coef]}")
        if not obj_coefs and not counts[idx]:
            out.append(f"{head}obj 0")
        if len(out) >= _CHUNK_LINES:
            text.flush()
    if in_integer:
        out.append("    MARKER M3 'MARKER' 'INTEND'")
    return text.join()


def emit_mps(model: Model) -> str:
    """Render a linearized model as free-format MPS text."""
    if model.mode != "linearized":
        raise UnsupportedModeError(
            "MPS output requires a linearized model; quadratic rows have no MPS form")
    reg = model.registry
    rows = model.constraints
    row_names = rows.names
    num = _Formatted(_num)
    text = _Text()
    out = text.lines
    out.append(f"NAME {model.instance.name}")
    out.append("ROWS")
    out.append(" N obj")
    tags = [f" {_MPS_SENSE[sense]} " for sense in SENSES]
    for lo in range(0, len(rows), _CHUNK_LINES):
        hi = lo + _CHUNK_LINES
        out.extend([tags[sense] + name
                    for sense, name in zip(rows.senses[lo:hi], row_names[lo:hi])])
        text.flush()

    out.append("COLUMNS")
    text.flush()
    text.chunks.append(mps_columns(model))
    out.append("RHS")
    for row, rhs in enumerate(rows.rhs):
        if rhs != 0:
            out.append(f"    RHS {row_names[row]} {num[rhs]}")
            if len(out) >= _CHUNK_LINES:
                text.flush()
    out.append("BOUNDS")
    for name, kind, lb, ub in zip(reg.names, reg.kinds, reg.lb, reg.ub):
        if kind == _BINARY:
            if ub == 0:
                out.append(f" FX BND {name} 0")
            else:
                out.append(f" BV BND {name}")
        else:
            if lb != 0:
                out.append(f" LO BND {name} {num[lb]}")
            out.append(f" UP BND {name} {num[ub]}")
        if len(out) >= _CHUNK_LINES:
            text.flush()
    out.append("ENDATA")
    return text.join()
