"""Reference packing map, big-M audit and row names for the differential tests.

These are the name-keyed loops that ``binpack3d.model`` replaced, kept
verbatim: the map formats a key per variable and per pair, and the audit
parses each row name and finds each coefficient by a linear scan.  They
define the value maps and failure lists the indexed versions must
reproduce.  ``row_names`` is the eager row-name list ``build_model`` used
to store, one string per row, made with the formula it used.
"""

from __future__ import annotations

from binpack3d.geometry import (
    DEFAULT_TOL,
    Packing,
    check_packing,
    interval_overlap,
    placed_box,
    separating_relations,
)
from binpack3d.model import Constraint, Model


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
    reg = model.registry
    values: dict[str, float] = dict.fromkeys(reg.names, 0.0)
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
                    ub = reg.ub[reg.index(f"ox[{i},{i2}]")]
                    seg = min(int(oxv / ub * pieces), pieces - 1) if ub > 0 else 0
                    values[f"lam[{i},{i2},{seg}]"] = 1.0
    return values


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


def row_names(model: Model) -> list[str]:
    """Every row name in row order, as ``build_model`` made them when it
    stored them: per block of row families over a list of unit labels,
    ``head + label + tail`` for each unit and, within it, each family."""
    inst = model.instance
    m, n = inst.num_cases, inst.num_bins
    cases = [str(i) for i in range(m)]
    units = [f"{i},{j}" for i in range(m) for j in range(n)]
    pairs = [f"{i},{i2}" for i in range(m) for i2 in range(i + 1, m)]
    ordered = [f"{i},{i2}" for i in range(m) for i2 in range(m) if i2 != i]
    later = [str(j - 1) for group in inst.type_ranges for j in group[1:]]
    blocks = [(cases, ["orient_pick"]), (cases, ["eff_x", "eff_y", "eff_z"]),
              (cases, ["assign_one"]), (units, ["assign_use"]), (later, ["bin_order"]),
              ([f"{pair},{j}" for pair in pairs for j in range(n)],
               [f"sep,{q}" for q in range(6)]),
              (pairs, ["sep_pick"]),
              (units, ["bound_xhi", "bound_xlo", "bound_yhi", "bound_zhi", "top_height"])]
    if model.support is not None:
        area = (["sup_area"] if model.mode == "quadratic" else
                ["mc_pick", "mc_lo", "mc_hi"] + [f"mc_ub{k},{p}"
                                                 for p in range(model.mccormick_pieces)
                                                 for k in (1, 2)])
        blocks += [(cases, ["sup_min"]),
                   (ordered, ["touch_zlo", "touch_zhi", "touch_xlo", "touch_xhi",
                              "touch_ylo", "touch_yhi", "sup_cap", *area]
                    + [f"ov{axis}_{side}" for axis in "xy" for side in "abcd"]),
                   (cases, ["ground_touch", "ground_cap"])]
    names: list[str] = []
    for labels, families in blocks:
        heads = []
        for family in families:
            name, _, suffix = family.partition(",")
            heads.append((f"{name}[", f",{suffix}]" if suffix else "]"))
        names.extend([head + label + tail for label in labels for head, tail in heads])
    return names
