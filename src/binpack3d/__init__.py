"""Multi-bin 3D case packing toolkit.

Generates the exact mixed-integer model as LP/MPS text, validates
packings against the geometric and support semantics, solves instances
natively (exhaustive oracle at tiny scale, constructive multi-start
heuristic at benchmark scale), and reports utilization and gap metrics.
"""

from .exact import solve_exact
from .geometry import (
    DEFAULT_TOL,
    ORIENTATIONS,
    UPRIGHT_ORIENTATIONS,
    Bin,
    BinSpec,
    Case,
    CaseSpec,
    Instance,
    Packing,
    PlacedBox,
    Placement,
    effective_dims,
    footprint_area,
    ground_support,
    interval_overlap,
    objective_value,
    placed_box,
    support_area,
)
from .heuristic import solve_heuristic
from .instance_io import (
    ParseError,
    bundled_instance_names,
    load_bundled,
    parse_instance,
    parse_packing,
    write_instance,
    write_packing,
)
from .lp_format import UnsupportedModeError, emit_lp, emit_mps
from .metrics import BoundInconsistencyWarning, RunReport, gap_vs_bound, utilization
from .model import (
    Model,
    SolutionImportError,
    VariableRegistry,
    audit_big_m,
    build_model,
    check_assignment,
    expected_constraint_count,
    expected_variable_count,
    import_solution,
    packing_to_assignment,
    parse_value_file,
)
from .solvers import ExactResult, HeuristicResult, SolverConfig
from .svg_render import render_svg
from .validate import AuditReport, Violation, validate

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Bin",
    "BinSpec",
    "BoundInconsistencyWarning",
    "Case",
    "CaseSpec",
    "DEFAULT_TOL",
    "ExactResult",
    "HeuristicResult",
    "Instance",
    "Model",
    "ORIENTATIONS",
    "Packing",
    "ParseError",
    "PlacedBox",
    "Placement",
    "RunReport",
    "SolutionImportError",
    "SolverConfig",
    "UPRIGHT_ORIENTATIONS",
    "UnsupportedModeError",
    "VariableRegistry",
    "Violation",
    "audit_big_m",
    "build_model",
    "bundled_instance_names",
    "check_assignment",
    "effective_dims",
    "emit_lp",
    "emit_mps",
    "expected_constraint_count",
    "expected_variable_count",
    "footprint_area",
    "gap_vs_bound",
    "ground_support",
    "import_solution",
    "interval_overlap",
    "load_bundled",
    "objective_value",
    "packing_to_assignment",
    "parse_instance",
    "parse_packing",
    "parse_value_file",
    "placed_box",
    "render_svg",
    "solve_exact",
    "solve_heuristic",
    "support_area",
    "utilization",
    "validate",
    "write_instance",
    "write_packing",
]
