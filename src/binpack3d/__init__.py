"""Multi-bin 3D case packing toolkit.

Generates the exact mixed-integer model as LP/MPS text, validates
packings against the geometric and support semantics, solves instances
natively (exhaustive oracle at tiny scale, constructive multi-start
heuristic at benchmark scale), and reports utilization and gap metrics.

The public names load on first use: ``import binpack3d`` imports no
submodule (and so not numpy), and reading a name such as
``binpack3d.solve_heuristic`` imports the module that defines it.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_MODULE_NAMES = {
    "exact": ("solve_exact",),
    "geometry": (
        "DEFAULT_TOL", "ORIENTATIONS", "UPRIGHT_ORIENTATIONS", "Bin", "BinSpec",
        "Case", "CaseSpec", "Instance", "Packing", "PlacedBox", "Placement",
        "effective_dims", "footprint_area", "ground_support", "interval_overlap",
        "objective_value", "placed_box", "support_area"),
    "heuristic": ("solve_heuristic",),
    "instance_io": (
        "ParseError", "bundled_instance_names", "load_bundled", "parse_instance",
        "parse_packing", "write_instance", "write_packing"),
    "lp_format": ("UnsupportedModeError", "emit_lp", "emit_mps"),
    "metrics": ("BoundInconsistencyWarning", "RunReport", "gap_vs_bound", "utilization"),
    "model": (
        "Model", "SolutionImportError", "VariableRegistry", "audit_big_m",
        "build_model", "check_assignment", "expected_constraint_count",
        "expected_variable_count", "import_solution", "packing_to_assignment",
        "parse_value_file"),
    "solvers": ("ExactResult", "HeuristicResult", "SolverConfig"),
    "svg_render": ("render_svg",),
    "validate": ("AuditReport", "Violation", "validate"),
}
_SOURCE = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """The import system binds each submodule it loads to an attribute of
    the package; a public name (the function ``validate``) keeps its value
    over the submodule of the same name."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _SOURCE and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
