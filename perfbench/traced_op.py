"""One ``binpack3d`` CLI command with a span around each call into a module.

Usage: ``python3 perfbench/traced_op.py SPANS.json <binpack3d CLI arguments>``

Replaces the public functions that ``binpack3d.cli`` imports with wrappers
that time each call, then runs ``binpack3d.cli.main`` on the arguments, so
the command takes the CLI's own code path and writes the same outputs.  It
writes the spans plus a few facts read off the calls' results to
SPANS.json, and exits with the command's code.
"""

from __future__ import annotations

import json
import sys

from common import Tracer, import_package


def trace_cli(cli, tracer: Tracer, facts: dict) -> None:
    """Wrap the module-level names ``cli`` calls; ``facts`` collects what
    the benchmark reads off their results."""

    def wrap(attr: str, span: str, note=None) -> None:
        fn = getattr(cli, attr)

        def traced(*args, **kwargs):
            result = tracer.call(span, fn, *args, **kwargs)
            if note is not None:
                note(result)
            return result

        setattr(cli, attr, traced)

    def heuristic(result) -> None:
        facts.update(restarts=result.restarts_run, trace_len=len(result.trace),
                     objective=result.objective)

    def violations(audit) -> None:
        counts = facts.setdefault("violations", {})
        for v in audit.violations:
            counts[v.family] = counts.get(v.family, 0) + 1

    def model(m) -> None:
        facts.update(variables=m.num_variables, rows=m.num_constraints)

    def text(t: str) -> None:
        facts["bytes"] = len(t)

    wrap("load_instance_arg", "instance_io.parse_instance")
    wrap("solve_heuristic", "heuristic.solve", heuristic)
    wrap("validate", "validate.validate", violations)
    wrap("write_packing", "instance_io.write_packing")
    wrap("build_model", "model.build", model)
    wrap("emit_lp", "lp_format.emit_lp", text)
    wrap("emit_mps", "lp_format.emit_mps", text)

    class TracedReport(cli.RunReport):
        def to_json(self) -> str:
            return tracer.call("metrics.report", super().to_json)

    cli.RunReport = TracedReport


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import_package()
    import binpack3d.cli

    tracer = Tracer()
    facts: dict = {}
    trace_cli(binpack3d.cli, tracer, facts)
    code = binpack3d.cli.main(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "facts": facts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
