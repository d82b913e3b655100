"""Read and write instance and packing documents.

Both documents are JSON with a ``format_version`` field.  Instance schema::

    {
      "format_version": 1,
      "name": "bench-01",
      "unit": "cm",                  # optional, free text, no semantics
      "support_threshold": 0.8,      # optional, in [0, 1]
      "cases": [{"id": 0, "quantity": 1,
                 "length": 10.88, "width": 9.82, "height": 10.87}, ...],
      "bins":  [{"type_id": 0, "quantity": 1,
                 "length": 50.0, "width": 50.0, "height": 50.0}, ...]
    }

Packing schema::

    {
      "format_version": 1,
      "instance_name": "bench-01",
      "placements": [{"case_index": 0, "bin_index": 0,
                      "x": 0.0, "y": 0.0, "z": 0.0, "orientation": 1}, ...]
    }

Cases expand by quantity in declaration order, bins likewise grouped by
type, so index numbering is reproducible.  Each expands to at most
``MAX_UNITS`` units in total.  Fifteen benchmark instances ship with the
package and are addressed as ``bundled:1`` .. ``bundled:15``.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .geometry import BinSpec, CaseSpec, Instance, Packing, Placement, check_packing

FORMAT_VERSION = 1

BUNDLED_COUNT = 15

# Every command expands an instance one object per case and bin unit.
MAX_UNITS = 100_000


class ParseError(ValueError):
    """Malformed or invalid instance/packing document."""


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    if key not in obj:
        raise ParseError(f"{where}: missing field '{key}'")
    return obj[key]


def _number(obj: dict, key: str, where: str) -> float:
    val = _require(obj, key, where)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ParseError(f"{where}: field '{key}' must be a number")
    return _finite(val, f"{where}: field '{key}'")


def _finite(val: int | float, what: str) -> float:
    """``val`` as a float; NaN, infinities and out-of-range integers fail."""
    try:
        num = float(val)
    except OverflowError:
        num = math.inf
    if not math.isfinite(num):
        raise ParseError(f"{what} must be a finite number")
    return num


def _integer(obj: dict, key: str, where: str) -> int:
    val = _require(obj, key, where)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ParseError(f"{where}: field '{key}' must be an integer")
    return val


def _load_json(text: str | bytes, what: str) -> dict:
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except UnicodeDecodeError as e:
        raise ParseError(f"{what}: not UTF-8 text (byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{what}: invalid JSON at line {e.lineno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # an over-long integer, too deep nesting
        raise ParseError(f"{what}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: top-level value must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"{what}: unsupported format_version {version!r}")
    return doc


def _specs(raw: list, what: str, spec_type: type, id_field: str) -> list:
    """Case or bin specs from the entries of the ``what`` array."""
    specs = []
    for pos, entry in enumerate(raw):
        where = f"{what}[{pos}]"
        try:
            specs.append(spec_type(
                _integer(entry, id_field, where),
                *(_number(entry, side, where) for side in ("length", "width", "height")),
                quantity=_integer(entry, "quantity", where),
            ))
        except ParseError:
            raise
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
    return specs


def parse_instance(text: str | bytes) -> Instance:
    """Parse an instance document into an expanded Instance."""
    doc = _load_json(text, "instance")
    name = _require(doc, "name", "instance")
    if not isinstance(name, str) or not name:
        raise ParseError("instance: 'name' must be a non-empty string")

    raw_cases = _require(doc, "cases", "instance")
    if not isinstance(raw_cases, list) or not raw_cases:
        raise ParseError("instance: 'cases' must be a non-empty array")
    raw_bins = _require(doc, "bins", "instance")
    if not isinstance(raw_bins, list) or not raw_bins:
        raise ParseError("instance: 'bins' must be a non-empty array")

    case_specs = _specs(raw_cases, "cases", CaseSpec, "id")
    bin_specs = _specs(raw_bins, "bins", BinSpec, "type_id")

    for what, specs in (("cases", case_specs), ("bins", bin_specs)):
        units = sum(spec.quantity for spec in specs)
        if units > MAX_UNITS:
            raise ParseError(f"instance: {what} expand to {units} units, more than {MAX_UNITS}")

    threshold = doc.get("support_threshold")
    if threshold is not None:
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise ParseError("instance: 'support_threshold' must be a number")
        threshold = _finite(threshold, "instance: 'support_threshold'")

    try:
        return Instance(name, tuple(case_specs), tuple(bin_specs), threshold)
    except ValueError as e:
        raise ParseError(f"instance: {e}") from None


def write_instance(inst: Instance, unit: str | None = None) -> str:
    """Serialize an Instance back to document text."""
    doc: dict = {"format_version": FORMAT_VERSION, "name": inst.name}
    if unit is not None:
        doc["unit"] = unit
    if inst.support_threshold is not None:
        doc["support_threshold"] = inst.support_threshold
    doc["cases"] = [
        {"id": c.id, "quantity": c.quantity,
         "length": c.length, "width": c.width, "height": c.height}
        for c in inst.case_specs
    ]
    doc["bins"] = [
        {"type_id": b.type_id, "quantity": b.quantity,
         "length": b.length, "width": b.width, "height": b.height}
        for b in inst.bin_specs
    ]
    return json.dumps(doc, indent=2) + "\n"


def write_packing(inst: Instance, pack: Packing) -> str:
    """Serialize a packing; full float precision, byte-deterministic."""
    check_packing(inst, pack)
    doc = {
        "format_version": FORMAT_VERSION,
        "instance_name": inst.name,
        "placements": [
            {"case_index": p.case_index, "bin_index": p.bin_index,
             "x": p.x, "y": p.y, "z": p.z, "orientation": p.orientation}
            for p in pack.placements
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_packing(text: str | bytes, inst: Instance) -> Packing:
    """Parse a packing document and validate it against ``inst``."""
    doc = _load_json(text, "packing")
    name = _require(doc, "instance_name", "packing")
    if name != inst.name:
        raise ParseError(
            f"packing: instance_name {name!r} does not match instance {inst.name!r}")
    raw = _require(doc, "placements", "packing")
    if not isinstance(raw, list):
        raise ParseError("packing: 'placements' must be an array")

    placements = []
    for pos, entry in enumerate(raw):
        where = f"placements[{pos}]"
        try:
            placements.append(Placement(
                case_index=_integer(entry, "case_index", where),
                bin_index=_integer(entry, "bin_index", where),
                x=_number(entry, "x", where),
                y=_number(entry, "y", where),
                z=_number(entry, "z", where),
                orientation=_integer(entry, "orientation", where),
            ))
        except ParseError:
            raise
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None

    try:
        pack = Packing(tuple(placements))
        check_packing(inst, pack)
    except ValueError as e:
        raise ParseError(f"packing: {e}") from None
    return pack


def bundled_instance_names() -> tuple[str, ...]:
    return tuple(f"bench-{i:02d}" for i in range(1, BUNDLED_COUNT + 1))


def load_bundled(number: int) -> Instance:
    """Load bundled benchmark instance 1..15."""
    if not 1 <= number <= BUNDLED_COUNT:
        raise ValueError(f"bundled instance number must be 1..{BUNDLED_COUNT}, got {number}")
    text = resources.files("binpack3d.data").joinpath(f"bench_{number:02d}.json").read_text()
    return parse_instance(text)


def load_instance_arg(arg: str) -> Instance:
    """Resolve an instance argument: ``bundled:<n>`` or a file path."""
    if arg.startswith("bundled:"):
        tail = arg.split(":", 1)[1]
        try:
            number = int(tail)
        except ValueError:
            raise ValueError(f"bad bundled instance reference {arg!r}") from None
        return load_bundled(number)
    with open(arg, "rb") as fh:
        return parse_instance(fh.read())
