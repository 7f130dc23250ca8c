"""Structure files, reports, and canonical JSON.

The interchange format is a JSON document with sorted keys, operations and
relations sorted by name, and relation tuples sorted lexicographically, so
serialized files are diffable and parse(serialize(s)) is the identity on that
canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .core import FiniteStructure, Signature, validate
from .independence import CongruenceWitness, SubalgebraWitness, Verdict


class StructureParseError(ValueError):
    """A malformed structure file; the message names the line, byte or field."""


def structure_to_dict(structure: FiniteStructure, name: str = "structure") -> dict:
    ops = []
    for i, (op_name, ar) in enumerate(structure.sig.op_symbols):
        ops.append(
            {"name": op_name, "arity": ar, "table": list(structure.op_tables[i])}
        )
    rels = []
    for i, (rel_name, ar) in enumerate(structure.sig.rel_symbols):
        rels.append(
            {
                "name": rel_name,
                "arity": ar,
                "tuples": [list(t) for t in sorted(structure.rel_tables[i])],
            }
        )
    doc: dict[str, Any] = {
        "name": name,
        "size": structure.size,
        "ops": sorted(ops, key=lambda o: o["name"]),
        "rels": sorted(rels, key=lambda r: r["name"]),
    }
    if structure.labels is not None:
        doc["labels"] = list(structure.labels)
    return doc


def _all_ints(values) -> bool:
    """Are all ``values`` JSON integers?  JSON decodes an integer to ``int``
    and ``true`` to ``bool``, a subclass of ``int`` that is not one, so the
    exact type decides; ``map`` and ``set`` read the types without a Python
    loop."""
    return set(map(type, values)) <= {int}


def _expect(doc, field, kind, where):
    if field not in doc:
        raise StructureParseError(f"{where}: missing field {field!r}")
    value = doc[field]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise StructureParseError(
            f"{where}.{field}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def structure_from_dict(doc: dict) -> tuple[FiniteStructure, str]:
    if not isinstance(doc, dict):
        raise StructureParseError("document root must be an object")
    name = _expect(doc, "name", str, "document")
    size = _expect(doc, "size", int, "document")
    ops = _expect(doc, "ops", list, "document")
    rels = _expect(doc, "rels", list, "document")
    op_symbols, op_tables = [], []
    for i, op in enumerate(ops):
        where = f"ops[{i}]"
        if not isinstance(op, dict):
            raise StructureParseError(f"{where}: expected an object")
        op_name = _expect(op, "name", str, where)
        arity = _expect(op, "arity", int, where)
        table = _expect(op, "table", list, where)
        if not _all_ints(table):
            raise StructureParseError(f"{where}.table: entries must be integers")
        op_symbols.append((op_name, arity))
        op_tables.append(tuple(table))
    rel_symbols, rel_tables = [], []
    for i, rel in enumerate(rels):
        where = f"rels[{i}]"
        if not isinstance(rel, dict):
            raise StructureParseError(f"{where}: expected an object")
        rel_name = _expect(rel, "name", str, where)
        arity = _expect(rel, "arity", int, where)
        tuples = _expect(rel, "tuples", list, where)
        seen = set()
        for j, t in enumerate(tuples):
            if not isinstance(t, list) or not _all_ints(t):
                raise StructureParseError(
                    f"{where}.tuples[{j}]: expected a list of integers"
                )
            seen.add(tuple(t))
        rel_symbols.append((rel_name, arity))
        rel_tables.append(frozenset(seen))
    labels = None
    if "labels" in doc:
        labels = _expect(doc, "labels", list, "document")
        if not all(isinstance(v, str) for v in labels):
            raise StructureParseError("labels: entries must be strings")
        labels = tuple(labels)
    try:
        sig = Signature(tuple(op_symbols), tuple(rel_symbols))
        structure = FiniteStructure(
            sig, size, tuple(op_tables), tuple(rel_tables), labels
        )
    except ValueError as exc:
        raise StructureParseError(str(exc)) from None
    diags = validate(structure)
    if diags:
        raise StructureParseError(diags[0])
    return structure, name


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_structure(structure: FiniteStructure, path, name: str = "structure") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(structure_to_dict(structure, name)))


def load_structure(path) -> tuple[FiniteStructure, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())  # read() decodes the whole file at once
    except UnicodeDecodeError as exc:
        raise StructureParseError(f"byte {exc.start}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise StructureParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise StructureParseError("arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer with too many digits to convert
        raise StructureParseError(str(exc).split(";")[0]) from None
    return structure_from_dict(doc)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _render_map(graph) -> list[str]:
    return [f"{x} ↦ {y}" for x, y in graph]


def _render_blocks(blocks) -> str:
    return "[" + " ".join("{" + ",".join(map(str, b)) + "}" for b in blocks) + "]"


def _witness_dict(witness) -> Optional[dict]:
    if witness is None:
        return None
    if isinstance(witness, SubalgebraWitness):
        return {
            "kind": "subalgebra",
            "alpha": [list(p) for p in witness.alpha],
            "beta": [list(p) for p in witness.beta],
            "refusal": {
                "reason": witness.refusal.reason,
                "detail": _jsonable(witness.refusal.detail),
            },
        }
    if isinstance(witness, CongruenceWitness):
        return {
            "kind": "congruence",
            "theta_a": [list(b) for b in witness.theta_a_blocks],
            "theta_b": [list(b) for b in witness.theta_b_blocks],
            "side": witness.side,
            "pair": list(witness.pair),
            "wanted_related": witness.wanted_related,
        }
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class Report:
    """A verdict with human-readable lines and a machine-readable JSON twin.

    The JSON twin contains every fact of the text rendering:
    {"verdict": bool, "witness": object|null, "stats": object}.
    """

    verdict: bool
    witness: Optional[dict]
    stats: dict
    lines: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def json(self) -> str:
        return canonical_json(
            {"verdict": self.verdict, "witness": self.witness, "stats": self.stats}
        )


def report_from_verdict(verdict: Verdict, flavor: str) -> Report:
    lines = []
    head = "independent" if verdict.independent else "not independent"
    lines.append(f"{head}; {verdict.pairs_examined} {flavor} pairs decided")
    w = verdict.witness
    if isinstance(w, SubalgebraWitness):
        lines.append("witness alpha: " + ", ".join(_render_map(w.alpha)))
        lines.append("witness beta:  " + ", ".join(_render_map(w.beta)))
        if w.refusal.reason == "not-functional":
            x, y1, y2 = w.refusal.detail
            lines.append(
                f"refusal: element {x} would need images {y1} and {y2}"
            )
        else:
            name, args, image, direction = w.refusal.detail
            lines.append(
                f"refusal: relation {name} {direction} on {tuple(args)} "
                f"↦ {tuple(image)}"
            )
    elif isinstance(w, CongruenceWitness):
        lines.append("witness theta_a: " + _render_blocks(w.theta_a_blocks))
        lines.append("witness theta_b: " + _render_blocks(w.theta_b_blocks))
        want = "related" if w.wanted_related else "unrelated"
        lines.append(
            f"restriction to side {w.side} breaks at pair {w.pair} "
            f"(should be {want})"
        )
    return Report(
        verdict.independent,
        _witness_dict(w),
        {"pairs_examined": verdict.pairs_examined},
        tuple(lines),
    )
