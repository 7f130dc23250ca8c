"""Command-line surface.

Exit codes: 0 for independent / isomorphic / success, 1 for a negative
verdict, 2 for any error (malformed file, bad subset, unsupported request).
Outputs are byte-stable across runs on the same input.
"""

from __future__ import annotations

import argparse
import sys

from .core import InputError, SizeLimitExceeded, SubUniverse, _excerpt
from .independence import (
    decide_congruence_independence,
    decide_subalgebra_independence,
)
from .io import (
    Report,
    StructureParseError,
    dump_structure,
    load_structure,
    report_from_verdict,
)
from .morphisms import HOM_CLASS_ALL, HOM_CLASS_AUTO, find_isomorphism
from .zoo import CATEGORY_KINDS, CategoryTag, build, coproduct, vector_space_sig


def _parse_subset(text: str) -> tuple[int, ...]:
    # every part must be an index: an empty part, as in "0,,1" or "", is refused
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(
            f"subsets are comma-separated element indices, got {_excerpt(text)}"
        )


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {_excerpt(value)}"
        )
    return value


def _infer_tag(kind: str, structure) -> CategoryTag:
    if kind != "vector_space":
        return CategoryTag(kind)
    smuls = [n for n, ar in structure.sig.op_symbols if n.startswith("smul")]
    p = len(smuls)
    if structure.sig != vector_space_sig(p):
        raise InputError("structure does not carry a vector space signature")
    return CategoryTag("vector_space", p)


def _load_structures(args, count: int) -> list:
    """Load the ``-s`` files; any other number of them than ``count`` is an
    error."""
    if len(args.structure) != count:
        files = "one -s FILE argument" if count == 1 else "two -s FILE arguments"
        raise InputError(f"{args.command} needs exactly {files}")
    return [load_structure(path) for path in args.structure]


def _cmd_gen(args) -> int:
    structure, _ = build(args.family, *args.params)
    dump_structure(structure, args.output, name=args.family)
    print(f"wrote {args.output} ({structure.size} elements)")
    return 0


def _cmd_decide_sub(args) -> int:
    [(structure, _)] = _load_structures(args, 1)
    a = SubUniverse(structure, _parse_subset(args.a))
    b = SubUniverse(structure, _parse_subset(args.b))
    hom_class = HOM_CLASS_AUTO if args.homs == "auto" else HOM_CLASS_ALL
    verdict = decide_subalgebra_independence(structure, a, b, hom_class, args.mode)
    _emit(report_from_verdict(verdict, "hom"), args.json)
    return 0 if verdict.independent else 1


def _cmd_decide_cong(args) -> int:
    [(structure, _)] = _load_structures(args, 1)
    a = SubUniverse(structure, _parse_subset(args.a))
    b = SubUniverse(structure, _parse_subset(args.b))
    verdict = decide_congruence_independence(structure, a, b, max_size=args.max_size)
    _emit(report_from_verdict(verdict, "congruence"), args.json)
    return 0 if verdict.independent else 1


def _cmd_coproduct(args) -> int:
    (x, name_x), (y, name_y) = _load_structures(args, 2)
    tag = _infer_tag(args.category, x)
    cop, e_a, e_b = coproduct(tag, x, y)
    dump_structure(cop, args.output, name=f"{name_x}+{name_y}")
    print(f"wrote {args.output} ({cop.size} elements)")
    print("embedding of first: " + ",".join(map(str, e_a.mapping)))
    print("embedding of second: " + ",".join(map(str, e_b.mapping)))
    return 0


def _cmd_iso(args) -> int:
    (x, _), (y, _) = _load_structures(args, 2)
    h = find_isomorphism(x, y)
    if h is None:
        print("not isomorphic")
        return 1
    print("isomorphic: " + ",".join(map(str, h.mapping)))
    return 0


def _cmd_suite(args) -> int:
    from .acceptance import run_all

    results = run_all(seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status}  {r.number}. {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(report.json())
    else:
        sys.stdout.write(report.text())


class _Parser(argparse.ArgumentParser):
    def _check_value(self, action, value):  # a refused choice shown through _excerpt
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_excerpt(value)} (choose from {choices})"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="algindep",
        description="decide subalgebra and congruence independence of finite structures",
    )
    parser.add_argument("--seed", type=_int, default=0, help="seed for randomized batteries")
    parser.add_argument(
        "--max-size",
        type=_positive_int,
        default=12,
        help="size bound for congruence lattice enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a structure file for a named family")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    for cmd, func, help_text in (
        ("decide-sub", _cmd_decide_sub, "decide subalgebra independence"),
        ("decide-cong", _cmd_decide_cong, "decide congruence independence"),
    ):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("-s", dest="structure", action="append", required=True)
        p.add_argument("--a", required=True, help='first subuniverse, e.g. "0,3"')
        p.add_argument("--b", required=True, help='second subuniverse, e.g. "0,2,4"')
        p.add_argument("--json", action="store_true", help="emit the JSON twin")
        if cmd == "decide-sub":
            p.add_argument("--homs", choices=("all", "auto"), default="all")
            p.add_argument("--mode", choices=("weak", "strong"), default="weak")
        p.set_defaults(func=func)

    p = sub.add_parser("coproduct", help="build a coproduct of two structure files")
    p.add_argument("-s", dest="structure", action="append", required=True)
    p.add_argument(
        "--category",
        required=True,
        choices=CATEGORY_KINDS,
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("iso", help="search for an isomorphism between two files")
    p.add_argument("-s", dest="structure", action="append", required=True)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("paper-suite", help="run the full acceptance battery")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, StructureParseError, SizeLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
