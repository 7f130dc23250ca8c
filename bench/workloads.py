"""The four benchmark workloads: seeded inputs, one pass of library calls,
and the checks of every output.

Every input is a parent structure from the zoo whose universe is relabelled by
a permutation drawn from the workload seed (seed 0 keeps the identity).  The
same seed therefore gives the same inputs, and every invariant checked here
(verdicts, pair counts, lattice sizes) holds at every seed.  Subuniverses
named in a case are given in the original labels and mapped through the same
permutation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import json
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY_MODULES = ("core", "generation", "morphisms", "independence", "zoo", "io")


class BenchError(RuntimeError):
    """The benchmark cannot run: the library is missing or an input failed
    the benchmark's own checks."""


def fresh_library() -> dict:
    """Import the library anew from this checkout's ``src``.

    Every pass starts from a fresh import, so nothing the library caches at
    module level carries over from one pass to the next.  Returns the modules
    by short name, with the package itself under "api".
    """
    for name in [m for m in sys.modules if m == "algindep" or m.startswith("algindep.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {"api": importlib.import_module("algindep")}
        for name in LIBRARY_MODULES:
            modules[name] = importlib.import_module(f"algindep.{name}")
    except ImportError as exc:
        raise BenchError(f"cannot import algindep from {SRC}: {exc}") from None
    where = Path(modules["api"].__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"algindep was imported from {where}, not from {SRC}")
    return modules


# ---------------------------------------------------------------------------
# relabelling
# ---------------------------------------------------------------------------

def _flat(n: int, args) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def permutation(size: int, seed: int, name: str) -> tuple[int, ...]:
    """The seed's relabelling of one parent's universe; seed 0 is the identity."""
    perm = list(range(size))
    if seed:
        random.Random(f"{seed}/{name}").shuffle(perm)
    return tuple(perm)


def relabel(lib: dict, structure, perm):
    """The image of ``structure`` under the bijection x -> perm[x]."""
    n = structure.size
    ops = []
    for _, ar, table in structure.op_views():
        image = [0] * len(table)
        for j, args in enumerate(itertools.product(range(n), repeat=ar)):
            image[_flat(n, (perm[a] for a in args))] = perm[table[j]]
        ops.append(tuple(image))
    rels = tuple(
        frozenset(tuple(perm[v] for v in t) for t in tuples)
        for _, _, tuples in structure.rel_views()
    )
    labels = None
    if structure.labels is not None:
        moved = [""] * n
        for x, label in enumerate(structure.labels):
            moved[perm[x]] = label
        labels = tuple(moved)
    return lib["core"].FiniteStructure(structure.sig, n, tuple(ops), rels, labels)


def is_image(original, copy, perm) -> bool:
    """True iff ``copy`` is ``original`` with every element x renamed perm[x].

    Walks the copy's tables and pulls each entry back through the inverse
    permutation, so it shares no code path with ``relabel``.
    """
    n = original.size
    if sorted(perm) != list(range(n)) or copy.size != n or copy.sig != original.sig:
        return False
    inverse = [0] * n
    for x, y in enumerate(perm):
        inverse[y] = x
    for i, (_, ar) in enumerate(original.sig.op_symbols):
        src, dst = original.op_tables[i], copy.op_tables[i]
        if len(dst) != n**ar:
            return False
        for j, args in enumerate(itertools.product(range(n), repeat=ar)):
            if dst[j] != perm[src[_flat(n, (inverse[a] for a in args))]]:
                return False
    for i in range(len(original.sig.rel_symbols)):
        back = {tuple(inverse[v] for v in t) for t in copy.rel_tables[i]}
        if back != set(original.rel_tables[i]):
            return False
    return True


def is_isomorphism(x, y, mapping) -> bool:
    """True iff ``mapping`` is a bijection x -> y carrying every operation
    table and every relation of x exactly onto those of y."""
    n = x.size
    if y.size != n or x.sig != y.sig or sorted(mapping) != list(range(n)):
        return False
    for i, (_, ar) in enumerate(x.sig.op_symbols):
        tx, ty = x.op_tables[i], y.op_tables[i]
        for j, args in enumerate(itertools.product(range(n), repeat=ar)):
            if ty[_flat(n, (mapping[a] for a in args))] != mapping[tx[j]]:
                return False
    for i in range(len(x.sig.rel_symbols)):
        image = {tuple(mapping[v] for v in t) for t in x.rel_tables[i]}
        if image != set(y.rel_tables[i]):
            return False
    return True


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Case:
    """One parent structure of a workload and what its outputs must be.

    ``expect`` is per workload: (subuniverses, independent ordered pairs) for
    census, pairs examined for deep-pairs, the two congruence-lattice sizes
    for congruence, and the number of subuniverses for lattice.
    """

    name: str
    make: Callable
    expect: object
    a: tuple = ()
    b: tuple = ()
    generated: bool = False  # a and b are generator seeds, not member lists
    max_size: int = 12


def _zoo(family: str, *params) -> Callable:
    def make(lib):
        return lib["api"].build(family, *params)[0]

    return make


def _alternating_4(lib):
    api = lib["api"]
    s4 = api.build("symmetric_group", 4)[0]
    even = tuple(
        i
        for i, p in enumerate(lib["zoo"].permutations_of(4))
        if sum(p[u] > p[v] for u in range(4) for v in range(u + 1, 4)) % 2 == 0
    )
    return api.induced_substructure(s4, api.SubUniverse(s4, even))[0]


def _reflexive_cycles(lib):
    """A reflexive 4-cycle and a disjoint reflexive 5-cycle, as one graph."""
    edges = [(v, v) for v in range(9)]
    for first, length in ((0, 4), (4, 5)):
        for i in range(length):
            u, v = first + i, first + (i + 1) % length
            edges += [(u, v), (v, u)]
    return lib["api"].build("graph", 9, edges)[0]


CASES = {
    # Many small decisions, most of them cheap refusals, with the same A
    # recurring across a parent's decisions: per-call overhead and reuse
    # across calls show here.
    "census": (
        Case("S4", _zoo("symmetric_group", 4), (30, 107)),
        Case("D6", _zoo("dihedral_group", 6), (16, 67)),
        Case("A4", _alternating_4, (10, 25)),
        Case("Q8", _zoo("quaternion_group"), (6, 11)),
        Case("Z12", _zoo("cyclic_group", 12), (6, 15)),
        Case("BA4", _zoo("powerset_boolean_algebra", 4), (15, 35)),
        Case("F2^3", _zoo("vector_space", 2, 3), (16, 129)),
        Case("F3^2", _zoo("vector_space", 3, 2), (6, 23)),
        Case("set5", _zoo("empty_sig_set", 5), (31, 185)),
    ),
    # Two large positive decisions: nearly all time is the joint extension
    # of one endomorphism pair after another, with nothing to share.
    "deep-pairs": (
        Case("F2^5 <1,2,4> <8,16>", _zoo("vector_space", 2, 5), 8192,
             (1, 2, 4), (8, 16), generated=True),
        Case("C4+C5 reflexive", _reflexive_cycles, 22260,
             (0, 1, 2, 3), (4, 5, 6, 7, 8)),
    ),
    # Congruence lattices and cg, which no other workload reaches.
    "congruence": (
        Case("set8 6|3", _zoo("empty_sig_set", 8), (203, 5),
             (0, 1, 2, 3, 4, 5), (5, 6, 7)),
        Case("set9 5|5", _zoo("empty_sig_set", 9), (52, 52),
             (0, 1, 2, 3, 4), (4, 5, 6, 7, 8)),
        Case("F2^4 all|0", _zoo("vector_space", 2, 4), (67, 1),
             tuple(range(16)), (0,), max_size=16),
    ),
    # Closure-bound subuniverse enumeration plus isomorphism search.
    "lattice": (
        Case("F2^5", _zoo("vector_space", 2, 5), 374),
        Case("BA5", _zoo("powerset_boolean_algebra", 5), 52),
        Case("D12", _zoo("dihedral_group", 12), 34),
    ),
}
WORKLOADS = tuple(CASES)


def expected_found(workload: str) -> dict:
    """Lattice sizes one pass must report, for the traced run's cross-check."""
    subs = congs = 0
    for case in CASES[workload]:
        if workload == "census":
            subs += case.expect[0]
        elif workload == "lattice":
            subs += case.expect
        elif workload == "congruence":
            congs += sum(case.expect)
    return {
        "generation.all_subuniverses.found": subs,
        "generation.all_congruences.found": congs,
    }


@dataclasses.dataclass
class Parent:
    case: Case
    original: object  # as built by the zoo
    copy: object  # relabelled, after a JSON round trip through io
    perm: tuple[int, ...]

    def subuniverse(self, lib: dict, elements):
        mapped = tuple(self.perm[x] for x in elements)
        if self.case.generated:
            return lib["api"].close(self.copy, mapped)[0]
        return lib["api"].SubUniverse(self.copy, mapped)


def set_up(lib: dict, workload: str, seed: int, workdir: Path) -> list[Parent]:
    """Build, relabel, check and round-trip through JSON every parent."""
    parents = []
    for i, case in enumerate(CASES[workload]):
        original = case.make(lib)
        perm = permutation(original.size, seed, case.name)
        copy = relabel(lib, original, perm)
        if not is_image(original, copy, perm):
            raise BenchError(f"{case.name}: relabelled copy is not the image")
        path = workdir / f"{i}.json"
        lib["io"].dump_structure(copy, path, case.name)
        loaded, _ = lib["io"].load_structure(path)
        if loaded != copy:
            raise BenchError(f"{case.name}: the JSON round trip changed the structure")
        parents.append(Parent(case, original, loaded, perm))
    return parents


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Jobs:
    """Runs and times the library calls of one pass, one after another."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.kinds: list[str] = []
        self.seconds: list[float] = []
        self.raised = 0

    def run(self, kind: str, fn, *args, **kwargs):
        if self.recorder is not None:
            self.recorder.current_job = len(self.seconds)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failing call is counted; the pass goes on
            if not self.raised:
                traceback.print_exc(file=sys.stderr)
            self.raised += 1
            result = None
        self.seconds.append(perf_counter() - start)
        self.kinds.append(kind)
        return result


def census_pass(lib, parents, jobs):
    api = lib["api"]
    out = []
    for p in parents:
        subs = jobs.run("subuniverses", api.all_subuniverses, p.copy)
        verdicts = [
            (a.members, b.members,
             jobs.run("subalgebra", api.decide_subalgebra_independence, p.copy, a, b))
            for a in subs or ()
            for b in subs
        ]
        out.append((p, subs, verdicts))
    return out


def deep_pairs_pass(lib, parents, jobs):
    api = lib["api"]
    out = []
    for p in parents:
        a, b = p.subuniverse(lib, p.case.a), p.subuniverse(lib, p.case.b)
        verdict = jobs.run("subalgebra", api.decide_subalgebra_independence, p.copy, a, b)
        out.append((p, verdict))
    return out


def congruence_pass(lib, parents, jobs):
    api = lib["api"]
    out = []
    for p in parents:
        a, b = p.subuniverse(lib, p.case.a), p.subuniverse(lib, p.case.b)
        verdict = jobs.run(
            "congruence", api.decide_congruence_independence, p.copy, a, b,
            max_size=p.case.max_size,
        )
        out.append((p, verdict))
    return out


def lattice_pass(lib, parents, jobs):
    api = lib["api"]
    out = []
    for p in parents:
        subs = jobs.run("subuniverses", api.all_subuniverses, p.copy)
        iso = jobs.run("isomorphism", api.find_isomorphism, p.original, p.copy)
        out.append((p, subs, iso))
    return out


PASSES = {
    "census": census_pass,
    "deep-pairs": deep_pairs_pass,
    "congruence": congruence_pass,
    "lattice": lattice_pass,
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CaseOutcome:
    name: str
    jobs: int  # library calls made for this case
    problems: list[str]
    digest: str  # of every output, for the seed-0 and pass-to-pass checks
    pairs: int = 0  # pairs examined by subalgebra decisions


def _verdict_record(verdict) -> list:
    witness = verdict.witness
    return [
        verdict.independent,
        verdict.pairs_examined,
        None if witness is None else dataclasses.asdict(witness),
    ]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_census(out) -> list[CaseOutcome]:
    outcomes = []
    for p, subs, verdicts in out:
        want_subs, want_independent = p.case.expect
        problems, records, pairs = [], [], 0
        if subs is None or len(subs) != want_subs:
            problems.append(f"expected {want_subs} subuniverses")
        if any(v is None for _, _, v in verdicts):
            problems.append("a decision raised")
        else:
            independent = sum(v.independent for _, _, v in verdicts)
            if independent != want_independent:
                problems.append(
                    f"{independent} independent pairs, expected {want_independent}"
                )
            pairs = sum(v.pairs_examined for _, _, v in verdicts)
            records = [[a, b] + _verdict_record(v) for a, b, v in verdicts]
        outcomes.append(
            CaseOutcome(p.case.name, 1 + len(verdicts), problems, _digest(records), pairs)
        )
    return outcomes


def _check_decisions(out, subalgebra: bool) -> list[CaseOutcome]:
    outcomes = []
    for p, verdict in out:
        want = p.case.expect if subalgebra else p.case.expect[0] * p.case.expect[1]
        problems = []
        if verdict is None:
            problems.append("the decision raised")
        elif not verdict.independent or verdict.pairs_examined != want:
            problems.append(
                f"independent={verdict.independent} after "
                f"{verdict.pairs_examined} pairs, expected independent after {want}"
            )
        record = None if verdict is None else _verdict_record(verdict)
        pairs = verdict.pairs_examined if subalgebra and verdict else 0
        outcomes.append(CaseOutcome(p.case.name, 1, problems, _digest(record), pairs))
    return outcomes


def _check_lattice(out) -> list[CaseOutcome]:
    outcomes = []
    for p, subs, iso in out:
        problems = []
        if subs is None or len(subs) != p.case.expect:
            problems.append(f"expected {p.case.expect} subuniverses")
        mapping = None if iso is None else iso.mapping
        if mapping is None or not is_isomorphism(p.original, p.copy, mapping):
            problems.append("no isomorphism from the original to the copy")
        else:
            inverse = [0] * len(mapping)
            for x, y in enumerate(mapping):
                inverse[y] = x
            if not is_isomorphism(p.copy, p.original, inverse):
                problems.append("the inverse map is not an isomorphism")
        record = [[list(s.members) for s in subs or ()], mapping]
        outcomes.append(CaseOutcome(p.case.name, 2, problems, _digest(record)))
    return outcomes


def check(workload: str, out) -> list[CaseOutcome]:
    """Every output of one pass against the invariants of its workload."""
    if workload == "census":
        return _check_census(out)
    if workload == "lattice":
        return _check_lattice(out)
    return _check_decisions(out, subalgebra=workload == "deep-pairs")
