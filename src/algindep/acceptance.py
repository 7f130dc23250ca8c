"""The acceptance battery behind the ``paper-suite`` CLI subcommand.

Each criterion is one function returning a CriterionResult; ``run_all`` runs
them all.  Expected values are either forced by the worked examples or
recomputed by brute force.  The brute forces of criteria 6, 7 and 8 come
from ``reference``, which reads the operation tables cell by cell and shares
no fast path with the library: criterion 6 searches every free position of
a joint extension (``brute_joint_extensions``), and criteria 7 and 8 filter
every partition for the congruence lattices (``brute_congruences``,
``brute_congruence_independent``).  The other checks use the library
itself: ``join``, ``induced_substructure``, ``cg`` and ``find_isomorphism``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from importlib import resources

from .core import FiniteStructure, Signature, SubUniverse, induced_substructure
from .generation import all_subuniverses, cg, join
from .independence import (
    boole_independent,
    decide_congruence_independence,
    decide_subalgebra_independence,
    group_diagnostics,
)
from .morphisms import (
    Homomorphism,
    enumerate_homs,
    find_isomorphism,
    joint_extension,
)
from .reference import (
    brute_congruence_independent,
    brute_congruences,
    brute_joint_extensions,
)
from .zoo import (
    CategoryTag,
    _atoms,
    coproduct,
    cyclic_group,
    dihedral_group,
    empty_sig_set,
    graph,
    permutations_of,
    permutation_index,
    powerset_boolean_algebra,
    quaternion_group,
    rigid_overlapping_pair,
    symmetric_group,
    vector_space,
    verify_coproduct_property,
)
from .io import structure_from_dict


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _nonempty_subsets(n):
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            yield combo


# ---------------------------------------------------------------------------
# 1. sets: independence = disjointness, or the same singleton on both sides
# ---------------------------------------------------------------------------

def criterion_sets() -> CriterionResult:
    # Overlapping subsets with a side of two or more elements fail on a
    # constant map on that side against the identity on the other; a
    # singleton's only endomorphism is the identity, and (id, id) extends.
    x5 = empty_sig_set(5)
    subs = [SubUniverse(x5, c) for c in _nonempty_subsets(5)]
    mismatches = []
    diagonal_singletons = 0
    for a in subs:
        for b in subs:
            verdict = decide_subalgebra_independence(x5, a, b)
            same_singleton = a.members == b.members and len(a.members) == 1
            expected = same_singleton or not (a.member_set() & b.member_set())
            if verdict.independent != expected:
                mismatches.append((a.members, b.members, verdict.independent))
            elif same_singleton:
                diagonal_singletons += 1
    total = len(subs) ** 2
    name = "sets: independence = disjointness or the same singleton"
    detail = (
        f"{total - len(mismatches)}/{total} pairs agree, "
        f"{diagonal_singletons} diagonal singletons confirmed independent"
    )
    if mismatches:
        detail += f"; mismatches: {mismatches[:4]}"
    return CriterionResult(1, name, not mismatches, detail)


# ---------------------------------------------------------------------------
# 2. vector spaces: independence = trivial intersection
# ---------------------------------------------------------------------------

def criterion_vector_spaces() -> CriterionResult:
    bad = 0
    total = 0
    for space in (vector_space(2, 3), vector_space(3, 2)):
        zero = space.op_table("zero")[0]
        subs = all_subuniverses(space)
        for a in subs:
            for b in subs:
                total += 1
                verdict = decide_subalgebra_independence(space, a, b)
                trivial = a.member_set() & b.member_set() == {zero}
                if verdict.independent != trivial:
                    bad += 1
    name = "vector spaces: independence = trivial intersection"
    return CriterionResult(2, name, bad == 0, f"{total} subspace pairs, {bad} mismatches")


# ---------------------------------------------------------------------------
# 3. Boolean algebras: three-way equivalence
# ---------------------------------------------------------------------------

def criterion_boolean_algebras() -> CriterionResult:
    ba = powerset_boolean_algebra(4)
    tag = CategoryTag("boolean_algebra")
    subs = all_subuniverses(ba)
    bad = 0
    total = 0
    for a in subs:
        for b in subs:
            total += 1
            p_indep = decide_subalgebra_independence(ba, a, b).independent
            p_boole = boole_independent(ba, a, b)
            a_struct, _ = induced_substructure(ba, a)
            b_struct, _ = induced_substructure(ba, b)
            join_sub, _ = join(ba, a, b)
            jstruct, _ = induced_substructure(ba, join_sub)
            cop_size = 1 << (len(_atoms(a_struct)) * len(_atoms(b_struct)))
            if cop_size != jstruct.size:
                # finite Boolean algebras of different cardinality are never
                # isomorphic, and the big ones cannot be materialized
                p_cop = False
            else:
                cop, _, _ = coproduct(tag, a_struct, b_struct)
                p_cop = find_isomorphism(jstruct, cop) is not None
            if not (p_indep == p_boole == p_cop):
                bad += 1
    name = "Boolean algebras: independent = Boole-independent = join iso coproduct"
    return CriterionResult(
        3, name, bad == 0, f"{total} subalgebra pairs ({len(subs)} subalgebras), {bad} disagreements"
    )


# ---------------------------------------------------------------------------
# 4. abelian groups: three-way equivalence on Z_n and on products Z_m x Z_n
# ---------------------------------------------------------------------------

def criterion_abelian_groups() -> CriterionResult:
    tag = CategoryTag("abelian_group")
    # beyond cyclic groups, trivial intersection is more than coprime orders
    groups = [cyclic_group(n) for n in (4, 6, 8, 9, 12)] + [
        coproduct(tag, cyclic_group(m), cyclic_group(n))[0]
        for m, n in ((2, 2), (2, 4), (4, 4), (2, 8))
    ]
    bad = 0
    total = 0
    for g in groups:
        e = g.op_table("e")[0]
        subs = all_subuniverses(g)
        for a in subs:
            for b in subs:
                total += 1
                p_indep = decide_subalgebra_independence(g, a, b).independent
                p_trivial = a.member_set() & b.member_set() == {e}
                a_struct, _ = induced_substructure(g, a)
                b_struct, _ = induced_substructure(g, b)
                join_sub, _ = join(g, a, b)
                jstruct, _ = induced_substructure(g, join_sub)
                cop, _, _ = coproduct(tag, a_struct, b_struct)
                p_cop = find_isomorphism(jstruct, cop) is not None
                if not (p_indep == p_trivial == p_cop):
                    bad += 1
    name = "abelian groups: independent = trivial intersection = join iso direct sum"
    return CriterionResult(4, name, bad == 0, f"{total} subgroup pairs, {bad} disagreements")


# ---------------------------------------------------------------------------
# 5. groups
# ---------------------------------------------------------------------------

def _perm_parity(perm) -> int:
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return inversions % 2


def alternating_group(n: int) -> FiniteStructure:
    sym = symmetric_group(n)
    members = tuple(
        i for i, p in enumerate(permutations_of(n)) if _perm_parity(p) == 0
    )
    struct, _ = induced_substructure(sym, SubUniverse(sym, members))
    return struct


def criterion_groups() -> CriterionResult:
    problems = []
    # (a) independence forces trivial intersection
    checked_a = 0
    for g in (symmetric_group(3), dihedral_group(4), alternating_group(4)):
        subs = all_subuniverses(g)
        for a in subs:
            for b in subs:
                checked_a += 1
                if decide_subalgebra_independence(g, a, b).independent:
                    if a.member_set() & b.member_set() != {0}:
                        problems.append(("a", a.members, b.members))
    # (b)+(c) normality predictions
    predicted = {"independent": 0, "not_independent": 0}
    for g in (
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        alternating_group(4),
    ):
        subs = all_subuniverses(g)
        for a in subs:
            for b in subs:
                diag = group_diagnostics(g, a, b)
                if diag.prediction == "no_prediction":
                    continue
                predicted[diag.prediction] += 1
                verdict = decide_subalgebra_independence(g, a, b)
                want = diag.prediction == "independent"
                if verdict.independent != want:
                    problems.append(("bc", a.members, b.members, diag.prediction))
    # (d) the order-8 join in S4
    s4 = symmetric_group(4)
    a = SubUniverse(s4, (0, permutation_index(4, (1, 0, 2, 3))))
    b = SubUniverse(s4, (0, permutation_index(4, (2, 3, 0, 1))))
    verdict = decide_subalgebra_independence(s4, a, b)
    join_sub, _ = join(s4, a, b)
    jstruct, _ = induced_substructure(s4, join_sub)
    d4 = dihedral_group(4)
    ok_d = (
        verdict.independent
        and len(join_sub.members) == 8
        and find_isomorphism(jstruct, d4) is not None
    )
    if not ok_d:
        problems.append(("d", verdict.independent, len(join_sub.members)))
    name = "groups: intersection necessity, normality laws, the S4 pair"
    detail = (
        f"{checked_a} pairs for necessity, {predicted['independent']} both-normal "
        f"and {predicted['not_independent']} one-normal predictions confirmed, "
        f"S4 pair join of order 8"
    )
    if problems:
        detail += f"; violations: {problems[:4]}"
    return CriterionResult(5, name, not problems, detail)


# ---------------------------------------------------------------------------
# 6. joint-extension uniqueness on random algebras
# ---------------------------------------------------------------------------

_MAGMA_SIG = Signature(op_symbols=(("f", 2),))


def _random_magma(rng) -> FiniteStructure:
    n = rng.randint(2, 6)
    table = tuple(rng.randrange(n) for _ in range(n * n))
    return FiniteStructure(_MAGMA_SIG, n, (table,), ())


def criterion_joint_uniqueness(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed + 6000)
    violations = []
    existing = 0
    refused = 0
    skipped = 0
    for _ in range(50):
        structure = _random_magma(rng)
        subs = all_subuniverses(structure)[:4]
        pairs = [(a, b) for a in subs for b in subs][:4]
        for a, b in pairs:
            a_struct, _ = induced_substructure(structure, a)
            b_struct, _ = induced_substructure(structure, b)
            alphas = list(itertools.islice(enumerate_homs(a_struct, a_struct), 4))
            betas = list(itertools.islice(enumerate_homs(b_struct, b_struct), 4))
            for alpha, beta in itertools.islice(itertools.product(alphas, betas), 8):
                gamma = joint_extension(structure, a, b, alpha, beta)
                brute = brute_joint_extensions(structure, a, b, alpha, beta, 20000)
                if brute is None:
                    skipped += 1
                    continue
                if isinstance(gamma, Homomorphism):
                    existing += 1
                    if brute != [gamma.mapping]:
                        violations.append((structure.size, a.members, b.members))
                else:
                    refused += 1
                    if brute:
                        violations.append(
                            ("refusal-but-extension", a.members, b.members)
                        )
    name = "joint-extension uniqueness on seeded random algebras"
    detail = (
        f"{existing} extensions all unique, {refused} refusals all confirmed "
        f"empty, {skipped} skipped over budget"
    )
    if violations:
        detail += f"; violations: {violations[:3]}"
    return CriterionResult(6, name, not violations, detail)


# ---------------------------------------------------------------------------
# 7. congruence independence
# ---------------------------------------------------------------------------

def _characterized_instances():
    x5 = empty_sig_set(5)
    yield x5, [SubUniverse(x5, c) for c in _nonempty_subsets(5)]
    for space in (vector_space(2, 3), vector_space(3, 2)):
        yield space, all_subuniverses(space)
    ba = powerset_boolean_algebra(4)
    yield ba, all_subuniverses(ba)
    for n in (4, 6, 8, 9, 12):
        zn = cyclic_group(n)
        yield zn, all_subuniverses(zn)
    for g in (symmetric_group(3), dihedral_group(4), alternating_group(4)):
        yield g, all_subuniverses(g)


def _full_b_relates(parent, a, b, x, y) -> bool:
    """Whether Cg of the full relation on B, taken in the join, relates x and y.

    When it does and x != y lie in A, no congruence of the join restricts to
    the full relation on B and to the identity on A."""
    join_sub, _ = join(parent, a, b)
    jstruct, jembed = induced_substructure(parent, join_sub)
    pos = {e: i for i, e in enumerate(jembed)}
    full_b = [(pos[u], pos[v]) for u, v in zip(b.members, b.members[1:])]
    return cg(jstruct, full_b).related(pos[x], pos[y])


def criterion_congruence(seed: int = 0) -> CriterionResult:
    problems = []
    # (a) shared pairs forbid congruence independence; verify each witness by
    # computing the minimal extension of (id_A, full_B) and watching the
    # restriction to A pick up the shared pair.
    checked_a = 0
    for parent, subs in _characterized_instances():
        for a in subs:
            for b in subs:
                shared = sorted(a.member_set() & b.member_set())
                if len(shared) < 2:
                    continue
                checked_a += 1
                verdict = decide_congruence_independence(parent, a, b)
                if verdict.independent:
                    problems.append(("a", a.members, b.members))
                    continue
                if not _full_b_relates(parent, a, b, shared[0], shared[1]):
                    problems.append(("a-witness", a.members, b.members))
    # (b) the singleton-inside-a-pair instance separates the two notions
    x3 = empty_sig_set(3)
    a = SubUniverse(x3, (0,))
    b = SubUniverse(x3, (0, 1))
    cong = decide_congruence_independence(x3, a, b)
    subalg = decide_subalgebra_independence(x3, a, b)
    if not cong.independent or subalg.independent:
        problems.append(("b", cong.independent, subalg.independent))
    if subalg.witness is not None and subalg.witness.alpha != ((0, 0),):
        problems.append(("b-witness", subalg.witness.alpha))
    # incomparability, recorded per-case: disjoint singletons satisfy both
    # notions, Boolean coproduct summands satisfy only the subalgebra one
    a2 = SubUniverse(x3, (0,))
    b2 = SubUniverse(x3, (1,))
    both = (
        decide_congruence_independence(x3, a2, b2).independent
        and decide_subalgebra_independence(x3, a2, b2).independent
    )
    if not both:
        problems.append(("b-both", a2.members, b2.members))
    ba4 = powerset_boolean_algebra(2)
    cop, e_a, e_b = coproduct(CategoryTag("boolean_algebra"), ba4, ba4)
    ca = SubUniverse(cop, tuple(sorted(set(e_a.mapping))))
    cb = SubUniverse(cop, tuple(sorted(set(e_b.mapping))))
    reverse = (
        decide_subalgebra_independence(cop, ca, cb).independent
        and not decide_congruence_independence(cop, ca, cb, max_size=cop.size).independent
    )
    if not reverse:
        problems.append(("b-reverse", ca.members, cb.members))
    # (c) minimal-congruence shortcut against partition-filter brute force
    rng = random.Random(seed + 7000)
    checked_c = 0
    skipped_c = 0
    for _ in range(50):
        structure = _random_magma(rng)
        subs = all_subuniverses(structure)
        pairs = [(a, b) for a in subs for b in subs][:4]
        lattice_budget = None  # counted once per magma, on first need
        for a, b in pairs:
            if len(a.member_set() & b.member_set()) >= 2:
                continue  # early exit already covered by (a)
            if lattice_budget is None:
                lattice_budget = len(brute_congruences(structure))
            if lattice_budget > 250:
                skipped_c += 1
                continue
            checked_c += 1
            fast = decide_congruence_independence(structure, a, b).independent
            slow = brute_congruence_independent(structure, a, b)
            if fast != slow:
                problems.append(("c", structure.size, a.members, b.members))
    name = "congruence independence: necessity, separation, shortcut = brute force"
    detail = (
        f"{checked_a} shared-pair instances refused with verified witnesses, "
        f"separation recorded both ways (sets one way, Boolean summands the "
        f"other), {checked_c} shortcut comparisons ({skipped_c} skipped over budget)"
    )
    if problems:
        detail += f"; violations: {problems[:4]}"
    return CriterionResult(7, name, not problems, detail)


# ---------------------------------------------------------------------------
# 8. coproducts
# ---------------------------------------------------------------------------

def _coproduct_instances():
    p2 = graph(2, [(0, 1)])
    p3 = graph(3, [(0, 1), (1, 2)])
    c3 = graph(3, [(0, 1), (1, 2), (2, 0)])
    yield CategoryTag("set"), empty_sig_set(2), empty_sig_set(3), [
        empty_sig_set(1),
        empty_sig_set(2),
        empty_sig_set(3),
    ]
    yield CategoryTag("set"), empty_sig_set(1), empty_sig_set(1), [empty_sig_set(2)]
    yield CategoryTag("graph"), p3, c3, [p2, p3, c3]
    yield CategoryTag("graph"), p2, p3, [p3, c3]
    yield CategoryTag("abelian_group"), cyclic_group(2), cyclic_group(3), [
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(6),
    ]
    yield CategoryTag("abelian_group"), cyclic_group(4), cyclic_group(2), [
        cyclic_group(2),
        cyclic_group(4),
    ]
    yield CategoryTag("vector_space", 2), vector_space(2, 1), vector_space(2, 2), [
        vector_space(2, 1),
        vector_space(2, 2),
    ]
    yield CategoryTag("vector_space", 3), vector_space(3, 1), vector_space(3, 1), [
        vector_space(3, 1),
    ]
    yield CategoryTag("boolean_algebra"), powerset_boolean_algebra(1), powerset_boolean_algebra(2), [
        powerset_boolean_algebra(1),
        powerset_boolean_algebra(2),
    ]
    yield CategoryTag("boolean_algebra"), powerset_boolean_algebra(2), powerset_boolean_algebra(2), [
        powerset_boolean_algebra(1),
        powerset_boolean_algebra(2),
    ]


def _shared_pair_refusal_verified(cop, a, b, verdict) -> bool:
    """A congruence refusal of summands sharing two elements names a shared
    pair that the identity on A separates and Cg(full B) relates."""
    w = verdict.witness
    if w is None or w.side != "a" or w.wanted_related:
        return False
    x, y = w.pair
    shared = a.member_set() & b.member_set()
    return x != y and {x, y} <= shared and _full_b_relates(cop, a, b, x, y)


def criterion_coproducts() -> CriterionResult:
    # The summands are always subalgebra-independent, and congruence-
    # independent exactly when they share at most one element: Boolean
    # summands share 0 and 1, so identity-vs-full never extends (criterion 7a).
    problems = []
    count = 0
    cong_independent = 0
    verified_refusals = 0
    brute_confirmed = 0
    for tag, x, y, targets in _coproduct_instances():
        count += 1
        cop, e_a, e_b = coproduct(tag, x, y)
        a = SubUniverse(cop, tuple(sorted(set(e_a.mapping))))
        b = SubUniverse(cop, tuple(sorted(set(e_b.mapping))))
        join_sub, _ = join(cop, a, b)
        if len(join_sub.members) != cop.size:
            problems.append((tag.kind, "join is not the whole coproduct"))
            continue
        sub_v = decide_subalgebra_independence(cop, a, b, mode="weak")
        if not sub_v.independent:
            problems.append((tag.kind, x.size, y.size, "subalgebra"))
        cong_v = decide_congruence_independence(cop, a, b, max_size=cop.size)
        expected = len(a.member_set() & b.member_set()) <= 1
        if expected == (tag.kind == "boolean_algebra"):
            problems.append((tag.kind, x.size, y.size, "shared elements"))
        if cong_v.independent != expected:
            problems.append((tag.kind, x.size, y.size, "congruence"))
        elif expected:
            cong_independent += 1
        elif not _shared_pair_refusal_verified(cop, a, b, cong_v):
            problems.append((tag.kind, x.size, y.size, "congruence witness"))
        else:
            verified_refusals += 1
            if cop.size <= 4:  # partition filtering: Bell(|join|) candidates
                if brute_congruence_independent(cop, a, b):
                    problems.append((tag.kind, x.size, y.size, "brute force"))
                else:
                    brute_confirmed += 1
        if not verify_coproduct_property(tag, x, y, cop, e_a, e_b, targets):
            problems.append((tag.kind, x.size, y.size, "universal property"))
    name = "coproducts: summand independence and the universal property"
    detail = (
        f"{count} coproducts checked for subalgebra independence and the "
        f"universal property, {cong_independent} congruence-independent, "
        f"{verified_refusals} Boolean congruence refusals re-verified "
        f"({brute_confirmed} also by partition-filter brute force)"
    )
    if problems:
        detail += f"; violations: {problems[:4]}"
    return CriterionResult(8, name, not problems, detail)


# ---------------------------------------------------------------------------
# 9. graphs: the stored rigid pair
# ---------------------------------------------------------------------------

def _load_rigid_fixture():
    text = (
        resources.files("algindep").joinpath("fixtures/rigid_pair.json").read_text()
    )
    doc = json.loads(text)
    parent, _ = structure_from_dict(doc["parent"])
    return parent, tuple(doc["a"]), tuple(doc["b"]), doc["seed"], doc[
        "endomorphism_counts"
    ]


def criterion_rigid_graphs(seed: int = 0) -> CriterionResult:
    problems = []
    parent, a_members, b_members, stored_seed, stored_counts = _load_rigid_fixture()
    a = SubUniverse(parent, a_members)
    b = SubUniverse(parent, b_members)
    counts = []
    for sub in (a, b):
        struct, _ = induced_substructure(parent, sub)
        n = 0
        for _ in enumerate_homs(struct, struct, "weak"):
            n += 1
            if n > 1:
                break
        counts.append(n)
    if counts != stored_counts or counts != [1, 1]:
        problems.append(("certificate", counts))
    verdict = decide_subalgebra_independence(parent, a, b, mode="weak")
    if not verdict.independent:
        problems.append(("independence", verdict.pairs_examined))
    a_struct, _ = induced_substructure(parent, a)
    b_struct, _ = induced_substructure(parent, b)
    cop, _, _ = coproduct(CategoryTag("graph"), a_struct, b_struct)
    if find_isomorphism(parent, cop) is not None:
        problems.append(("union unexpectedly isomorphic to coproduct",))
    if seed == stored_seed:
        regenerated, ra, rb = rigid_overlapping_pair(seed=stored_seed)
        if (regenerated, ra, rb) != (parent, a_members, b_members):
            problems.append(("fixture does not regenerate from its seed",))
    name = "graphs: overlapping rigid pair independent, union not the coproduct"
    detail = (
        f"rigid certificates re-verified (endomorphism counts {counts}), union "
        f"{parent.size} vertices vs coproduct {cop.size}"
    )
    if problems:
        detail += f"; violations: {problems}"
    return CriterionResult(9, name, not problems, detail)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [
        criterion_sets(),
        criterion_vector_spaces(),
        criterion_boolean_algebras(),
        criterion_abelian_groups(),
        criterion_groups(),
        criterion_joint_uniqueness(seed),
        criterion_congruence(seed),
        criterion_coproducts(),
        criterion_rigid_graphs(seed),
    ]
