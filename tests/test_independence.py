import collections
import dataclasses
import hashlib
import itertools
import json

import pytest

from algindep.core import (
    FiniteStructure,
    InputError,
    Signature,
    SubUniverse,
    induced_substructure,
)
from algindep.generation import all_congruences, all_subuniverses, close
from algindep.independence import (
    CongruenceWitness,
    SubalgebraWitness,
    Verdict,
    boole_independent,
    check_word_condition,
    decide_congruence_independence,
    decide_subalgebra_independence,
    group_diagnostics,
)
from algindep.morphisms import (
    HOM_CLASS_ALL,
    HOM_CLASS_AUTO,
    HOM_CLASSES,
    Homomorphism,
    _JointContext,
    enumerate_endos,
)
from algindep.acceptance import alternating_group
from algindep.reference import brute_congruences
from algindep.zoo import (
    build,
    cyclic_group,
    dihedral_group,
    empty_sig_set,
    graph,
    powerset_boolean_algebra,
    quaternion_group,
    rigid_overlapping_pair,
    symmetric_group,
    permutation_index,
)

from oracles import (
    check_joint_context,
    reference_congruence_independence,
    reference_subalgebra_independence,
)


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict(True, CongruenceWitness((), (), "a", (0, 1), False), 0)
    with pytest.raises(ValueError):
        Verdict(False, None, 3)


def test_z6_subgroups_are_independent():
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    verdict = decide_subalgebra_independence(z6, a, b)
    assert verdict.independent
    # 2 endomorphisms of Z2 times 3 endomorphisms of Z3
    assert verdict.pairs_examined == 6


def test_s3_witness_is_identity_against_trivial():
    s3 = symmetric_group(3)
    a, _ = close(s3, [permutation_index(3, (1, 2, 0))])
    b, _ = close(s3, [permutation_index(3, (1, 0, 2))])
    verdict = decide_subalgebra_independence(s3, a, b)
    assert not verdict.independent
    w = verdict.witness
    assert isinstance(w, SubalgebraWitness)
    assert w.alpha == tuple((e, e) for e in a.members)  # alpha is the identity
    assert all(y == 0 for _, y in w.beta)  # beta is the trivial map
    assert w.refusal.reason == "not-functional"


def test_s4_transposition_pair_is_independent():
    s4 = symmetric_group(4)
    a = SubUniverse(s4, (0, permutation_index(4, (1, 0, 2, 3))))
    b = SubUniverse(s4, (0, permutation_index(4, (2, 3, 0, 1))))
    verdict = decide_subalgebra_independence(s4, a, b)
    assert verdict.independent and verdict.pairs_examined == 4


def test_automorphisms_only_flag():
    s = empty_sig_set(3)
    a = SubUniverse(s, (0, 1))
    b = SubUniverse(s, (1, 2))
    all_v = decide_subalgebra_independence(s, a, b)
    auto_v = decide_subalgebra_independence(s, a, b, hom_class=HOM_CLASS_AUTO)
    assert not all_v.independent and not auto_v.independent
    # the automorphism stream is shorter: 2x2 permutation pairs at most
    assert auto_v.pairs_examined <= 4
    singleton = SubUniverse(s, (0,))
    pair = SubUniverse(s, (0, 1))
    assert not decide_subalgebra_independence(
        s, singleton, pair, hom_class=HOM_CLASS_AUTO
    ).independent


def test_strong_mode_decides_on_graphs():
    from algindep.zoo import graph

    g = graph(3, [(0, 1), (1, 0)])
    a = SubUniverse(g, (0, 1))
    b = SubUniverse(g, (1, 2))
    for mode in ("weak", "strong"):
        verdict = decide_subalgebra_independence(g, a, b, mode=mode)
        assert not verdict.independent  # maps can disagree on the shared vertex
    isolated = SubUniverse(g, (2,))
    assert decide_subalgebra_independence(g, a, isolated, mode="strong").independent


def test_congruence_independence_singleton_inside_pair():
    s = empty_sig_set(3)
    a = SubUniverse(s, (0,))
    b = SubUniverse(s, (0, 1))
    verdict = decide_congruence_independence(s, a, b)
    assert verdict.independent
    assert verdict.pairs_examined == 2  # one congruence of A, two of B


def test_congruence_independence_equal_pair_fails_fast():
    s = empty_sig_set(4)
    a = SubUniverse(s, (0, 1))
    verdict = decide_congruence_independence(s, a, a)
    assert not verdict.independent
    assert verdict.pairs_examined == 0  # refused before lattice work
    assert isinstance(verdict.witness, CongruenceWitness)
    assert verdict.witness.pair == (0, 1)


def test_congruence_independence_disjoint_pairs():
    s = empty_sig_set(4)
    a = SubUniverse(s, (0, 1))
    b = SubUniverse(s, (2, 3))
    verdict = decide_congruence_independence(s, a, b)
    assert verdict.independent
    # oracle: all congruence pairs of A and B extend over the 4-element join
    assert verdict.pairs_examined == len(brute_congruences(
        induced_substructure(s, a)[0]
    )) * len(brute_congruences(induced_substructure(s, b)[0]))


def test_congruence_size_bound_applies_to_the_join():
    from algindep.core import SizeLimitExceeded

    z13 = cyclic_group(13)
    a = SubUniverse(z13, (0,))
    b = SubUniverse(z13, tuple(range(13)))
    with pytest.raises(SizeLimitExceeded):
        decide_congruence_independence(z13, a, b)
    assert decide_congruence_independence(z13, a, b, max_size=13).independent


def test_congruence_lattice_bound_applies_to_each_side(monkeypatch):
    from algindep import generation
    from algindep.core import SizeLimitExceeded

    s = empty_sig_set(12)
    a = SubUniverse(s, (0,))
    b = SubUniverse(s, tuple(range(12)))
    monkeypatch.setattr(generation, "MAX_CONGRUENCE_LATTICE", 100)
    with pytest.raises(SizeLimitExceeded, match="lattice bound of 100 congruences"):
        decide_congruence_independence(s, a, b)
    monkeypatch.setattr(generation, "MAX_CONGRUENCE_LATTICE", 5)
    small = SubUniverse(s, (0, 1, 2))
    assert decide_congruence_independence(s, a, small).independent


@pytest.mark.parametrize(
    "parent",
    [symmetric_group(3), dihedral_group(4), build("vector_space", 2, 2)[0]],
    ids=["S3", "D4", "F2^2"],
)
def test_congruence_decider_matches_per_pair_cg_reference(parent):
    # every ordered subgroup pair; S3 and D4 include refusals found by the
    # restriction scan, not only by the shared-pair shortcut
    subs = all_subuniverses(parent)
    for a in subs:
        for b in subs:
            expected = reference_congruence_independence(parent, a, b)
            assert decide_congruence_independence(parent, a, b) == expected


def test_congruence_decider_lifts_a_side_that_is_the_join_as_itself(monkeypatch):
    # Con(F2^3) has 16 members; only the one congruence of {0} is lifted by cg
    from algindep import independence

    f2_3 = build("vector_space", 2, 3)[0]
    whole, zero = SubUniverse(f2_3, tuple(range(8))), SubUniverse(f2_3, (0,))
    lifts = []
    original = independence.cg
    monkeypatch.setattr(independence, "cg", lambda *args: lifts.append(1) or original(*args))
    for a, b in ((whole, zero), (zero, whole)):
        lifts.clear()
        verdict = decide_congruence_independence(f2_3, a, b)
        assert verdict == reference_congruence_independence(f2_3, a, b)
        assert verdict == Verdict(True, None, 16)
        assert len(lifts) == 1


def test_congruence_decider_lifts_only_the_congruences_it_certifies_on(monkeypatch):
    # an independent verdict checks (1_A, m') and (m, 1_B) for the
    # meet-irreducibles m, m', so it lifts at most |M(Con A)| + |M(Con B)| + 2
    # congruences, 1_A and 1_B included; Con of a 6-set has 203 members and
    # 31 meet-irreducibles, Con of a 7-set 877 and 63
    from algindep import independence

    lifts = []
    original = independence.cg
    monkeypatch.setattr(independence, "cg", lambda *args: lifts.append(1) or original(*args))
    for n, cut, expected, bound in ((11, 5, Verdict(True, None, 203 * 203), 64),
                                    (12, 6, Verdict(True, None, 877 * 203), 96)):
        s = empty_sig_set(n)
        a, b = SubUniverse(s, tuple(range(cut + 1))), SubUniverse(s, tuple(range(cut, n)))
        cons_a, cons_b = (all_congruences(induced_substructure(s, side)[0]) for side in (a, b))
        assert len(cons_a.meet_irreducibles) + len(cons_b.meet_irreducibles) + 2 == bound
        lifts.clear()
        assert decide_congruence_independence(s, a, b) == expected
        assert len(lifts) <= bound


def test_congruence_exit_paths_match_reference():
    # S4 subgroup pairs with sides of at most 6 elements, so that the
    # reference can filter partitions.  Witnesses in row 0 (1_A against
    # every theta_B) and in a later row, both found by the scan after
    # certification failed, and a certified independent verdict all occur.
    s4 = symmetric_group(4)
    subs = [s for s in all_subuniverses(s4) if len(s.members) <= 6]
    paths = collections.Counter()
    for a in subs:
        for b in subs:
            verdict = decide_congruence_independence(s4, a, b, max_size=24)
            assert verdict == reference_congruence_independence(s4, a, b, max_size=24)
            if verdict.independent:
                paths["certified"] += 1
            elif verdict.pairs_examined:
                row_length = len(all_congruences(induced_substructure(s4, b)[0]))
                row = (verdict.pairs_examined - 1) // row_length
                paths["row 0" if row == 0 else "later row"] += 1
    assert paths["certified"] and paths["row 0"] and paths["later row"]


def test_congruence_independence_of_7_and_6_element_sets():
    # 877 * 203 pairs, certified on 63 + 31 exact-extension checks
    s = empty_sig_set(12)
    a = SubUniverse(s, tuple(range(7)))
    b = SubUniverse(s, tuple(range(6, 12)))
    assert decide_congruence_independence(s, a, b) == Verdict(True, None, 877 * 203)


def _ternary_algebra(n, f):
    table = tuple(f(x, y, z) for x, y, z in itertools.product(range(n), repeat=3))
    return FiniteStructure(Signature((("t", 3),)), n, (table,), ())


@pytest.mark.parametrize(
    "parent",
    [
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        cyclic_group(6),
        powerset_boolean_algebra(3),
        build("vector_space", 2, 3)[0],
        empty_sig_set(4),
        # a ternary operation alone decides these: the median of a 4-chain
        # and the Mal'cev term x - y + z of Z4
        _ternary_algebra(4, lambda x, y, z: sorted((x, y, z))[1]),
        _ternary_algebra(4, lambda x, y, z: (x - y + z) % 4),
    ],
    ids=["S3", "D4", "Q8", "Z6", "BA3", "F2^3", "set4", "median4", "affineZ4"],
)
def test_subalgebra_decider_matches_per_pair_propagation_reference(parent):
    # every ordered subuniverse pair in both hom classes: verdict, witness
    # and pairs_examined equal the per-pair propagation decider
    subs = all_subuniverses(parent)
    refused = 0
    for hom_class in HOM_CLASSES:
        for a in subs:
            for b in subs:
                expected = reference_subalgebra_independence(parent, a, b, hom_class)
                got = decide_subalgebra_independence(parent, a, b, hom_class)
                assert got == expected
                refused += not got.independent
    assert refused > 0


def _reflexive_cycles():
    edges = [(v, v) for v in range(7)]
    for first, length in ((0, 3), (3, 4)):
        for i in range(length):
            u, v = first + i, first + (i + 1) % length
            edges += [(u, v), (v, u)]
    return graph(7, edges)


def _graph_cases():
    cycles = _reflexive_cycles()
    yield cycles, [(0, 1, 2), (3, 4, 5, 6), (0, 1), (1, 2, 3), (2, 3, 4), (6,)]
    path = graph(4, [(0, 1), (1, 2), (2, 3)])
    yield path, [(0,), (0, 1), (1, 2), (2, 3), (0, 1, 2), (1, 2, 3), (0, 3)]
    rigid, members_a, members_b = rigid_overlapping_pair(0)
    yield rigid, [members_a, members_b, members_a[:3], members_b[-3:]]


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_subalgebra_decider_on_graphs_matches_reference(mode):
    outcomes = set()
    for parent, subsets in _graph_cases():
        subs = [SubUniverse(parent, s) for s in subsets]
        for a in subs:
            for b in subs:
                expected = reference_subalgebra_independence(parent, a, b, mode=mode)
                got = decide_subalgebra_independence(parent, a, b, mode=mode)
                assert got == expected
                if not got.independent:
                    outcomes.add(got.witness.refusal.reason)
                else:
                    outcomes.add("independent")
    assert {"independent", "not-functional", "relation"} <= outcomes


def _z6_with_relation():
    """Z6 with r = {(0, 3), (1, 4), (2, 5)}: (0, 3) lies inside the subgroup
    {0, 3}, while (1, 4) and (2, 5) mix it with {0, 2, 4}."""
    z6 = cyclic_group(6)
    sig = Signature(z6.sig.op_symbols, (("r", 2),))
    return FiniteStructure(sig, 6, z6.op_tables, (frozenset({(0, 3), (1, 4), (2, 5)}),))


@pytest.mark.parametrize("hom_class", HOM_CLASSES)
@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_joint_context_refuses_exactly_the_maps_the_oracle_rejects(mode, hom_class):
    # the trimmed check against the brute-force one on the whole join: a
    # pair extends iff the subuniverse of join x join generated by the
    # graphs of alpha and beta is a function (false when the seeds disagree
    # on A n B) that is an endomorphism of the join, and gamma is that
    # function
    cases = list(_graph_cases())
    cases.append((_z6_with_relation(), [(0,), (0, 3), (0, 2, 4), tuple(range(6))]))
    seen = set()
    for parent, subsets in cases:
        subs = [SubUniverse(parent, s) for s in subsets]
        for a in subs:
            for b in subs:
                seen |= check_joint_context(parent, a, b, mode, hom_class)
    assert {"comparable", "incomparable", "extends", "not-functional"} <= seen
    # a weak violation that only a tuple mixing the sides shows
    assert ("missing", True) in seen


def _affine_plane():
    """F2^2 with the ternary x + y + z alone: its subuniverses are the
    affine subspaces, and the join of a point and a line off it is derived
    by one ternary step, which a constant map on the line moves."""
    sig = Signature((("d", 3),))
    d = tuple(x ^ y ^ z for x, y, z in itertools.product(range(4), repeat=3))
    return FiniteStructure(sig, 4, (d,), ())


def _cyclic_subgroups(group):
    return sorted({close(group, (x,))[0] for x in range(group.size)}, key=lambda s: s.members)


def _proper_subuniverses(structure):
    return all_subuniverses(structure)[:-1]


@pytest.mark.parametrize("mode", ["weak", "strong"])
@pytest.mark.parametrize(
    "parent, subs",
    [
        # inv and mul give derivation steps of mixed arity
        (symmetric_group(3), all_subuniverses),
        (symmetric_group(4), _cyclic_subgroups),
        (powerset_boolean_algebra(3), all_subuniverses),
        (build("vector_space", 2, 3)[0], _proper_subuniverses),
        (_z6_with_relation(), all_subuniverses),
        # ternary steps, so gamma takes the generic path
        (_affine_plane(), all_subuniverses),
    ],
    ids=["S3", "S4-cyclic", "BA3", "F2^3", "Z6-relation", "affine-plane"],
)
def test_joint_context_matches_the_oracle_on_every_pair_of_subuniverses(parent, subs, mode):
    # extend and gamma against brute_joint_map on every ordered pair of
    # subuniverses and every endomorphism pair.  Of S4 the cyclic subgroups,
    # whose joins are C2 x C2, S3, D4, A4 and S4; of F2^3 the proper
    # subspaces, as the 512 endomorphisms of the whole space, comparable
    # with every side, would take most of the time
    subs = subs(parent)
    seen = set()
    for a in subs:
        for b in subs:
            seen |= check_joint_context(parent, a, b, mode)
    assert {"comparable", "incomparable", "extends", "not-functional"} <= seen


def test_pairs_that_leave_nothing_open_evaluate_no_step():
    # a comparable pair, and in weak mode two disjoint reflexive cycles with
    # no operation and no edge between them, are decided by agreement on
    # A n B alone
    class Unread:
        def __iter__(self):
            raise AssertionError("a derivation step was read")

    z6 = cyclic_group(6)
    cycles = _reflexive_cycles()
    cases = [
        (z6, (0, 2, 4), tuple(range(6)), "weak"),
        (z6, (0, 3), (0,), "strong"),
        (cycles, (0, 1, 2), (3, 4, 5, 6), "weak"),
    ]
    for parent, a, b, mode in cases:
        ctx = _JointContext(parent, SubUniverse(parent, a), SubUniverse(parent, b), mode)
        assert not ctx.left_open
        ctx.steps = Unread()
        betas = list(enumerate_endos(ctx.b_struct, mode))
        for alpha in enumerate_endos(ctx.a_struct, mode):
            for beta in betas:
                ctx.extend(alpha, beta)
    # the map itself is still built on request
    with pytest.raises(AssertionError, match="derivation step"):
        ctx.gamma(alpha, beta)


def _digraph_5():
    """A loop, a 2-cycle and a path through it, and a separate edge."""
    return graph(5, [(0, 0), (0, 1), (1, 2), (2, 1), (3, 4)])


# sha256 of every verdict record.  The closure kernel's visit order decides
# which collision becomes the witness, the homomorphism search's order
# decides which pair fails first, and the relation scan's order decides
# which tuple names a relation refusal, so a change of any order shows here.
@pytest.mark.parametrize(
    "parent, hom_class, mode, digest",
    [
        (symmetric_group(4), HOM_CLASS_ALL, "weak", "e0e8411ef001399f4e307ad41b6349e8635337ee9434401f9ca2810d825613aa"),
        (dihedral_group(6), HOM_CLASS_ALL, "weak", "2db5af1e03e374c6d0360c0d55b4f6f370b45babbf322cf72be65ff354b57263"),
        (alternating_group(4), HOM_CLASS_ALL, "weak", "0236c97029d8c293f1d5e454369804f63a6b1b5ff12bb1a2c6e8ff59c181ce4c"),
        (powerset_boolean_algebra(4), HOM_CLASS_ALL, "weak", "c019b2ad1439fb6c5d55c348efd58c97d01f4f5627aac6b2bcdfb5659de34385"),
        (symmetric_group(4), HOM_CLASS_AUTO, "weak", "ab49718583af615a834e966070c0878e5c8831c43d2ab8aa5ff81abe6cbaca69"),
        (dihedral_group(6), HOM_CLASS_AUTO, "weak", "e205e6f51ffc6b54b69f48d3d3dc043e1f8bcd0f595f50ffaa7dfa1364f393ae"),
        (alternating_group(4), HOM_CLASS_AUTO, "weak", "de385fce59c66dfafd9ebd175ad6fc5a8e4ba75630466299ad7c56608de04346"),
        (powerset_boolean_algebra(4), HOM_CLASS_AUTO, "weak", "4840384aae0e20c5b15aa069abc719301dd24a41124a2e36988d9470370d6bc9"),
        # 174 "missing" refusals in weak mode; 102 "missing" and 64 "extra"
        # in strong mode, over 961 pairs
        (_digraph_5(), HOM_CLASS_ALL, "weak", "fd9442c0bb9ac48ea88d3bbdb2d72a1b42e6db7650912c349333a7e56597aee5"),
        (_digraph_5(), HOM_CLASS_ALL, "strong", "e00af309253e7f773d79539133c1c8c34c1abed92ca927f8b44537ddf4df1400"),
    ],
    ids=[
        "S4", "D6", "A4", "BA4", "S4-auto", "D6-auto", "A4-auto", "BA4-auto",
        "digraph5-weak", "digraph5-strong",
    ],
)
def test_subalgebra_witnesses_are_pinned(parent, hom_class, mode, digest):
    # every ordered subuniverse pair: verdict, witness and pairs_examined
    subs = all_subuniverses(parent)
    records = [
        [
            a.members,
            b.members,
            dataclasses.asdict(
                decide_subalgebra_independence(parent, a, b, hom_class, mode)
            ),
        ]
        for a in subs
        for b in subs
    ]
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of every congruence verdict record, recorded with the full
# |Con A| x |Con B| scan.  The first failing pair in alpha-major order is the
# witness, and an independent verdict reports |Con A| * |Con B| pairs.
@pytest.mark.parametrize(
    "parent, digest",
    [
        (symmetric_group(4), "00026ecd2f718d3a945b27cf16f52d61ffbfb6d456f67753a6c53df427d861a3"),
        (dihedral_group(4), "1b3c740f5ad9a34058bb9e008ba567a58b3da7c775c5f43a07abea03744e0fad"),
        (symmetric_group(3), "9b3a7e7d7b38ad6e53deb8241894e7f6790c3b5e831011257de9f08b888f28d7"),
        (build("vector_space", 2, 3)[0], "5fe4a402d8f44fc48411ae44301847dbbb1ace01fcfac88a45b04edd406977c9"),
        (cyclic_group(12), "5d17d6974a93cd1d4dd86098078f9f9b04478c622115a5043aaad10269747ca4"),
        (powerset_boolean_algebra(3), "9fce58228d34ac672da83ac24d1588250d7d9cf9879b424cf42616e1e9eb887b"),
    ],
    ids=["S4", "D4", "S3", "F2^3", "Z12", "BA3"],
)
def test_congruence_witnesses_are_pinned(parent, digest):
    subs = all_subuniverses(parent)
    records = [
        [
            a.members,
            b.members,
            dataclasses.asdict(
                decide_congruence_independence(parent, a, b, max_size=parent.size)
            ),
        ]
        for a in subs
        for b in subs
    ]
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_boole_independent_examples():
    ba = powerset_boolean_algebra(4)
    # atoms 1..4 are bits 0..3
    a = SubUniverse(ba, (0, 0b0011, 0b1100, 15))
    b = SubUniverse(ba, (0, 0b0101, 0b1010, 15))
    assert boole_independent(ba, a, b)
    c = SubUniverse(ba, (0, 0b0001, 0b1110, 15))
    assert not boole_independent(ba, c, c)
    minimal = SubUniverse(ba, (0, 15))
    assert boole_independent(ba, minimal, minimal)


def test_boole_independent_rejects_non_boolean_parent():
    z6 = cyclic_group(6)
    with pytest.raises(InputError):
        boole_independent(z6, SubUniverse(z6, (0,)), SubUniverse(z6, (0,)))


def test_group_diagnostics_z6():
    z6 = cyclic_group(6)
    diag = group_diagnostics(z6, SubUniverse(z6, (0, 3)), SubUniverse(z6, (0, 2, 4)))
    assert diag.intersection_trivial
    assert diag.a_normal_in_join and diag.b_normal_in_join
    assert diag.prediction == "independent"


def test_group_diagnostics_s3():
    s3 = symmetric_group(3)
    a, _ = close(s3, [permutation_index(3, (1, 2, 0))])
    b, _ = close(s3, [permutation_index(3, (1, 0, 2))])
    diag = group_diagnostics(s3, a, b)
    assert diag.a_normal_in_join and not diag.b_normal_in_join
    assert diag.prediction == "not_independent"


def test_group_diagnostics_s4_pair_has_no_prediction():
    s4 = symmetric_group(4)
    a = SubUniverse(s4, (0, permutation_index(4, (1, 0, 2, 3))))
    b = SubUniverse(s4, (0, permutation_index(4, (2, 3, 0, 1))))
    diag = group_diagnostics(s4, a, b)
    assert not diag.a_normal_in_join and not diag.b_normal_in_join
    assert diag.prediction == "no_prediction"


def test_group_diagnostics_rejects_non_group():
    s = empty_sig_set(3)
    with pytest.raises(InputError):
        group_diagnostics(s, SubUniverse(s, (0,)), SubUniverse(s, (1,)))


def test_check_word_condition():
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    a_struct, _ = induced_substructure(z6, a)
    b_struct, _ = induced_substructure(z6, b)
    for am in ((0, 0), (0, 1)):
        for bm in ((0, 0, 0), (0, 1, 2), (0, 2, 1)):
            alpha = Homomorphism(a_struct, a_struct, am, "weak")
            beta = Homomorphism(b_struct, b_struct, bm, "weak")
            assert check_word_condition(z6, a, b, alpha, beta)

    s3 = symmetric_group(3)
    sa, _ = close(s3, [permutation_index(3, (1, 2, 0))])
    sb, _ = close(s3, [permutation_index(3, (1, 0, 2))])
    sa_struct, _ = induced_substructure(s3, sa)
    sb_struct, _ = induced_substructure(s3, sb)
    ident = Homomorphism(sa_struct, sa_struct, (0, 1, 2), "weak")
    triv = Homomorphism(sb_struct, sb_struct, (0, 0), "weak")
    assert not check_word_condition(s3, sa, sb, ident, triv)
    ident_b = Homomorphism(sb_struct, sb_struct, (0, 1), "weak")
    assert check_word_condition(s3, sa, sb, ident, ident_b)


def test_independence_agrees_with_subgroup_lattice_sample():
    z12 = cyclic_group(12)
    subs = all_subuniverses(z12)
    for a in subs:
        for b in subs:
            verdict = decide_subalgebra_independence(z12, a, b)
            trivial = a.member_set() & b.member_set() == {0}
            assert verdict.independent == trivial
