import math

import pytest

from algindep import generation
from algindep.core import (
    Congruence,
    FiniteStructure,
    InputError,
    Signature,
    SizeLimitExceeded,
    SubUniverse,
    is_subuniverse,
)
from algindep.generation import (
    all_congruences,
    all_subuniverses,
    cg,
    close,
    generated_subuniverse_of_square,
    join,
    join_partitions,
)
from algindep.acceptance import alternating_group
from algindep.reference import brute_close, brute_congruences
from algindep.zoo import (
    build,
    cyclic_group,
    dihedral_group,
    empty_sig_set,
    graph,
    permutation_index,
    powerset_boolean_algebra,
    quaternion_group,
    symmetric_group,
    vector_space,
)

from oracles import (
    brute_cg,
    brute_meet_irreducibles,
    brute_pair_closure,
    cyclic_extension_subuniverses,
)
from test_properties import _between_algebra, _late_argument_algebra, _two_chain_algebra


def test_close_z6_generated_by_2():
    z6 = cyclic_group(6)
    sub, dag = close(z6, [2])
    assert sub.members == (0, 2, 4)
    assert brute_close(z6, [2]) == frozenset({0, 2, 4})
    assert set(dag.elements()) == {0, 2, 4}


def test_close_full_seed_is_identity():
    z6 = cyclic_group(6)
    sub, _ = close(z6, range(6))
    assert sub.members == tuple(range(6))


def test_close_pure_set_is_the_seed():
    s = empty_sig_set(5)
    sub, dag = close(s, [1, 3])
    assert sub.members == (1, 3)
    assert all(node.op is None for node in dag.nodes)


def test_close_rejects_out_of_range_seed():
    with pytest.raises(InputError):
        close(empty_sig_set(3), [7])


def test_witness_dag_reproduces_closure_and_is_topological():
    z6 = cyclic_group(6)
    sub, dag = close(z6, [2])
    seen = set()
    for node in dag.nodes:
        assert all(a in seen for a in node.args)
        seen.add(node.element)
    values = dag.evaluate(z6, {2: 2})
    assert set(values) == set(sub.members)
    assert all(values[e] == e for e in sub.members)


def test_join_z2_z3_is_z6():
    z6 = cyclic_group(6)
    sub, dag = join(z6, SubUniverse(z6, (0, 3)), SubUniverse(z6, (0, 2, 4)))
    assert sub.members == tuple(range(6))
    assert [n.element for n in dag.generators()] == [0, 2, 3, 4]


def test_join_idempotent():
    z6 = cyclic_group(6)
    sub = SubUniverse(z6, (0, 2, 4))
    joined, _ = join(z6, sub, sub)
    assert joined.members == sub.members


def test_join_s4_example_has_eight_elements():
    s4 = symmetric_group(4)
    a = SubUniverse(s4, (0, permutation_index(4, (1, 0, 2, 3))))
    b = SubUniverse(s4, (0, permutation_index(4, (2, 3, 0, 1))))
    sub, _ = join(s4, a, b)
    assert len(sub.members) == 8


def test_join_rejects_foreign_subuniverse():
    z6 = cyclic_group(6)
    z4 = cyclic_group(4)
    with pytest.raises(InputError):
        join(z6, SubUniverse(z4, (0, 2)), SubUniverse(z6, (0, 3)))


def test_close_rejects_foreign_base():
    with pytest.raises(InputError):
        close(cyclic_group(6), [1], base=SubUniverse(cyclic_group(4), (0, 2)))


def test_square_of_identity_pairs_is_diagonal_of_join():
    z6 = cyclic_group(6)
    square = generated_subuniverse_of_square(z6, [(3, 3), (2, 2)])
    closure, _ = close(z6, [2, 3])
    assert square == frozenset((e, e) for e in closure.members)


def test_square_z6_functional_example():
    z6 = cyclic_group(6)
    pairs = [(3, 0), (2, 2)]
    expected = frozenset({(0, 0), (2, 2), (4, 4), (3, 0), (5, 2), (1, 4)})
    assert brute_pair_closure(z6, pairs) == expected
    assert generated_subuniverse_of_square(z6, pairs) == expected


def test_square_pure_set_keeps_pairs():
    s = empty_sig_set(3)
    pairs = frozenset({(0, 1), (0, 2)})
    assert generated_subuniverse_of_square(s, pairs) == pairs


def test_cg_empty_is_identity():
    z6 = cyclic_group(6)
    assert cg(z6, []).is_identity()


def test_cg_z6_principal_congruences():
    z6 = cyclic_group(6)
    theta = cg(z6, [(0, 3)])
    assert theta.blocks() == ((0, 3), (1, 4), (2, 5))
    assert theta == brute_cg(z6, [(0, 3)])
    assert cg(z6, [(0, 1)]).is_full()


def _s3_product():
    """S3 with its product only: without the inverse, whose translations
    turn rows into columns, a congruence must be closed under the columns."""
    s3 = symmetric_group(3)
    return FiniteStructure(Signature((("mul", 2),)), 6, (s3.op_table("mul"),))


@pytest.mark.parametrize(
    "structure, commutative",
    [(symmetric_group(3), False), (_s3_product(), False), (cyclic_group(6), True)],
    ids=["S3", "S3-product", "Z6"],
)
def test_cg_matches_brute_on_every_pair(structure, commutative):
    # cg pushes a merged pair through the rows and columns of each binary
    # table, and drops the columns when they equal the rows
    n = structure.size
    binary = [t for _, ar, t in structure.op_views() if ar == 2]
    assert binary
    assert all(
        ([t[s::n] for s in range(n)] == [t[s * n : s * n + n] for s in range(n)]) == commutative
        for t in binary
    )
    for a in range(n):
        for b in range(n):
            assert cg(structure, [(a, b)]) == brute_cg(structure, [(a, b)])


def test_all_congruences_z6_matches_divisor_lattice():
    z6 = cyclic_group(6)
    lattice = all_congruences(z6)
    assert len(lattice) == 4
    assert lattice == brute_congruences(z6)


def test_all_congruences_two_element_set():
    s = empty_sig_set(2)
    assert len(all_congruences(s)) == 2


def test_all_congruences_prime_cyclic_group_is_simple():
    z5 = cyclic_group(5)
    assert len(all_congruences(z5)) == 2


def test_all_congruences_size_bound():
    with pytest.raises(SizeLimitExceeded):
        all_congruences(empty_sig_set(13))
    assert all_congruences(empty_sig_set(3), max_size=3)


BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


@pytest.mark.parametrize("n", range(1, 9))
def test_all_congruences_of_a_set_are_all_partitions(n):
    lattice = all_congruences(empty_sig_set(n))
    assert len(lattice) == BELL[n]
    assert lattice == sorted(lattice, key=lambda t: t.block_of)
    # the meet-irreducible partitions are the two-block ones
    assert len(lattice.meet_irreducibles) == 2 ** (n - 1) - 1
    if n <= 6:
        assert lattice == brute_congruences(empty_sig_set(n))


def test_all_congruences_joins_once_per_pair_of_blocks(monkeypatch):
    calls = []
    original = generation.join_partitions
    monkeypatch.setattr(
        generation, "join_partitions", lambda *args: calls.append(1) or original(*args)
    )
    set6 = empty_sig_set(6)
    lattice = all_congruences(set6)
    # A partition with k blocks is joined once per pair of blocks, C(k, 2)
    # times; the identity, whose C(6, 2) = 15 pairs are not fewer than the 15
    # principals, once per principal.  Sum over k of S(6, k) * C(k, 2):
    # 31 + 270 + 390 + 150 + 15 joins.  One join per principal not below each
    # partition would take 2265.
    assert len(calls) == 856
    assert len(lattice) == 203 and lattice == brute_congruences(set6)
    assert len(lattice.meet_irreducibles) == 31
    assert list(lattice.meet_irreducibles) == brute_meet_irreducibles(set6)


def _count_cg_calls(monkeypatch):
    calls = []
    original = generation.cg
    monkeypatch.setattr(
        generation, "cg", lambda *args, **kw: calls.append(1) or original(*args, **kw)
    )
    return calls


def _malcev(n):
    """Z_n with the Mal'cev term m(x, y, z) = x - y + z as its only operation."""
    table = tuple((x - y + z) % n for x in range(n) for y in range(n) for z in range(n))
    return FiniteStructure(Signature((("m", 3),)), n, (table,), ())


@pytest.mark.parametrize(
    "structure, size_bound, cg_calls",
    [
        (build("vector_space", 2, 4)[0], 16, 15),
        (symmetric_group(4), 24, 4),
        (powerset_boolean_algebra(3), 12, 28),
        (empty_sig_set(6), 12, 15),
        (_malcev(5), 5, 2),
        (_malcev(6), 6, 3),
    ],
    ids=["F2^4", "S4", "BA3", "set6", "malcev-Z5", "malcev-Z6"],
)
def test_all_congruences_reuses_principals_of_reached_pairs(
    monkeypatch, cold_memos, structure, size_bound, cg_calls
):
    # F2^4 and S4 translate every pair by permutations: one cg call per
    # class of translatable pairs, 15 cosets of 2-element subspaces and 4
    # conjugacy classes.  The Mal'cev term's translations x + c and c - y
    # permute too, at arity 3: one call per difference up to sign, 1 and 2
    # in Z5, and 1, 2 and 3 in Z6.  BA3's translations x v s and x ^ s are
    # neither permutations nor constant, and set6 has no operations to
    # translate by: one call per pair.
    calls = _count_cg_calls(monkeypatch)
    lattice = all_congruences(structure, max_size=size_bound)
    assert len(calls) == cg_calls
    # against the same lattice with the reuse turned off
    cold_memos()
    monkeypatch.setattr(generation, "_translations_permute", lambda structure: False)
    calls.clear()
    plain = all_congruences(structure, max_size=size_bound)
    n = structure.size
    assert len(calls) == n * (n - 1) // 2
    assert lattice == plain
    assert lattice.meet_irreducibles == plain.meet_irreducibles


def test_all_congruences_of_s5_takes_one_cg_call_per_conjugacy_class(monkeypatch):
    calls = _count_cg_calls(monkeypatch)
    lattice = all_congruences(symmetric_group(5), max_size=120)
    # identity, cosets of A5, full; 7140 pairs in 6 classes
    assert len(lattice) == 3
    assert len(calls) <= 6


def test_all_congruences_memo_returns_a_fresh_lattice(monkeypatch):
    calls = _count_cg_calls(monkeypatch)
    d4 = dihedral_group(4)
    first = all_congruences(d4)
    made = len(calls)
    first.append(None)
    second = all_congruences(dihedral_group(4))
    assert len(calls) == made  # a hit by value makes no cg call
    assert second == first[:-1] and second is not first
    assert second.meet_irreducibles == first.meet_irreducibles
    # a hit still enforces both bounds
    with pytest.raises(SizeLimitExceeded):
        all_congruences(d4, max_size=7)
    monkeypatch.setattr(generation, "MAX_CONGRUENCE_LATTICE", 5)
    with pytest.raises(SizeLimitExceeded, match="lattice bound of 5 congruences"):
        all_congruences(d4)


def test_lattice_memo_keeps_the_most_recent_lattices_within_its_bound(monkeypatch):
    monkeypatch.setattr(generation, "_LATTICE_MEMO_CONGRUENCES", 60)
    for n in (5, 3):  # 52 + 5 congruences
        all_congruences(empty_sig_set(n))
    assert [s.size for s in generation._lattice_memo] == [5, 3]
    all_congruences(empty_sig_set(4))  # 15 more: the 5-element set's lattice goes
    assert [s.size for s in generation._lattice_memo] == [3, 4]


def test_all_congruences_of_f2_4_are_its_67_subspaces():
    f2_4, _ = build("vector_space", 2, 4)
    lattice = all_congruences(f2_4, max_size=16)
    # congruences of a vector space are the cosets of its subspaces
    assert len(lattice) == 67
    assert lattice[0].is_full() and lattice[-1].is_identity()
    # the meet-irreducible subspaces are the 15 hyperplanes
    assert len(lattice.meet_irreducibles) == 15


@pytest.mark.parametrize(
    "structure",
    [
        cyclic_group(6),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        powerset_boolean_algebra(3),
        build("vector_space", 2, 3)[0],
        empty_sig_set(5),
    ],
    ids=["Z6", "S3", "D4", "Q8", "BA3", "F2^3", "set5"],
)
def test_meet_irreducibles_of_named_structures(structure):
    lattice = all_congruences(structure)
    assert list(lattice.meet_irreducibles) == brute_meet_irreducibles(structure)


def test_all_congruences_lattice_bound_names_the_bound(monkeypatch):
    s5 = empty_sig_set(5)
    monkeypatch.setattr(generation, "MAX_CONGRUENCE_LATTICE", 52)
    assert len(all_congruences(s5)) == 52
    monkeypatch.setattr(generation, "MAX_CONGRUENCE_LATTICE", 51)
    with pytest.raises(SizeLimitExceeded, match="lattice bound of 51 congruences"):
        all_congruences(s5)
    monkeypatch.setattr(generation, "MAX_CONGRUENCE_LATTICE", 5)
    with pytest.raises(SizeLimitExceeded, match="lattice bound of 5 congruences"):
        all_congruences(cyclic_group(12))


def test_default_lattice_bound_admits_bell_9():
    assert generation.MAX_CONGRUENCE_LATTICE >= 21147


def test_join_partitions_is_transitive_closure_of_union():
    theta = Congruence.from_blocks(5, [(0, 1), (2,), (3, 4)])
    phi = Congruence.from_blocks(5, [(0,), (1, 2), (3,), (4,)])
    assert join_partitions(theta, phi).blocks() == ((0, 1, 2), (3, 4))
    assert join_partitions(phi, theta) == join_partitions(theta, phi)
    assert join_partitions(theta, Congruence.identity(5)) == theta
    assert join_partitions(theta, Congruence.full(5)).is_full()
    with pytest.raises(InputError):
        join_partitions(theta, Congruence.identity(4))


def test_close_result_is_subuniverse():
    z6 = cyclic_group(6)
    for seed in ([1], [2], [3], [4, 2]):
        sub, _ = close(z6, seed)
        assert is_subuniverse(z6, sub.members)


def test_all_subuniverses_z6_are_the_divisor_subgroups():
    z6 = cyclic_group(6)
    subs = [s.members for s in all_subuniverses(z6)]
    assert subs == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]


def test_all_subuniverses_pure_set_are_all_nonempty_subsets():
    s = empty_sig_set(4)
    assert len(all_subuniverses(s)) == 15


_LATTICE_CASES = {
    # the parents of the census benchmark workload
    "S4": lambda: symmetric_group(4),
    "D6": lambda: dihedral_group(6),
    "A4": lambda: alternating_group(4),
    "Q8": quaternion_group,
    "Z12": lambda: cyclic_group(12),
    "BA4": lambda: powerset_boolean_algebra(4),
    "F2^3": lambda: vector_space(2, 3),
    "F3^2": lambda: vector_space(3, 2),
    "set5": lambda: empty_sig_set(5),
    "D12": lambda: dihedral_group(12),
    "BA5": lambda: powerset_boolean_algebra(5),
    "F2^4": lambda: vector_space(2, 4),
    "graph5": lambda: graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 0), (2, 4)]),
    "between": _between_algebra,
    "late_argument": _late_argument_algebra,
    "two_chains": _two_chain_algebra,
}


@pytest.mark.parametrize("name", _LATTICE_CASES)
def test_all_subuniverses_matches_plain_cyclic_extension(name):
    structure = _LATTICE_CASES[name]()
    subs = [s.members for s in all_subuniverses(structure)]
    assert subs == [s.members for s in cyclic_extension_subuniverses(structure)]


def test_all_subuniverses_reaches_f2_6_and_s5():
    def gaussian_binomial(n, k, q=2):
        return math.prod(q ** (n - i) - 1 for i in range(k)) // math.prod(
            q ** (i + 1) - 1 for i in range(k)
        )

    assert len(all_subuniverses(vector_space(2, 6))) == 2825
    assert sum(gaussian_binomial(6, k) for k in range(7)) == 2825
    assert len(all_subuniverses(symmetric_group(5))) == 156


def test_all_subuniverses_closes_one_element_per_class(monkeypatch):
    calls = []
    original = generation.close
    monkeypatch.setattr(
        generation, "close", lambda *args, **kw: calls.append(1) or original(*args, **kw)
    )

    def closes(lattice, structure) -> int:
        calls.clear()
        lattice(structure)
        return len(calls)

    d12 = dihedral_group(12)
    assert closes(all_subuniverses, d12) == 46 < closes(cyclic_extension_subuniverses, d12)
    # In F2^4 the translations by a subspace S are x -> x + s, so the classes
    # outside S are its nonzero cosets.  T = <S, x> is S and x + S, whose
    # smallest element is x, so every representative of T below x lies in S
    # and each close from a subspace finds a new one: the bottom, the 16
    # <x> and one close per subspace above a line, 1 + |lattice| in all.
    f2_4 = vector_space(2, 4)
    assert len(all_subuniverses(f2_4)) == 67
    assert closes(all_subuniverses, f2_4) == 1 + 67
    # the monotone rule that cyclic extension replaced closed 19 and 15 times
    assert closes(all_subuniverses, cyclic_group(12)) == 13 <= 19
    assert closes(all_subuniverses, quaternion_group()) == 10 <= 15
