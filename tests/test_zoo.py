import itertools
import random
import re
import tracemalloc

import pytest

from algindep.core import (
    MAX_STRUCTURE_SIZE,
    FiniteStructure,
    InputError,
    SubUniverse,
    induced_substructure,
    validate,
)
from algindep.generation import join
from algindep import core, zoo
from algindep.morphisms import find_isomorphism, is_homomorphism, kernel
from algindep.zoo import (
    GROUP_SIG,
    MAX_GROUP_ORDER,
    CategoryTag,
    build,
    canonical_quotient,
    coproduct,
    cyclic_group,
    dihedral_group,
    empty_sig_set,
    graph,
    is_abelian_group,
    is_boolean_algebra,
    is_group,
    is_rigid,
    is_vector_space,
    permutations_of,
    powerset_boolean_algebra,
    quaternion_group,
    random_rigid_graph,
    rigid_overlapping_pair,
    symmetric_group,
    vector_space,
)

from oracles import element_orders, group_axioms


def test_build_families_and_tags():
    cases = [
        (("empty_sig_set", 4), "set", 4),
        (("cyclic_group", 6), "abelian_group", 6),
        (("symmetric_group", 3), "group", 6),
        (("dihedral_group", 4), "group", 8),
        (("quaternion_group",), "group", 8),
        (("powerset_boolean_algebra", 2), "boolean_algebra", 4),
        (("vector_space", 2, 2), "vector_space", 4),
        (("graph", 3, "0-1,1-2"), "graph", 3),
    ]
    for params, kind, size in cases:
        structure, tag = build(*params)
        assert tag.kind == kind
        assert structure.size == size
        assert validate(structure) == []


def test_build_rejects_unknown_family_and_caps(monkeypatch):
    with pytest.raises(InputError):
        build("frobnicator", 3)
    with pytest.raises(InputError):
        build("symmetric_group", 6)
    with pytest.raises(InputError):
        build("vector_space", 4, 2)  # not prime
    for family, param in (
        ("cyclic_group", MAX_GROUP_ORDER + 1),
        ("cyclic_group", 100000),
        ("dihedral_group", MAX_GROUP_ORDER // 2 + 1),
        ("dihedral_group", 0),
        ("empty_sig_set", MAX_STRUCTURE_SIZE + 1),
    ):
        with pytest.raises(InputError):
            build(family, param)
    with pytest.raises(InputError):
        build("graph", MAX_STRUCTURE_SIZE + 1, "")
    # BA11, F2^11 and F1031 have binary tables over 2^20 cells; the refusal
    # comes before the builders, the signature or the primality test run
    called = []
    for name in ("_powerset_boolean", "direct_product", "vector_space_sig", "_is_prime"):
        monkeypatch.setattr(zoo, name, lambda *a, name=name: called.append(name))
    for params, shown in (
        (("powerset_boolean_algebra", 11), "2048 elements and a table of 4194304 entries"),
        (("vector_space", 2, 11), "2048 elements and a table of 4194304 entries"),
        (("vector_space", 1031, 1), "1031 elements and a table of 1062961 entries"),
    ):
        with pytest.raises(InputError, match=f"{shown}, over the bound of 1048576 cells"):
            build(*params)
    assert called == []


_PRIMES = [p for p in range(2, 65) if all(p % q for q in range(2, p))]
# F2^1..F2^6, F3^1..F3^3, F5^1, F5^2, F7^1, F7^2, and F_p^1 for 14 more primes
_BUILDABLE_SPACES = [(p, d) for p in _PRIMES for d in range(1, 7) if p**d <= 64]


def test_every_buildable_structure_satisfies_its_laws():
    # the builders do not law-check their own tables, so every group that
    # build accepts is checked here, with every powerset algebra and the
    # spaces of at most 64 elements, and the largest space of each small
    # field and the largest line that the 2^20-cell bound admits
    for n in range(1, MAX_GROUP_ORDER + 1):
        assert is_abelian_group(build("cyclic_group", n)[0])
    for n in range(1, MAX_GROUP_ORDER // 2 + 1):
        assert is_group(build("dihedral_group", n)[0])
    for n in range(1, 6):
        assert is_group(build("symmetric_group", n)[0])
    assert is_group(build("quaternion_group")[0])
    for k in range(1, 11):
        assert is_boolean_algebra(build("powerset_boolean_algebra", k)[0])
    assert len(_BUILDABLE_SPACES) == 27
    for p, d in _BUILDABLE_SPACES + [(2, 10), (3, 6), (5, 4), (7, 3), (31, 2), (1021, 1)]:
        assert is_vector_space(build("vector_space", p, d)[0], p)


def _hamilton(x, y):
    """Product of two quaternions given as 4-vectors (1, i, j, k)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _permutation_of_cycles(label, n):
    """The permutation that a cycle label names, checking that each cycle
    starts at its least point and that cycles come in order of their starts."""
    perm = list(range(n))
    if label == "e":
        return tuple(perm)
    cycles = [[int(v) - 1 for v in c.split()] for c in re.findall(r"\(([^)]*)\)", label)]
    assert "".join("(" + " ".join(str(v + 1) for v in c) + ")" for c in cycles) == label
    assert all(c[0] == min(c) and len(c) > 1 for c in cycles)
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
    for c in cycles:
        for u, v in zip(c, c[1:] + c[:1]):
            perm[u] = v
    return tuple(perm)


def test_group_families_match_their_defining_formulas():
    # tables and labels for every parameter build accepts
    for n in range(1, MAX_GROUP_ORDER + 1):
        z = build("cyclic_group", n)[0]
        assert z.op_tables == (
            (0,),
            tuple(-i % n for i in range(n)),
            tuple((i + j) % n for i in range(n) for j in range(n)),
        )
        assert z.labels == tuple(map(str, range(n)))
    for n in range(1, MAX_GROUP_ORDER // 2 + 1):

        def unpack(i):
            return (i >= n, i % n)

        def pack(flip, rot):
            return (n if flip else 0) + rot % n

        elements = [unpack(i) for i in range(2 * n)]
        mul = tuple(
            pack(f1 ^ f2, (-a if f2 else a) + b) for f1, a in elements for f2, b in elements
        )
        inv = tuple(pack(f, a if f else -a) for f, a in elements)
        d = build("dihedral_group", n)[0]
        assert d.op_tables == ((0,), inv, mul)
        assert d.labels == tuple(f"sr{a}" if f else f"r{a}" for f, a in elements)
    for n in range(1, 6):
        perms = permutations_of(n)
        index = {p: i for i, p in enumerate(perms)}
        mul = tuple(index[tuple(p[q[k]] for k in range(n))] for p in perms for q in perms)
        inverse = [tuple(sorted(range(n), key=p.__getitem__)) for p in perms]
        s = build("symmetric_group", n)[0]
        assert s.op_tables == ((0,), tuple(index[q] for q in inverse), mul)
        assert [_permutation_of_cycles(label, n) for label in s.labels] == perms
    units = [tuple(int(i == axis) for i in range(4)) for axis in range(4)]
    vectors = units + [tuple(-v for v in u) for u in units]
    index = {v: i for i, v in enumerate(vectors)}
    conjugate = [(a, -b, -c, -d) for a, b, c, d in vectors]
    q8 = build("quaternion_group")[0]
    assert q8.op_tables == (
        (0,),
        tuple(index[v] for v in conjugate),
        tuple(index[_hamilton(x, y)] for x in vectors for y in vectors),
    )
    assert q8.labels == ("1", "i", "j", "k", "-1", "-i", "-j", "-k")


def test_vector_space_tables_act_componentwise_on_the_labelled_coordinates():
    for p, d in _BUILDABLE_SPACES:
        space = vector_space(p, d)
        coords = [tuple(map(int, label[1:-1].split(","))) for label in space.labels]
        # base p, most significant coordinate first
        assert coords == list(itertools.product(range(p), repeat=d))
        index = {c: i for i, c in enumerate(coords)}

        def image(f, *vectors):
            return index[tuple(f(*cs) % p for cs in zip(*vectors))]

        add = tuple(image(lambda u, v: u + v, x, y) for x in coords for y in coords)
        assert space.op_table("add") == add
        assert space.op_table("neg") == tuple(image(lambda u: -u, x) for x in coords)
        for k in range(p):
            smul = tuple(image(lambda u: k * u, x) for x in coords)
            assert space.op_table(f"smul{k:02d}") == smul
        assert space.op_table("zero") == (index[(0,) * d],)


def test_group_law_checks():
    assert is_group(symmetric_group(4))
    assert is_abelian_group(cyclic_group(9))
    assert not is_abelian_group(symmetric_group(3))
    assert is_group(quaternion_group())
    assert not is_group(empty_sig_set(3))


def _group_sig_structure(mul, inv, e):
    n = len(inv)
    return FiniteStructure(GROUP_SIG, n, ((e,), tuple(inv), tuple(itertools.chain(*mul))), ())


# a loop of order 5 whose every element is its own inverse, and which is not
# associative: (1 * 2) * 2 = 3 * 2 = 4, but 1 * (2 * 2) = 1 * 0 = 1
_LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize(
    "structure, expected",
    [
        (cyclic_group(1), True),
        (cyclic_group(5), True),
        (symmetric_group(3), True),
        (quaternion_group(), True),
        # each of the three laws fails alone: the identity (a constant table
        # with e its value passes inverses and associativity), associativity
        # (the loop) and the inverses (Z3 with inv the identity map)
        (_group_sig_structure([[1] * 3] * 3, [1] * 3, 1), False),
        (_group_sig_structure(_LOOP_5, range(5), 0), False),
        (_group_sig_structure([[(x + y) % 3 for y in range(3)] for x in range(3)], range(3), 0), False),
    ],
    ids=["Z1", "Z5", "S3", "Q8", "constant", "loop", "wrong-inverses"],
)
def test_is_group_matches_the_group_axioms(structure, expected):
    assert group_axioms(structure) is expected
    assert is_group(structure) is expected


def test_the_boolean_algebra_check_builds_no_powerset_structure(monkeypatch):
    # phi is compared with the operations on bit sets, read off np.arange(n),
    # so no powerset algebra is built, whether the check accepts or refuses
    algebras = [powerset_boolean_algebra(k) for k in (1, 2, 4, 6)]

    def refuse(atoms):
        raise AssertionError(f"a powerset algebra of {atoms} atoms was built")

    monkeypatch.setattr(zoo, "_powerset_boolean", refuse)
    assert all(map(is_boolean_algebra, algebras))
    compl, vee, meet, one, zero = algebras[2].op_tables
    swapped = FiniteStructure(zoo.BOOLEAN_SIG, 16, (compl, vee, meet, zero, one), ())
    assert not is_boolean_algebra(swapped)


def test_quaternion_group_structure():
    q8 = quaternion_group()
    orders = sorted(element_orders(q8).values())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]  # unique to Q8 at order 8


def test_dihedral_group_structure():
    d4 = dihedral_group(4)
    orders = sorted(element_orders(d4).values())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_boolean_and_vector_law_checks():
    assert is_boolean_algebra(powerset_boolean_algebra(3))
    assert not is_boolean_algebra(cyclic_group(4))
    assert is_vector_space(vector_space(3, 2), 3)
    assert not is_vector_space(vector_space(3, 2), 2)


def test_vector_space_carries_one_scalar_op_per_field_element():
    f22 = vector_space(2, 2)
    smuls = [n for n, ar in f22.sig.op_symbols if n.startswith("smul")]
    assert smuls == ["smul00", "smul01"]
    f5 = vector_space(5, 1)
    assert sum(n.startswith("smul") for n, _ in f5.sig.op_symbols) == 5


def test_vector_space_scalar_names_sort_in_signature_order():
    # padded to two digits up to p = 100, and to the digits of p - 1 above
    for p in (2, 97, 101, 1021):
        names = [name for name, _ in zoo.vector_space_sig(p).op_symbols]
        assert names == sorted(names)
        width = max(2, len(str(p - 1)))
        assert names[2:-1] == [f"smul{c:0{width}d}" for c in range(p)]
    assert zoo.vector_space_sig(97).op_symbols[-2] == ("smul96", 1)
    assert zoo.vector_space_sig(101).op_symbols[2:4] == (("smul000", 1), ("smul001", 1))


def test_set_coproduct_is_disjoint_union():
    x = empty_sig_set(2)
    y = empty_sig_set(1)
    cop, e_a, e_b = coproduct(CategoryTag("set"), x, y)
    assert cop.size == 3
    assert e_a.mapping == (0, 1) and e_b.mapping == (2,)


def test_abelian_coproduct_z2_z3():
    cop, e_a, e_b = coproduct(CategoryTag("abelian_group"), cyclic_group(2), cyclic_group(3))
    assert cop.size == 6
    assert find_isomorphism(cop, cyclic_group(6)) is not None
    assert is_homomorphism(e_a.dom, e_a.cod, e_a.mapping, "strong")
    assert is_homomorphism(e_b.dom, e_b.cod, e_b.mapping, "strong")


def test_boolean_coproduct_atom_counts():
    ba4 = powerset_boolean_algebra(2)
    cop, e_a, e_b = coproduct(CategoryTag("boolean_algebra"), ba4, ba4)
    assert cop.size == 16
    assert is_boolean_algebra(cop)
    assert is_homomorphism(e_a.dom, e_a.cod, e_a.mapping, "strong")
    # embeddings are injective and meet-compatible
    assert len(set(e_a.mapping)) == 4 and len(set(e_b.mapping)) == 4


def test_boolean_coproduct_size_guard():
    ba32 = powerset_boolean_algebra(5)
    with pytest.raises(InputError):
        coproduct(CategoryTag("boolean_algebra"), ba32, ba32)


def test_boolean_coproduct_bound_is_a_module_constant(monkeypatch):
    from algindep import core

    ba2, ba4 = powerset_boolean_algebra(1), powerset_boolean_algebra(2)
    monkeypatch.setattr(core, "MAX_PRODUCT_CELLS", 16)
    cop, _, _ = coproduct(CategoryTag("boolean_algebra"), ba2, ba4)
    assert cop.size == 4
    with pytest.raises(InputError, match="over the bound of 16 cells"):
        coproduct(CategoryTag("boolean_algebra"), ba4, ba4)


def test_boolean_coproducts_are_bounded_by_their_table_cells(monkeypatch):
    from algindep import zoo

    ba = {k: powerset_boolean_algebra(k) for k in (2, 3, 4, 5)}
    built = []
    powerset = zoo._powerset_boolean
    monkeypatch.setattr(zoo, "_powerset_boolean", lambda k: built.append(k) or powerset(k))
    tag = CategoryTag("boolean_algebra")
    # 3 x 4 atom pairs: 4096 elements, binary tables of 2^24 cells; the law
    # checks of the inputs build nothing, and the refusal comes before the
    # coproduct is built
    with pytest.raises(InputError, match="a table of 16777216 entries, over the bound of 1048576"):
        coproduct(tag, ba[3], ba[4])
    assert built == []
    # 2 x 5 atom pairs: 1024 elements, binary tables of exactly 2^20 cells
    cop, _, _ = coproduct(tag, ba[2], ba[5])
    assert built == [10] and cop.size == 1024


def test_disjoint_union_coproducts_are_bounded_by_the_element_count():
    half = MAX_STRUCTURE_SIZE // 2
    for kind, make in (("set", empty_sig_set), ("graph", lambda n: graph(n, [(0, 1)]))):
        x = make(half)
        cop, _, _ = coproduct(CategoryTag(kind), x, x)
        assert cop.size == MAX_STRUCTURE_SIZE
        with pytest.raises(InputError, match=f"at most {MAX_STRUCTURE_SIZE} elements"):
            coproduct(CategoryTag(kind), x, make(half + 1))


def test_product_coproducts_are_bounded_before_any_cell_is_built(monkeypatch):
    from algindep import zoo

    # vector_space builds its spaces with direct_product, so before the patch
    f2_6, f2_5 = vector_space(2, 6), vector_space(2, 5)
    built = []
    monkeypatch.setattr(zoo, "direct_product", lambda x, y: built.append((x, y)) or x)
    # Z32 + Z32, a binary table of exactly MAX_PRODUCT_CELLS cells, reaches the build
    z32 = cyclic_group(32)
    coproduct(CategoryTag("abelian_group"), z32, z32)
    assert len(built) == 1
    for tag, x, y in (
        (CategoryTag("abelian_group"), z32, cyclic_group(33)),
        (CategoryTag("abelian_group"), cyclic_group(128), cyclic_group(128)),
        (CategoryTag("vector_space", 2), f2_6, f2_5),
    ):
        with pytest.raises(InputError, match="over the bound of 1048576 cells"):
            coproduct(tag, x, y)
    assert len(built) == 1


def test_boolean_coproduct_beyond_the_family_cap():
    ba8 = powerset_boolean_algebra(3)
    ba4 = powerset_boolean_algebra(2)
    cop, e_a, e_b = coproduct(CategoryTag("boolean_algebra"), ba8, ba4)
    assert cop.size == 64  # 3 x 2 atom pairs
    assert is_boolean_algebra(cop)
    assert is_homomorphism(e_a.dom, e_a.cod, e_a.mapping, "strong")
    assert is_homomorphism(e_b.dom, e_b.cod, e_b.mapping, "strong")


def test_boolean_coproduct_with_trivial_algebra_collapses():
    from algindep.zoo import _powerset_boolean

    trivial = _powerset_boolean(0)
    assert is_boolean_algebra(trivial)
    ba4 = powerset_boolean_algebra(2)
    cop, e_a, e_b = coproduct(CategoryTag("boolean_algebra"), trivial, ba4)
    assert cop.size == 1
    assert set(e_b.mapping) == {0}


def test_boolean_coproduct_embeddings_have_the_atom_pair_closed_form():
    # atom i of a powerset algebra is 1 << i, and the atom pair (i, j) is bit
    # i * |atoms(y)| + j: e_a(z) holds every pair whose first atom lies below
    # z, e_b(z) every pair whose second atom does
    from algindep.zoo import _powerset_boolean

    algebras = [_powerset_boolean(k) for k in (0, 1, 2, 3)]
    for x in algebras:
        for y in algebras:
            cop, e_a, e_b = coproduct(CategoryTag("boolean_algebra"), x, y)
            kx, ky = x.size.bit_length() - 1, y.size.bit_length() - 1
            assert e_a.mapping == tuple(
                sum(1 << (i * ky + j) for i in range(kx) if z >> i & 1 for j in range(ky))
                for z in range(x.size)
            )
            assert e_b.mapping == tuple(
                sum(1 << (i * ky + j) for j in range(ky) if z >> j & 1 for i in range(kx))
                for z in range(y.size)
            )
            for e in (e_a, e_b):
                assert is_homomorphism(e.dom, e.cod, e.mapping, "strong")


def test_group_coproduct_refused():
    with pytest.raises(InputError):
        coproduct(CategoryTag("group"), symmetric_group(3), symmetric_group(3))


def test_vector_coproduct_dimensions_add():
    f2 = vector_space(2, 1)
    f22 = vector_space(2, 2)
    cop, _, _ = coproduct(CategoryTag("vector_space", 2), f2, f22)
    assert cop.size == 8
    assert find_isomorphism(cop, vector_space(2, 3)) is not None


def test_graph_coproduct_keeps_both_edge_sets():
    p2 = graph(2, [(0, 1)])
    c3 = graph(3, [(0, 1), (1, 2), (2, 0)])
    cop, e_a, e_b = coproduct(CategoryTag("graph"), p2, c3)
    assert cop.size == 5
    assert cop.rel_tables[0] == frozenset({(0, 1), (2, 3), (3, 4), (4, 2)})


def test_canonical_quotient_is_iso_for_trivial_intersection():
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    q = canonical_quotient(z6, a, b, CategoryTag("abelian_group"))
    assert q.is_bijective()
    assert kernel(q).is_identity()


def test_canonical_quotient_collapses_overlap():
    s = empty_sig_set(3)
    a = SubUniverse(s, (0, 1))
    b = SubUniverse(s, (1, 2))
    q = canonical_quotient(s, a, b, CategoryTag("set"))
    assert q.dom.size == 4 and q.cod.size == 3
    assert set(q.mapping) == {0, 1, 2}  # surjective, necessarily non-injective
    # the kernel restricted to either embedded copy is the identity congruence
    ker = kernel(q)
    for offset, size in ((0, 2), (2, 2)):
        for i in range(offset, offset + size):
            for j in range(offset, offset + size):
                assert ker.related(i, j) == (i == j)


def test_canonical_quotient_equal_summands():
    s = empty_sig_set(3)
    a = SubUniverse(s, (0, 1))
    q = canonical_quotient(s, a, a, CategoryTag("set"))
    assert q.dom.size == 4 and set(q.mapping) == {0, 1}


def test_canonical_quotient_for_graphs():
    # overlapping copies of a directed path inside one graph
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    a = SubUniverse(g, (0, 1, 2))
    b = SubUniverse(g, (1, 2, 3))
    q = canonical_quotient(g, a, b, CategoryTag("graph"))
    assert q.dom.size == 6 and q.cod.size == 4
    assert set(q.mapping) == {0, 1, 2, 3}
    assert is_homomorphism(q.dom, q.cod, q.mapping, "weak")


def test_verify_coproduct_property_sets():
    from algindep.zoo import verify_coproduct_property

    x, y = empty_sig_set(2), empty_sig_set(1)
    cop, e_a, e_b = coproduct(CategoryTag("set"), x, y)
    targets = [empty_sig_set(1), empty_sig_set(2)]
    assert verify_coproduct_property(CategoryTag("set"), x, y, cop, e_a, e_b, targets)


def test_verify_coproduct_property_rejects_wrong_object():
    from algindep.morphisms import Homomorphism
    from algindep.zoo import verify_coproduct_property

    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    # diagonal-style embeddings of Z2 into Z4: both send the generator to 2
    e_a = Homomorphism(z2, z4, (0, 2), "strong")
    e_b = Homomorphism(z2, z4, (0, 2), "strong")
    assert not verify_coproduct_property(
        CategoryTag("abelian_group"), z2, z2, z4, e_a, e_b, [cyclic_group(2)]
    )


def test_verify_coproduct_property_rejects_non_unique_mediating_maps():
    from algindep.morphisms import Homomorphism
    from algindep.zoo import verify_coproduct_property

    # two points embedded at 0 and 1 of a three-element set: every pair of
    # maps into a two-element set has two mediating maps, one per image of 2
    x = y = empty_sig_set(1)
    cop = empty_sig_set(3)
    e_a = Homomorphism(x, cop, (0,), "strong")
    e_b = Homomorphism(y, cop, (1,), "strong")
    tag = CategoryTag("set")
    assert not verify_coproduct_property(tag, x, y, cop, e_a, e_b, [empty_sig_set(2)])
    # a one-element target leaves one mediating map per pair
    assert verify_coproduct_property(tag, x, y, cop, e_a, e_b, [empty_sig_set(1)])


def test_verify_coproduct_property_abelian():
    from algindep.zoo import verify_coproduct_property

    z2, z3 = cyclic_group(2), cyclic_group(3)
    cop, e_a, e_b = coproduct(CategoryTag("abelian_group"), z2, z3)
    targets = [cyclic_group(2), cyclic_group(3), cyclic_group(6)]
    assert verify_coproduct_property(
        CategoryTag("abelian_group"), z2, z3, cop, e_a, e_b, targets
    )


def test_rigid_search_is_deterministic_and_certified():
    g1 = random_rigid_graph(random.Random(0))
    g2 = random_rigid_graph(random.Random(0))
    assert g1 == g2
    assert is_rigid(g1)
    # rigid graphs cannot carry loops: a loop absorbs a constant map
    assert all(u != v for u, v in g1.rel_tables[0])


def test_rigid_overlapping_pair_shapes():
    parent, a, b = rigid_overlapping_pair(seed=0)
    assert set(a) & set(b) == {a[-1]}
    ia, _ = induced_substructure(parent, SubUniverse(parent, a))
    ib, _ = induced_substructure(parent, SubUniverse(parent, b))
    assert is_rigid(ia) and is_rigid(ib)
    joined, _ = join(parent, SubUniverse(parent, a), SubUniverse(parent, b))
    assert joined.members == tuple(range(parent.size))


def _cyclic_by_formula(n):
    """Z_n with FiniteStructure, past the zoo's group bound."""
    tables = {
        "e": (0,),
        "inv": tuple(-x % n for x in range(n)),
        "mul": tuple((x + y) % n for x in range(n) for y in range(n)),
    }
    return FiniteStructure(
        GROUP_SIG, n, tuple(tables[name] for name, _ in GROUP_SIG.op_symbols), ()
    )


def test_group_law_check_memory_is_quadratic():
    # a whole-array associativity check of Z256 holds 256^3 cells, over 250 MB
    z256 = _cyclic_by_formula(256)
    tracemalloc.start()
    try:
        assert is_abelian_group(z256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_group_law_check_of_z1024_is_quadratic_in_time():
    # Light's test checks Z_n's two generators 0 and 1, not all n middles
    z1024 = _cyclic_by_formula(1024)
    assert is_abelian_group(z1024)
    mul = zoo._table_array(z1024, "mul")
    assert core._generators(mul) == [0, 1]
    mul[3, 5] = 0
    assert not core._associative(mul)
