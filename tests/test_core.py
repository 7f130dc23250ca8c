import dataclasses
import pickle

import pytest

from algindep.core import (
    MAX_STRUCTURE_SIZE,
    Congruence,
    FiniteStructure,
    InputError,
    Signature,
    SubUniverse,
    direct_product,
    induced_substructure,
    is_congruence,
    is_subuniverse,
    quotient,
    validate,
)
from algindep.generation import cg
from algindep.morphisms import find_isomorphism
from algindep.reference import is_compatible
from algindep.zoo import cyclic_group, empty_sig_set, graph

from oracles import brute_isomorphisms


def test_signature_rejects_duplicates_and_bad_arities():
    with pytest.raises(InputError):
        Signature(op_symbols=(("f", 2), ("f", 1)))
    with pytest.raises(InputError):
        Signature(op_symbols=(("f", -1),))
    with pytest.raises(InputError):
        Signature(rel_symbols=(("r", 0),))


def test_validate_singleton_algebra_ok():
    sig = Signature(op_symbols=(("f", 2),))
    s = FiniteStructure(sig, 1, ((0,),), ())
    assert validate(s) == []


def test_validate_out_of_range_entry():
    sig = Signature(op_symbols=(("f", 2),))
    table = tuple(5 if i == 4 else 0 for i in range(9))
    s = FiniteStructure(sig, 3, (table,), ())
    diags = validate(s)
    assert diags and "out-of-range" in diags[0]


def test_validate_non_total_table():
    sig = Signature(op_symbols=(("f", 2),))
    s = FiniteStructure(sig, 3, ((0,) * 8,), ())
    diags = validate(s)
    assert diags and "non-total" in diags[0]


def test_validate_bounds_the_element_count():
    assert validate(FiniteStructure(Signature(), MAX_STRUCTURE_SIZE)) == []
    diags = validate(FiniteStructure(Signature(), MAX_STRUCTURE_SIZE + 1))
    assert diags == [
        f"size {MAX_STRUCTURE_SIZE + 1} exceeds the bound of {MAX_STRUCTURE_SIZE} elements"
    ]


def test_is_subuniverse_z6():
    z6 = cyclic_group(6)
    assert is_subuniverse(z6, {0, 2, 4})
    assert not is_subuniverse(z6, {0, 2})  # 2+2=4 escapes
    assert is_subuniverse(z6, range(6))
    with pytest.raises(InputError):
        is_subuniverse(z6, {0, 9})


def test_subuniverse_type_enforces_closure():
    z6 = cyclic_group(6)
    with pytest.raises(InputError):
        SubUniverse(z6, (0, 2))
    sub = SubUniverse(z6, (4, 0, 2))
    assert sub.members == (0, 2, 4)


def test_induced_substructure_z6_mod2():
    z6 = cyclic_group(6)
    sub, embed = induced_substructure(z6, SubUniverse(z6, (0, 3)))
    assert embed == (0, 3)
    # 3+3=0 makes this a two-element cyclic group
    assert sub.op("mul", 1, 1) == 0
    assert find_isomorphism(sub, cyclic_group(2)) is not None


def test_induced_substructure_full_is_identity():
    z6 = cyclic_group(6)
    sub, embed = induced_substructure(z6, SubUniverse(z6, tuple(range(6))))
    assert embed == tuple(range(6))
    assert sub == z6


def test_induced_substructure_filters_relation_tuples():
    g = graph(3, [(0, 1), (1, 2)])
    sub, embed = induced_substructure(g, SubUniverse(g, (0, 2)))
    assert embed == (0, 2)
    assert sub.rel_tables[0] == frozenset()


def test_direct_product_z2_z3_is_z6():
    product = direct_product(cyclic_group(2), cyclic_group(3))
    assert product.size == 6
    # oracle: exhaustive permutation search
    assert brute_isomorphisms(product, cyclic_group(6))
    assert find_isomorphism(product, cyclic_group(6)) is not None


def test_direct_product_with_singleton_copies_structure():
    z4 = cyclic_group(4)
    product = direct_product(z4, cyclic_group(1))
    assert find_isomorphism(product, z4) is not None


def test_direct_product_of_graphs_pairs_edges():
    chain = graph(2, [(0, 1), (1, 0)])
    product = direct_product(chain, chain)
    # pairing (i, j) -> 2i + j; one product edge per pair of factor edges
    assert product.rel_tables[0] == frozenset({(0, 3), (3, 0), (1, 2), (2, 1)})


def test_direct_product_is_bounded_before_any_cell_is_built(monkeypatch):
    from algindep import core

    class CellBuilt(Exception):
        pass

    def first_table(*args):
        raise CellBuilt

    monkeypatch.setattr(core, "_product_table", first_table)
    # Z32 x Z32, a binary table of exactly MAX_PRODUCT_CELLS cells, reaches the build
    with pytest.raises(CellBuilt):
        direct_product(cyclic_group(32), cyclic_group(32))
    complete = graph(33, [(u, v) for u in range(33) for v in range(33)])
    for x, y, message in (
        (cyclic_group(33), cyclic_group(32), "1056 elements and a table of 1115136 entries"),
        (complete, complete, "1089 elements and a table of 1185921 entries"),
        (empty_sig_set(257), empty_sig_set(256), "65792 elements, over the bound of 65536"),
    ):
        with pytest.raises(InputError, match=message):
            direct_product(x, y)


def test_direct_product_requires_matching_signature():
    with pytest.raises(InputError):
        direct_product(cyclic_group(2), empty_sig_set(2))


def test_quotient_z6_by_cg03():
    z6 = cyclic_group(6)
    theta = cg(z6, [(0, 3)])
    assert theta.blocks() == ((0, 3), (1, 4), (2, 5))
    q, block_map = quotient(z6, theta)
    assert q.size == 3
    assert block_map == (0, 1, 2, 0, 1, 2)
    assert find_isomorphism(q, cyclic_group(3)) is not None


def test_quotient_by_identity_and_full():
    z6 = cyclic_group(6)
    q_id, m = quotient(z6, Congruence.identity(6))
    assert q_id == z6 and m == tuple(range(6))
    q_full, _ = quotient(z6, Congruence.full(6))
    assert q_full.size == 1


def test_quotient_rejects_incompatible_partition():
    z6 = cyclic_group(6)
    bad = Congruence.from_blocks(6, [(0, 1), (2,), (3,), (4,), (5,)])
    assert not is_congruence(z6, bad)
    with pytest.raises(InputError, match="an operation is ill-defined on blocks"):
        quotient(z6, bad)


def test_congruence_canonical_form():
    theta = Congruence.from_assignment((7, 7, 3, 7, 3))
    assert theta.block_of == (0, 0, 1, 0, 1)
    assert theta.blocks() == ((0, 1, 3), (2, 4))
    assert theta.generating_pairs() == [(0, 1), (1, 3), (2, 4)]
    with pytest.raises(InputError):
        Congruence((1, 0))


def test_is_congruence_above_256_elements_matches_the_oracle():
    # 272 elements: numpy reads the tables at the block representatives;
    # (a, b) is a*17 + b, and a mod 4 gives the cosets of a normal subgroup
    g = direct_product(cyclic_group(16), cyclic_group(17))
    cosets = Congruence.from_assignment(x // 17 % 4 for x in range(272))
    moved = Congruence.from_assignment([1] + list(cosets.block_of[1:]))
    assert is_congruence(g, cosets) and is_compatible(g, cosets)
    assert not is_congruence(g, moved) and not is_compatible(g, moved)
    q, _ = quotient(g, cosets)
    assert q.size == 4 and q.op_table("mul") == tuple((a + b) % 4 for a in range(4) for b in range(4))


def test_quotient_relations_hold_on_any_representative():
    g = graph(4, [(0, 2)])
    theta = Congruence.from_blocks(4, [(0, 1), (2, 3)])
    q, block_map = quotient(g, theta)
    assert q.size == 2
    # (0,2) has a representative, so the block pair is an edge
    assert q.rel_tables[0] == frozenset({(0, 1)})


def test_validate_labels_length():
    s = FiniteStructure(Signature(), 3, (), (), ("a", "b"))
    diags = validate(s)
    assert diags and "labels" in diags[0]


def test_labels_do_not_affect_equality():
    a = empty_sig_set(3)
    b = FiniteStructure(a.sig, 3, (), (), ("x", "y", "z"))
    assert a == b


def test_structure_hash_is_kept_and_copies_are_hashed_afresh():
    z6 = cyclic_group(6)
    labelled = dataclasses.replace(z6, labels=tuple("abcdef"))
    assert hash(labelled) == hash(z6) == hash(cyclic_group(6))
    # a copy with other tables must not inherit the stored hash
    g = graph(3, [(0, 1)])
    assert hash(g) == hash(g)
    other = dataclasses.replace(g, rel_tables=(frozenset({(1, 2)}),))
    assert other != g
    assert hash(other) == hash(graph(3, [(1, 2)])) != hash(g)
    # the stored hash is no field and does not travel in a pickle
    assert list(dataclasses.asdict(g)) == ["sig", "size", "op_tables", "rel_tables", "labels"]
    assert "_hash" not in pickle.loads(pickle.dumps(g)).__dict__
