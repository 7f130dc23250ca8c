"""Law-style properties over randomized structures."""

import itertools
import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from algindep.core import (
    Congruence,
    FiniteStructure,
    Signature,
    SubUniverse,
    direct_product,
    flat_index,
    induced_substructure,
    is_congruence,
    is_subuniverse,
    quotient,
)
from algindep.generation import (
    all_congruences,
    all_subuniverses,
    cg,
    close,
    generated_subuniverse_of_square,
    join_partitions,
)
from algindep.independence import (
    decide_congruence_independence,
    decide_subalgebra_independence,
)
from algindep.morphisms import (
    HOM_CLASS_AUTO,
    HOM_CLASSES,
    Homomorphism,
    enumerate_endos,
    enumerate_homs,
    find_isomorphism,
    generating_sequence,
    _relation_violation,
    _rels,
    is_homomorphism,
    joint_extension,
    kernel,
)
from algindep import core, zoo
from algindep.reference import (
    all_partitions,
    brute_close,
    brute_congruence_independent,
    brute_congruences,
    brute_joint_extensions,
    is_compatible,
    is_map_homomorphism,
)
from algindep.zoo import graph

from oracles import (
    brute_cg,
    brute_homs,
    brute_isomorphisms,
    brute_meet_irreducibles,
    brute_pair_closure,
    brute_subuniverses,
    brute_translation_classes,
    check_joint_context,
    first_relation_violation,
    greedy_generating_sequence,
    huntington_boolean_algebra,
    inverse,
    per_law_vector_space,
    reference_congruence_independence,
    reference_subalgebra_independence,
    relabel,
)


SHAPES = [((2,)), ((2, 1)), ((2, 0)), ((1,)), ((2, 2)), ()]
# constants and a ternary operation, for the arity-0 and arity > 2 paths
WIDE_SHAPES = [(3,), (3, 0), (0, 0, 1), (2, 0, 3), (3, 1), (0,)]


@st.composite
def algebras(draw, max_size=6, shapes=SHAPES):
    n = draw(st.integers(1, max_size))
    shape = draw(st.sampled_from(shapes))
    ops, tables = [], []
    for i, arity in enumerate(shape):
        ops.append((f"f{i}", arity))
        cells = n**arity
        tables.append(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells)))
        )
    return FiniteStructure(Signature(tuple(ops)), n, tuple(tables), ())


@st.composite
def algebras_with_seed(draw, max_size=6, shapes=SHAPES):
    structure = draw(algebras(max_size=max_size, shapes=shapes))
    seed = draw(
        st.sets(st.integers(0, structure.size - 1), max_size=structure.size)
    )
    return structure, sorted(seed)


@st.composite
def digraphs(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n
        )
    )
    return graph(n, sorted(edges))


# zero or one operation beside relations of arity 1, 2 and 3
MIXED_OPS = [(), (0,), (1,), (2,)]
MIXED_RELS = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def _mixed_structure(draw, sig, n):
    tables = tuple(
        tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**ar, max_size=n**ar)))
        for _, ar in sig.op_symbols
    )
    rels = tuple(
        frozenset(
            draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * ar), max_size=n**ar))
        )
        for _, ar in sig.rel_symbols
    )
    return FiniteStructure(sig, n, tables, rels)


@st.composite
def mixed_structure_pairs(draw, max_size=4):
    """Two structures of one signature that mixes zero or one operation with
    unary, binary and ternary relations."""
    ops = tuple((f"f{i}", ar) for i, ar in enumerate(draw(st.sampled_from(MIXED_OPS))))
    rels = tuple((f"r{ar}", ar) for ar in draw(st.sampled_from(MIXED_RELS)))
    sig = Signature(ops, rels)
    sizes = st.integers(1, max_size)
    return _mixed_structure(draw, sig, draw(sizes)), _mixed_structure(draw, sig, draw(sizes))


@st.composite
def mixed_structures(draw, max_size=4):
    return draw(mixed_structure_pairs(max_size=max_size))[0]


@st.composite
def conservative_algebras(draw, max_size=5):
    """One binary operation with f(x, y) in {x, y}: every subset is a
    subuniverse, so incomparable sides, whose mixed products the joint
    extension must check, are common."""
    n = draw(st.integers(1, max_size))
    table = tuple(draw(st.sampled_from((x, y))) for x in range(n) for y in range(n))
    return FiniteStructure(Signature((("f", 2),)), n, (table,), ())


def _isotope_of_cyclic(draw, k):
    """A Latin square isotopic to Z_k, (x, y) -> s(p(x) + r(y) mod k) for
    drawn permutations p, r and s: a quasigroup, rarely associative."""
    p, r, t = (draw(st.permutations(range(k))) for _ in range(3))
    return [[t[(p[x] + r[y]) % k] for y in range(k)] for x in range(k)]


@st.composite
def quasigroups(draw, max_size=9):
    """Relabelled products of one or two isotopes of Z2-Z4, sometimes with a
    constant unary operation.  Every row and column of the product is a
    permutation, so every basic translation permutes or is constant: the
    case in which ``all_congruences`` reuses principal congruences."""
    orders = draw(
        st.lists(st.integers(2, 4), min_size=1, max_size=2).filter(
            lambda ks: math.prod(ks) <= max_size
        )
    )
    squares = [_isotope_of_cyclic(draw, k) for k in orders]
    elements = list(itertools.product(*map(range, orders)))
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    mul = tuple(
        index[tuple(sq[a][b] for sq, a, b in zip(squares, u, v))]
        for u in elements
        for v in elements
    )
    ops, tables = [("mul", 2)], [mul]
    if draw(st.booleans()):
        ops.append(("c", 1))
        tables.append((draw(st.integers(0, n - 1)),) * n)
    structure = FiniteStructure(Signature(tuple(ops)), n, tuple(tables), ())
    return relabel(structure, draw(st.permutations(range(n))))


@st.composite
def affine_ternaries(draw, max_size=7):
    """Z_n with the ternary operation a*x + b*y + c*z + d for units a, b, c
    of Z_n (x - y + z is the Mal'cev term), relabelled: every basic
    translation of arity 3 permutes, so ``all_congruences`` reuses the
    principal congruences of reached pairs."""
    n = draw(st.integers(1, max_size))
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    a, b, c = (draw(st.sampled_from(units)) for _ in range(3))
    d = draw(st.integers(0, n - 1))
    table = tuple(
        (a * x + b * y + c * z + d) % n for x in range(n) for y in range(n) for z in range(n)
    )
    structure = FiniteStructure(Signature((("m", 3),)), n, (table,), ())
    return relabel(structure, draw(st.permutations(range(n))))


# every layout of the basic translations: unary, binary and wider operations,
# permuting or not, beside relations
TRANSLATED = st.one_of(
    algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES),
    quasigroups(max_size=6),
    mixed_structures(),
    affine_ternaries(),
)


@given(algebras_with_seed(max_size=8))
@settings(max_examples=60, deadline=None)
def test_close_is_extensive_monotone_idempotent(data):
    structure, seed = data
    closed, _ = close(structure, seed)
    members = set(closed.members)
    assert set(seed) <= members
    assert is_subuniverse(structure, closed.members)
    again, _ = close(structure, closed.members)
    assert again.members == closed.members
    if seed:
        smaller, _ = close(structure, seed[:-1])
        assert set(smaller.members) <= members


@given(algebras_with_seed(max_size=6))
@settings(max_examples=40, deadline=None)
def test_square_of_diagonal_is_diagonal_of_closure(data):
    structure, seed = data
    square = generated_subuniverse_of_square(structure, [(e, e) for e in seed])
    closed, _ = close(structure, seed)
    assert square == frozenset((e, e) for e in closed.members)


def _late_argument_algebra():
    """t(0,0,0) = 1 and t(0,1,0) = 2, all else 0: from {0}, the element 2 is
    reached only with 1, imaged after 0, in the middle argument."""
    table = [0] * 27
    table[0], table[3] = 1, 2
    return FiniteStructure(Signature((("t", 3),)), 3, (tuple(table),), ())


@st.composite
def algebras_with_pairs(draw, max_size=4):
    structure = draw(algebras(max_size=max_size, shapes=SHAPES + WIDE_SHAPES))
    n = structure.size
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return structure, draw(st.lists(pair, max_size=4))


@st.composite
def algebras_with_seed_and_base(draw, max_size=6, shapes=SHAPES + WIDE_SHAPES):
    """A structure, a seed, and no base or the closure of another subset."""
    structure, seed = draw(algebras_with_seed(max_size=max_size, shapes=shapes))
    other = draw(st.none() | st.sets(st.integers(0, structure.size - 1)))
    return structure, seed, None if other is None else close(structure, other)[0]


@given(algebras_with_seed_and_base())
@example((_late_argument_algebra(), [0], None))
@settings(max_examples=60, deadline=None)
def test_close_matches_brute_closure(data):
    structure, seed, base = data
    closed, _ = close(structure, seed, base=base)
    inside = () if base is None else base.members
    assert frozenset(closed.members) == brute_close(structure, [*inside, *seed])


def _between_algebra():
    """f(2,1) = 3 and f(3,1) = 2, all else 0: <{0,2}, 1> is everything, and
    <{0,2}, 3> = {0,2,3} lies strictly between."""
    table = [0] * 16
    table[9], table[13] = 3, 2
    return FiniteStructure(Signature((("f", 2),)), 4, (tuple(table),), ())


def _two_chain_algebra():
    """f = (1, 1, 3, 3): the chains 0 -> 1 and 2 -> 3.  From {1}, f sends 2
    to 3 but nothing sends 3 back, and <{1}, 3> = {1, 3} lies strictly below
    <{1}, 2> = {1, 2, 3}."""
    return FiniteStructure(Signature((("f", 1),)), 4, ((1, 1, 3, 3),), ())


@given(algebras(max_size=6, shapes=SHAPES + WIDE_SHAPES) | quasigroups() | mixed_structures())
@example(_late_argument_algebra())
@example(_between_algebra())
@example(_two_chain_algebra())
@settings(max_examples=100, deadline=None)
def test_all_subuniverses_matches_closed_subset_filter(structure):
    subs = [sub.members for sub in all_subuniverses(structure)]
    assert subs == brute_subuniverses(structure)


@given(algebras(shapes=SHAPES + WIDE_SHAPES))
@settings(max_examples=60, deadline=None)
def test_generating_sequence_matches_plain_greedy_on_random_algebras(structure):
    assert generating_sequence(structure) == greedy_generating_sequence(structure)


@given(algebras_with_pairs())
@example((_late_argument_algebra(), [(0, 0), (1, 2)]))
@settings(max_examples=60, deadline=None)
def test_square_closure_matches_brute_pair_closure(data):
    structure, pairs = data
    expected = brute_pair_closure(structure, pairs)
    assert generated_subuniverse_of_square(structure, pairs) == expected


@given(algebras_with_seed_and_base())
@settings(max_examples=40, deadline=None)
def test_witness_dag_identity_evaluation(data):
    structure, seed, base = data
    closed, dag = close(structure, seed, base=base)
    # the same subuniverse without a derivation, and None in place of the DAG
    assert close(structure, seed, base=base, derivation=False) == (closed, None)
    inside = () if base is None else base.members
    gens = [*inside, *(e for e in seed if e not in inside)]
    values = dag.evaluate(structure, {e: e for e in gens})
    assert set(values) == set(closed.members)
    assert all(values[e] == e for e in values)
    # the base, then the seed outside it, are the generators; other
    # constants are nullary-op nodes
    assert [node.element for node in dag.generators()] == gens
    arity = dict(structure.sig.op_symbols)
    nullary = {node.element for node in dag.nodes if node.op and arity[node.op] == 0}
    assert set(structure.constants()) - set(gens) <= nullary


def _checked(theta: Congruence) -> Congruence:
    """The same partition built through the constructor's canonical-form check."""
    checked = Congruence(theta.block_of)
    assert checked.num_blocks == theta.num_blocks
    return checked


@given(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES), st.data())
@settings(max_examples=40, deadline=None)
def test_cg_contains_pairs_and_is_compatible(structure, data):
    n = structure.size
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4
        )
    )
    theta = cg(structure, pairs)
    assert theta == _checked(theta)
    assert all(theta.related(a, b) for a, b in pairs)
    assert is_congruence(structure, theta)


@given(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES))
@settings(max_examples=40, deadline=None)
def test_is_congruence_matches_cell_by_cell_check_on_every_partition(structure):
    for assignment in all_partitions(structure.size):
        theta = Congruence.from_assignment(assignment)
        assert is_congruence(structure, theta) == is_compatible(structure, theta)


@given(TRANSLATED)
@settings(max_examples=60, deadline=None)
def test_all_congruences_matches_partition_filter(structure):
    assert all_congruences(structure) == brute_congruences(structure)
    for a, b in itertools.combinations(range(structure.size), 2):
        assert cg(structure, [(a, b)]) == brute_cg(structure, [(a, b)])


@given(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES))
@settings(max_examples=30, deadline=None)
def test_meet_irreducibles_match_cover_count(structure):
    lattice = all_congruences(structure)
    assert list(lattice.meet_irreducibles) == brute_meet_irreducibles(structure)


@given(st.one_of(quasigroups(), affine_ternaries()))
@settings(max_examples=40, deadline=None)
def test_congruences_of_quasigroups_match_partition_filter(structure):
    # principal congruences of reached pairs are reused here, at arity 2
    # and 3, and almost never on the random SHAPES above
    from algindep import generation

    assert generation._translations_permute(structure)
    lattice = all_congruences(structure)
    assert lattice == brute_congruences(structure)
    assert list(lattice.meet_irreducibles) == brute_meet_irreducibles(structure)


@given(TRANSLATED)
@settings(max_examples=60, deadline=None)
def test_translation_classes_match_the_cell_by_cell_oracle(structure):
    from algindep import generation

    for sub in all_subuniverses(structure):
        classes = generation._translation_classes(structure, sub)
        assert classes == brute_translation_classes(structure, sub.member_set())


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(0, n - 1), min_size=n, max_size=n)] * 2)
    )
)
@settings(max_examples=60, deadline=None)
def test_join_partitions_is_canonical(labellings):
    theta, phi = map(Congruence.from_assignment, labellings)
    joined = join_partitions(theta, phi)
    assert joined == _checked(joined)
    # the transitive closure of theta u phi, merging element classes pair by pair
    classes = list(range(theta.size))
    for rel in (theta, phi):
        for a, b in rel.generating_pairs():
            ra, rb = classes[a], classes[b]
            classes = [ra if c == rb else c for c in classes]
    assert joined == Congruence.from_assignment(classes)


@given(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES), st.data())
@settings(max_examples=40, deadline=None)
def test_cg_of_union_is_partition_join(structure, data):
    n = structure.size
    pair_lists = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3
    )
    xs, ys = data.draw(pair_lists), data.draw(pair_lists)
    joined = join_partitions(cg(structure, xs), cg(structure, ys))
    assert cg(structure, xs + ys) == joined


@given(algebras(max_size=5), st.data())
@settings(max_examples=40, deadline=None)
def test_congruence_decider_matches_per_pair_cg_reference(structure, data):
    subs = all_subuniverses(structure)
    if not subs:
        return
    a = data.draw(st.sampled_from(subs))
    b = data.draw(st.sampled_from(subs))
    verdict = decide_congruence_independence(structure, a, b)
    assert verdict == reference_congruence_independence(structure, a, b)


@given(algebras(max_size=4))
@settings(max_examples=25, deadline=None)
def test_hom_enumeration_matches_map_filter(structure):
    if structure.size**structure.size > 10**4:
        return
    mine = sorted(h.mapping for h in enumerate_homs(structure, structure))
    assert mine == brute_homs(structure, structure)


@given(st.tuples(digraphs(max_size=4), digraphs(max_size=3)) | mixed_structure_pairs())
@settings(max_examples=80, deadline=None)
def test_graph_hom_enumeration_matches_map_filter(pair):
    g, h = pair
    for mode in ("weak", "strong"):
        for dom, cod in ((g, h), (g, g)):
            mine = sorted(x.mapping for x in enumerate_homs(dom, cod, mode))
            assert mine == brute_homs(dom, cod, mode)


def _maps(cod, n, partial=False):
    """Lists of n images in cod; with ``partial``, None marks no image."""
    image = st.integers(0, cod.size - 1)
    return st.lists(st.none() | image if partial else image, min_size=n, max_size=n)


@given(mixed_structure_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_is_homomorphism_matches_map_filter(pair, data):
    g, h = pair
    for dom, cod in ((g, h), (g, g)):
        mapping = tuple(data.draw(_maps(cod, dom.size)))
        for mode in ("weak", "strong"):
            expected = is_map_homomorphism(dom, cod, mapping, mode)
            assert is_homomorphism(dom, cod, mapping, mode) == expected


# associative binary laws on 0..n-1, so that Light's test passes and the
# generator-row check runs, next to the random tables that fail it
ASSOCIATIVE_LAWS = (
    lambda n, x, y: (x + y) % n,
    lambda n, x, y: x * y % n,
    lambda n, x, y: max(x, y),
    lambda n, x, y: x,
    lambda n, x, y: min(y, 1),
)


@st.composite
def algebras_of_shape(draw, shape, max_size=6):
    """An algebra with the operations of ``shape``; each binary table is
    random or one of ``ASSOCIATIVE_LAWS``."""
    n = draw(st.integers(1, max_size))
    tables = []
    for arity in shape:
        if arity == 2 and draw(st.booleans()):
            law = draw(st.sampled_from(ASSOCIATIVE_LAWS))
            tables.append(tuple(law(n, x, y) for x in range(n) for y in range(n)))
        else:
            cells = n**arity
            tables.append(
                tuple(draw(st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells)))
            )
    sig = Signature(tuple((f"f{i}", arity) for i, arity in enumerate(shape)))
    return FiniteStructure(sig, n, tuple(tables), ())


@given(st.sampled_from(SHAPES + WIDE_SHAPES).flatmap(
    lambda shape: st.tuples(algebras_of_shape(shape), algebras_of_shape(shape))
), st.data())
@settings(max_examples=80, deadline=None)
def test_is_homomorphism_matches_cell_by_cell_oracle(pair, data):
    # the generator-row and byte-table check against the cell-by-cell oracle,
    # into the domain itself and into a second algebra of the same shape, on
    # homomorphisms, on homomorphisms with one image moved and on random maps
    dom = pair[0]
    for cod in (dom, pair[1]):
        homs = [h.mapping for h in itertools.islice(enumerate_homs(dom, cod), 8)]
        maps = [tuple(data.draw(_maps(cod, dom.size)))] + homs
        for h in homs:
            x = data.draw(st.integers(0, dom.size - 1))
            maps.append(h[:x] + ((h[x] + 1) % cod.size,) + h[x + 1 :])
        for mapping in maps:
            assert is_homomorphism(dom, cod, mapping) == is_map_homomorphism(dom, cod, mapping)


@given(mixed_structure_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_relation_violation_matches_product_scan(pair, data):
    # the preimage-box walk names the violation the m**arity scan finds first
    g, h = pair
    for dom, cod in ((g, h), (g, g)):
        images = data.draw(_maps(cod, dom.size, partial=True))
        for mode in ("weak", "strong"):
            expected = first_relation_violation(dom, cod, images, mode)
            assert _relation_violation(_rels(dom, cod), images, mode) == expected


@given(algebras(max_size=6, shapes=SHAPES + WIDE_SHAPES) | mixed_structures(), st.data())
@settings(max_examples=60, deadline=None)
def test_induced_substructure_reads_the_parent_cell_by_cell(structure, data):
    seed = data.draw(st.sets(st.integers(0, structure.size - 1)))
    sub, _ = close(structure, sorted(seed), derivation=False)
    assume(sub.members)
    restricted, embed = induced_substructure(structure, sub)
    members, n = sub.members, structure.size
    pos = {e: i for i, e in enumerate(members)}
    assert embed == members and restricted.size == len(members)
    for (_, ar, table), got in zip(structure.op_views(), restricted.op_tables):
        cells = itertools.product(members, repeat=ar)
        assert got == tuple(pos[table[flat_index(n, args)]] for args in cells)
    for (_, _, tuples), got in zip(structure.rel_views(), restricted.rel_tables):
        assert got == {tuple(map(pos.get, t)) for t in tuples if set(t) <= pos.keys()}


@given(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES))
@settings(max_examples=30, deadline=None)
def test_kernels_are_congruences_and_first_isomorphism(structure):
    count = 0
    for h in enumerate_homs(structure, structure):
        theta = kernel(h)
        assert is_congruence(structure, theta)
        q, block_map = quotient(structure, theta)
        # the induced embedding of the quotient reproduces the image pointwise
        reps = {}
        for x in range(structure.size):
            reps.setdefault(block_map[x], h.mapping[x])
        embedding = tuple(reps[i] for i in range(q.size))
        assert len(set(embedding)) == q.size
        assert is_homomorphism(q, structure, embedding)
        assert all(
            embedding[block_map[x]] == h.mapping[x] for x in range(structure.size)
        )
        count += 1
        if count >= 6:
            break


@st.composite
def same_signature_pairs(draw, max_size=4):
    shape = draw(st.sampled_from([(2,), (2, 1), (2, 0), (1,), (3, 0)]))
    sig = Signature(tuple((f"f{i}", ar) for i, ar in enumerate(shape)))

    def one(n):
        tables = []
        for _, ar in sig.op_symbols:
            cells = n**ar
            tables.append(
                tuple(
                    draw(st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells))
                )
            )
        return FiniteStructure(sig, n, tuple(tables), ())

    return one(draw(st.integers(1, max_size))), one(draw(st.integers(1, max_size)))


@given(same_signature_pairs())
@settings(max_examples=25, deadline=None)
def test_product_projections_are_homomorphisms(pair):
    x, y = pair
    product = direct_product(x, y)
    proj_x = tuple(i // y.size for i in range(product.size))
    proj_y = tuple(i % y.size for i in range(product.size))
    # no relations here, so the projections are strong
    assert is_homomorphism(product, x, proj_x, "strong")
    assert is_homomorphism(product, y, proj_y, "strong")


def test_product_projections_on_graphs_weak_but_not_strong():
    chain = graph(2, [(0, 1), (1, 0)])
    product = direct_product(chain, chain)
    proj = tuple(i // 2 for i in range(4))
    assert is_homomorphism(product, chain, proj, "weak")
    assert not is_homomorphism(product, chain, proj, "strong")


@given(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES) | conservative_algebras(), st.data())
@settings(max_examples=30, deadline=None)
def test_joint_extension_agrees_with_exhaustive_search(structure, data):
    subs = all_subuniverses(structure)
    if not subs:
        return
    a = data.draw(st.sampled_from(subs))
    # incomparable sides leave mixed products to the compiled check
    inside = a.member_set()
    apart = [s for s in subs if not (s.member_set() <= inside or inside <= s.member_set())]
    b = data.draw(st.sampled_from(subs) | st.sampled_from(apart or subs))
    a_struct, _ = induced_substructure(structure, a)
    b_struct, _ = induced_substructure(structure, b)
    # pairs from the whole endomorphism streams, so that pairs the compiled
    # check refuses reach the oracle too
    alphas = list(enumerate_homs(a_struct, a_struct))
    betas = list(enumerate_homs(b_struct, b_struct))
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(alphas), st.sampled_from(betas)), min_size=1, max_size=9
        )
    )
    for alpha, beta in pairs:
        extensions = brute_joint_extensions(structure, a, b, alpha, beta, 3000)
        if extensions is None:
            continue
        gamma = joint_extension(structure, a, b, alpha, beta)
        if isinstance(gamma, Homomorphism):
            assert extensions == [gamma.mapping]
        else:
            assert extensions == []


@given(algebras(max_size=4, shapes=WIDE_SHAPES) | mixed_structures())
@settings(max_examples=40, deadline=None)
def test_joint_context_matches_the_oracle_on_every_pair(structure):
    # ternary operations take gamma's generic path, and relations of arity
    # 1 to 3 the mixed-tuple and strong checks; extend and gamma against
    # brute_joint_map on every ordered pair of subuniverses, in both modes
    subs = all_subuniverses(structure)
    for mode in ("weak", "strong"):
        for a in subs:
            for b in subs:
                check_joint_context(structure, a, b, mode)


@given(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES), st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_endomorphism_check_matches_is_homomorphism(structure, data):
    # the per-axis gathers, which is_homomorphism shares, against the
    # cell-by-cell oracle, on endomorphisms and on arbitrary maps that fix
    # the constants, as the seeds do
    from algindep import morphisms

    subs = all_subuniverses(structure)
    assume(subs)
    a = data.draw(st.sampled_from(subs))
    b = data.draw(st.sampled_from(subs))
    ctx = morphisms._JointContext(structure, a, b, "weak")
    m = ctx.jstruct.size
    endos = [list(h.mapping) for h in itertools.islice(enumerate_endos(ctx.jstruct), 20)]
    arbitrary = st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(
        lambda g: [x if y is None else y for x, y in zip(g, ctx.root.images)]
    )
    g = data.draw(st.sampled_from(endos) | arbitrary)
    assert ctx._is_endomorphism(g) == is_map_homomorphism(ctx.jstruct, ctx.jstruct, g)


@given(digraphs(max_size=4) | mixed_structures())
@settings(max_examples=60, deadline=None)
def test_automorphism_class_matches_permutation_filter(g):
    for mode in ("weak", "strong"):
        mine = [h.mapping for h in enumerate_endos(g, mode, HOM_CLASS_AUTO)]
        assert sorted(mine) == brute_isomorphisms(g, g, mode)


small_structures = st.one_of(
    algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES),
    digraphs(max_size=5),
    mixed_structures(),
)


@given(small_structures)
@settings(max_examples=40, deadline=None)
def test_automorphism_stream_is_the_filtered_endomorphism_stream(structure):
    # the searched automorphism class equals, in order, the endomorphism
    # stream filtered to bijections whose inverse respects the mode
    for mode in ("weak", "strong"):
        searched = [h.mapping for h in enumerate_endos(structure, mode, HOM_CLASS_AUTO)]
        filtered = [
            h.mapping
            for h in enumerate_homs(structure, structure, mode)
            if h.is_bijective()
            and is_homomorphism(structure, structure, inverse(h.mapping), mode)
        ]
        assert searched == filtered


@given(small_structures, st.data())
@settings(max_examples=40, deadline=None)
def test_find_isomorphism_onto_a_relabelled_copy_is_an_isomorphism(structure, data):
    perm = data.draw(st.permutations(range(structure.size)))
    moved = relabel(structure, perm)
    h = find_isomorphism(structure, moved)
    assert h is not None
    assert h.mapping in brute_isomorphisms(structure, moved)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_congruence_canonicalization_roundtrip(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 8)
    labels = [rng.randint(0, 3) for _ in range(n)]
    theta = Congruence.from_assignment(labels)
    assert theta.size == n
    rebuilt = Congruence.from_blocks(n, theta.blocks())
    assert rebuilt == theta


@st.composite
def subalgebra_instances(draw):
    """(parent, A members, B members, mode, hom class): an algebra drawn with
    constants or a ternary operation, a digraph in either mode, or a
    structure that mixes relations of arity 1 to 3 with zero or one
    operation, in either mode."""
    kind = draw(st.sampled_from(["algebra", "digraph", "mixed"]))
    if kind != "digraph":
        if kind == "algebra":
            parent = draw(algebras(max_size=4, shapes=SHAPES + WIDE_SHAPES))
            mode = "weak"
        else:
            # three elements a side keep End(A) x End(B) small
            parent = draw(mixed_structures(max_size=3))
            mode = draw(st.sampled_from(["weak", "strong"]))
        subs = all_subuniverses(parent)
        assume(subs)
        a = draw(st.sampled_from(subs)).members
        b = draw(st.sampled_from(subs)).members
    else:
        parent = draw(digraphs(max_size=5))
        # at most three vertices a side keeps End(A) x End(B) small
        subsets = st.sets(st.integers(0, parent.size - 1), min_size=1, max_size=3)
        a, b = sorted(draw(subsets)), sorted(draw(subsets))
        mode = draw(st.sampled_from(["weak", "strong"]))
    return parent, a, b, mode, draw(st.sampled_from(HOM_CLASSES))


def _decide(parent, a, b, mode, hom_class):
    return decide_subalgebra_independence(
        parent, SubUniverse(parent, a), SubUniverse(parent, b), hom_class, mode
    )


@given(subalgebra_instances())
@settings(max_examples=120, deadline=None)
def test_subalgebra_decider_matches_per_pair_propagation_reference(instance):
    parent, a, b, mode, hom_class = instance
    expected = reference_subalgebra_independence(
        parent, SubUniverse(parent, a), SubUniverse(parent, b), hom_class, mode
    )
    assert _decide(parent, a, b, mode, hom_class) == expected


@given(subalgebra_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_subalgebra_verdict_survives_relabelling(instance, data):
    parent, a, b, mode, hom_class = instance
    perm = data.draw(st.permutations(range(parent.size)))
    moved = relabel(parent, perm)
    before = _decide(parent, a, b, mode, hom_class)
    after = _decide(moved, [perm[x] for x in a], [perm[x] for x in b], mode, hom_class)
    assert after.independent == before.independent
    if before.independent:
        # |End A| * |End B| does not depend on the labels
        assert after.pairs_examined == before.pairs_examined


@given(subalgebra_instances())
@settings(max_examples=60, deadline=None)
def test_subalgebra_verdict_is_symmetric_in_a_and_b(instance):
    parent, a, b, mode, hom_class = instance
    forward = _decide(parent, a, b, mode, hom_class)
    assert _decide(parent, b, a, mode, hom_class).independent == forward.independent


@given(subalgebra_instances())
@settings(max_examples=80, deadline=None)
def test_not_functional_witness_lies_in_generated_pair_closure(instance):
    parent, a, b, mode, hom_class = instance
    verdict = _decide(parent, a, b, mode, hom_class)
    if verdict.independent or verdict.witness.refusal.reason != "not-functional":
        return
    x, y1, y2 = verdict.witness.refusal.detail
    closure = brute_pair_closure(parent, verdict.witness.alpha + verdict.witness.beta)
    assert y1 != y2 and (x, y1) in closure and (x, y2) in closure


@st.composite
def congruence_instances(draw):
    """(parent, A members, B members) over an algebra of at most five
    elements, drawn with constants or a ternary operation too."""
    parent = draw(algebras(max_size=5, shapes=SHAPES + WIDE_SHAPES))
    subs = all_subuniverses(parent)
    a = draw(st.sampled_from(subs)).members
    b = draw(st.sampled_from(subs)).members
    return parent, a, b


def _decide_congruence(parent, a, b):
    return decide_congruence_independence(
        parent, SubUniverse(parent, a), SubUniverse(parent, b)
    )


@given(congruence_instances())
@settings(max_examples=60, deadline=None)
def test_congruence_decider_matches_partition_filter(instance):
    # the battery compares the two on binary magmas only; these parents
    # also have unary, constant and ternary operations
    parent, a, b = instance
    expected = brute_congruence_independent(
        parent, SubUniverse(parent, a), SubUniverse(parent, b)
    )
    assert _decide_congruence(parent, a, b).independent == expected


@given(congruence_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_congruence_verdict_survives_relabelling(instance, data):
    parent, a, b = instance
    perm = data.draw(st.permutations(range(parent.size)))
    moved = relabel(parent, perm)
    before = _decide_congruence(parent, a, b)
    after = _decide_congruence(moved, [perm[x] for x in a], [perm[x] for x in b])
    assert after.independent == before.independent
    if before.independent:
        # |Con A| * |Con B| does not depend on the labels
        assert after.pairs_examined == before.pairs_examined


@given(congruence_instances())
@settings(max_examples=60, deadline=None)
def test_congruence_verdict_is_symmetric_in_a_and_b(instance):
    parent, a, b = instance
    forward = _decide_congruence(parent, a, b)
    assert _decide_congruence(parent, b, a).independent == forward.independent


@st.composite
def law_structures(draw):
    """Structures of the group or Boolean signature: random tables on at
    most 5 elements, or a zoo group, a powerset algebra or a relabelled BA4
    or BA5 with at most one table cell changed, so that the laws both hold
    and fail."""
    kind = draw(st.sampled_from(("random", "zoo", "relabelled")))
    if kind == "random":
        sig = draw(st.sampled_from((zoo.GROUP_SIG, zoo.BOOLEAN_SIG)))
        n = draw(st.integers(1, 5))
        tables = [
            draw(st.lists(st.integers(0, n - 1), min_size=n**ar, max_size=n**ar))
            for _, ar in sig.op_symbols
        ]
    else:
        if kind == "zoo":
            base = draw(
                st.sampled_from(
                    [zoo.cyclic_group(k) for k in range(1, 7)]
                    + [zoo.symmetric_group(3), zoo.quaternion_group()]
                    + [zoo.powerset_boolean_algebra(k) for k in range(1, 4)]
                )
            )
        else:
            base = zoo.powerset_boolean_algebra(draw(st.sampled_from((4, 5))))
            base = relabel(base, draw(st.permutations(range(base.size))))
        sig, n = base.sig, base.size
        tables = [list(t) for t in base.op_tables]
        if draw(st.booleans()):
            table = draw(st.sampled_from(tables))
            table[draw(st.integers(0, len(table) - 1))] = draw(st.integers(0, n - 1))
    return FiniteStructure(sig, n, tuple(map(tuple, tables)), ())


def _perturbed_boolean(atoms, change):
    """The powerset algebra with one meet cell changed (1 ^ 2 becomes 3
    instead of 0), one complement changed (that of 1 becomes that of 2), or
    its constants swapped."""
    ba = zoo.powerset_boolean_algebra(atoms)
    n = ba.size
    compl, vee, meet, one, zero = map(list, ba.op_tables)
    if change == "meet":
        meet[1 * n + 2] = 3
    elif change == "compl":
        compl[1] = compl[2]
    else:
        one, zero = zero, one
    return FiniteStructure(ba.sig, n, tuple(map(tuple, (compl, vee, meet, one, zero))), ())


# join(zero, 1) = zero sends both subsets of the one atom to zero, a
# homomorphism from the powerset algebra that is not onto
@example(FiniteStructure(zoo.BOOLEAN_SIG, 2, ((0, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0,), (0,)), ()))
@example(_perturbed_boolean(3, "meet"))
@example(_perturbed_boolean(3, "compl"))
@example(_perturbed_boolean(3, "constants"))
@example(_perturbed_boolean(4, "meet"))
@example(_perturbed_boolean(4, "compl"))
@example(_perturbed_boolean(4, "constants"))
@given(law_structures())
@settings(max_examples=150, deadline=None)
def test_row_wise_law_checks_match_whole_array_checks(structure):
    # the zoo checks associativity on a generating set only (Light's test)
    # and Boolean algebras through Stone's theorem; the whole-array checks
    # of every axiom are the reference
    binary = [
        zoo._table_array(structure, name) for name, ar in structure.sig.op_symbols if ar == 2
    ]
    for t in binary:
        assert core._associative(t) == np.array_equal(t[t, :], t[:, t])
    assert zoo.is_boolean_algebra(structure) == huntington_boolean_algebra(structure)


def _with_repeated_sums(group, p):
    """A group of ``zoo._group`` as a structure of the F_p-space signature,
    scalar c acting as the c-fold product x * ... * x."""
    zero, neg, add = group.op_tables
    n = group.size
    smul = [zero * n]
    for _ in range(1, p):
        smul.append(tuple(add[s * n + x] for x, s in enumerate(smul[-1])))
    return FiniteStructure(zoo.vector_space_sig(p), n, (add, neg, *smul, zero), ())


def _heisenberg(a, b):
    """Unitriangular 3 x 3 matrices over F_3 as triples: nonabelian, of
    exponent 3."""
    return (a[0] + b[0]) % 3, (a[1] + b[1]) % 3, (a[2] + b[2] + a[0] * b[1]) % 3


@st.composite
def scalar_structures(draw):
    """Structures of the F_p-space signature on at most 27 elements: F_p^d
    with p^d <= 27, or Z_n for n <= 27 or the Heisenberg group mod 3 with
    scalar c acting as the c-fold sum; relabelled, with two scalar tables
    swapped or at most one table cell changed, so that the laws both hold
    and fail."""
    kind = draw(st.sampled_from(("space", "cyclic", "heisenberg")))
    if kind == "space":
        p, d = draw(
            st.sampled_from(
                [(2, d) for d in range(1, 5)] + [(3, d) for d in range(1, 4)]
                + [(5, 1), (5, 2)] + [(q, 1) for q in (7, 11, 13, 17, 19, 23)]
            )
        )
        base = zoo.vector_space(p, d)
    else:
        p = draw(st.sampled_from((2, 3, 5, 7)))
        if kind == "cyclic":
            n = draw(st.integers(1, 27))
            elements, compose = range(n), lambda x, y: (x + y) % n
        else:
            elements, compose = list(itertools.product(range(3), repeat=3)), _heisenberg
        base = _with_repeated_sums(zoo._group(elements, compose, map(str, elements)), p)
    structure = relabel(base, draw(st.permutations(range(base.size))))
    tables = [list(t) for t in structure.op_tables]
    change = draw(st.sampled_from(("none", "swap", "cell")))
    if change == "swap":
        c, e = draw(st.lists(st.integers(2, p + 1), min_size=2, max_size=2, unique=True))
        tables[c], tables[e] = tables[e], tables[c]
    elif change == "cell":
        table = draw(st.sampled_from(tables))
        table[draw(st.integers(0, len(table) - 1))] = draw(st.integers(0, base.size - 1))
    return FiniteStructure(structure.sig, base.size, tuple(map(tuple, tables)), ()), p


@given(scalar_structures(), st.sampled_from((None, 2, 3, 5)))
@settings(max_examples=150, deadline=None)
def test_vector_space_check_matches_every_action_law(instance, other):
    # the zoo checks that scalar c acts as the c-fold sum and that the p-fold
    # sum is zero; the reference checks every action law for every pair of
    # scalars
    structure, p = instance
    for q in (p, other or p):
        assert zoo.is_vector_space(structure, q) == per_law_vector_space(structure, q)
