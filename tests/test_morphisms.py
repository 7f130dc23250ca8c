import dataclasses
import pickle

import numpy as np
import pytest

from algindep import acceptance, core, morphisms
from algindep.core import (
    FiniteStructure,
    InputError,
    Signature,
    SubUniverse,
    direct_product,
    induced_substructure,
)
from algindep.generation import all_subuniverses, cg, generated_subuniverse_of_square, join
from algindep.morphisms import (
    ExtensionRefusal,
    HOM_CLASS_AUTO,
    Homomorphism,
    enumerate_endos,
    enumerate_homs,
    find_isomorphism,
    generating_sequence,
    is_homomorphism,
    joint_extension,
    kernel,
)
from algindep.reference import is_map_homomorphism
from algindep.zoo import (
    cyclic_group,
    dihedral_group,
    empty_sig_set,
    graph,
    powerset_boolean_algebra,
    quaternion_group,
    symmetric_group,
    vector_space,
)

from oracles import brute_homs, brute_isomorphisms, element_orders, greedy_generating_sequence
from test_generation import _LATTICE_CASES


def test_enumerate_homs_z2_group():
    z2 = cyclic_group(2)
    homs = list(enumerate_homs(z2, z2))
    assert [h.mapping for h in homs] == [(0, 0), (0, 1)]
    assert sorted(h.mapping for h in homs) == brute_homs(z2, z2)


def test_enumerate_homs_two_element_set_has_all_maps():
    s = empty_sig_set(2)
    homs = [h.mapping for h in enumerate_homs(s, s)]
    assert homs == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_homs_undirected_edge_weak_endos():
    chain = graph(2, [(0, 1), (1, 0)])
    homs = [h.mapping for h in enumerate_homs(chain, chain, "weak")]
    assert homs == brute_homs(chain, chain, "weak")
    assert len(homs) == 2  # identity and the swap; constants hit non-edges


def test_enumerate_homs_counts_match_brute_force():
    z3 = cyclic_group(3)
    z6 = cyclic_group(6)
    assert len(list(enumerate_homs(z3, z3))) == len(brute_homs(z3, z3)) == 3
    assert len(list(enumerate_homs(z3, z6))) == len(brute_homs(z3, z6))
    assert len(list(enumerate_homs(z6, z3))) == len(brute_homs(z6, z3))
    path = graph(3, [(0, 1), (1, 2)])
    assert len(list(enumerate_homs(path, path, "weak"))) == len(
        brute_homs(path, path, "weak")
    )
    assert len(list(enumerate_homs(path, path, "strong"))) == len(
        brute_homs(path, path, "strong")
    )


def test_enumerate_homs_rejects_signature_mismatch():
    with pytest.raises(InputError):
        next(enumerate_homs(cyclic_group(2), empty_sig_set(2)))


def test_enumerate_endos_automorphisms_only():
    z6 = cyclic_group(6)
    autos = [h.mapping for h in enumerate_endos(z6, hom_class=HOM_CLASS_AUTO)]
    # units of Z6: multiplication by 1 and by 5
    assert autos == [tuple(i % 6 for i in range(6)), tuple(5 * i % 6 for i in range(6))]


def test_generating_sequence_generates():
    for structure in (cyclic_group(12), symmetric_group(3), powerset_boolean_algebra(3)):
        gens = generating_sequence(structure)
        from algindep.generation import close

        sub, _ = close(structure, gens)
        assert sub.members == tuple(range(structure.size))


_SEQUENCE_CASES = {
    **_LATTICE_CASES,
    "S5": lambda: symmetric_group(5),
    "F2^5": lambda: vector_space(2, 5),
    "F2^6": lambda: vector_space(2, 6),
    "F3^3": lambda: vector_space(3, 3),
}


@pytest.mark.parametrize("name", _SEQUENCE_CASES)
def test_generating_sequence_matches_plain_greedy(name):
    structure = _SEQUENCE_CASES[name]()
    assert generating_sequence(structure) == greedy_generating_sequence(structure)


def test_generating_sequence_is_kept_and_left_out_of_a_pickle():
    s4 = symmetric_group(4)
    first = list(enumerate_endos(s4, hom_class=HOM_CLASS_AUTO))
    gens = s4.__dict__["_generating_sequence"]
    assert gens == generating_sequence(s4)
    assert list(enumerate_endos(s4, hom_class=HOM_CLASS_AUTO)) == first
    assert s4.__dict__["_generating_sequence"] is gens
    copy = pickle.loads(pickle.dumps(s4))
    assert copy == s4
    assert set(copy.__dict__) == {f.name for f in dataclasses.fields(s4)}


def test_coproduct_criterion_builds_each_generating_sequence_once(monkeypatch):
    built = []  # every structure a sequence was built for, kept alive
    original = morphisms.generating_sequence
    monkeypatch.setattr(
        morphisms, "generating_sequence", lambda s: built.append(s) or original(s)
    )
    cops = []
    build_coproduct = acceptance.coproduct
    monkeypatch.setattr(
        acceptance, "coproduct", lambda *args: cops.append(build_coproduct(*args)) or cops[-1]
    )
    assert acceptance.criterion_coproducts().passed
    assert len(cops) == 10
    # every coproduct is searched once per pair of summand maps into each
    # target, and the search reads the sequence kept on it
    assert [sum(s is cop for s in built) for cop, _, _ in cops] == [1] * len(cops)


def test_is_homomorphism_refuses_non_integer_entries():
    z2 = cyclic_group(2)
    for mapping in ((0, 1.5), ("0", 1), (0.0, 1), (0, None), (0, 1 + 0j)):
        assert not is_homomorphism(z2, z2, mapping)
    for mapping in ((0, 1), (False, True), (np.int64(0), np.int8(1)), tuple(np.arange(2))):
        assert is_homomorphism(z2, z2, mapping)
    assert not is_homomorphism(z2, z2, (np.int64(0), np.int64(2)))


def test_plan_is_built_once_and_left_out_of_a_pickle():
    z6 = cyclic_group(6)
    assert is_homomorphism(z6, z6, tuple(2 * x % 6 for x in range(6)))
    plan = z6.__dict__["_plan"]
    assert is_homomorphism(z6, z6, tuple(range(6)))
    assert z6.__dict__["_plan"] is plan
    # the basic translations are built on the same plan by the first cg call
    assert "translations" not in plan.__dict__
    cg(z6, [(0, 3)])
    families = plan.translations
    cg(z6, [(0, 2)])
    assert z6.__dict__["_plan"] is plan and plan.translations is families
    hash(z6)
    assert {"_hash", "_plan"} <= set(z6.__dict__)
    copy = pickle.loads(pickle.dumps(z6))
    assert copy == z6
    assert set(copy.__dict__) == {f.name for f in dataclasses.fields(z6)}


def _binary(n, table):
    return FiniteStructure(Signature((("f", 2),)), n, (tuple(table),), ())


def test_generator_rows_are_not_trusted_without_light_test():
    # 0 generates this magma (0*0 = 1, 1*0 = 2), and the map preserves row 0,
    # but the magma is not associative, so every row must be checked
    magma = _binary(3, (1, 2, 0, 2, 0, 0, 2, 0, 1))
    t = np.array(magma.op_tables[0]).reshape(3, 3)
    assert core._generators(t) == [0] and not core._associative(t)
    g = (2, 1, 0)
    assert all(g[t[0, x]] == t[g[0], g[x]] for x in range(3))
    assert not is_map_homomorphism(magma, magma, g)
    assert not is_homomorphism(magma, magma, g)


def test_generator_rows_need_an_associative_codomain():
    # Z3 is generated by 0 and 1; the magma agrees with Z3 on rows 0 and 1
    # only, so the identity preserves the domain's generator rows but not
    # the row of 2, which the codomain's failed Light's test leaves checked
    z3 = _binary(3, [(x + y) % 3 for x in range(3) for y in range(3)])
    magma = _binary(3, (0, 1, 2, 1, 2, 0, 1, 2, 0))
    assert not core._associative(np.array(magma.op_tables[0]).reshape(3, 3))
    assert not is_map_homomorphism(z3, magma, (0, 1, 2))
    assert not is_homomorphism(z3, magma, (0, 1, 2))


def test_plan_runs_light_test_only_when_generators_can_save_rows(monkeypatch):
    # in index order BA4's meet needs all 16 elements as generators, so its
    # rows are every row and Light's test is skipped; the join needs 5
    ba4 = dataclasses.replace(powerset_boolean_algebra(4))  # no plan kept yet
    calls = []
    light = core._associative
    monkeypatch.setattr(
        core, "_associative", lambda t, gens=None: calls.append(len(gens)) or light(t, gens)
    )
    plan = core._plan(ba4)
    names = [name for name, ar, _ in ba4.op_views() if ar > 0]
    assert {names[i]: len(gens) for i, gens in plan.rows.items()} == {"join": 5}
    assert calls == [5]
    endos = [h.mapping for h in enumerate_homs(ba4, ba4)]
    moved = [h[:x] + ((h[x] + 1) % 16,) + h[x + 1 :] for h in endos for x in (0, 7)]
    for mapping in endos + moved:
        assert is_homomorphism(ba4, ba4, mapping) == is_map_homomorphism(ba4, ba4, mapping)


def _max_chain(n):
    return _binary(n, [max(x, y) for x in range(n) for y in range(n)])


@pytest.mark.parametrize(
    "dom, cod, maps",
    [
        # F2^8: 256 elements, the byte tables; addition is XOR of the indices
        (
            direct_product(vector_space(2, 4), vector_space(2, 4)),
            None,
            [tuple(range(256)), tuple(x ^ (x >> 1) for x in range(256))],
        ),
        # Z16 x Z17: 272 elements, numpy; (a, b) is a*17 + b
        (
            direct_product(cyclic_group(16), cyclic_group(17)),
            None,
            [
                tuple(range(272)),
                tuple(3 * a % 16 * 17 + 2 * b % 17 for a in range(16) for b in range(17)),
            ],
        ),
        # 256 elements into 272: numpy, with the domain's cells read from bytes
        (
            direct_product(cyclic_group(16), cyclic_group(16)),
            direct_product(cyclic_group(16), cyclic_group(17)),
            [tuple((a + 3 * b) % 16 * 17 for a in range(16) for b in range(16))],
        ),
        (
            direct_product(_max_chain(16), _max_chain(16)),
            direct_product(_max_chain(16), _max_chain(17)),
            [tuple(a * 17 + b for a in range(16) for b in range(16))],
        ),
    ],
    ids=["F2^8", "Z16xZ17", "Z16xZ16 to Z16xZ17", "max chains 16x16 to 16x17"],
)
def test_checks_on_both_sides_of_256_elements_match_the_oracle(dom, cod, maps):
    cod = cod or dom
    assert {dom.size, cod.size} <= {256, 272}
    for mapping in maps:
        assert is_homomorphism(dom, cod, mapping)
        assert is_map_homomorphism(dom, cod, mapping)
        for x in (0, 1, dom.size - 1):
            moved = mapping[:x] + ((mapping[x] + 1) % cod.size,) + mapping[x + 1 :]
            assert is_homomorphism(dom, cod, moved) == is_map_homomorphism(dom, cod, moved)


def test_is_homomorphism_from_one_element_domain_reads_the_diagonal():
    # f(0, 0) = 0 in the point; in the codomain only 1 is idempotent
    point = _binary(1, [0])
    cod = _binary(3, [1, 0, 2, 0, 1, 2, 2, 2, 0])
    for mapping in ((0,), (1,), (2,)):
        expected = is_map_homomorphism(point, cod, mapping)
        assert is_homomorphism(point, cod, mapping) == expected
        assert expected == (mapping == (1,))


def test_is_homomorphism_into_one_element_codomain():
    point = cyclic_group(1)
    for dom in (cyclic_group(3), symmetric_group(3)):
        assert is_homomorphism(dom, point, (0,) * dom.size)
    # operations never refuse, relations still do
    loopless, looped = graph(1, []), graph(1, [(0, 0)])
    assert is_homomorphism(graph(3, []), loopless, (0, 0, 0))
    assert not is_homomorphism(graph(3, [(0, 1)]), loopless, (0, 0, 0))
    assert is_homomorphism(graph(3, [(0, 1)]), looped, (0, 0, 0), "weak")
    assert not is_homomorphism(graph(3, [(0, 1)]), looped, (0, 0, 0), "strong")


def test_is_homomorphism_on_one_element_structure_with_70_ary_operation():
    # a 70-ary stack would need 71 axes, which numpy refuses with a ValueError
    s = FiniteStructure(Signature((("f", 70),)), 1, ((0,),), ())
    assert is_homomorphism(s, s, (0,))


def test_is_homomorphism_refuses_a_wrongly_mapped_constant():
    sig = Signature((("c", 0), ("u", 1)))
    # u is the identity, so only the constant can refuse
    dom = FiniteStructure(sig, 2, ((0,), (0, 1)), ())
    cod = FiniteStructure(sig, 3, ((2,), (0, 1, 2)), ())
    for mapping in ((0, 1), (2, 1), (2, 2), (1, 2)):
        expected = is_map_homomorphism(dom, cod, mapping)
        assert is_homomorphism(dom, cod, mapping) == expected
        assert expected == (mapping[0] == 2)
    assert not is_homomorphism(dom, dom, (1, 0))
    assert not is_homomorphism(cyclic_group(3), cyclic_group(3), (1, 2, 0))


def test_kernel_of_identity_and_constant():
    z6 = cyclic_group(6)
    ident = Homomorphism(z6, z6, tuple(range(6)), "weak")
    assert kernel(ident).is_identity()
    const = Homomorphism(z6, z6, (0,) * 6, "weak")
    assert kernel(const).is_full()


def test_kernel_of_doubling_on_z6():
    z6 = cyclic_group(6)
    double = Homomorphism(z6, z6, tuple(2 * i % 6 for i in range(6)), "weak")
    assert is_homomorphism(z6, z6, double.mapping)
    assert kernel(double).blocks() == ((0, 3), (1, 4), (2, 5))


def test_joint_extension_z6_trivial_alpha_identity_beta():
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    a_struct, _ = induced_substructure(z6, a)
    b_struct, _ = induced_substructure(z6, b)
    alpha = Homomorphism(a_struct, a_struct, (0, 0), "weak")
    beta = Homomorphism(b_struct, b_struct, (0, 1, 2), "weak")
    gamma = joint_extension(z6, a, b, alpha, beta)
    assert isinstance(gamma, Homomorphism)
    # forced values: gamma(3)=0 and gamma(2)=2 determine everything
    assert gamma.mapping == (0, 4, 2, 0, 4, 2)


def test_joint_extension_identity_pair_gives_identity():
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    a_struct, _ = induced_substructure(z6, a)
    b_struct, _ = induced_substructure(z6, b)
    alpha = Homomorphism(a_struct, a_struct, (0, 1), "weak")
    beta = Homomorphism(b_struct, b_struct, (0, 1, 2), "weak")
    gamma = joint_extension(z6, a, b, alpha, beta)
    assert gamma.mapping == tuple(range(6))


def test_joint_context_invariants_raise_explicit_errors(monkeypatch, cold_memos):
    # explicit errors, not asserts, so that they also hold under python -O;
    # the join's tables are compiled once per process, so each provoked
    # invariant starts from empty memos
    from algindep import morphisms
    from algindep.generation import WitnessDag, close

    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    ctx = morphisms._JointContext(z6, a, b, "weak")
    alpha = Homomorphism(ctx.a_struct, ctx.a_struct, (0, 1), "weak")
    beta = Homomorphism(ctx.b_struct, ctx.b_struct, (0, 1, 2), "weak")
    # a compiled check that refuses an extensible pair contradicts propagation
    context = morphisms._JointContext
    monkeypatch.setattr(context, "_is_endomorphism", lambda *args: False)
    with pytest.raises(RuntimeError, match="compiled check refused"):
        ctx.extend(alpha, beta)
    monkeypatch.undo()

    def truncated_close(*args, **kwargs):
        sub, dag = close(*args, **kwargs)
        return sub, WitnessDag(dag.nodes[:-1])

    cold_memos()
    monkeypatch.setattr(morphisms, "close", truncated_close)
    with pytest.raises(RuntimeError, match="do not generate their join"):
        morphisms._JointContext(z6, a, b, "weak")
    monkeypatch.undo()
    cold_memos()
    monkeypatch.setattr(morphisms, "_propagate", lambda *args: (0, 0, 1))
    with pytest.raises(RuntimeError, match="constants do not map to themselves"):
        morphisms._JointContext(z6, a, b, "weak")


def test_joint_extension_refusal_on_overlapping_sets():
    s = empty_sig_set(3)
    a = SubUniverse(s, (0, 1))
    b = SubUniverse(s, (1, 2))
    a_struct, _ = induced_substructure(s, a)
    b_struct, _ = induced_substructure(s, b)
    swap = Homomorphism(a_struct, a_struct, (1, 0), "weak")
    ident = Homomorphism(b_struct, b_struct, (0, 1), "weak")
    refusal = joint_extension(s, a, b, swap, ident)
    assert isinstance(refusal, ExtensionRefusal)
    assert refusal.reason == "not-functional"
    assert refusal.detail[0] == 1  # the witness sits on the shared element


@pytest.mark.parametrize(
    "parent, mode",
    [
        (empty_sig_set(4), "weak"),
        (symmetric_group(3), "weak"),
        (powerset_boolean_algebra(3), "weak"),
        (graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]), "strong"),
    ],
    ids=["set4", "S3", "BA3", "two-edges"],
)
def test_disagreement_on_shared_elements_names_the_propagation_witness(parent, mode):
    # extend names a disagreement on A n B without propagation; the
    # propagation in _refusal stays the oracle for that witness
    from algindep import morphisms

    subs = all_subuniverses(parent)
    disagreeing = 0
    for a in subs:
        for b in subs:
            shared = sorted(a.member_set() & b.member_set())
            if not shared:
                continue
            ctx = morphisms._JointContext(parent, a, b, mode)
            a_index = {e: i for i, e in enumerate(ctx.a_embed)}
            b_index = {e: j for j, e in enumerate(ctx.b_embed)}
            betas = list(enumerate_endos(ctx.b_struct, mode))
            for alpha in enumerate_endos(ctx.a_struct, mode):
                for beta in betas:
                    if all(
                        ctx.a_embed[alpha.mapping[a_index[e]]]
                        == ctx.b_embed[beta.mapping[b_index[e]]]
                        for e in shared
                    ):
                        continue
                    disagreeing += 1
                    assert ctx.extend(alpha, beta) == ctx._refusal(alpha, beta)
    assert disagreeing > 0


def test_joint_extension_matches_generated_square():
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    a_struct, a_embed = induced_substructure(z6, a)
    b_struct, b_embed = induced_substructure(z6, b)
    alpha = Homomorphism(a_struct, a_struct, (0, 0), "weak")
    beta = Homomorphism(b_struct, b_struct, (0, 2, 1), "weak")
    gamma = joint_extension(z6, a, b, alpha, beta)
    seeds = [(a_embed[i], a_embed[y]) for i, y in enumerate(alpha.mapping)]
    seeds += [(b_embed[i], b_embed[y]) for i, y in enumerate(beta.mapping)]
    square = generated_subuniverse_of_square(z6, seeds)
    join_sub, _ = join(z6, a, b)
    assert isinstance(gamma, Homomorphism)
    graph_of_gamma = {
        (join_sub.members[i], join_sub.members[y])
        for i, y in enumerate(gamma.mapping)
    }
    assert square == graph_of_gamma


_Z6, _F2_3 = cyclic_group(6), vector_space(2, 3)
_TWO_EDGES = graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
_NEG6 = (0, 5, 4, 3, 2, 1)


# gamma as joint_extension returned it before extend stopped building it
@pytest.mark.parametrize(
    "parent, a, b, alpha, beta, mode, gamma",
    [
        # incomparable sides, then comparable ones with either side larger
        (_Z6, (0, 3), (0, 2, 4), (0, 1), (0, 2, 1), "weak", _NEG6),
        (_Z6, (0, 2, 4), tuple(range(6)), (0, 2, 1), _NEG6, "weak", _NEG6),
        (_Z6, tuple(range(6)), (0, 3), _NEG6, (0, 1), "weak", _NEG6),
        (_F2_3, (0, 1), (0, 2), (0, 0), (0, 1), "weak", (0, 0, 2, 2)),
        (_F2_3, (0, 1, 2, 3), (0, 3), (0, 2, 1, 3), (0, 1), "weak", (0, 2, 1, 3)),
        (_F2_3, (0, 1), (0, 2, 4, 6), (0, 1), (0, 3, 2, 1), "weak", (0, 1, 6, 7, 4, 5, 2, 3)),
        (_TWO_EDGES, (0, 1), (2, 3), (1, 0), (0, 1), "strong", (1, 0, 2, 3)),
        (_TWO_EDGES, (0, 1), (0, 1, 2, 3), (1, 0), (1, 0, 3, 2), "strong", (1, 0, 3, 2)),
    ],
)
def test_joint_extension_gamma_is_pinned(parent, a, b, alpha, beta, mode, gamma):
    a, b = SubUniverse(parent, a), SubUniverse(parent, b)
    a_struct, _ = induced_substructure(parent, a)
    b_struct, _ = induced_substructure(parent, b)
    join_struct, _ = induced_substructure(parent, join(parent, a, b)[0])
    alpha = Homomorphism(a_struct, a_struct, alpha, mode)
    beta = Homomorphism(b_struct, b_struct, beta, mode)
    assert joint_extension(parent, a, b, alpha, beta) == Homomorphism(
        join_struct, join_struct, gamma, mode
    )
    # an endpoint that is no endomorphism of its induced side
    other = empty_sig_set(5)
    foreign = Homomorphism(other, other, tuple(range(5)), mode)
    with pytest.raises(InputError, match="extension endpoints"):
        joint_extension(parent, a, b, foreign, beta)
    with pytest.raises(InputError, match="extension endpoints"):
        joint_extension(parent, a, b, alpha, foreign)


def test_joint_extension_validates_inputs():
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    a_struct, _ = induced_substructure(z6, a)
    b_struct, _ = induced_substructure(z6, b)
    not_a_hom = Homomorphism(b_struct, b_struct, (1, 0, 2), "weak")
    ident = Homomorphism(a_struct, a_struct, (0, 1), "weak")
    with pytest.raises(InputError):
        joint_extension(z6, a, b, ident, not_a_hom)


def test_joint_extension_restricts_to_inputs_and_kernels_agree():
    s3 = symmetric_group(3)
    subs = all_subuniverses(s3)
    checked = 0
    for a in subs:
        for b in subs:
            a_struct, a_embed = induced_substructure(s3, a)
            b_struct, b_embed = induced_substructure(s3, b)
            join_sub, _ = join(s3, a, b)
            pos = {e: i for i, e in enumerate(join_sub.members)}
            for alpha in enumerate_homs(a_struct, a_struct):
                for beta in enumerate_homs(b_struct, b_struct):
                    gamma = joint_extension(s3, a, b, alpha, beta)
                    if not isinstance(gamma, Homomorphism):
                        continue
                    checked += 1
                    for i, y in enumerate(alpha.mapping):
                        assert gamma.mapping[pos[a_embed[i]]] == pos[a_embed[y]]
                    for i, y in enumerate(beta.mapping):
                        assert gamma.mapping[pos[b_embed[i]]] == pos[b_embed[y]]
                    kg = kernel(gamma)
                    for embed, side in ((a_embed, alpha), (b_embed, beta)):
                        ks = kernel(side)
                        for i in range(len(embed)):
                            for j in range(len(embed)):
                                assert kg.related(
                                    pos[embed[i]], pos[embed[j]]
                                ) == ks.related(i, j)
    assert checked > 10


def test_term_formula_matches_joint_extension():
    # every join element is a term value on generators; substituting the
    # generator images of (alpha, beta) into the witness derivations must
    # reproduce the joint extension pointwise
    z6 = cyclic_group(6)
    a = SubUniverse(z6, (0, 3))
    b = SubUniverse(z6, (0, 2, 4))
    a_struct, a_embed = induced_substructure(z6, a)
    b_struct, b_embed = induced_substructure(z6, b)
    join_sub, dag = join(z6, a, b)
    pos = {e: i for i, e in enumerate(join_sub.members)}
    for alpha in enumerate_homs(a_struct, a_struct):
        for beta in enumerate_homs(b_struct, b_struct):
            gamma = joint_extension(z6, a, b, alpha, beta)
            assert isinstance(gamma, Homomorphism)
            leaves = {}
            for node in dag.generators():
                e = node.element
                if e in a_embed:
                    leaves[e] = a_embed[alpha.mapping[a_embed.index(e)]]
                else:
                    leaves[e] = b_embed[beta.mapping[b_embed.index(e)]]
            values = dag.evaluate(z6, leaves)
            for e, image in values.items():
                assert gamma.mapping[pos[e]] == pos[image]


def test_find_isomorphism_product_vs_z6():
    from algindep.core import direct_product

    product = direct_product(cyclic_group(2), cyclic_group(3))
    h = find_isomorphism(product, cyclic_group(6))
    assert h is not None
    assert is_homomorphism(h.dom, h.cod, h.mapping, "strong")
    assert h.is_bijective()


def test_find_isomorphism_z4_vs_klein_fails():
    from algindep.core import direct_product

    z4 = cyclic_group(4)
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert sorted(element_orders(z4).values()) != sorted(
        element_orders(klein).values()
    )
    assert find_isomorphism(z4, klein) is None
    assert brute_isomorphisms(z4, klein) == []


def test_find_isomorphism_identity_case():
    q8 = quaternion_group()
    h = find_isomorphism(q8, q8)
    assert h is not None


def test_find_isomorphism_distinguishes_d4_and_q8():
    assert find_isomorphism(dihedral_group(4), quaternion_group()) is None


def test_find_isomorphism_on_graphs():
    c3 = graph(3, [(0, 1), (1, 2), (2, 0)])
    c3_relabeled = graph(3, [(1, 0), (0, 2), (2, 1)])
    assert find_isomorphism(c3, c3_relabeled) is not None
    path = graph(3, [(0, 1), (1, 2)])
    assert find_isomorphism(c3, path) is None
