"""Brute-force oracles that only the tests use.

They build on the per-cell brute forces of ``algindep.reference``, which the
acceptance battery shares, and prefer exhaustive scans over cleverness: pair
closures are naive fixpoints over full re-scans, ``brute_cg`` and the
meet-irreducibles come from the filtered partitions, translation classes
come from steps read cell by cell, and homomorphisms and isomorphisms come
from filtering all maps or permutations.  The two
``reference_*_independence`` deciders rebuild the library's deciders per
pair, from ``cg`` and from forced-image propagation, so that witnesses and
``pairs_examined`` can be compared exactly.  ``cyclic_extension_subuniverses``
is plain cyclic extension through ``generation.close``: it checks that
``all_subuniverses``, which closes each subuniverse from its canonical parent
only, finds the same lattice, where the closed-subset filter cannot reach
beyond a few elements.  ``greedy_generating_sequence`` closes every element
at every level, where ``generating_sequence`` closes one per translation
class.  ``huntington_boolean_algebra``, ``group_axioms`` and
``per_law_vector_space`` check every axiom on whole arrays, where the zoo
goes through the structure theorems and Light's test.  ``brute_joint_map``
reads a joint extension off the pair closure, and ``check_joint_context``
compares the joint-extension kernel with it pair by pair.
"""

from __future__ import annotations

import itertools

import numpy as np

from algindep.core import Congruence, FiniteStructure, flat_index, validate
from algindep.zoo import BOOLEAN_SIG, GROUP_SIG, vector_space_sig
from algindep.reference import brute_close, brute_congruences, is_map_homomorphism


def brute_subuniverses(structure: FiniteStructure) -> list[tuple[int, ...]]:
    """Every nonempty subset its brute closure leaves unchanged, sorted by
    (size, members)."""
    return [
        subset
        for k in range(1, structure.size + 1)
        for subset in itertools.combinations(range(structure.size), k)
        if brute_close(structure, subset) == frozenset(subset)
    ]


def brute_pair_closure(structure: FiniteStructure, pairs, until_collision=False) -> frozenset:
    """The subuniverse of the square generated by ``pairs``, by re-reading
    every operation on every argument tuple of pairs until none is new.

    With ``until_collision`` the rounds stop once the pairs found relate an
    element to two values: the closure contains them, so it is no map
    either, and a round costs at most n^arity reads per operation."""
    found = set(pairs)
    n = structure.size
    while not (until_collision and len(dict(found)) < len(found)):
        values = {
            tuple(table[flat_index(n, [p[k] for p in combo])] for k in (0, 1))
            for _, ar, table in structure.op_views()
            for combo in itertools.product(sorted(found), repeat=ar)
        }
        if values <= found:
            break
        found |= values
    return frozenset(found)


def brute_joint_map(structure: FiniteStructure, seeds, mode="weak"):
    """The endomorphism of ``structure`` whose graph contains ``seeds``, as a
    tuple, or None: the subuniverse of the square the seeds generate must be
    the graph of a total map that respects the relations in the mode."""
    square = brute_pair_closure(structure, seeds, until_collision=True)
    images = dict(square)
    if len(images) < len(square) or len(images) < structure.size:
        return None
    g = tuple(images[x] for x in range(structure.size))
    return g if is_map_homomorphism(structure, structure, g, mode) else None


def check_joint_context(parent, a, b, mode, hom_class="all_endomorphisms") -> set:
    """Assert, for every endomorphism pair of A and B, that
    ``_JointContext.extend`` refuses exactly the pairs ``brute_joint_map``
    refuses, with the refusal ``_refusal`` names by propagation, and that
    ``gamma`` is the oracle's map on every pair that extends.  Returns the
    outcomes seen: the kind of sides, "extends", and per refusal its reason,
    or for a relation refusal (direction, whether the tuple mixes A and B)."""
    from algindep.core import induced_substructure
    from algindep.generation import join
    from algindep.morphisms import _JointContext, enumerate_endos

    ctx = _JointContext(parent, a, b, mode)
    seen = {"comparable" if ctx.comparable else "incomparable"}
    j, j_embed = induced_substructure(parent, join(parent, a, b)[0])
    pos = {e: i for i, e in enumerate(j_embed)}
    betas = list(enumerate_endos(ctx.b_struct, mode, hom_class))
    for alpha in enumerate_endos(ctx.a_struct, mode, hom_class):
        for beta in betas:
            seeds = {
                (pos[embed[x]], pos[embed[y]])
                for hom, embed in ((alpha, ctx.a_embed), (beta, ctx.b_embed))
                for x, y in enumerate(hom.mapping)
            }
            g = brute_joint_map(j, seeds, mode)
            refusal = ctx.extend(alpha, beta)
            if g is not None:
                assert refusal is None
                assert ctx.gamma(alpha, beta) == list(g)
                seen.add("extends")
                continue
            assert refusal is not None and refusal == ctx._refusal(alpha, beta)
            if refusal.reason == "relation":
                t = set(refusal.detail[1])
                mixed = not (t <= set(a.members) or t <= set(b.members))
                seen.add((refusal.detail[3], mixed))
            else:
                seen.add(refusal.reason)
    return seen


def first_relation_violation(dom, cod, images, mode="weak"):
    """First relation violation of a partial map (``None`` marks an element
    without an image), among the tuples whose entries all have images.

    Per relation: the sorted domain tuples whose image leaves the codomain
    relation ("missing"), then in strong mode every tuple over the imaged
    elements, in lexicographic order, that lies outside the domain relation
    and whose image lies inside the codomain relation ("extra").
    """
    imaged = [u for u, iv in enumerate(images) if iv is not None]
    for (name, ar), dr, cr in zip(dom.sig.rel_symbols, dom.rel_tables, cod.rel_tables):
        for t in sorted(dr):
            if all(images[v] is not None for v in t):
                image = tuple(images[v] for v in t)
                if image not in cr:
                    return (name, t, image, "missing")
        if mode == "strong":
            for t in itertools.product(imaged, repeat=ar):
                if t in dr:
                    continue
                image = tuple(images[v] for v in t)
                if image in cr:
                    return (name, t, image, "extra")
    return None


def brute_homs(dom, cod, mode="weak") -> list[tuple[int, ...]]:
    out = []
    for mapping in itertools.product(range(cod.size), repeat=dom.size):
        if is_map_homomorphism(dom, cod, mapping, mode):
            out.append(mapping)
    return out


def brute_isomorphisms(x, y, mode="strong") -> list[tuple[int, ...]]:
    """Every bijection that is a homomorphism in the mode and whose inverse
    is one too, in lexicographic order."""
    if x.size != y.size:
        return []
    return [
        perm
        for perm in itertools.permutations(range(y.size))
        if is_map_homomorphism(x, y, perm, mode)
        and is_map_homomorphism(y, x, inverse(perm), mode)
    ]


def inverse(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def brute_cg(structure, pairs) -> Congruence:
    """Smallest compatible partition containing the pairs, by filtering."""
    best = None
    for theta in brute_congruences(structure):
        if all(theta.related(a, b) for a, b in pairs):
            if best is None or _finer(theta, best):
                best = theta
    return best


def brute_translation_classes(structure, members) -> list[int]:
    """The smallest element of each element's component of two-way
    translation steps outside ``members``, cell by cell: x steps to y when a
    unary operation sends x to y, or a binary one does with its other
    argument in ``members``; x and y are joined when each steps to the
    other.  An element of ``members`` is its own class."""
    n = structure.size

    def step(x, y) -> bool:
        for _, ar, table in structure.op_views():
            if ar == 1 and table[x] == y:
                return True
            if ar == 2 and any(
                y in (table[flat_index(n, (s, x))], table[flat_index(n, (x, s))])
                for s in members
            ):
                return True
        return False

    root = list(range(n))  # each class labelled by its smallest element
    outside = [x for x in range(n) if x not in members]
    for x, y in itertools.combinations(outside, 2):
        if step(x, y) and step(y, x):
            rx, ry = root[x], root[y]
            root = [min(rx, ry) if r in (rx, ry) else r for r in root]
    return root


def brute_meet_irreducibles(structure) -> list[Congruence]:
    """The congruences of ``brute_congruences`` with exactly one upper cover,
    the covers found by pairwise comparison."""
    lattice = brute_congruences(structure)
    out = []
    for theta in lattice:
        above = [phi for phi in lattice if _finer(theta, phi)]
        covers = [phi for phi in above if not any(_finer(psi, phi) for psi in above)]
        if len(covers) == 1:
            out.append(theta)
    return out


def _finer(t1, t2):
    n = t1.size
    return all(
        t2.related(a, b)
        for a in range(n)
        for b in range(n)
        if t1.related(a, b)
    ) and t1 != t2


def element_orders(group) -> dict[int, int]:
    """Multiplicative order of every element; oracle for group isomorphy."""
    mul = group.op_table("mul")
    e = group.op_table("e")[0]
    n = group.size
    out = {}
    for x in range(n):
        power, k = x, 1
        while power != e:
            power = mul[power * n + x]
            k += 1
        out[x] = k
    return out


def reference_congruence_independence(parent, a, b, max_size=12):
    """The congruence decider as one ``cg`` call per congruence pair.

    Lattices come from partition filtering, the minimal extension of each
    pair from ``cg`` of the union of both sides' generating pairs, and the
    restriction check scans every element pair of each side in
    lexicographic order.  Verdicts, witnesses and ``pairs_examined`` must
    equal ``decide_congruence_independence``.
    """
    from algindep.core import SizeLimitExceeded, induced_substructure
    from algindep.generation import cg, join
    from algindep.independence import CongruenceWitness, Verdict

    inter = sorted(a.member_set() & b.member_set())
    if len(inter) >= 2:
        witness = CongruenceWitness(
            theta_a_blocks=tuple((e,) for e in a.members),
            theta_b_blocks=(tuple(b.members),),
            side="a",
            pair=(inter[0], inter[1]),
            wanted_related=False,
        )
        return Verdict(False, witness, 0)
    join_sub, _ = join(parent, a, b)
    if len(join_sub.members) > max_size:
        raise SizeLimitExceeded("join over the size bound")
    jstruct, jembed = induced_substructure(parent, join_sub)
    pos = {e: i for i, e in enumerate(jembed)}
    a_struct, a_embed = induced_substructure(parent, a)
    b_struct, b_embed = induced_substructure(parent, b)

    def blocks_in_parent(theta, embed):
        return tuple(tuple(embed[v] for v in block) for block in theta.blocks())

    def lifted_pairs(theta, embed):
        return [(pos[embed[u]], pos[embed[v]]) for u, v in theta.generating_pairs()]

    pairs = 0
    for theta_a in brute_congruences(a_struct):
        for theta_b in brute_congruences(b_struct):
            pairs += 1
            theta = cg(
                jstruct, lifted_pairs(theta_a, a_embed) + lifted_pairs(theta_b, b_embed)
            )
            for theta_side, embed, side in (
                (theta_a, a_embed, "a"),
                (theta_b, b_embed, "b"),
            ):
                for i, j in itertools.combinations(range(len(embed)), 2):
                    want = theta_side.related(i, j)
                    if want != theta.related(pos[embed[i]], pos[embed[j]]):
                        witness = CongruenceWitness(
                            blocks_in_parent(theta_a, a_embed),
                            blocks_in_parent(theta_b, b_embed),
                            side,
                            (embed[i], embed[j]),
                            want,
                        )
                        return Verdict(False, witness, pairs)
    return Verdict(True, None, pairs)


def reference_subalgebra_independence(
    parent, a, b, hom_class="all_endomorphisms", mode="weak"
):
    """The subalgebra decider as one forced-image propagation per pair.

    A copy of the decider before joint extensions were compiled: every
    (alpha, beta) pair, alpha-major, seeds a partial map of the join with
    both graphs and closes it under the operation tables with the library's
    ``_propagate``; a collision refuses "not-functional", and a total map is
    scanned for a relation violation in the mode.  Verdicts, witnesses and
    ``pairs_examined`` must equal ``decide_subalgebra_independence``.
    """
    from algindep.core import induced_substructure
    from algindep.generation import join
    from algindep.independence import SubalgebraWitness, Verdict
    from algindep.morphisms import (
        ExtensionRefusal,
        _PartialMap,
        _propagate,
        enumerate_endos,
    )

    join_sub, _ = join(parent, a, b)
    jstruct, jembed = induced_substructure(parent, join_sub)
    pos = {e: i for i, e in enumerate(jembed)}
    a_struct, a_embed = induced_substructure(parent, a)
    b_struct, b_embed = induced_substructure(parent, b)
    root = _PartialMap(jstruct.size)
    assert _propagate(jstruct, jstruct, root, ()) is None

    def seed_pairs(hom, embed):
        return [(pos[embed[i]], pos[embed[y]]) for i, y in enumerate(hom.mapping)]

    def relation_violation(mapping):
        for name, ar, tuples in jstruct.rel_views():
            for t in sorted(tuples):
                image = tuple(mapping[v] for v in t)
                if image not in tuples:
                    return (name, t, image, "missing")
            if mode == "strong":
                for t in itertools.product(range(jstruct.size), repeat=ar):
                    if t in tuples:
                        continue
                    image = tuple(mapping[v] for v in t)
                    if image in tuples:
                        return (name, t, image, "extra")
        return None

    def extend(alpha, beta):
        state = root.copy()
        seeds = seed_pairs(alpha, a_embed) + seed_pairs(beta, b_embed)
        conflict = _propagate(jstruct, jstruct, state, seeds)
        if conflict is not None:
            x, y1, y2 = conflict
            detail = (jembed[x], jembed[y1], jembed[y2])
            return ExtensionRefusal("not-functional", detail)
        assert None not in state.images
        violation = relation_violation(tuple(state.images))
        if violation is not None:
            name, t, image, direction = violation
            return ExtensionRefusal(
                "relation",
                (
                    name,
                    tuple(jembed[v] for v in t),
                    tuple(jembed[v] for v in image),
                    direction,
                ),
            )
        return None

    def graph_in_parent(hom, embed):
        return tuple((embed[i], embed[y]) for i, y in enumerate(hom.mapping))

    betas = list(enumerate_endos(b_struct, mode, hom_class))
    pairs = 0
    for alpha in enumerate_endos(a_struct, mode, hom_class):
        for beta in betas:
            pairs += 1
            refusal = extend(alpha, beta)
            if refusal is not None:
                witness = SubalgebraWitness(
                    graph_in_parent(alpha, a_embed),
                    graph_in_parent(beta, b_embed),
                    refusal,
                )
                return Verdict(False, witness, pairs)
    return Verdict(True, None, pairs)


def relabel(structure, perm):
    """The image of a structure under the bijection x -> perm[x]."""
    n = structure.size
    ops = []
    for name, ar, table in structure.op_views():
        image = [0] * len(table)
        for j, args in enumerate(itertools.product(range(n), repeat=ar)):
            image[flat_index(n, (perm[x] for x in args))] = perm[table[j]]
        ops.append(tuple(image))
    rels = tuple(
        frozenset(tuple(perm[v] for v in t) for t in tuples)
        for name, ar, tuples in structure.rel_views()
    )
    return FiniteStructure(structure.sig, n, tuple(ops), rels)


def cyclic_extension_subuniverses(structure):
    """Every nonempty subuniverse by cyclic extension with no close skipped:
    each subuniverse found is closed with every representative outside it.
    Sorted by (size, members), as ``all_subuniverses`` returns them.  Calls
    go through the module attribute ``generation.close``, so a test can
    count them."""
    from algindep import generation

    bottom, _ = generation.close(structure, ())
    found = {}
    reps = []
    for x in range(structure.size):
        sub, _ = generation.close(structure, (x,), base=bottom)
        if found.setdefault(sub.members, sub) is sub:
            reps.append(x)
    frontier = list(found.values())
    for current in frontier:  # grows while it is scanned
        inside = set(current.members)
        for x in reps:
            if x not in inside:
                sub, _ = generation.close(structure, (x,), base=current)
                if found.setdefault(sub.members, sub) is sub:
                    frontier.append(sub)
    return sorted(frontier, key=lambda s: (len(s.members), s.members))


def greedy_generating_sequence(structure):
    """The greedy generating set with every candidate closed: each level adds
    the element outside the current subuniverse whose closure is largest,
    the smallest on ties."""
    from algindep import generation

    current, _ = generation.close(structure, ())
    gens = []
    while len(current.members) < structure.size:
        inside = set(current.members)
        closures = [
            (len(generation.close(structure, (x,), base=current)[0].members), -x)
            for x in range(structure.size)
            if x not in inside
        ]
        _, x = max(closures)
        gens.append(-x)
        current, _ = generation.close(structure, gens)
    return tuple(gens)


def _array(structure, name):
    _, ar = structure.sig.op_symbols[structure.op_index(name)]
    return np.array(structure.op_table(name)).reshape((structure.size,) * ar)


def _associative(t) -> bool:
    return np.array_equal(t[t, :], t[:, t])


def huntington_boolean_algebra(structure) -> bool:
    """Huntington's axioms (1904): meet and join commutative, zero and one
    their identities, compl a complement, and each operation distributing
    over the other, with the n^3 gathers of distributivity whole."""
    if structure.sig != BOOLEAN_SIG or validate(structure):
        return False
    meet, vee, compl = (_array(structure, name) for name in ("meet", "join", "compl"))
    zero, one = structure.op_table("zero")[0], structure.op_table("one")[0]
    ar = np.arange(structure.size)
    x = ar[:, None, None]
    return (
        np.array_equal(meet, meet.T)
        and np.array_equal(vee, vee.T)
        and np.array_equal(vee[:, zero], ar)
        and np.array_equal(meet[:, one], ar)
        and np.all(meet[ar, compl] == zero)
        and np.all(vee[ar, compl] == one)
        and all(
            np.array_equal(f[x, g[None, :, :]], g[f[:, :, None], f[:, None, :]])
            for f, g in ((meet, vee), (vee, meet))
        )
    )


def group_axioms(structure) -> bool:
    """The group axioms on whole arrays: mul associative over all n^3
    triples at once, e a two-sided identity and inv two-sided inverses."""
    if structure.sig != GROUP_SIG or validate(structure):
        return False
    mul, inv = _array(structure, "mul"), _array(structure, "inv")
    e = structure.op_table("e")[0]
    ar = np.arange(structure.size)
    return bool(
        _associative(mul)
        and np.array_equal(mul[e, :], ar)
        and np.array_equal(mul[:, e], ar)
        and np.all(mul[ar, inv] == e)
        and np.all(mul[inv, ar] == e)
    )


def per_law_vector_space(structure, p) -> bool:
    """An abelian group under add, neg and zero, with every F_p action law
    checked for every scalar and pair of scalars: 1x = x, 0x = 0,
    c(x + y) = cx + cy, (c + d)x = cx + dx and (cd)x = c(dx)."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        return False
    if structure.sig != vector_space_sig(p) or validate(structure):
        return False
    add, neg = _array(structure, "add"), _array(structure, "neg")
    zero = structure.op_table("zero")[0]
    ar = np.arange(structure.size)
    if not (
        np.array_equal(add, add.T)
        and np.array_equal(add[:, zero], ar)
        and np.all(add[ar, neg] == zero)
        and _associative(add)
    ):
        return False
    # the scalars' tables follow add and neg in the signature
    smul = [np.array(table) for table in structure.op_tables[2 : p + 2]]
    if not (np.array_equal(smul[1], ar) and np.all(smul[0] == zero)):
        return False
    for c in range(p):
        if not np.array_equal(smul[c][add], add[smul[c][:, None], smul[c][None, :]]):
            return False
        for d in range(p):
            if not np.array_equal(add[smul[c], smul[d]], smul[(c + d) % p]):
                return False
            if not np.array_equal(smul[c][smul[d]], smul[(c * d) % p]):
                return False
    return True
