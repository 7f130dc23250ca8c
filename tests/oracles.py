"""Brute-force reference implementations used only as test oracles.

Everything here prefers exhaustive scans over cleverness and shares no code
with the algorithms it is checking: closures are naive fixpoints over full
re-scans, congruence lattices come from filtering all partitions with the
cell-by-cell compatibility check, and homomorphisms and isomorphisms come
from filtering all maps or permutations.  The one exception is ``cyclic_extension_subuniverses``,
plain cyclic extension through ``generation.close``: it checks that
``all_subuniverses`` skips closes without changing its output, which the
closed-subset filter cannot reach beyond a few elements.
"""

from __future__ import annotations

import itertools

from algindep.acceptance import _all_partitions
from algindep.core import Congruence, FiniteStructure, flat_index


def brute_close(structure: FiniteStructure, seed) -> frozenset:
    members = set(seed)
    for i, (name, ar) in enumerate(structure.sig.op_symbols):
        if ar == 0:
            members.add(structure.op_tables[i][0])
    changed = True
    while changed:
        changed = False
        for i, (name, ar) in enumerate(structure.sig.op_symbols):
            if ar == 0:
                continue
            table = structure.op_tables[i]
            for args in itertools.product(sorted(members), repeat=ar):
                value = table[flat_index(structure.size, args)]
                if value not in members:
                    members.add(value)
                    changed = True
    return frozenset(members)


def brute_subuniverses(structure: FiniteStructure) -> list[tuple[int, ...]]:
    """Every nonempty subset its brute closure leaves unchanged, sorted by
    (size, members)."""
    return [
        subset
        for k in range(1, structure.size + 1)
        for subset in itertools.combinations(range(structure.size), k)
        if brute_close(structure, subset) == frozenset(subset)
    ]


def brute_pair_closure(structure: FiniteStructure, pairs) -> frozenset:
    found = set(pairs)
    for i, (name, ar) in enumerate(structure.sig.op_symbols):
        if ar == 0:
            c = structure.op_tables[i][0]
            found.add((c, c))
    n = structure.size
    changed = True
    while changed:
        changed = False
        for i, (name, ar) in enumerate(structure.sig.op_symbols):
            if ar == 0:
                continue
            table = structure.op_tables[i]
            for combo in itertools.product(sorted(found), repeat=ar):
                xs = [p[0] for p in combo]
                ys = [p[1] for p in combo]
                new = (table[flat_index(n, xs)], table[flat_index(n, ys)])
                if new not in found:
                    found.add(new)
                    changed = True
    return frozenset(found)


def is_map_homomorphism(dom, cod, mapping, mode="weak") -> bool:
    nd, nc = dom.size, cod.size
    for i, (name, ar) in enumerate(dom.sig.op_symbols):
        dt, ct = dom.op_tables[i], cod.op_tables[i]
        for j, args in enumerate(itertools.product(range(nd), repeat=ar)):
            if mapping[dt[j]] != ct[flat_index(nc, (mapping[a] for a in args))]:
                return False
    for i, (name, ar) in enumerate(dom.sig.rel_symbols):
        dr, cr = dom.rel_tables[i], cod.rel_tables[i]
        for t in itertools.product(range(nd), repeat=ar):
            image = tuple(mapping[v] for v in t)
            if t in dr and image not in cr:
                return False
            if mode == "strong" and t not in dr and image in cr:
                return False
    return True


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


def brute_isomorphisms(x, y) -> list[tuple[int, ...]]:
    if x.size != y.size:
        return []
    out = []
    for perm in itertools.permutations(range(y.size)):
        if is_map_homomorphism(x, y, perm, "strong") and is_map_homomorphism(
            y, x, _inverse(perm), "strong"
        ):
            out.append(perm)
    return out


def _inverse(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def is_compatible(structure: FiniteStructure, theta: Congruence) -> bool:
    """The cell-by-cell congruence check: per operation, every argument
    tuple's tuple of blocks determines the block of its value."""
    if theta.size != structure.size:
        return False
    block = theta.block_of
    n = structure.size
    for name, ar, table in structure.op_views():
        if ar == 0:
            continue
        seen: dict[tuple[int, ...], int] = {}
        for j, args in enumerate(itertools.product(range(n), repeat=ar)):
            key = tuple(block[a] for a in args)
            v = block[table[j]]
            if seen.setdefault(key, v) != v:
                return False
    return True


def brute_congruences(structure) -> list[Congruence]:
    """Every partition that is a congruence, sorted by ``block_of``: the
    acceptance battery's partitions, filtered by ``is_compatible``."""
    return [
        theta
        for theta in map(Congruence.from_assignment, _all_partitions(structure.size))
        if is_compatible(structure, theta)
    ]


def brute_cg(structure, pairs) -> Congruence:
    """Smallest compatible partition containing the pairs, by filtering."""
    best = None
    for theta in brute_congruences(structure):
        if all(theta.related(a, b) for a, b in pairs):
            if best is None or _finer(theta, best):
                best = theta
    return best


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
    from algindep.core import FiniteStructure

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
