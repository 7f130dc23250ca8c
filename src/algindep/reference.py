"""Brute-force references that read the operation tables one cell at a time.

The acceptance battery (criteria 6, 7 and 8) and the test suite check the
library against these functions, so they take only the data types,
``flat_index`` and ``induced_substructure`` from ``core``: joins are naive
closures, maps are checked cell by cell, and congruence lattices come from
filtering every partition with the cell-by-cell compatibility check.  None
of them reads ``core``'s check plan or calls ``generation`` or ``morphisms``.
A constant is its table read on the one empty argument tuple, so no loop
here treats it apart.
"""

from __future__ import annotations

import itertools

from .core import Congruence, FiniteStructure, SubUniverse, flat_index, induced_substructure


def all_partitions(n):
    """Restricted-growth enumeration of all partitions of 0..n-1."""

    def rec(prefix, maxb):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(maxb + 2):
            yield from rec(prefix + [b], max(maxb, b))

    yield from rec([], -1)


def brute_close(structure: FiniteStructure, seed) -> frozenset:
    """The subuniverse generated by ``seed``, by re-reading every operation
    on every argument tuple of the members until no value is new."""
    members = set(seed)
    while True:
        values = {
            table[flat_index(structure.size, args)]
            for _, ar, table in structure.op_views()
            for args in itertools.product(sorted(members), repeat=ar)
        }
        if values <= members:
            return frozenset(members)
        members |= values


def is_map_homomorphism(dom, cod, mapping, mode="weak") -> bool:
    """Does the total map preserve every operation cell and every relation
    tuple, and in strong mode also reflect every relation tuple?"""
    for (_, ar, dt), ct in zip(dom.op_views(), cod.op_tables):
        for j, args in enumerate(itertools.product(range(dom.size), repeat=ar)):
            if mapping[dt[j]] != ct[flat_index(cod.size, (mapping[a] for a in args))]:
                return False
    for (_, ar, dr), cr in zip(dom.rel_views(), cod.rel_tables):
        for t in itertools.product(range(dom.size), repeat=ar):
            image = tuple(mapping[v] for v in t)
            if t in dr and image not in cr:
                return False
            if mode == "strong" and t not in dr and image in cr:
                return False
    return True


def is_compatible(structure: FiniteStructure, theta: Congruence) -> bool:
    """The cell-by-cell congruence check: per operation, every argument
    tuple's tuple of blocks determines the block of its value."""
    if theta.size != structure.size:
        return False
    block = theta.block_of
    for _, ar, table in structure.op_views():
        seen: dict[tuple[int, ...], int] = {}
        for j, args in enumerate(itertools.product(range(structure.size), repeat=ar)):
            v = block[table[j]]
            if seen.setdefault(tuple(block[a] for a in args), v) != v:
                return False
    return True


def brute_congruences(structure) -> list[Congruence]:
    """Every partition that is a congruence, sorted by ``block_of``: the
    partitions of ``all_partitions``, filtered by ``is_compatible``."""
    return [
        theta
        for theta in map(Congruence.from_assignment, all_partitions(structure.size))
        if is_compatible(structure, theta)
    ]


def _join(parent, a, b):
    """The join of the subuniverses A and B, by ``brute_close``, as a
    structure, and the position in it of each of its parent elements."""
    members = tuple(brute_close(parent, a.members + b.members))
    jstruct, jembed = induced_substructure(parent, SubUniverse(parent, members))
    return jstruct, {e: i for i, e in enumerate(jembed)}


def brute_joint_extensions(parent, a, b, alpha, beta, budget):
    """Every endomorphism of the join of A and B that restricts to the
    endomorphisms ``alpha`` of A and ``beta`` of B, in lexicographic order,
    found by trying every value at each position their graphs leave free.
    [] when alpha and beta disagree on A n B; None when there are more
    than ``budget`` candidates."""
    jstruct, pos = _join(parent, a, b)
    fixed: dict[int, int] = {}
    for sub, hom in ((a, alpha), (b, beta)):
        for i, y in enumerate(hom.mapping):
            u, v = pos[sub.members[i]], pos[sub.members[y]]
            if fixed.setdefault(u, v) != v:
                return []
    m = jstruct.size
    free = [u for u in range(m) if u not in fixed]
    if m ** len(free) > budget:
        return None
    mapping = [0] * m
    for u, v in fixed.items():
        mapping[u] = v
    found = []
    for values in itertools.product(range(m), repeat=len(free)):
        for u, v in zip(free, values):
            mapping[u] = v
        if is_map_homomorphism(jstruct, jstruct, mapping):
            found.append(tuple(mapping))
    return found


def brute_congruence_independent(parent, a, b) -> bool:
    """Is every pair of a congruence of A and one of B the pair of
    restrictions of one congruence of their join?  All three lattices come
    from ``brute_congruences``."""
    jstruct, pos = _join(parent, a, b)
    cons_j = brute_congruences(jstruct)

    def restricts(theta, local, sub):
        return all(
            theta.related(pos[x], pos[y]) == local.related(i, j)
            for (i, x), (j, y) in itertools.combinations(enumerate(sub.members), 2)
        )

    for theta_a in brute_congruences(induced_substructure(parent, a)[0]):
        for theta_b in brute_congruences(induced_substructure(parent, b)[0]):
            if not any(restricts(t, theta_a, a) and restricts(t, theta_b, b) for t in cons_j):
                return False
    return True
