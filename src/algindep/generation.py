"""Closure computations: generated subuniverses, joins, squares, congruences.

Closures run a worklist fixpoint: each newly added element is combined with
everything found so far against every operation table, so the cost of a step
is proportional to the number of new elements times the table sizes.

Congruences use one more fact: Con(A) is a sublattice of the partition
lattice Eq(A).  The join of two congruences is the join of their partitions,
the transitive closure of their union, which ``join_partitions`` computes
with union-find and no propagation through the operations.  Consequently
Cg(X u Y) = Cg(X) v Cg(Y), and every congruence is a join of principal ones
Cg(a, b).  ``all_congruences`` uses this (Freese's method, "Computing
congruences efficiently", Algebra Universalis 59, 2008): it calls ``cg`` once
per pair of elements and then closes under partition joins with the
principal congruences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Congruence,
    FiniteStructure,
    InputError,
    SizeLimitExceeded,
    SubUniverse,
    _check_elements,
    flat_index,
)


@dataclass(frozen=True)
class DagNode:
    """One derivation step: a seed element, or an operation applied to
    previously derived elements."""

    element: int
    op: Optional[str]  # None marks a generator
    args: tuple[int, ...]
    side: Optional[str] = None  # generator provenance in joins: "a", "b", "both"


@dataclass(frozen=True)
class WitnessDag:
    """First-found derivations for every element of a closure.

    Nodes are topologically ordered: applied nodes reference only elements
    derived earlier.  Derivations are not canonical; any witness suffices.
    """

    nodes: tuple[DagNode, ...]

    def elements(self) -> tuple[int, ...]:
        return tuple(node.element for node in self.nodes)

    def generators(self) -> tuple[DagNode, ...]:
        return tuple(node for node in self.nodes if node.op is None)

    def evaluate(self, structure: FiniteStructure, leaf_images) -> dict[int, int]:
        """Re-run every derivation with generator leaves substituted.

        ``leaf_images`` maps each generator element to its replacement; applied
        nodes are recomputed bottom-up through the structure's tables.  This is
        the term-evaluation reading of the closure: each node is one term value
        on the generators.
        """
        n = structure.size
        val: dict[int, int] = {}
        for node in self.nodes:
            if node.op is None:
                val[node.element] = leaf_images[node.element]
            else:
                table = structure.op_table(node.op)
                val[node.element] = table[
                    flat_index(n, (val[a] for a in node.args))
                ]
        return val


def _run_closure(structure, seeds):
    """Worklist closure from (element, side) seeds; returns (members, nodes)."""
    ops = structure.op_views()
    in_set = [False] * structure.size
    members: list[int] = []
    nodes: list[DagNode] = []
    n = structure.size

    def add(elem, op, args, side=None):
        if not in_set[elem]:
            in_set[elem] = True
            members.append(elem)
            nodes.append(DagNode(elem, op, args, side))

    for e, side in seeds:
        add(e, None, (), side)
    for name, ar, table in ops:
        if ar == 0:
            add(table[0], name, ())
    qi = 0
    while qi < len(members):
        x = members[qi]
        qi += 1
        for name, ar, table in ops:
            if ar == 0:
                continue
            if ar == 1:
                add(table[x], name, (x,))
            elif ar == 2:
                for z in list(members):
                    add(table[x * n + z], name, (x, z))
                    add(table[z * n + x], name, (z, x))
            else:
                snapshot = list(members)
                for p in range(ar):
                    for rest in itertools.product(snapshot, repeat=ar - 1):
                        args = rest[:p] + (x,) + rest[p:]
                        add(table[flat_index(n, args)], name, args)
    return members, nodes


def close(
    structure: FiniteStructure, seed: Iterable[int]
) -> tuple[SubUniverse, WitnessDag]:
    """Smallest subuniverse containing the seed (and all constants).

    The witness DAG records one derivation per element; evaluating it with the
    identity on generators reproduces the closure.
    """
    seed = sorted(set(_check_elements(structure, seed)))
    members, nodes = _run_closure(structure, [(e, None) for e in seed])
    return SubUniverse(structure, tuple(sorted(members))), WitnessDag(tuple(nodes))


def join(
    parent: FiniteStructure, a: SubUniverse, b: SubUniverse
) -> tuple[SubUniverse, WitnessDag]:
    """The subuniverse generated by the union of two subuniverses.

    Generator nodes carry the side they came from ("a", "b", or "both").
    """
    if a.parent != parent or b.parent != parent:
        raise InputError("join requires subuniverses of the same parent structure")
    aset, bset = a.member_set(), b.member_set()
    seeds = []
    for e in sorted(aset | bset):
        side = "both" if (e in aset and e in bset) else ("a" if e in aset else "b")
        seeds.append((e, side))
    members, nodes = _run_closure(parent, seeds)
    return SubUniverse(parent, tuple(sorted(members))), WitnessDag(tuple(nodes))


def generated_subuniverse_of_square(
    parent: FiniteStructure, pairs: Iterable[tuple[int, int]]
) -> frozenset:
    """Closure of a pair set inside parent x parent, kept as pairs.

    Operations act componentwise; constants contribute their diagonal pair.
    """
    n = parent.size
    seeds = []
    for x, y in pairs:
        _check_elements(parent, (x, y))
        seeds.append((x, y))
    ops = parent.op_views()
    found: set[tuple[int, int]] = set()
    worklist: list[tuple[int, int]] = []

    def add(p):
        if p not in found:
            found.add(p)
            worklist.append(p)

    for p in sorted(set(seeds)):
        add(p)
    for name, ar, table in ops:
        if ar == 0:
            add((table[0], table[0]))
    qi = 0
    while qi < len(worklist):
        x, y = worklist[qi]
        qi += 1
        for name, ar, table in ops:
            if ar == 0:
                continue
            if ar == 1:
                add((table[x], table[y]))
            elif ar == 2:
                for u, v in list(worklist):
                    add((table[x * n + u], table[y * n + v]))
                    add((table[u * n + x], table[v * n + y]))
            else:
                snapshot = list(worklist)
                for p in range(ar):
                    for rest in itertools.product(snapshot, repeat=ar - 1):
                        xs = [r[0] for r in rest]
                        ys = [r[1] for r in rest]
                        xs[p:p] = [x]
                        ys[p:p] = [y]
                        add((table[flat_index(n, xs)], table[flat_index(n, ys)]))
    return frozenset(found)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def cg(
    structure: FiniteStructure, pairs: Iterable[tuple[int, int]]
) -> Congruence:
    """Smallest congruence containing the given pairs.

    Union-find merging with propagation: every merged pair is pushed through
    all one-variable translations of every operation, and the resulting image
    pairs are merged in turn, to a fixpoint.
    """
    n = structure.size
    uf = _UnionFind(n)
    queue: list[tuple[int, int]] = []
    for x, y in pairs:
        _check_elements(structure, (x, y))
        queue.append((x, y))
    ops = [(ar, table) for _, ar, table in structure.op_views() if ar >= 1]
    while queue:
        a, b = queue.pop()
        if not uf.union(a, b):
            continue
        for ar, table in ops:
            if ar == 1:
                queue.append((table[a], table[b]))
            elif ar == 2:
                for c in range(n):
                    queue.append((table[a * n + c], table[b * n + c]))
                    queue.append((table[c * n + a], table[c * n + b]))
            else:
                for p in range(ar):
                    for rest in itertools.product(range(n), repeat=ar - 1):
                        u = rest[:p] + (a,) + rest[p:]
                        v = rest[:p] + (b,) + rest[p:]
                        queue.append(
                            (table[flat_index(n, u)], table[flat_index(n, v)])
                        )
    return Congruence.from_assignment(uf.find(x) for x in range(n))


# Default bound on the number of congruences ``all_congruences`` may find.
# It admits every partition lattice up to 9 elements (Bell(9) = 21147).
MAX_CONGRUENCE_LATTICE = 25_000


def join_partitions(theta: Congruence, phi: Congruence) -> Congruence:
    """Join in the partition lattice: the transitive closure of theta u phi.

    On congruences of one structure this is their join in Con(A), because
    Con(A) is a sublattice of Eq(A).
    """
    if theta.size != phi.size:
        raise InputError("partitions of different sets cannot be joined")
    labels, k = theta.block_of, theta.num_blocks
    uf = _UnionFind(k)
    first: list[int] = []  # theta's label of the first element of each phi block
    for e, blk in enumerate(phi.block_of):
        if blk == len(first):
            first.append(labels[e])
        else:
            uf.union(first[blk], labels[e])
    root = [uf.find(label) for label in range(k)]
    return Congruence.from_assignment(root[label] for label in labels)


def all_congruences(structure: FiniteStructure, max_size: int = 12) -> list[Congruence]:
    """The complete congruence lattice, sorted by ``block_of``.

    Every congruence is the join of the principal congruences Cg(a, b) of
    its related pairs, and joins of congruences are joins of partitions.  So
    the distinct principal congruences are computed once, with n(n-1)/2
    ``cg`` calls, and {identity} is closed under ``join_partitions`` with
    them.  A principal Cg(a, b) is skipped for every congruence that already
    relates a and b, since the join would change nothing.

    ``max_size`` bounds the element count and ``MAX_CONGRUENCE_LATTICE`` the
    number of congruences found; exceeding either raises
    ``SizeLimitExceeded``.  Partition filtering would visit
    Bell(n) partitions whatever the lattice, so it is kept only as a test
    oracle.
    """
    n = structure.size
    if n > max_size:
        raise SizeLimitExceeded(
            f"structure size {n} exceeds the congruence lattice bound {max_size}"
        )
    identity = Congruence.identity(n)
    principals: dict[Congruence, tuple[int, int]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            principals.setdefault(cg(structure, [(a, b)]), (a, b))
    found: set[Congruence] = {identity}
    worklist = [identity]
    while worklist:
        theta = worklist.pop()
        block_of = theta.block_of
        for principal, (a, b) in principals.items():
            if block_of[a] == block_of[b]:
                continue
            joined = join_partitions(theta, principal)
            if joined not in found:
                found.add(joined)
                if len(found) > MAX_CONGRUENCE_LATTICE:
                    raise SizeLimitExceeded(
                        f"congruence lattice exceeds the lattice bound of "
                        f"{MAX_CONGRUENCE_LATTICE} congruences"
                    )
                worklist.append(joined)
    return sorted(found, key=lambda t: t.block_of)


def all_subuniverses(structure: FiniteStructure) -> list[SubUniverse]:
    """Every nonempty subuniverse, found by growing closures one generator at
    a time.  Sorted by (size, members) for reproducible iteration."""
    seen: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = []

    def register(members: tuple[int, ...]):
        if members and members not in seen:
            seen.add(members)
            frontier.append(members)

    base, _ = close(structure, ())
    register(base.members)
    for x in range(structure.size):
        sub, _ = close(structure, (x,))
        register(sub.members)
    qi = 0
    while qi < len(frontier):
        current = frontier[qi]
        qi += 1
        inside = set(current)
        for x in range(structure.size):
            if x not in inside:
                sub, _ = close(structure, current + (x,))
                register(sub.members)
    ordered = sorted(seen, key=lambda m: (len(m), m))
    return [SubUniverse(structure, m) for m in ordered]
