"""Closure computations: generated subuniverses, joins, squares, congruences.

One kernel, ``_propagate``, computes every closure.  It closes a partial map
dom -> cod under forced images: once all arguments of an operation have
images, so does its value.  ``close`` runs it on the identity map of a
structure (``join`` is ``close`` of A u B), ``generated_subuniverse_of_square``
on the identity map of X x X, and the homomorphism search of ``morphisms`` on
maps between two structures, where a collision (one element forced onto two
images) refuses the map.  Each newly imaged element is combined with
everything imaged so far against every operation table, so the cost of a
step is proportional to the number of new elements times the table sizes.  A
closure can resume from a closed base: its elements start out imaged and
already met, so only argument tuples with a new element are visited.  A
closure of the identity map cannot collide, so it stops as soon as every
element is imaged.  ``close`` records one derivation per element, a
``DagNode`` named tuple, unless its caller reads only the subuniverse and
passes ``derivation=False``.  The kernel's visit order fixes which collision
is found first, and so which witness a refused joint extension reports: the
order is part of the output, not an implementation detail.

Subuniverse lattices are built by extension along canonical paths (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998, applied to
the cyclic extension of Neubuser 1960): every subuniverse S is extended by
representatives x of distinct 1-generated subuniverses <x>, with the closure
resumed from S as its base.  Elements that translate into each other give
one extension: if a unary operation, or a binary one with an argument fixed
in S, sends x to y and another sends y back to x, then <S, x> = <S, y>, and
only the smallest representative of such a class is closed.  In groups these
classes are double cosets SxS, in vector spaces cosets x + S.  Each
subuniverse T has one canonical element L(T), the representative at which
the representatives in T, taken in increasing order, first generate T.  S is
extended only by representatives above L(S), and <S, x> is kept only when x
is its canonical element, so every subuniverse is closed from one parent
only, instead of from every maximal subuniverse below it;
``all_subuniverses`` gives the proof.

Congruences use one more fact: Con(A) is a sublattice of the partition
lattice Eq(A).  The join of two congruences is the join of their partitions,
the transitive closure of their union, which ``join_partitions`` computes
with union-find and no propagation through the operations.  Consequently
Cg(X u Y) = Cg(X) v Cg(Y), and every congruence is a join of principal ones
Cg(a, b).  ``all_congruences`` uses this (Freese's method, "Computing
congruences efficiently", Algebra Universalis 59, 2008): it computes the
principal congruences and then closes under partition joins with them.  If
theta relates a with a' and b with b', then theta v Cg(a, b) =
theta v Cg(a', b'), so each congruence is joined once per pair of its
blocks, with Cg of their first elements, or once per principal congruence
when there are no more of those.  When every basic translation, of any
arity, permutes or is constant, the pairs of distinct elements that
``cg(a, b)`` reaches are images of (a, b) under permutations whose inverses
are their powers, so they share its principal congruence and make no ``cg``
call of their own.  Lattices are memoized by the structure's value.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .core import (
    Congruence,
    FiniteStructure,
    InputError,
    SizeLimitExceeded,
    SubUniverse,
    _check_elements,
    _plan,
    flat_index,
)


class DagNode(NamedTuple):
    """One derivation step: a seed element, or an operation applied to
    previously derived elements."""

    element: int
    op: Optional[str]  # None marks a generator
    args: tuple[int, ...]


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


class _PartialMap:
    """A dom -> cod map under construction: the image of each element (None
    while unknown) and the imaged elements in the order they were reached."""

    __slots__ = ("images", "imaged")

    def __init__(self, size: int):
        self.images: list[Optional[int]] = [None] * size
        self.imaged: list[int] = []

    def copy(self) -> "_PartialMap":
        out = _PartialMap.__new__(_PartialMap)
        out.images = self.images[:]
        out.imaged = self.imaged[:]
        return out


def _propagate(dom, cod, state: _PartialMap, new_pairs, nodes=None, full=None):
    """The closure kernel: extend a partial map by every image it forces.

    The new pairs are assigned first, then each constant of ``dom`` is sent
    to the same constant of ``cod``.  Then every newly imaged element x, in
    the order it was reached, meets each operation: unary ones alone, and
    the others with x in every argument position and elements imaged so far
    (a snapshot taken per operation) in the rest.  Once all arguments have
    images, the image of the value is forced.  Returns None on success or
    (x, y1, y2) on the first collision: element x would need the distinct
    images y1 and y2.

    A subuniverse closure is this kernel run on the identity map, with
    ``cod`` = ``dom`` and each seed mapped to itself.  When ``nodes`` is a
    list, one ``DagNode`` is appended per newly imaged element: a generator
    for a new pair, the operation and its arguments otherwise.  An identity
    map cannot collide, so its closure passes ``full`` = ``dom.size`` and
    the kernel stops once every element is imaged: nothing is left to force.
    A map between structures still has collisions to find then, and passes
    no ``full``.
    """
    images, imaged = state.images, state.imaged
    nd, nc = dom.size, cod.size
    qi = len(imaged)
    ops = dom.op_views()
    cts = cod.op_tables
    seeds = [(x, y, None) for x, y in new_pairs]
    seeds += [(dt[0], cts[i][0], name) for i, (name, ar, dt) in enumerate(ops) if ar == 0]
    for v, w, name in seeds:
        cur = images[v]
        if cur is None:
            images[v] = w
            imaged.append(v)
            if nodes is not None:
                nodes.append(DagNode(v, name, ()))
        elif cur != w:
            return (v, cur, w)
    while qi < len(imaged) != full:
        x = imaged[qi]
        qi += 1
        fx = images[x]
        for i, (name, ar, dt) in enumerate(ops):
            if ar == 0:
                continue
            ct = cts[i]
            if ar == 1:
                v, w = dt[x], ct[fx]
                cur = images[v]
                if cur is None:
                    images[v] = w
                    imaged.append(v)
                    if nodes is not None:
                        nodes.append(DagNode(v, name, (x,)))
                elif cur != w:
                    return (v, cur, w)
            elif ar == 2:
                xrow, fxrow = x * nd, fx * nc
                for z in list(imaged):
                    fz = images[z]
                    v, w = dt[xrow + z], ct[fxrow + fz]
                    cur = images[v]
                    if cur is None:
                        images[v] = w
                        imaged.append(v)
                        if nodes is not None:
                            nodes.append(DagNode(v, name, (x, z)))
                    elif cur != w:
                        return (v, cur, w)
                    v, w = dt[z * nd + x], ct[fz * nc + fx]
                    cur = images[v]
                    if cur is None:
                        images[v] = w
                        imaged.append(v)
                        if nodes is not None:
                            nodes.append(DagNode(v, name, (z, x)))
                    elif cur != w:
                        return (v, cur, w)
            else:
                snapshot = list(imaged)
                for p in range(ar):
                    for rest in itertools.product(snapshot, repeat=ar - 1):
                        args = rest[:p] + (x,) + rest[p:]
                        v = dt[flat_index(nd, args)]
                        w = ct[flat_index(nc, (images[a] for a in args))]
                        cur = images[v]
                        if cur is None:
                            images[v] = w
                            imaged.append(v)
                            if nodes is not None:
                                nodes.append(DagNode(v, name, args))
                        elif cur != w:
                            return (v, cur, w)
    return None


def close(
    structure: FiniteStructure,
    seed: Iterable[int],
    *,
    base: Optional[SubUniverse] = None,
    derivation: bool = True,
) -> tuple[SubUniverse, Optional[WitnessDag]]:
    """Smallest subuniverse containing the seed, all constants and ``base``.

    With a ``base`` the kernel resumes from it instead of from nothing:
    ``base`` is closed, so every argument tuple inside it has been met, and
    only the tuples that involve a new element are visited.  The witness DAG
    lists the base's elements as generators, then the seed elements outside
    it, then one derivation per derived element; evaluating it with the
    identity on generators reproduces the closure.  With
    ``derivation=False`` no node is built and None is returned in place of
    the DAG; the subuniverse is the same.
    """
    seed = sorted(set(_check_elements(structure, seed)))
    state = _PartialMap(structure.size)
    nodes = [] if derivation else None
    if base is not None:
        if base.parent != structure:
            raise InputError("close requires a base subuniverse of the same structure")
        for e in base.members:
            state.images[e] = e
        if derivation:
            nodes.extend(DagNode(e, None, ()) for e in base.members)
        state.imaged.extend(base.members)
    _propagate(
        structure, structure, state, [(e, e) for e in seed], nodes, full=structure.size
    )
    members = tuple(sorted(state.imaged))
    sub = SubUniverse._closed(structure, members)
    return sub, WitnessDag(tuple(nodes)) if derivation else None


def join(
    parent: FiniteStructure, a: SubUniverse, b: SubUniverse
) -> tuple[SubUniverse, WitnessDag]:
    """The subuniverse generated by two subuniverses: ``close`` of A u B."""
    if a.parent != parent or b.parent != parent:
        raise InputError("join requires subuniverses of the same parent structure")
    return close(parent, a.member_set() | b.member_set())


class _SquareTable:
    """An operation table of X x X read on demand: the pair (x, y) is the
    element x * n + y, and the operation acts componentwise."""

    def __init__(self, table, n: int, arity: int):
        self.table, self.n, self.arity = table, n, arity

    def __getitem__(self, idx: int) -> int:
        n, table = self.n, self.table
        xi = yi = 0
        scale = 1
        for _ in range(self.arity):  # argument pairs, last one first
            idx, pair = divmod(idx, n * n)
            x, y = divmod(pair, n)
            xi += x * scale
            yi += y * scale
            scale *= n
        return table[xi] * n + table[yi]


def generated_subuniverse_of_square(
    parent: FiniteStructure, pairs: Iterable[tuple[int, int]]
) -> frozenset:
    """Closure of a pair set inside parent x parent, kept as pairs.

    Operations act componentwise; constants contribute their diagonal pair.
    The square's tables are read on demand, never built.
    """
    n = parent.size
    seed = set()
    for x, y in pairs:
        _check_elements(parent, (x, y))
        seed.add(x * n + y)
    tables = tuple(_SquareTable(table, n, ar) for _, ar, table in parent.op_views())
    square = FiniteStructure(parent.sig, n * n, tables)
    state = _PartialMap(square.size)
    _propagate(square, square, state, [(p, p) for p in sorted(seed)], full=square.size)
    return frozenset(divmod(p, n) for p in state.imaged)


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

    def numbering(self) -> tuple[list[int], int]:
        """Each element's class number, by first occurrence, and the class
        count.  Links point to smaller elements, so one pass suffices."""
        number: list[int] = []
        count = 0
        for x, up in enumerate(self.parent):
            if up == x:
                number.append(count)
                count += 1
            else:
                number.append(number[up])
        return number, count


def _translation_classes(structure: FiniteStructure, sub: SubUniverse) -> list[int]:
    """The smallest element of each element's class of mutually translatable
    elements outside ``sub``; an element of ``sub`` is its own class.

    A translation by S is a unary operation, or a binary one with an
    argument fixed in S: ``family[s]`` of a binary family of
    ``core._Plan.translations``.  If one sends x to y and another sends y
    back to x, then <S, x> = <S, y>, and x and y share a class; the classes
    are the connected components of these two-way steps, found by
    depth-first search from each smallest element.  A one-way step merges
    nothing, since <S, y> can lie strictly below <S, x>; other arities
    merge nothing either.
    """
    n = structure.size
    members = sub.member_set()
    images = []  # each translation by S as its image table
    for ar, family in _plan(structure).translations:
        if ar == 1:
            images += zip(*family)  # its one column
        elif ar == 2:
            images += [family[s] for s in sub.members]
    root = list(range(n))
    if not images:
        return root
    steps = [set(column) for column in zip(*images)]  # x -> its images y
    for x in range(n):
        if root[x] != x or x in members:
            continue
        stack = [x]
        while stack:
            z = stack.pop()
            for y in steps[z]:
                if root[y] == y and y > x and y not in members and z in steps[y]:
                    root[y] = x
                    stack.append(y)
    return root


def cg(
    structure: FiniteStructure, pairs: Iterable[tuple[int, int]], *, reached=None
) -> Congruence:
    """Smallest congruence containing the given pairs.

    Union-find merging with propagation: every merged pair (a, b) is pushed
    through every basic translation, as ``zip(family[a], family[b])`` for
    each family of ``core._Plan.translations``, which the structure keeps,
    and the resulting image pairs are merged in turn, to a fixpoint.  One
    loop serves every arity; unary operations are pushed first, then binary
    ones, then wider ones.

    A ``reached`` list serves as the first-in, first-out queue, so on return
    it holds every pair (p(a), p(b)) pushed for a given (a, b), p a
    composition of basic translations.
    """
    uf = _UnionFind(structure.size)
    queue: list[tuple[int, int]] = [] if reached is None else reached
    head = len(queue)
    for x, y in pairs:
        _check_elements(structure, (x, y))
        queue.append((x, y))
    families = [family for _, family in _plan(structure).translations]
    while head < len(queue):
        a, b = queue[head]
        head += 1
        if not uf.union(a, b):
            continue
        for family in families:
            queue.extend(zip(family[a], family[b]))
    number, count = uf.numbering()
    return Congruence._canonical(tuple(number), count)


# Default bound on the number of congruences ``all_congruences`` may find.
# It admits every partition lattice up to 9 elements (Bell(9) = 21147).
MAX_CONGRUENCE_LATTICE = 25_000


def join_partitions(theta: Congruence, phi: Congruence) -> Congruence:
    """Join in the partition lattice: the transitive closure of theta u phi.

    On congruences of one structure this is their join in Con(A), because
    Con(A) is a sublattice of Eq(A).  Theta's blocks are merged with
    union-find.  A root is the smallest theta label of its class and theta
    numbers its blocks by first occurrence, so numbering the roots in order
    is canonical and needs no constructor check.
    """
    labels, phi_of = theta.block_of, phi.block_of
    if len(labels) != len(phi_of):
        raise InputError("partitions of different sets cannot be joined")
    uf = _UnionFind(theta.num_blocks)
    first: list[int] = []  # theta's label of the first element of each phi block
    for label, blk in zip(labels, phi_of):
        if blk == len(first):
            first.append(label)
        else:
            uf.union(first[blk], label)
    new, count = uf.numbering()  # canonical number of each theta label
    return Congruence._canonical(tuple(map(new.__getitem__, labels)), count)


class _CongruenceLattice(list):
    """A congruence lattice as ``all_congruences`` returns it."""

    meet_irreducibles: tuple[Congruence, ...] = ()


# Bound of the lattice memo, in congruences over all its entries.
_LATTICE_MEMO_CONGRUENCES = 50_000
_lattice_memo: dict = {}  # structure -> (lattice, meet-irreducibles), oldest use first
_lattice_memo_lock = threading.Lock()


def _translations_permute(structure: FiniteStructure) -> bool:
    """Is each basic translation, of every arity, a permutation or constant?
    Each is a column of a family of ``core._Plan.translations``."""
    n = structure.size
    return all(
        len(set(translation)) in (1, n)
        for _, family in _plan(structure).translations
        for translation in zip(*family)
    )


def all_congruences(structure: FiniteStructure, max_size: int = 12) -> list[Congruence]:
    """The complete congruence lattice, sorted by ``block_of``, with its
    meet-irreducible members, in list order, as ``meet_irreducibles``.

    {identity} is closed under ``join_partitions`` with the principal
    congruences Cg(a, b), one join per pair of blocks of each congruence.
    Each Cg(a, b) takes one ``cg`` call, unless ``_translations_permute``
    holds and an earlier call reached (a, b): each pair (c, d), c != d,
    that cg(c', d') reaches is (p(c'), p(d')) for a composition p of
    permuting translations, p's inverse is a power of p, so (c', d') is
    reached from (c, d) too, and Cg(c, d) = Cg(c', d').  F2^4 takes 15
    calls instead of 120, S4 4 instead of 276, and x - y + z on Z6 3
    instead of 15.  Lattices are memoized by structure value, as
    tuples, within ``_LATTICE_MEMO_CONGRUENCES`` congruences, and each call
    returns a new list.  Exceeding ``max_size`` elements or
    ``MAX_CONGRUENCE_LATTICE`` congruences raises ``SizeLimitExceeded``, on
    a memo hit too.
    """
    n = structure.size
    if n > max_size:
        raise SizeLimitExceeded(
            f"structure size {n} exceeds the congruence lattice bound {max_size}"
        )
    with _lattice_memo_lock:
        entry = _lattice_memo.pop(structure, None)  # put back last below
    if entry is None:
        reuse = _translations_permute(structure)
        known: dict[int, Congruence] = {}  # c * n + d -> Cg(c, d)
        pair_cg: dict[tuple[int, int], Congruence] = {}
        for a in range(n):
            for b in range(a + 1, n):
                principal = known.get(a * n + b)
                if principal is None:
                    reached = [] if reuse else None
                    principal = cg(structure, [(a, b)], reached=reached)
                    for c, d in reached or ():
                        known[c * n + d] = known[d * n + c] = principal
                pair_cg[a, b] = principal
        principals: dict[Congruence, tuple[int, int]] = {}
        for pair, principal in pair_cg.items():
            principals.setdefault(principal, pair)
        # theta v Cg(a, b) = theta v Cg(a', b') when theta relates a with a'
        # and b with b', so theta is joined with Cg of the first elements of
        # each pair of its blocks, or with each principal it does not
        # contain when that is fewer: the same set of joins.  Every upper
        # cover of theta is one of them, so theta is meet-irreducible when
        # their meet lies strictly above it.
        identity = Congruence.identity(n)
        found = {identity.block_of: identity}
        irreducible: set[tuple[int, ...]] = set()
        worklist = [identity]
        while worklist:
            theta = worklist.pop()
            block_of, k = theta.block_of, theta.num_blocks
            if k * (k - 1) // 2 < len(principals):
                firsts = list(map(block_of.index, range(k)))  # first element of each block
                uppers = [pair_cg[a, b] for i, a in enumerate(firsts) for b in firsts[i + 1 :]]
            else:
                uppers = [p for p, (a, b) in principals.items() if block_of[a] != block_of[b]]
            joins = []
            for principal in uppers:
                joined = join_partitions(theta, principal)
                joins.append(joined.block_of)
                if joined.block_of not in found:
                    found[joined.block_of] = joined
                    if len(found) > MAX_CONGRUENCE_LATTICE:  # raised below
                        worklist.clear()
                        break
                    worklist.append(joined)
            # The meet's blocks are the distinct label tuples across the joins.
            if joins and len(set(zip(*joins))) < k:
                irreducible.add(block_of)
        cons = tuple(found[key] for key in sorted(found))
        entry = cons, tuple(t for t in cons if t.block_of in irreducible)
    if len(entry[0]) > MAX_CONGRUENCE_LATTICE:
        raise SizeLimitExceeded(
            f"congruence lattice exceeds the lattice bound of "
            f"{MAX_CONGRUENCE_LATTICE} congruences"
        )
    with _lattice_memo_lock:
        _lattice_memo[structure] = entry
        held = 0
        for cons, _ in _lattice_memo.values():
            held += len(cons)
        while held > _LATTICE_MEMO_CONGRUENCES:
            held -= len(_lattice_memo.pop(next(iter(_lattice_memo)))[0])
    lattice = _CongruenceLattice(entry[0])
    lattice.meet_irreducibles = entry[1]
    return lattice


def all_subuniverses(structure: FiniteStructure) -> list[SubUniverse]:
    """Every nonempty subuniverse, each closed from its canonical parent.
    Sorted by (size, members) for reproducible iteration.

    Each <x> is closed once, and the smallest x of each distinct <x> is a
    representative; R is the set of them.  Every subuniverse T is generated
    by R n T, since the representative of each x in T lies in <x>.  Its
    canonical element L(T) is the smallest r in R n T with
    <R n T n [0, r]> = T, and L(bottom) = -1, the bottom being the closure
    of nothing.  A subuniverse S found is extended by the smallest
    representative x of each translation class outside S (see
    ``_translation_classes``), and only when x > L(S).  T = <S, x> is
    accepted exactly when every representative of T below x lies in S, and
    then L(T) = x.  The bottom's extensions are the closes of the <x>.

    This finds every T exactly once (McKay's canonical construction paths,
    J. Algorithms 26, 1998).  Let S_T = <R n T n [0, L(T))>.  R n S_T and
    R n T agree below L(T), so L(S_T) < L(T), and L(T) lies outside S_T,
    which would otherwise be T.  Every y in the class of L(T) has
    <S_T, y> = T; a representative y < L(T) in T lies in S_T, so L(T) is the
    smallest representative of its class outside S_T, and its close from S_T
    is made and accepted.  Conversely, if <S, x> = T is accepted, then
    R n T below x lies in S and includes R n S up to L(S) < x, which
    generates S; so <R n T n [0, x)> = S, which misses x, and
    <R n T n [0, x]> = T: x = L(T) and S = S_T.
    """
    n = structure.size
    bottom, _ = close(structure, (), derivation=False)
    ones = [close(structure, (x,), base=bottom, derivation=False)[0] for x in range(n)]
    first: dict[tuple[int, ...], int] = {}
    for x, sub in enumerate(ones):
        first.setdefault(sub.members, x)
    reps = list(first.values())  # increasing
    is_rep = set(reps)

    def canonical(sub: SubUniverse, inside: frozenset, x: int) -> bool:
        """Does every representative of ``sub`` below x lie in ``inside``?"""
        for m in sub.members:
            if m >= x:
                return True
            if m in is_rep and m not in inside:
                return False
        return True

    inside = bottom.member_set()
    found = [(ones[x], x) for x in reps if x not in inside and canonical(ones[x], inside, x)]
    for current, low in found:  # grows while it is scanned
        members = current.member_set()
        last = max((x for x in reps if x > low and x not in members), default=None)
        if last is None:
            continue
        root = _translation_classes(structure, current)
        tried = set()  # classes whose smallest representative outside S is known
        for x in reps:
            if x > last:
                break
            if x in members or root[x] in tried:
                continue
            tried.add(root[x])
            if x > low:
                sub, _ = close(structure, (x,), base=current, derivation=False)
                if canonical(sub, members, x):
                    found.append((sub, x))
    subs = [sub for sub, _ in found]
    if bottom.members:
        subs.append(bottom)
    return sorted(subs, key=lambda s: (len(s.members), s.members))
