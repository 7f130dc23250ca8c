"""Builders for the concrete categories: sets, graphs, groups, abelian groups,
Boolean algebras, and vector spaces over prime fields, plus their finite
coproducts and the canonical surjection onto a join.

The tests run the law checks below on every structure ``build`` accepts,
and the coproducts run them on their inputs.  Associativity is checked by
Light's test in ``core._associative``; Boolean algebras and vector spaces by
their structure theorems.  Every group family is an element list, identity
first, and a composition, from which one builder reads the Cayley table and
the inverses.  Vector spaces are encoded as algebras: binary addition, unary
negation, one unary scalar symbol per field element, and the zero constant.
F_p^n is the direct power of the line F_p.  Every power and product built
here passes ``core._check_product``'s size check before anything is built.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .core import (
    MAX_STRUCTURE_SIZE,
    FiniteStructure,
    InputError,
    Signature,
    SizeLimitExceeded,
    SubUniverse,
    _associative,
    _check_product,
    _excerpt,
    _plan,
    direct_product,
    induced_substructure,
    validate,
)
from .generation import join
from .morphisms import Homomorphism, Mode, _search, enumerate_homs

SET_SIG = Signature()
GRAPH_SIG = Signature(rel_symbols=(("edge", 2),))
GROUP_SIG = Signature(op_symbols=(("e", 0), ("inv", 1), ("mul", 2)))
BOOLEAN_SIG = Signature(
    op_symbols=(("compl", 1), ("join", 2), ("meet", 2), ("one", 0), ("zero", 0))
)

CATEGORY_KINDS = (
    "set",
    "graph",
    "abelian_group",
    "group",
    "boolean_algebra",
    "vector_space",
)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


@dataclass(frozen=True)
class CategoryTag:
    """Which concrete category a structure was built for."""

    kind: str
    field_prime: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in CATEGORY_KINDS:
            raise InputError(f"unknown category {self.kind!r}")
        if self.kind == "vector_space":
            if self.field_prime is None or not _is_prime(self.field_prime):
                raise InputError("vector_space needs a prime field size >= 2")
        elif self.field_prime is not None:
            raise InputError(f"category {self.kind!r} takes no field prime")


def vector_space_sig(p: int) -> Signature:
    width = max(2, len(str(p - 1)))  # so the names sort in signature order
    ops = [("add", 2), ("neg", 1)]
    ops += [(f"smul{c:0{width}d}", 1) for c in range(p)]
    ops.append(("zero", 0))
    return Signature(op_symbols=tuple(ops))


# ---------------------------------------------------------------------------
# law checks
# ---------------------------------------------------------------------------

def _table_array(structure, name):
    _, ar = structure.sig.op_symbols[structure.op_index(name)]
    t = np.array(structure.op_table(name), dtype=np.int64)
    return t.reshape((structure.size,) * ar) if ar else t


def _group_laws(mul, inv, e) -> bool:
    """Is ``mul`` associative, with identity ``e`` and inverses ``inv``?"""
    ar = np.arange(len(mul))
    if not (np.array_equal(mul[e, :], ar) and np.array_equal(mul[:, e], ar)):
        return False
    if not (np.all(mul[ar, inv] == e) and np.all(mul[inv, ar] == e)):
        return False
    return _associative(mul)


def is_group(structure: FiniteStructure) -> bool:
    """Signature shape is e/inv/mul and the group laws hold."""
    if structure.sig != GROUP_SIG or validate(structure):
        return False
    mul = _table_array(structure, "mul")
    return _group_laws(mul, _table_array(structure, "inv"), structure.op_table("e")[0])


def is_abelian_group(structure: FiniteStructure) -> bool:
    if not is_group(structure):
        return False
    mul = _table_array(structure, "mul")
    return bool(np.array_equal(mul, mul.T))


def is_boolean_algebra(structure: FiniteStructure) -> bool:
    """Stone: a finite Boolean algebra is the powerset of its k atoms.  So
    exactly when n = 2^k and phi, sending a set S of atoms (bit i for
    ``_atoms(structure)[i]``) to their join, is a bijection that carries
    S ^ full, S | T, S & T, full and 0 on bit sets to the structure's
    operations: an isomorphism from the powerset algebra, never built."""
    if structure.sig != BOOLEAN_SIG or validate(structure):
        return False
    atoms = _atoms(structure)
    n = structure.size
    if 1 << len(atoms) != n:
        return False
    vee = structure.op_table("join")
    phi = list(structure.op_table("zero"))  # so phi(0) is zero
    for a in atoms:
        phi += [vee[x * n + a] for x in phi]
    if len(set(phi)) != n:
        return False
    compl, union, meet = _plan(structure).lines  # in signature order
    phi, s, full = np.array(phi, dtype=np.intp), np.arange(n), n - 1
    at = np.ix_(phi, phi)
    return bool(
        structure.op_table("one")[0] == phi[full]
        and np.array_equal(compl[0].take(phi), phi.take(s ^ full))
        and np.array_equal(union[at], phi.take(s[:, None] | s))
        and np.array_equal(meet[at], phi.take(s[:, None] & s))
    )


def is_vector_space(structure: FiniteStructure, p: int) -> bool:
    """An abelian group of exponent p with c.x the c-fold sum x + ... + x:
    the action forced in an F_p-space, under which every abelian group of
    exponent p is one.  The symbol count is compared first, so that a huge
    p costs no primality test."""
    if len(structure.sig.op_symbols) != p + 3 or not _is_prime(p):
        return False
    if structure.sig != vector_space_sig(p) or validate(structure):
        return False
    add = _table_array(structure, "add")
    zero = structure.op_table("zero")[0]
    if not (np.array_equal(add, add.T) and _group_laws(add, _table_array(structure, "neg"), zero)):
        return False
    ar = np.arange(structure.size)
    multiple = np.full(structure.size, zero)
    # the scalars' tables, 0 to p - 1, follow add and neg in the signature
    for smul in structure.op_tables[2 : p + 2]:
        if not np.array_equal(smul, multiple):
            return False
        multiple = add[multiple, ar]
    return bool(np.all(multiple == zero))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _check_size(n: int, what: str) -> None:
    if n > MAX_STRUCTURE_SIZE:
        raise InputError(f"{what} are built with at most {MAX_STRUCTURE_SIZE} elements")


def empty_sig_set(n: int) -> FiniteStructure:
    if n < 1:
        raise InputError("a set structure needs at least one element")
    _check_size(n, "set structures")
    return FiniteStructure(SET_SIG, n, (), (), tuple(str(i) for i in range(n)))


def graph(n: int, edges: Iterable[tuple[int, int]]) -> FiniteStructure:
    if n < 1:
        raise InputError("a graph needs at least one vertex")
    _check_size(n, "graphs")
    table = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for {n} vertices")
        table.add((u, v))
    return FiniteStructure(GRAPH_SIG, n, (), (frozenset(table),))


# Largest order of a cyclic or dihedral group: the table has order**2 cells.
MAX_GROUP_ORDER = 128


def _group(elements, compose, labels) -> FiniteStructure:
    """The group on ``elements``, listed identity first, under ``compose``:
    ``mul[i*n + j]`` is the index of ``compose(elements[i], elements[j])``,
    and ``inv[i]`` is the position of the identity 0 in row i."""
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    mul = tuple(index[compose(x, y)] for x in elements for y in elements)
    inv = tuple(mul[i * n:(i + 1) * n].index(0) for i in range(n))
    return FiniteStructure(GROUP_SIG, n, ((0,), inv, mul), (), tuple(labels))


def cyclic_group(n: int) -> FiniteStructure:
    if not (1 <= n <= MAX_GROUP_ORDER):
        raise InputError(f"cyclic groups are built for orders 1 to {MAX_GROUP_ORDER}")
    return _group(range(n), lambda a, b: (a + b) % n, map(str, range(n)))


def permutations_of(n: int) -> list[tuple[int, ...]]:
    """Canonical element order of the symmetric group: lexicographic one-line
    notation, identity first."""
    return sorted(itertools.permutations(range(n)))


def permutation_index(n: int, perm: Iterable[int]) -> int:
    """Index of a one-line permutation in the canonical order."""
    target = tuple(perm)
    perms = permutations_of(n)
    try:
        return perms.index(target)
    except ValueError:
        raise InputError(f"{target} is not a permutation of 0..{n - 1}") from None


def _cycle_label(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(v + 1) for v in cycle) + ")")
    return "".join(parts) if parts else "e"


def symmetric_group(n: int) -> FiniteStructure:
    """S_n on ``permutations_of(n)``; p*q is p after q, k -> p[q[k]]."""
    if not (1 <= n <= 5):
        raise InputError("symmetric groups are built for 1 <= n <= 5")
    perms = permutations_of(n)
    return _group(perms, lambda p, q: tuple(p[k] for k in q), map(_cycle_label, perms))


def dihedral_group(n: int) -> FiniteStructure:
    """Order 2n: indices 0..n-1 are rotations r^k, n..2n-1 are reflections s.r^k."""
    if not (1 <= 2 * n <= MAX_GROUP_ORDER):
        raise InputError(
            f"dihedral groups are built for parameters 1 to {MAX_GROUP_ORDER // 2}"
        )
    elements = [(f, k) for f in (0, 1) for k in range(n)]

    def compose(x, y):
        (f1, a), (f2, b) = x, y
        return (f1 ^ f2, ((-a if f2 else a) + b) % n)

    return _group(elements, compose, (f"sr{k}" if f else f"r{k}" for f, k in elements))


_QUATERNION_AXIS = {
    (1, 2): (0, 3), (2, 1): (1, 3),
    (2, 3): (0, 1), (3, 2): (1, 1),
    (3, 1): (0, 2), (1, 3): (1, 2),
}


def quaternion_group() -> FiniteStructure:
    """Q8 with elements 1, i, j, k, -1, -i, -j, -k in that order."""

    def mult(x, y):
        sx, ax = divmod(x, 4)
        sy, ay = divmod(y, 4)
        sign = sx ^ sy
        if ax == 0:
            axis = ay
        elif ay == 0:
            axis = ax
        elif ax == ay:
            sign ^= 1
            axis = 0
        else:
            s, axis = _QUATERNION_AXIS[(ax, ay)]
            sign ^= s
        return sign * 4 + axis

    return _group(range(8), mult, ("1", "i", "j", "k", "-1", "-i", "-j", "-k"))


def _powerset_boolean(atoms: int) -> FiniteStructure:
    n = 1 << atoms
    full = n - 1
    meet = [x & y for x in range(n) for y in range(n)]
    vee = [x | y for x in range(n) for y in range(n)]
    compl = [x ^ full for x in range(n)]

    def label(x):
        members = [str(i + 1) for i in range(atoms) if x >> i & 1]
        return "{" + ",".join(members) + "}"

    return FiniteStructure(
        BOOLEAN_SIG,
        n,
        (tuple(compl), tuple(vee), tuple(meet), (full,), (0,)),
        (),
        tuple(label(x) for x in range(n)),
    )


def _check_power(sig: Signature, base: int, exp: int) -> None:
    """Refuse base**exp elements as ``_check_product`` refuses a product,
    one power at a time: for base >= 2 within a few steps, whatever exp."""
    n = 1
    for _ in range(exp):
        n *= base
        _check_product(sig, n)


def powerset_boolean_algebra(atoms: int) -> FiniteStructure:
    """Subsets of a k-element atom set, encoded as bitmasks."""
    if atoms < 1:
        raise InputError("powerset Boolean algebras are built for atoms >= 1")
    _check_power(BOOLEAN_SIG, 2, atoms)
    return _powerset_boolean(atoms)


def vector_space(p: int, dim: int) -> FiniteStructure:
    """F_p^dim, the direct power of the line F_p: elements are encoded base
    p, most significant coordinate first, and labelled by their coordinates.
    Its size is checked, with its additive group's arities, before p is
    tested for primality."""
    if dim < 1:
        raise InputError("vector spaces are built for dim >= 1")
    if p >= 2:  # a smaller p is refused below, before its powers are taken
        _check_power(GROUP_SIG, p, dim)
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    line = FiniteStructure(
        vector_space_sig(p),
        p,
        (
            tuple((x + y) % p for x in range(p) for y in range(p)),
            tuple(-x % p for x in range(p)),
            *(tuple(c * x % p for x in range(p)) for c in range(p)),
            (0,),
        ),
    )
    space = functools.reduce(direct_product, [line] * dim)
    labels = tuple(
        "(" + ",".join(map(str, cs)) + ")"
        for cs in itertools.product(range(p), repeat=dim)
    )
    return replace(space, labels=labels)


def _parse_int(value, what):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be an integer, got {_excerpt(value)}") from None


def _parse_edges(edges) -> list[tuple[int, int]]:
    if isinstance(edges, str):
        if not edges.strip():
            return []
        out = []
        for part in edges.split(","):
            u, _, v = part.partition("-")
            out.append((_parse_int(u, "edge endpoint"), _parse_int(v, "edge endpoint")))
        return out
    return [(int(u), int(v)) for u, v in edges]


# every family ``build`` knows: its builder, its parameters as error
# messages name them, and the category kind of what it builds
_FAMILIES = {
    "empty_sig_set": (empty_sig_set, ("size",), "set"),
    "cyclic_group": (cyclic_group, ("order",), "abelian_group"),
    "symmetric_group": (symmetric_group, ("degree",), "group"),
    "dihedral_group": (dihedral_group, ("parameter",), "group"),
    "quaternion_group": (quaternion_group, (), "group"),
    "powerset_boolean_algebra": (
        powerset_boolean_algebra, ("atom count",), "boolean_algebra"
    ),
    "vector_space": (vector_space, ("field size", "dimension"), "vector_space"),
    "graph": (graph, ("vertex count", "edges"), "graph"),
}


def build(family: str, *params) -> tuple[FiniteStructure, CategoryTag]:
    """Construct a named structure family from parameters checked here."""
    if family not in _FAMILIES:
        raise InputError(f"unknown structure family {_excerpt(family)}")
    builder, names, kind = _FAMILIES[family]
    if len(params) != len(names):
        raise InputError(
            f"{family} takes {len(names)} parameter{'' if len(names) == 1 else 's'}, "
            f"got {len(params)}"
        )
    args = [
        _parse_edges(value) if name == "edges" else _parse_int(value, name)
        for name, value in zip(names, params)
    ]
    structure = builder(*args)
    # the field size of a vector space is its first parameter
    return structure, CategoryTag(kind, args[0] if kind == "vector_space" else None)


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

def _atoms(structure: FiniteStructure) -> list[int]:
    """Minimal nonzero elements of a Boolean algebra."""
    meet = structure.op_table("meet")
    zero = structure.op_table("zero")[0]
    n = structure.size
    atoms = []
    for z in range(n):
        if z == zero:
            continue
        if all(meet[w * n + z] in (zero, z) for w in range(n)):
            atoms.append(z)
    return atoms


def coproduct(
    tag: CategoryTag,
    x: FiniteStructure,
    y: FiniteStructure,
) -> tuple[FiniteStructure, Homomorphism, Homomorphism]:
    """The categorical coproduct with its two embeddings.

    Sets and graphs take disjoint unions; abelian groups and vector spaces
    take the direct product with coordinate embeddings (equal to the direct
    sum in the finite case); Boolean algebras take the atom-pair construction,
    where an element embeds as the union of all atom pairs below it.  The
    group tag is refused: free products of nontrivial groups are infinite.
    A disjoint union has at most ``MAX_STRUCTURE_SIZE`` elements.  The direct
    product and the atom-pair algebra must pass ``core.direct_product``'s
    size check, which runs before anything is built and, for the direct
    product, before the factors' law checks.
    """
    if x.sig != y.sig:
        raise InputError("coproduct requires structures of the same signature")
    if tag.kind == "group":
        raise InputError(
            "group coproducts are free products, generally infinite; "
            "only the abelian_group tag is supported"
        )
    if tag.kind in ("set", "graph"):
        want = SET_SIG if tag.kind == "set" else GRAPH_SIG
        if x.sig != want:
            raise InputError(f"structures do not have the {tag.kind} signature")
        n = x.size + y.size
        _check_size(n, "coproducts")
        rels = []
        for i in range(len(x.sig.rel_symbols)):
            shifted = {tuple(v + x.size for v in t) for t in y.rel_tables[i]}
            rels.append(frozenset(x.rel_tables[i] | shifted))
        cop = FiniteStructure(x.sig, n, (), tuple(rels))
        e_a = Homomorphism(x, cop, tuple(range(x.size)), "strong")
        e_b = Homomorphism(y, cop, tuple(range(x.size, n)), "strong")
        return cop, e_a, e_b
    if tag.kind in ("abelian_group", "vector_space"):
        _check_product(x.sig, x.size * y.size)
        if tag.kind == "abelian_group":
            if not (is_abelian_group(x) and is_abelian_group(y)):
                raise InputError("abelian_group coproduct needs commutative groups")
            zx = x.op_table("e")[0]
            zy = y.op_table("e")[0]
        else:
            p = tag.field_prime
            if not (is_vector_space(x, p) and is_vector_space(y, p)):
                raise InputError(f"vector_space coproduct needs F_{p} spaces")
            zx = x.op_table("zero")[0]
            zy = y.op_table("zero")[0]
        cop = direct_product(x, y)
        e_a = Homomorphism(x, cop, tuple(i * y.size + zy for i in range(x.size)), "strong")
        e_b = Homomorphism(y, cop, tuple(zx * y.size + j for j in range(y.size)), "strong")
        return cop, e_a, e_b
    if tag.kind == "boolean_algebra":
        for s in (x, y):
            if not is_boolean_algebra(s):
                raise InputError("boolean_algebra coproduct needs Boolean algebras")
        ax, ay = _atoms(x), _atoms(y)
        kx, ky = len(ax), len(ay)
        _check_product(BOOLEAN_SIG, 1 << (kx * ky))
        cop = _powerset_boolean(kx * ky)
        # the atom pair (i, j) is bit i * ky + j
        rows = [((1 << ky) - 1) << (i * ky) for i in range(kx)]
        cols = [sum(1 << (i * ky + j) for i in range(kx)) for j in range(ky)]
        e_a = Homomorphism(x, cop, _embed_by_atoms(x, ax, rows), "strong")
        e_b = Homomorphism(y, cop, _embed_by_atoms(y, ay, cols), "strong")
        return cop, e_a, e_b
    raise InputError(f"unsupported category {tag.kind!r}")


def _embed_by_atoms(structure, atoms, masks) -> tuple[int, ...]:
    """Send each element to the union of ``masks[i]`` over the atoms i below
    it; a finite Boolean algebra is atomic, so this determines the element."""
    meet, n = structure.op_table("meet"), structure.size
    return tuple(
        sum(mask for p, mask in zip(atoms, masks) if meet[p * n + z] == p)
        for z in range(n)
    )


def canonical_quotient(
    parent: FiniteStructure,
    a: SubUniverse,
    b: SubUniverse,
    tag: CategoryTag,
) -> Homomorphism:
    """The canonical surjection q from the coproduct of A and B onto their join.

    q composed with either embedding is the corresponding inclusion, and q is
    onto the join.  The images on the embedded elements pin q, and it is the
    first result of the homomorphism search with those pins.
    """
    a_struct, a_embed = induced_substructure(parent, a)
    b_struct, b_embed = induced_substructure(parent, b)
    cop, e_a, e_b = coproduct(tag, a_struct, b_struct)
    join_sub, _ = join(parent, a, b)
    jstruct, jembed = induced_substructure(parent, join_sub)
    pos = {e: i for i, e in enumerate(jembed)}
    seeds = [(e_a.mapping[i], pos[a_embed[i]]) for i in range(a_struct.size)]
    seeds += [(e_b.mapping[j], pos[b_embed[j]]) for j in range(b_struct.size)]
    q = next(_search(cop, jstruct, "weak", pinned=seeds), None)
    if q is None:
        raise InputError("canonical quotient does not exist; inputs are inconsistent")
    if set(q.mapping) != set(range(jstruct.size)):
        raise InputError("canonical quotient failed to be surjective")
    return q


def verify_coproduct_property(
    tag: CategoryTag,
    x: FiniteStructure,
    y: FiniteStructure,
    cop: FiniteStructure,
    e_a: Homomorphism,
    e_b: Homomorphism,
    targets: list[FiniteStructure],
    mode: Mode = "weak",
) -> bool:
    """Check the universal property against a list of target structures.

    For every target D and every pair (f_A, f_B) of homomorphisms into D
    there must be exactly one mediating g with f_i = g o e_i.  The mediating
    maps are the homomorphisms pinned to f_A and f_B on the embedded
    elements, so the homomorphism search with those pins is run until it
    yields a second result.  When the embedded elements generate the
    coproduct the pins fix every generator, so the search does not branch.
    """
    for target in targets:
        if target.sig != cop.sig:
            raise InputError("targets must share the coproduct's signature")
        homs_b = list(enumerate_homs(y, target, mode))
        for f_a in enumerate_homs(x, target, mode):
            for f_b in homs_b:
                seeds = [(e_a.mapping[i], f_a.mapping[i]) for i in range(x.size)]
                seeds += [(e_b.mapping[j], f_b.mapping[j]) for j in range(y.size)]
                mediating = _search(cop, target, mode, pinned=seeds)
                if sum(1 for _ in itertools.islice(mediating, 2)) != 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# rigid graphs
# ---------------------------------------------------------------------------

def is_rigid(g: FiniteStructure) -> bool:
    """A graph is rigid when the identity is its only weak endomorphism."""
    return sum(1 for _ in itertools.islice(enumerate_homs(g, g, "weak"), 2)) == 1


def random_rigid_graph(rng: random.Random) -> FiniteStructure:
    """Randomized search for a rigid digraph on 7 to 10 vertices, up to 2000
    attempts; deterministic given the rng."""
    for _ in range(2000):
        n = rng.randint(7, 10)
        density = rng.uniform(0.25, 0.45)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < density
        ]
        candidate = graph(n, edges)
        if is_rigid(candidate):
            return candidate
    raise SizeLimitExceeded("no rigid graph found in 2000 attempts")


def rigid_overlapping_pair(
    seed: int = 0,
) -> tuple[FiniteStructure, tuple[int, ...], tuple[int, ...]]:
    """Two rigid graphs sharing exactly one vertex, inside their union.

    The second graph is shifted so its vertex 0 is the last vertex of the
    first; rigid graphs are loop-free (a loop would admit a constant
    endomorphism), so neither graph has edges inside the overlap and both are
    induced subgraphs of the union.
    """
    rng = random.Random(seed)
    g1 = random_rigid_graph(rng)
    g2 = random_rigid_graph(rng)
    shift = g1.size - 1
    union_edges = set(g1.rel_tables[0])
    union_edges |= {(u + shift, v + shift) for u, v in g2.rel_tables[0]}
    parent = graph(g1.size + g2.size - 1, sorted(union_edges))
    members_a = tuple(range(g1.size))
    members_b = tuple(range(shift, parent.size))
    return parent, members_a, members_b
