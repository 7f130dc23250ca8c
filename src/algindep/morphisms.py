"""Homomorphisms between finite structures: enumeration, joint extensions,
kernels, and isomorphism search.

A weak homomorphism preserves relations forward; a strong one also reflects
them.  Operation preservation is required in both modes.  Enumeration
backtracks over a greedy generating set of the domain, propagating forced
images through the operation tables, so the stream is deterministic:
lexicographic in (generator index, image value).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .core import (
    Congruence,
    FiniteStructure,
    InputError,
    SubUniverse,
    flat_index,
    induced_substructure,
)
from .generation import close, join

Mode = str  # "weak" | "strong"

HOM_CLASS_ALL = "all_endomorphisms"
HOM_CLASS_AUTO = "automorphisms_only"
HOM_CLASSES = (HOM_CLASS_ALL, HOM_CLASS_AUTO)


@dataclass(frozen=True)
class Homomorphism:
    """A total map between structures with a weak/strong relation mode tag."""

    dom: FiniteStructure
    cod: FiniteStructure
    mapping: tuple[int, ...]
    mode: Mode = "weak"

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_bijective(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.mapping)) == self.dom.size

    def inverse(self) -> "Homomorphism":
        if not self.is_bijective():
            raise InputError("only bijective homomorphisms have an inverse")
        inv = [0] * self.cod.size
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return Homomorphism(self.cod, self.dom, tuple(inv), self.mode)

    def graph(self) -> tuple[tuple[int, int], ...]:
        return tuple(enumerate(self.mapping))


def is_homomorphism(
    dom: FiniteStructure,
    cod: FiniteStructure,
    mapping: tuple[int, ...],
    mode: Mode = "weak",
) -> bool:
    """Full check: every operation preserved, relations per the mode."""
    if dom.sig != cod.sig or len(mapping) != dom.size:
        return False
    if any(not (0 <= v < cod.size) for v in mapping):
        return False
    nd, nc = dom.size, cod.size
    for i, (name, ar) in enumerate(dom.sig.op_symbols):
        dt, ct = dom.op_tables[i], cod.op_tables[i]
        for j, args in enumerate(itertools.product(range(nd), repeat=ar)):
            image = ct[flat_index(nc, (mapping[a] for a in args))]
            if mapping[dt[j]] != image:
                return False
    for i, (name, ar) in enumerate(dom.sig.rel_symbols):
        dr, cr = dom.rel_tables[i], cod.rel_tables[i]
        for t in dr:
            if tuple(mapping[v] for v in t) not in cr:
                return False
        if mode == "strong":
            for t in itertools.product(range(nd), repeat=ar):
                if t not in dr and tuple(mapping[v] for v in t) in cr:
                    return False
    return True


def check_homomorphism(h: Homomorphism) -> None:
    if not is_homomorphism(h.dom, h.cod, h.mapping, h.mode):
        raise InputError("map is not a homomorphism in the requested mode")


# ---------------------------------------------------------------------------
# forced-image propagation
# ---------------------------------------------------------------------------

class _PartialMap:
    """A dom -> cod map under construction; images list plus insertion order."""

    __slots__ = ("images", "imaged")

    def __init__(self, size: int):
        self.images: list[Optional[int]] = [None] * size
        self.imaged: list[int] = []

    def copy(self) -> "_PartialMap":
        out = _PartialMap.__new__(_PartialMap)
        out.images = self.images[:]
        out.imaged = self.imaged[:]
        return out


def _propagate(dom, cod, state: _PartialMap, new_pairs):
    """Close a partial map under forced operation images.

    Whenever all arguments of an operation tuple have images, the image of its
    value is forced.  Returns None on success or (x, y1, y2) on the first
    collision: element x would need distinct images y1 and y2.
    """
    images, imaged = state.images, state.imaged
    nd, nc = dom.size, cod.size
    start = len(imaged)

    def assign(x, y):
        cur = images[x]
        if cur is not None:
            return None if cur == y else (x, cur, y)
        images[x] = y
        imaged.append(x)
        return None

    for x, y in new_pairs:
        c = assign(x, y)
        if c:
            return c
    ops = dom.op_views()
    cts = cod.op_tables
    qi = start
    while qi < len(imaged):
        x = imaged[qi]
        qi += 1
        fx = images[x]
        for i, (name, ar, dt) in enumerate(ops):
            if ar == 0:
                continue
            ct = cts[i]
            if ar == 1:
                c = assign(dt[x], ct[fx])
                if c:
                    return c
            elif ar == 2:
                for z in list(imaged):
                    fz = images[z]
                    c = assign(dt[x * nd + z], ct[fx * nc + fz])
                    if c:
                        return c
                    c = assign(dt[z * nd + x], ct[fz * nc + fx])
                    if c:
                        return c
            else:
                snapshot = list(imaged)
                for p in range(ar):
                    for rest in itertools.product(snapshot, repeat=ar - 1):
                        args = rest[:p] + (x,) + rest[p:]
                        fargs = tuple(images[a] for a in args)
                        c = assign(
                            dt[flat_index(nd, args)], ct[flat_index(nc, fargs)]
                        )
                        if c:
                            return c
    return None


def _seed_constants(dom, cod, state):
    """Constants of the domain are forced onto the constants of the codomain."""
    pairs = []
    for i, (name, ar) in enumerate(dom.sig.op_symbols):
        if ar == 0:
            pairs.append((dom.op_tables[i][0], cod.op_tables[i][0]))
    return _propagate(dom, cod, state, pairs)


def _rel_conflict(dom, cod, state: _PartialMap, mode: Mode):
    """Check relation constraints on fully imaged tuples of a partial map.

    Violations are permanent as the map grows, so pruning here is sound.
    Arity > 2 reverse checks are deferred to the final full validation.
    """
    images = state.images
    for i, (name, ar) in enumerate(dom.sig.rel_symbols):
        dr, cr = dom.rel_tables[i], cod.rel_tables[i]
        for t in dr:
            out = []
            for v in t:
                iv = images[v]
                if iv is None:
                    break
                out.append(iv)
            else:
                if tuple(out) not in cr:
                    return (name, t, tuple(out), "missing")
        if mode == "strong" and ar == 2:
            for u in state.imaged:
                fu = images[u]
                for v in state.imaged:
                    if (u, v) not in dr and (fu, images[v]) in cr:
                        return (name, (u, v), (fu, images[v]), "extra")
    return None


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def generating_sequence(structure: FiniteStructure) -> tuple[int, ...]:
    """Greedy generating set: repeatedly add the element whose closure grows
    the current one the most (smallest index on ties)."""
    current, _ = close(structure, ())
    have = set(current.members)
    gens: list[int] = []
    while len(have) < structure.size:
        best_x, best = -1, None
        for x in range(structure.size):
            if x in have:
                continue
            sub, _ = close(structure, sorted(have | {x}))
            if best is None or len(sub.members) > len(best):
                best_x, best = x, sub.members
        gens.append(best_x)
        have = set(best)
    return tuple(gens)


def enumerate_homs(
    dom: FiniteStructure, cod: FiniteStructure, mode: Mode = "weak"
) -> Iterator[Homomorphism]:
    """Yield every mode-respecting homomorphism exactly once.

    Backtracking over the greedy generating set with closure propagation;
    op and relation constraints are checked incrementally, and each completed
    map is fully re-validated before being yielded.
    """
    if dom.sig != cod.sig:
        raise InputError("homomorphisms require structures of the same signature")
    if mode not in ("weak", "strong"):
        raise InputError(f"unknown mode {mode!r}")
    gens = generating_sequence(dom)
    root = _PartialMap(dom.size)
    if _seed_constants(dom, cod, root) is not None:
        return
    if _rel_conflict(dom, cod, root, mode) is not None:
        return

    def rec(level: int, state: _PartialMap) -> Iterator[Homomorphism]:
        if level == len(gens):
            mapping = tuple(state.images)
            if is_homomorphism(dom, cod, mapping, mode):
                yield Homomorphism(dom, cod, mapping, mode)
            return
        g = gens[level]
        for v in range(cod.size):
            st = state.copy()
            if _propagate(dom, cod, st, [(g, v)]) is not None:
                continue
            if _rel_conflict(dom, cod, st, mode) is not None:
                continue
            yield from rec(level + 1, st)

    yield from rec(0, root)


def enumerate_endos(
    structure: FiniteStructure,
    mode: Mode = "weak",
    hom_class: str = HOM_CLASS_ALL,
) -> Iterator[Homomorphism]:
    """Endomorphism stream; optionally restricted to automorphisms.

    An automorphism is a bijective mode-homomorphism whose inverse also
    respects the mode (the categorical isomorphisms in both graph categories).
    """
    if hom_class not in HOM_CLASSES:
        raise InputError(f"unknown homomorphism class {hom_class!r}")
    for h in enumerate_homs(structure, structure, mode):
        if hom_class == HOM_CLASS_AUTO:
            if not h.is_bijective():
                continue
            inv = h.inverse()
            if not is_homomorphism(inv.dom, inv.cod, inv.mapping, mode):
                continue
        yield h


def kernel(h: Homomorphism) -> Congruence:
    """Partition of the domain by equal images; always a congruence."""
    return Congruence.from_assignment(h.mapping)


# ---------------------------------------------------------------------------
# joint extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionRefusal:
    """Evidence that no joint extension exists.

    reason "not-functional": detail is (x, y1, y2) in parent coordinates, the
    generated pair set relates x to two distinct images.  reason "relation":
    detail is (relation name, argument tuple, image tuple, direction) where
    direction is "missing" (weak failure) or "extra" (strong failure), again
    in parent coordinates.
    """

    reason: str
    detail: tuple


class _JointContext:
    """Shared setup for repeated joint-extension tests on one (A, B) pair."""

    def __init__(self, parent, a: SubUniverse, b: SubUniverse, mode: Mode):
        self.parent = parent
        self.mode = mode
        self.a, self.b = a, b
        self.join_sub, self.dag = join(parent, a, b)
        self.jstruct, self.jembed = induced_substructure(parent, self.join_sub)
        self.pos = {e: i for i, e in enumerate(self.jembed)}
        self.a_struct, self.a_embed = induced_substructure(parent, a)
        self.b_struct, self.b_embed = induced_substructure(parent, b)
        root = _PartialMap(self.jstruct.size)
        if _seed_constants(self.jstruct, self.jstruct, root) is not None:
            raise RuntimeError(
                "invariant broken: the join's constants do not map to themselves"
            )
        self.root = root

    def seed_pairs(self, hom: Homomorphism, embed) -> list[tuple[int, int]]:
        pos = self.pos
        return [
            (pos[embed[i]], pos[embed[y]]) for i, y in enumerate(hom.mapping)
        ]

    def extend(self, alpha: Homomorphism, beta: Homomorphism):
        """Joint extension of endomorphisms given on the induced substructures."""
        state = self.root.copy()
        seeds = self.seed_pairs(alpha, self.a_embed) + self.seed_pairs(
            beta, self.b_embed
        )
        conflict = _propagate(self.jstruct, self.jstruct, state, seeds)
        if conflict is not None:
            x, y1, y2 = conflict
            emb = self.jembed
            return ExtensionRefusal("not-functional", (emb[x], emb[y1], emb[y2]))
        if None in state.images:
            raise RuntimeError(
                "invariant broken: A and B do not generate their join"
            )
        mapping = tuple(state.images)
        violation = _relation_violation(self.jstruct, mapping, self.mode)
        if violation is not None:
            name, t, image, direction = violation
            emb = self.jembed
            return ExtensionRefusal(
                "relation",
                (
                    name,
                    tuple(emb[v] for v in t),
                    tuple(emb[v] for v in image),
                    direction,
                ),
            )
        return Homomorphism(self.jstruct, self.jstruct, mapping, self.mode)


def _relation_violation(structure, mapping, mode: Mode):
    """First relation violation of a total endomap, scanned deterministically."""
    for name, ar, tuples in structure.rel_views():
        for t in sorted(tuples):
            image = tuple(mapping[v] for v in t)
            if image not in tuples:
                return (name, t, image, "missing")
        if mode == "strong":
            for t in itertools.product(range(structure.size), repeat=ar):
                if t in tuples:
                    continue
                image = tuple(mapping[v] for v in t)
                if image in tuples:
                    return (name, t, image, "extra")
    return None


def joint_extension(
    parent: FiniteStructure,
    a: SubUniverse,
    b: SubUniverse,
    alpha: Homomorphism,
    beta: Homomorphism,
):
    """Extend endomorphisms of two subalgebras to their join, if possible.

    The subuniverse of (join x join) generated by graph(alpha) u graph(beta)
    is computed as a partial-map closure; if it is functional the induced map
    is automatically operation-preserving, and only the relation mode remains
    to be checked on the induced structure of the join.  A non-functional set
    yields a "not-functional" refusal with the offending pair, a relation
    failure yields the violating tuple.

    alpha and beta must be endomorphisms of the induced substructures of a
    and b (as produced by ``induced_substructure``); the returned gamma lives
    on the induced structure of the join, whose element i is the parent
    element ``join(parent, a, b)[0].members[i]``.
    """
    if alpha.mode != beta.mode:
        raise InputError("alpha and beta must use the same relation mode")
    ctx = _JointContext(parent, a, b, alpha.mode)
    for hom, struct in ((alpha, ctx.a_struct), (beta, ctx.b_struct)):
        if hom.dom != struct or hom.cod != struct:
            raise InputError(
                "extension endpoints must be endomorphisms of the induced "
                "substructures of a and b"
            )
        check_homomorphism(hom)
    return ctx.extend(alpha, beta)


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def _refine_colors(structure: FiniteStructure) -> tuple[int, ...]:
    """Iterated invariant refinement; isomorphisms must preserve colors."""
    n = structure.size
    colors = [0] * n
    ops = structure.op_views()
    rels = [(name, ar, sorted(tuples)) for name, ar, tuples in structure.rel_views()]
    for _ in range(n):
        keys = []
        for e in range(n):
            key = [colors[e]]
            for name, ar, table in ops:
                if ar == 0:
                    key.append(e == table[0])
                elif ar == 1:
                    key.append(colors[table[e]])
                elif ar == 2:
                    key.append(colors[table[e * n + e]])
                    key.append(
                        tuple(
                            sorted(
                                (colors[z], colors[table[e * n + z]], colors[table[z * n + e]])
                                for z in range(n)
                            )
                        )
                    )
                else:
                    diag = table[flat_index(n, (e,) * ar)]
                    key.append(colors[diag])
            for name, ar, tuples in rels:
                profile = [0] * ar
                nbr = []
                for t in tuples:
                    for p, v in enumerate(t):
                        if v == e:
                            profile[p] += 1
                            if ar == 2:
                                nbr.append((p, colors[t[1 - p]]))
                key.append(tuple(profile))
                key.append(tuple(sorted(nbr)))
            keys.append(tuple(key))
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if new == colors:
            break
        colors = new
    return tuple(colors)


def find_isomorphism(
    x: FiniteStructure, y: FiniteStructure
) -> Optional[Homomorphism]:
    """A bijective strong homomorphism with strong inverse, or None.

    Backtracks over a generating set of x with color-class pruning from an
    iterated op/degree profile refinement.
    """
    if x.sig != y.sig:
        return None
    if x.size != y.size:
        return None
    for i in range(len(x.sig.rel_symbols)):
        if len(x.rel_tables[i]) != len(y.rel_tables[i]):
            return None
    cx, cy = _refine_colors(x), _refine_colors(y)
    if sorted(cx) != sorted(cy):
        return None
    gens = generating_sequence(x)
    root = _PartialMap(x.size)
    if _seed_constants(x, y, root) is not None:
        return None

    def rec(level: int, state: _PartialMap) -> Optional[Homomorphism]:
        if level == len(gens):
            mapping = tuple(state.images)
            if len(set(mapping)) != x.size:
                return None
            h = Homomorphism(x, y, mapping, "strong")
            if is_homomorphism(x, y, mapping, "strong"):
                inv = h.inverse()
                if is_homomorphism(inv.dom, inv.cod, inv.mapping, "strong"):
                    return h
            return None
        g = gens[level]
        used = {v for v in state.images if v is not None}
        for v in range(y.size):
            if v in used or cy[v] != cx[g]:
                continue
            st = state.copy()
            if _propagate(x, y, st, [(g, v)]) is not None:
                continue
            if _rel_conflict(x, y, st, "strong") is not None:
                continue
            seen = [w for w in st.images if w is not None]
            if len(seen) != len(set(seen)):
                continue
            out = rec(level + 1, st)
            if out is not None:
                return out
        return None

    return rec(0, root)
