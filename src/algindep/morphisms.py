"""Homomorphisms between finite structures: enumeration, joint extensions,
kernels, and isomorphism search.

A weak homomorphism preserves relations forward; a strong one also reflects
them.  Operation preservation is required in both modes.  One search,
``_search``, serves homomorphism and endomorphism streams, automorphisms,
isomorphisms and maps pinned on given elements.  It backtracks over a
greedy generating set of the domain, built once and kept on it,
propagating forced images through the operation tables with the closure
kernel of ``generation`` (``_propagate``), so every stream is
deterministic: lexicographic in (generator index, image value).
Propagation and one relation check (``_relation_violation``) prune every
partial map, so a completed map is yielded without being checked again.  Pinned pairs are imaged at the root,
and a generator they already image is skipped.  A bijective search also
prunes partial maps that are not injective or that change an element's
refined color; automorphisms and isomorphisms come from it in the order of
the unpruned stream.

Joint extensions are decided by term evaluation: every element of the join
of A and B is a term in the elements of A u B, so the images of alpha and
beta fix gamma along the join's derivation DAG.  A pair pays only for what
its two sides leave open.  gamma agrees with alpha on A, and alpha is an
endomorphism of A's induced structure, so every operation cell and relation
tuple inside A is already preserved (reflected too, in strong mode); the
same holds for B.  So a disagreement on A n B is its own witness, and a
pair that leaves nothing open is decided by agreement on A n B alone, with
no map built: when one side contains the other, or in weak mode when there
is no operation of positive arity and no relation tuple that mixes the
sides.  Otherwise ``_JointContext.gamma``, the only place that builds the
map, copies A's images from a template filled once per alpha, writes B's
and evaluates the derivation steps, unary and binary ones by direct
indexing; then ``_preserves`` checks the operations on the join's ``core._plan``: every
line of each table, except that a binary operation which Light's test finds
associative is checked on the rows of a generating set only, which is
exact; the lines are gathered through 256-byte ``bytes.translate`` tables
when the join has at most 256 elements, and by numpy ``take`` above that.
Set tests check the relation tuples that lie in neither side, and in strong
mode ``_relation_violation``, linear in the relations' tuples, checks every
tuple, since its preimage boxes mix the sides.  Forced-image propagation
runs only to name the witness of a refusal by that check.  What depends on
one subuniverse alone (A, B or the join) is compiled once per process in
one memo keyed by the subuniverse; each decision keeps only its own sides'
join positions, a derivation of the join from A u B and the tuples that mix
the sides.  ``is_homomorphism`` checks any total map with the same
``_preserves``, on the two structures' plans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .core import (
    BYTE_RANGE,
    Congruence,
    FiniteStructure,
    InputError,
    SubUniverse,
    _Plan,
    _plan,
    flat_index,
    induced_substructure,
)
from .generation import _PartialMap, _propagate, _translation_classes, close

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


def is_homomorphism(
    dom: FiniteStructure,
    cod: FiniteStructure,
    mapping: tuple[int, ...],
    mode: Mode = "weak",
) -> bool:
    """Full check of a total map: every entry an integer in range, every
    operation preserved, relations per the mode (``_relation_violation``).

    The constants are compared directly.  The other operations are checked
    by ``_preserves`` on the two structures' ``_plan``, the check of joint
    extensions, unless the codomain has one element: every map into it
    preserves them."""
    if dom.sig != cod.sig or len(mapping) != dom.size:
        return False
    if any(not isinstance(v, (int, np.integer)) or not 0 <= v < cod.size for v in mapping):
        return False
    g = [int(v) for v in mapping]  # index arithmetic must not wrap at a numpy width
    for (_, ar, dt), ct in zip(dom.op_views(), cod.op_tables):
        if ar == 0 and g[dt[0]] != ct[0]:
            return False
    if cod.size > 1 and not _preserves(_plan(dom), _plan(cod), g):
        return False
    return _relation_violation(_rels(dom, cod), g, mode) is None


def _preserves(dom: _Plan, cod: _Plan, g) -> bool:
    """Does the total map ``g``, a list of ints, preserve every operation of
    positive arity?

    ``dom`` and ``cod`` are the ``_plan`` of two structures of one
    signature.  The map is checked line by line: γ(f(p, x)) = f(γp, γx) for
    each checked prefix p and every x.  A binary operation f in both plans'
    ``rows``, so associative in both structures by Light's test, is checked
    on the rows of the domain's generators G only, which is exact: every y
    is a product g·y' with g in G, and by induction on its length
    γ((g·y')·x) = γ(g·(y'·x)) = γg·(γy'·γx) = (γg·γy')·γx = γ(g·y')·γx.
    Every other operation is checked on every line.

    The right side is ``_Plan.read`` of the codomain at g.  When both
    structures have at most ``BYTE_RANGE`` elements it is bytes, and the
    left side is one ``bytes.translate`` of the domain's checked cells
    through g; above that numpy ``take`` gathers both sides."""
    checks, cells = dom.own if dom is cod or dom.rows.keys() <= cod.rows.keys() else dom.full
    right = cod.read(checks, g)
    if isinstance(right, bytes):
        return cells.translate(bytes(g) + bytes(BYTE_RANGE - len(g))) == right
    if isinstance(cells, bytes):  # a domain of bytes into a larger codomain
        cells = np.frombuffer(cells, dtype=np.uint8)
    # equal shapes: the bytes differ iff a cell does; no ufunc reduction
    return np.array(g, dtype=np.intp).take(cells).tobytes() == right.tobytes()


# ---------------------------------------------------------------------------
# forced-image propagation (the kernel lives in generation)
# ---------------------------------------------------------------------------

def _rels(dom: FiniteStructure, cod: FiniteStructure) -> list[tuple]:
    """The relations as ``_relation_violation`` reads them: (name, arity,
    sorted domain tuples, domain tuple set, codomain tuple set)."""
    return [
        (name, ar, sorted(tuples), tuples, cod_tuples)
        for (name, ar, tuples), cod_tuples in zip(dom.rel_views(), cod.rel_tables)
    ]


def _relation_violation(rels, images, mode: Mode):
    """First relation violation among the tuples whose entries all have images.

    ``rels`` comes from ``_rels``.  Per relation, the sorted domain tuples
    are scanned for an image outside the codomain relation ("missing").  In
    strong mode each s in the codomain relation gives a box pre(s_0) x ...
    x pre(s_ar-1) of sorted preimages, walked in lexicographic order up to
    its first tuple outside the domain relation; the least of these is the
    first "extra" tuple.  A walk takes at most one step more than the
    domain tuples in its box, so the check costs O((|R_dom| + |R_cod|) *
    arity).  A violation stays one as a partial map grows, so the search
    prunes on it; on a total map the scan names a refusal's witness.
    """
    preimages = None
    for name, ar, ordered, dom_tuples, cod_tuples in rels:
        for t in ordered:
            image = []
            for v in t:
                iv = images[v]
                if iv is None:
                    break
                image.append(iv)
            else:
                image = tuple(image)
                if image not in cod_tuples:
                    return (name, t, image, "missing")
        if mode == "strong":
            if preimages is None:
                preimages = {}
                for u, iv in enumerate(images):
                    if iv is not None:
                        preimages.setdefault(iv, []).append(u)
            first = None
            for s in cod_tuples:
                for t in itertools.product(*[preimages.get(v, ()) for v in s]):
                    if t not in dom_tuples:
                        if first is None or t < first:
                            first = t
                        break
            if first is not None:
                return (name, first, tuple(images[v] for v in first), "extra")
    return None


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def generating_sequence(structure: FiniteStructure) -> tuple[int, ...]:
    """Greedy generating set: repeatedly add the element whose closure grows
    the current one the most (smallest index on ties).

    Elements of one translation class outside the current subuniverse have
    the same closure (``generation._translation_classes``), and the smallest
    of them is tried first, so only that one is closed.
    """
    current, _ = close(structure, (), derivation=False)
    gens: list[int] = []
    while len(current.members) < structure.size:
        have = set(current.members)
        root = _translation_classes(structure, current)
        best_x, best = -1, None
        for x in range(structure.size):
            if x in have or root[x] != x:
                continue
            sub, _ = close(structure, (x,), base=current, derivation=False)
            if best is None or len(sub.members) > len(best.members):
                best_x, best = x, sub
        gens.append(best_x)
        current = best
    return tuple(gens)


def _kept_sequence(structure: FiniteStructure) -> tuple[int, ...]:
    """The ``generating_sequence`` of ``structure``, built once and kept on
    it, as ``core._plan`` is.  Two threads may both build it; they store
    equal values."""
    try:
        return structure.__dict__["_generating_sequence"]
    except KeyError:
        gens = generating_sequence(structure)
        object.__setattr__(structure, "_generating_sequence", gens)
        return gens


def _search(
    dom: FiniteStructure,
    cod: FiniteStructure,
    mode: Mode,
    pinned=(),
    bijective: bool = False,
) -> Iterator[Homomorphism]:
    """The homomorphism search behind every stream, pinned or not.

    The root maps the ``pinned`` (element, image) pairs and the constants and
    propagates their forced images; each level of the greedy generating
    sequence then tries every image of its generator in increasing order,
    unless the generator is already imaged.  Every propagation is followed
    by the relation check on the tuples whose entries all have images.  A
    completed map is yielded as it stands: propagation has met every
    argument tuple against every operation table, and the relation check
    has seen every tuple.

    With ``bijective`` only isomorphisms are yielded.  The root refuses
    unequal sizes or relation tuple counts; with equal counts a bijection
    that sends each relation into its counterpart sends it onto it, so its
    inverse respects the mode too.  Refined colors are an isomorphism
    invariant, so partial maps that are not injective or that change an
    element's color are pruned.  Pruning removes no result, so a bijective
    stream is the other stream filtered, in the same order.
    """
    if dom.sig != cod.sig:
        raise InputError("homomorphisms require structures of the same signature")
    if mode not in ("weak", "strong"):
        raise InputError(f"unknown mode {mode!r}")
    rels = _rels(dom, cod)
    root = _PartialMap(dom.size)
    if _propagate(dom, cod, root, pinned) is not None:
        return
    if _relation_violation(rels, root.images, mode) is not None:
        return
    if bijective:
        if dom.size != cod.size or any(
            len(r) != len(s) for r, s in zip(dom.rel_tables, cod.rel_tables)
        ):
            return
        cx = _refine_colors(dom)
        cy = cx if cod == dom else _refine_colors(cod)
        if sorted(cx) != sorted(cy) or _breaks_bijection(root, 0, set(), cx, cy):
            return
    gens = _kept_sequence(dom)

    def rec(level: int, state: _PartialMap) -> Iterator[Homomorphism]:
        if level == len(gens):
            yield Homomorphism(dom, cod, tuple(state.images), mode)
            return
        g = gens[level]
        if state.images[g] is not None:
            yield from rec(level + 1, state)
            return
        if bijective:
            start = len(state.imaged)
            used = {state.images[u] for u in state.imaged}
            candidates = [v for v in range(cod.size) if v not in used and cy[v] == cx[g]]
        else:
            candidates = range(cod.size)
        for v in candidates:
            st = state.copy()
            if _propagate(dom, cod, st, [(g, v)]) is not None:
                continue
            if _relation_violation(rels, st.images, mode) is not None:
                continue
            if bijective and _breaks_bijection(st, start, used, cx, cy):
                continue
            yield from rec(level + 1, st)

    yield from rec(0, root)


def _breaks_bijection(state: _PartialMap, start: int, used, cx, cy) -> bool:
    """Do the elements imaged since position ``start`` change color, share an
    image, or take one of the ``used`` images?"""
    fresh = [state.images[u] for u in state.imaged[start:]]
    if len(set(fresh)) != len(fresh) or not used.isdisjoint(fresh):
        return True
    return any(cy[w] != cx[u] for u, w in zip(state.imaged[start:], fresh))


def enumerate_homs(
    dom: FiniteStructure, cod: FiniteStructure, mode: Mode = "weak"
) -> Iterator[Homomorphism]:
    """Yield every mode-respecting homomorphism exactly once, lexicographic
    in (generator index, image value)."""
    yield from _search(dom, cod, mode)


def enumerate_endos(
    structure: FiniteStructure,
    mode: Mode = "weak",
    hom_class: str = HOM_CLASS_ALL,
) -> Iterator[Homomorphism]:
    """Endomorphism stream; optionally restricted to automorphisms.

    An automorphism is a bijective mode-homomorphism whose inverse also
    respects the mode (the categorical isomorphisms in both graph
    categories).  The automorphism class is searched with bijective pruning,
    not filtered out of all endomorphisms, and comes in the same order.
    """
    if hom_class not in HOM_CLASSES:
        raise InputError(f"unknown homomorphism class {hom_class!r}")
    yield from _search(structure, structure, mode, bijective=hom_class == HOM_CLASS_AUTO)


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


# Bound of the deciders' memo of what one subuniverse induces (``_induced``).
_INDUCED_MEMO_SIZE = 1024


class _Induced:
    """What the deciders read of one subuniverse, whether it is a side or a
    join: the induced structure and embedding, as ``induced_substructure``
    returns them, the position of each parent element, the operation tables
    by name, the root map that images the constants, and the relations as
    ``_relation_violation`` reads them.
    """

    __slots__ = ("struct", "embed", "pos", "tables", "root", "rels")

    def __init__(self, sub: SubUniverse):
        self.struct, self.embed = induced_substructure(sub.parent, sub)
        self.pos = {e: i for i, e in enumerate(self.embed)}
        self.tables = {name: table for name, _, table in self.struct.op_views()}
        self.root = _PartialMap(self.struct.size)
        if _propagate(self.struct, self.struct, self.root, ()) is not None:
            raise RuntimeError("invariant broken: the constants do not map to themselves")
        self.rels = _rels(self.struct, self.struct)


def _induced(sub: SubUniverse) -> _Induced:
    """The ``_Induced`` record of ``sub``, memoized for the deciders.

    Structures compare by value with their labels left out, so the parent's
    labels are part of the key: the structure is what ``induced_substructure``
    returns, labels included.  The ``_INDUCED_MEMO_SIZE`` most recently used
    keys are kept.
    """
    return _induced_memo(sub, sub.parent.labels)


@lru_cache(maxsize=_INDUCED_MEMO_SIZE)
def _induced_memo(sub: SubUniverse, labels) -> _Induced:
    return _Induced(sub)


class _JointContext:
    """Setup for repeated joint-extension tests on one (A, B) pair, so that
    each pair pays only for what it leaves open.

    A, B and the join are read from their ``_induced`` records, and the
    join's check plan from ``core._plan``: it checks the generator rows of
    each binary operation that Light's test finds associative, which is
    exact (see ``_preserves``), and every line of the others, through byte
    tables up to 256 elements.  Per pair of sides only this is computed: the
    join positions of A's and B's elements, the shared elements, whether one
    side contains the other, and whether anything is ``left_open`` for
    ``_is_endomorphism``.  A pair that leaves nothing open is decided by
    agreement on A n B alone: when one side contains the other, the join is
    the larger side, with no steps, and ``close`` is not run; in weak mode
    sides with no operation of positive arity and no relation tuple that
    mixes them have A u B for their join, and nothing to check there.

    Otherwise ``gamma`` builds the map, the only place that does: from a
    template that holds A's images, filled once per alpha, and the applied
    nodes of a derivation DAG of the join as steps in derivation order.  A
    unary or binary step is (target, table, x, stride, y), a step of any
    other arity (target, table, args).  The DAG is that of ``close`` resumed
    from the larger side with the smaller one as seed, so only argument
    tuples with a new element are visited; its generators are exactly
    A u B.  Any such DAG will do, since a joint extension is unique.  The
    argument columns of the relation tuples that lie in neither side are
    kept for the weak relation check.

    A tuple inside A is settled by alpha: gamma agrees with alpha there, and
    alpha maps A's relation tuples into the relation (and, in strong mode,
    no other tuple of A into it), so only tuples that mix the sides can
    still fail the weak rule.  ``extend`` runs once per pair, so it,
    ``gamma`` and ``_is_endomorphism`` read plain attributes bound here.
    Threads may share a context: a template is not written once filled, and
    it is replaced whole, as one (alpha, template) attribute.
    """

    def __init__(self, parent, a: SubUniverse, b: SubUniverse, mode: Mode):
        self.mode = mode
        side_a, side_b = _induced(a), _induced(b)
        if len(a.members) < len(b.members):
            small, large, join = a, b, side_b
        else:
            small, large, join = b, a, side_a
        self.comparable = all(e in join.pos for e in small.members)
        nodes = ()
        if not self.comparable:
            join_sub, dag = close(parent, small.members, base=large)
            join, nodes = _induced(join_sub), dag.nodes
        self.jstruct, self.jembed = join.struct, join.embed
        self.root, self.rels = join.root, join.rels
        # a one-element join maps every operation cell to itself
        has_ops = any(ar > 0 for _, ar in parent.sig.op_symbols)
        self.plan = _plan(join.struct) if has_ops and join.struct.size > 1 else None
        self.a_struct, self.a_embed = side_a.struct, side_a.embed
        self.b_struct, self.b_embed = side_b.struct, side_b.embed

        pos, tables = join.pos, join.tables
        self.a_at = [pos[e] for e in self.a_embed]
        self.b_at = [pos[e] for e in self.b_embed]
        # (index in B, index in A) of every shared element
        self.shared = [
            (j, side_a.pos[e]) for j, e in enumerate(self.b_embed) if e in side_a.pos
        ]
        in_a, in_b = set(self.a_at), set(self.b_at)
        self.rel_columns = []
        if not self.comparable:
            for _, _, ordered, tuples, _ in self.rels:
                mixed = [
                    t for t in ordered if not (in_a.issuperset(t) or in_b.issuperset(t))
                ]
                if mixed:
                    self.rel_columns.append((tuples, list(zip(*mixed))))
        self.left_open = not self.comparable and bool(
            self.plan is not None or self.rel_columns or mode == "strong"
        )
        covered = in_a | in_b
        steps = []
        for node in nodes:
            if node.op is not None:
                target = pos[node.element]
                steps.append((target, tables[node.op], tuple(pos[x] for x in node.args)))
                covered.add(target)
        if len(covered) != self.jstruct.size:
            raise RuntimeError("invariant broken: A and B do not generate their join")
        # unary and binary steps as (target, table, x, stride, y), read as
        # table[g[x] * stride + g[y]]: a unary step has stride 0 and y = x
        m = self.jstruct.size
        self.flat = all(len(args) in (1, 2) for _, _, args in steps)
        if self.flat:
            steps = [(t, table, args[0], m * (len(args) - 1), args[-1]) for t, table, args in steps]
        self.steps = steps
        self._filled = (None, None)  # (alpha, its template), set by gamma

    def extend(self, alpha: Homomorphism, beta: Homomorphism) -> Optional[ExtensionRefusal]:
        """The ``ExtensionRefusal`` of the pair, or None when it extends.

        A joint extension exists iff the seeds agree on A n B and the map
        ``gamma`` evaluates is an endomorphism of the join in the relation
        mode.  Agreement is checked first.  A pair that leaves nothing open
        is decided by it alone, and no map is built: comparable sides, whose
        join is the larger side with that side's endomorphism on it, and in
        weak mode sides with no operation of positive arity and no relation
        tuple that mixes them.  Otherwise ``_is_endomorphism`` checks ``gamma``'s map.
        alpha fixes the closure of the constants, which the root images, so
        propagation's first collision would be the first shared element, in
        B's order, whose seeds disagree: it is named here, and only a
        refusal by ``_is_endomorphism`` runs ``_refusal``.
        """
        am, bm = alpha.mapping, beta.mapping
        a_at, b_at = self.a_at, self.b_at
        for j, i in self.shared:
            if b_at[bm[j]] != a_at[am[i]]:
                emb_a, emb_b = self.a_embed, self.b_embed
                return ExtensionRefusal("not-functional", (emb_b[j], emb_a[am[i]], emb_b[bm[j]]))
        if self.left_open and not self._is_endomorphism(self.gamma(alpha, beta)):
            return self._refusal(alpha, beta)
        return None

    def gamma(self, alpha: Homomorphism, beta: Homomorphism) -> list[int]:
        """The map of the pair, as the list of join positions of the images,
        for seeds that agree on A n B: the only place that builds it.

        A's images are written into a template once per alpha, which the
        alpha-major scan of the decider reuses for every beta; each pair
        copies it, writes B's images and evaluates every other join element
        by its DAG step on the images of its arguments, in derivation order.
        """
        filled = self._filled
        if filled[0] is not alpha:
            a_at = self.a_at
            template = [0] * self.jstruct.size
            for i, y in enumerate(alpha.mapping):
                template[a_at[i]] = a_at[y]
            filled = self._filled = (alpha, template)
        g = filled[1][:]
        b_at = self.b_at
        for p, y in zip(b_at, beta.mapping):
            g[p] = b_at[y]
        if self.flat:
            for target, table, x, stride, y in self.steps:
                g[target] = table[g[x] * stride + g[y]]
        else:
            m = len(g)
            for target, table, args in self.steps:
                idx = 0
                for x in args:
                    idx = idx * m + g[x]
                g[target] = table[idx]
        return g

    def _is_endomorphism(self, g: list[int]) -> bool:
        """Is ``g``, which agrees with alpha on A and beta on B, an
        endomorphism of the join?  ``_preserves`` checks the operations
        over the whole join, with the join's plan on both sides: the
        generator rows of its associative binary operations and every line
        of the others, through byte tables up to 256 elements; a set
        test per relation over the tuples that mix A and B (a tuple inside
        one side is settled by that side's endomorphism), and in strong mode
        ``_relation_violation`` over every tuple, as a preimage box can mix
        the sides.  Constants need no check: they lie in A n B, where the
        seeds already fix them."""
        if self.plan is not None and not _preserves(self.plan, self.plan, g):
            return False
        for tuples, columns in self.rel_columns:
            if not tuples.issuperset(zip(*[map(g.__getitem__, col) for col in columns])):
                return False
        return self.mode == "weak" or _relation_violation(self.rels, g, "strong") is None

    def _refusal(self, alpha: Homomorphism, beta: Homomorphism) -> ExtensionRefusal:
        """Name the witness of a refused pair by forced-image propagation."""
        state = self.root.copy()
        a_at, b_at = self.a_at, self.b_at
        seeds = [(a_at[i], a_at[y]) for i, y in enumerate(alpha.mapping)]
        seeds += [(b_at[j], b_at[y]) for j, y in enumerate(beta.mapping)]
        conflict = _propagate(self.jstruct, self.jstruct, state, seeds)
        emb = self.jembed
        if conflict is not None:
            x, y1, y2 = conflict
            return ExtensionRefusal("not-functional", (emb[x], emb[y1], emb[y2]))
        if None not in state.images:
            violation = _relation_violation(self.rels, state.images, self.mode)
            if violation is not None:
                name, t, image, direction = violation
                return ExtensionRefusal(
                    "relation",
                    (
                        name,
                        tuple(emb[v] for v in t),
                        tuple(emb[v] for v in image),
                        direction,
                    ),
                )
        raise RuntimeError(
            "invariant broken: the compiled check refused a pair that "
            "propagation extends"
        )


def joint_extension(
    parent: FiniteStructure,
    a: SubUniverse,
    b: SubUniverse,
    alpha: Homomorphism,
    beta: Homomorphism,
):
    """Extend endomorphisms of two subalgebras to their join, if possible.

    gamma is evaluated along the join's derivation DAG from the images of
    alpha and beta, and it is the joint extension iff alpha and beta agree on
    A n B and gamma is an endomorphism of the join in the relation mode.
    ``_JointContext.extend`` decides, building no map when the pair leaves
    nothing open, and ``_JointContext.gamma``, the only place that builds
    the map, evaluates it for a pair that extends.  A refusal is explained
    by the subuniverse of (join x join) generated by graph(alpha) u
    graph(beta), computed as a partial-map closure: a non-functional set
    yields a "not-functional" refusal with the offending pair, and a
    relation failure yields the violating tuple.

    alpha and beta must be endomorphisms of the induced substructures of a
    and b (as produced by ``induced_substructure``); the returned gamma lives
    on the induced structure of the join, whose element i is the parent
    element ``join(parent, a, b)[0].members[i]``.  The join's compiled tables
    are those the deciders keep, so repeated calls compile each join once.
    """
    if a.parent != parent or b.parent != parent:
        raise InputError("join requires subuniverses of the same parent structure")
    if alpha.mode != beta.mode:
        raise InputError("alpha and beta must use the same relation mode")
    ctx = _JointContext(parent, a, b, alpha.mode)
    for hom, struct in ((alpha, ctx.a_struct), (beta, ctx.b_struct)):
        if hom.dom != struct or hom.cod != struct:
            raise InputError(
                "extension endpoints must be endomorphisms of the induced "
                "substructures of a and b"
            )
        if not is_homomorphism(hom.dom, hom.cod, hom.mapping, hom.mode):
            raise InputError("map is not a homomorphism in the requested mode")
    refusal = ctx.extend(alpha, beta)
    if refusal is not None:
        return refusal
    return Homomorphism(ctx.jstruct, ctx.jstruct, tuple(ctx.gamma(alpha, beta)), alpha.mode)


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

    For structures of one signature this is the first result of the
    bijective homomorphism search in strong mode, which refuses unequal
    sizes and relation tuple counts at its root and prunes by injectivity
    and by iterated op/degree color refinement.
    """
    if x.sig != y.sig:
        return None
    return next(_search(x, y, "strong", bijective=True), None)
