"""Top-level deciders for subalgebra and congruence independence.

Two subalgebras are subalgebra-independent when every pair of endomorphisms
(one of each) has a joint extension to an endomorphism of their join; they are
congruence-independent when every pair of congruences extends to a congruence
of the join restricting exactly to each.  Both deciders report the first
counterexample in a deterministic iteration order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .core import (
    Congruence,
    FiniteStructure,
    InputError,
    SizeLimitExceeded,
    SubUniverse,
)
from .generation import (
    all_congruences,
    cg,
    join,
    join_partitions,
)
from .morphisms import (
    ExtensionRefusal,
    HOM_CLASS_ALL,
    HOM_CLASSES,
    Homomorphism,
    Mode,
    _induced,
    _JointContext,
    enumerate_endos,
    joint_extension,
)
from .zoo import is_boolean_algebra, is_group


@dataclass(frozen=True)
class SubalgebraWitness:
    """A failing endomorphism pair, with its refusal evidence.

    alpha and beta are given as graphs in parent coordinates.
    """

    alpha: tuple[tuple[int, int], ...]
    beta: tuple[tuple[int, int], ...]
    refusal: ExtensionRefusal


@dataclass(frozen=True)
class CongruenceWitness:
    """A congruence pair whose minimal extension restricts wrongly.

    Blocks are in parent coordinates; ``pair`` is the offending element pair
    on ``side`` ("a" or "b"), related one way by the requested congruence and
    the other way by the restriction of the extension.
    """

    theta_a_blocks: tuple[tuple[int, ...], ...]
    theta_b_blocks: tuple[tuple[int, ...], ...]
    side: str
    pair: tuple[int, int]
    wanted_related: bool


Witness = Union[SubalgebraWitness, CongruenceWitness]


@dataclass(frozen=True)
class Verdict:
    independent: bool
    witness: Optional[Witness]
    pairs_examined: int

    def __post_init__(self) -> None:
        if self.independent != (self.witness is None):
            raise ValueError("a verdict is independent exactly when no witness exists")


class _CachedStream:
    """Replayable view of a deterministic generator, safe to share between
    threads.

    Each item is read from the generator once, under a lock, so every
    iteration yields the same sequence.  A generator that raised is dead and
    reports ``StopIteration`` from then on, which a replay would take for the
    end of the stream; such a stream is marked ``broken`` instead, and an
    iteration that reaches past the items read raises.
    """

    def __init__(self, it: Iterator):
        self._it = it
        self._cache: list = []
        self._lock = threading.Lock()
        self.broken = False

    def __iter__(self):
        i = 0
        while i < len(self._cache) or self._read(i):
            yield self._cache[i]
            i += 1

    def _read(self, i: int) -> bool:
        """Make item ``i`` available; False at the end of the stream."""
        with self._lock:
            if i < len(self._cache):  # another iteration read it
                return True
            if self.broken:
                raise RuntimeError("the stream's generator raised; it is not replayed")
            try:
                self._cache.append(next(self._it))
            except StopIteration:
                return False
            except BaseException:
                self.broken = True
                raise
            return True


# Bound of the endomorphism stream memo, in (structure, mode, hom_class) keys.
_ENDO_MEMO_SIZE = 256
_endo_memo: OrderedDict = OrderedDict()
_endo_memo_lock = threading.Lock()


def _endos(structure: FiniteStructure, mode: Mode, hom_class: str) -> _CachedStream:
    """The endomorphism stream of ``structure``, shared by every decision.

    Keyed by the structure's value with ``mode`` and ``hom_class``: a stream
    depends on nothing else, so subuniverses of any parent that induce equal
    structures replay one stream.  The ``_ENDO_MEMO_SIZE`` most recently
    used keys are kept; a broken stream is replaced, never replayed.
    """
    if mode not in ("weak", "strong"):
        raise InputError(f"unknown mode {mode!r}")
    if hom_class not in HOM_CLASSES:
        raise InputError(f"unknown homomorphism class {hom_class!r}")
    key = (structure, mode, hom_class)
    with _endo_memo_lock:
        stream = _endo_memo.get(key)
        if stream is None or stream.broken:
            stream = _endo_memo[key] = _CachedStream(
                enumerate_endos(structure, mode, hom_class)
            )
        _endo_memo.move_to_end(key)
        if len(_endo_memo) > _ENDO_MEMO_SIZE:
            _endo_memo.popitem(last=False)
    return stream


def _graph_in_parent(hom: Homomorphism, embed) -> tuple[tuple[int, int], ...]:
    return tuple((embed[i], embed[y]) for i, y in enumerate(hom.mapping))


def decide_subalgebra_independence(
    parent: FiniteStructure,
    a: SubUniverse,
    b: SubUniverse,
    hom_class: str = HOM_CLASS_ALL,
    mode: Mode = "weak",
) -> Verdict:
    """Test every (alpha, beta) pair for a joint extension to the join.

    Pairs are visited alpha-major, each stream in the deterministic
    enumeration order of the morphism module, and the first failing pair is
    returned as the witness.  Each pair is one ``_JointContext.extend``
    call, which pays only for what the pair leaves open.  A pair that leaves
    nothing open (one side contains the other, or in weak mode the sides
    have no operation and no relation tuple that mixes them) is decided by
    agreement on A n B alone, and no map is built.  Otherwise the pair costs
    one term evaluation along a derivation of the join from A u B, in
    ``_JointContext.gamma``, the only place that builds the map: A's images
    come from a template filled once per alpha, then B's images and the
    derivation steps are written.  One vectorised check of what neither
    side settles follows.  A disagreement on A n B names its own witness,
    and only a pair refused by the vectorised check runs the forced-image
    propagation that names it.  On incomparable sides the derivation is
    computed per decision, closing the join from the larger side with the
    smaller one as seed.

    What depends on one subuniverse only is computed once per process and
    replayed after that, in two private memos:

    - what A, B and the join each induce (``morphisms._induced``): the
      structure and embedding, the position of each parent element, the
      operation tables by name, the constants' root map and the relation
      views, keyed by the subuniverse (its parent by value, with the
      parent's labels) for the 1024 most recently used keys
      (``morphisms._INDUCED_MEMO_SIZE``);
    - the endomorphism stream of an induced structure, keyed by the
      structure's value with ``mode`` and ``hom_class``, for the 256 most
      recently used keys (``_ENDO_MEMO_SIZE``).  A stream is read only as
      far as a decision needs and kept as read, so End(A) is enumerated at
      most once across all decisions whose sides induce equal structures.

    A stream depends on its key alone, so verdicts, witnesses and
    ``pairs_examined`` do not depend on the order of calls.  ``mode`` and
    ``hom_class`` are checked before the memo is read, and a stream whose
    enumeration raised is enumerated afresh, never replayed.
    """
    if a.parent != parent or b.parent != parent:
        raise InputError("subuniverses must belong to the given parent structure")
    ctx = _JointContext(parent, a, b, mode)
    betas = _endos(ctx.b_struct, mode, hom_class)
    pairs = 0
    for alpha in _endos(ctx.a_struct, mode, hom_class):
        for beta in betas:
            pairs += 1
            refusal = ctx.extend(alpha, beta)
            if refusal is not None:
                witness = SubalgebraWitness(
                    _graph_in_parent(alpha, ctx.a_embed),
                    _graph_in_parent(beta, ctx.b_embed),
                    refusal,
                )
                return Verdict(False, witness, pairs)
    return Verdict(True, None, pairs)


def decide_congruence_independence(
    parent: FiniteStructure,
    a: SubUniverse,
    b: SubUniverse,
    max_size: int = 12,
) -> Verdict:
    """Decide whether every congruence pair has an exact extension to the join.

    For each (theta_A, theta_B) only the minimal candidate needs checking:
    any congruence of the join restricting exactly to theta_A and theta_B
    contains their union, hence contains Cg(theta_A u theta_B), and
    restriction is monotone, so an exact extension exists iff the minimal one
    is exact.  (This shortcut is a derived lemma, guarded by a brute-force
    equivalence test in the suite.)

    The minimal candidate is computed as a join: Cg(X u Y) = Cg(X) v Cg(Y),
    and the join of congruences is the join of their partitions.  So each
    pair costs one ``join_partitions`` of the lifts of its two congruences to
    the join, and a congruence is lifted with ``cg`` only when a checked pair
    first uses it.  A side that is the whole join lifts as itself.  The
    restriction to each side is compared as a canonical block assignment;
    only a mismatch runs the lexicographic scan that names the first
    offending element pair.

    Certify, else scan.  Exact extensions are closed under meets:
    restriction commutes with intersection, so if psi and psi' restrict
    exactly to (theta_A, theta_B) and (theta_A', theta_B'), psi ^ psi'
    restricts exactly to their meet.  (theta_A, theta_B) is the meet of
    (theta_A, 1_B) and (1_A, theta_B), each side is 1 or a meet of
    meet-irreducibles, and (1_A, 1_B) is always exact.  So (1_A, m') for
    each meet-irreducible m' of Con(B) and (m, 1_B) for each meet-irreducible
    m of Con(A) are checked first: if all are exact, A and B are independent,
    and the verdict reports |Con A| * |Con B| pairs examined, as the full
    scan would.  Otherwise one alpha-major scan from (1_A, 1_B) returns the
    first failing pair, with the pairs it examined.

    Pairs with |A n B| >= 2 are refused before any lattice computation:
    identity on one side and the full relation on the other cannot both
    restrict exactly across a shared pair.  ``max_size`` bounds the join's
    element count; each side's congruence lattice is bounded as in
    ``all_congruences``.
    """
    if a.parent != parent or b.parent != parent:
        raise InputError("subuniverses must belong to the given parent structure")
    inter = sorted(a.member_set() & b.member_set())
    if len(inter) >= 2:
        x, y = inter[0], inter[1]
        witness = CongruenceWitness(
            theta_a_blocks=tuple((e,) for e in a.members),
            theta_b_blocks=(tuple(b.members),),
            side="a",
            pair=(x, y),
            wanted_related=False,
        )
        return Verdict(False, witness, 0)
    join_sub, _ = join(parent, a, b)
    if len(join_sub.members) > max_size:
        raise SizeLimitExceeded(
            f"join has {len(join_sub.members)} elements, over the congruence "
            f"lattice bound {max_size}"
        )
    joined, side_a, side_b = _induced(join_sub), _induced(a), _induced(b)
    jstruct, pos, a_embed, b_embed = joined.struct, joined.pos, side_a.embed, side_b.embed
    cons_a = all_congruences(side_a.struct, max_size=max_size)
    cons_b = all_congruences(side_b.struct, max_size=max_size)
    at_a = [pos[e] for e in a_embed]  # join coordinates of A's elements
    at_b = [pos[e] for e in b_embed]
    lifts: dict[tuple[str, Congruence], Congruence] = {}  # only the congruences checked

    def lift(side, theta, at):
        lifted = lifts.get((side, theta))
        if lifted is None:
            if len(at) == jstruct.size:  # the side is the join: theta is its own lift
                lifted = theta
            else:
                lifted = cg(jstruct, [(at[u], at[v]) for u, v in theta.generating_pairs()])
            lifts[side, theta] = lifted
        return lifted

    def to_parent_blocks(theta, embed):
        return tuple(tuple(embed[v] for v in block) for block in theta.blocks())

    def refusal(theta_a, theta_b) -> Optional[CongruenceWitness]:
        """The witness of a pair whose minimal extension is not exact."""
        theta = join_partitions(lift("a", theta_a, at_a), lift("b", theta_b, at_b))
        for theta_side, embed, at, side in (
            (theta_a, a_embed, at_a, "a"),
            (theta_b, b_embed, at_b, "b"),
        ):
            restricted = Congruence.from_assignment(theta.block_of[k] for k in at)
            if restricted == theta_side:
                continue
            i, j = _first_mismatch(theta_side, restricted)
            return CongruenceWitness(
                to_parent_blocks(theta_a, a_embed),
                to_parent_blocks(theta_b, b_embed),
                side,
                (embed[i], embed[j]),
                theta_side.related(i, j),
            )
        return None

    if all(refusal(cons_a[0], m) is None for m in cons_b.meet_irreducibles) and all(
        refusal(m, cons_b[0]) is None for m in cons_a.meet_irreducibles
    ):
        return Verdict(True, None, len(cons_a) * len(cons_b))
    pairs = 0
    for theta_a in cons_a:
        for theta_b in cons_b:
            pairs += 1
            witness = refusal(theta_a, theta_b)
            if witness is not None:
                return Verdict(False, witness, pairs)
    raise RuntimeError(
        "invariant broken: certification refused a pair that the scan extends"
    )


def _first_mismatch(want: Congruence, got: Congruence) -> tuple[int, int]:
    """Lexicographically first (i, j), i < j, that one partition relates and
    the other does not."""
    m = want.size
    for i in range(m):
        for j in range(i + 1, m):
            if want.related(i, j) != got.related(i, j):
                return i, j
    raise ValueError("the partitions are equal")


# ---------------------------------------------------------------------------
# category-specific shortcut predicates
# ---------------------------------------------------------------------------

def boole_independent(
    parent: FiniteStructure, a: SubUniverse, b: SubUniverse
) -> bool:
    """True iff no nonzero elements of A and B meet to zero."""
    if not is_boolean_algebra(parent):
        raise InputError("parent is not a Boolean algebra")
    if a.parent != parent or b.parent != parent:
        raise InputError("subuniverses must belong to the given parent structure")
    meet = parent.op_table("meet")
    zero = parent.op_table("zero")[0]
    n = parent.size
    for x in a.members:
        if x == zero:
            continue
        for y in b.members:
            if y == zero:
                continue
            if meet[x * n + y] == zero:
                return False
    return True


@dataclass(frozen=True)
class GroupDiagnostics:
    """Normality facts about a subgroup pair, and the implied prediction."""

    intersection_trivial: bool
    a_normal_in_join: bool
    b_normal_in_join: bool
    prediction: str  # "independent" | "not_independent" | "no_prediction"


def group_diagnostics(
    parent: FiniteStructure, a: SubUniverse, b: SubUniverse
) -> GroupDiagnostics:
    """Report triviality of A n B and normality of A and B in the join.

    Both normal with trivial intersection forces independence; exactly one
    normal (in the join) forbids it; anything else earns no prediction.
    """
    if not is_group(parent):
        raise InputError("parent is not a group")
    if a.parent != parent or b.parent != parent:
        raise InputError("subuniverses must belong to the given parent structure")
    mul = parent.op_table("mul")
    inv = parent.op_table("inv")
    e = parent.op_table("e")[0]
    n = parent.size
    join_sub, _ = join(parent, a, b)

    def normal_in_join(sub: SubUniverse) -> bool:
        members = sub.member_set()
        for g in join_sub.members:
            gi = inv[g]
            for h in sub.members:
                if mul[mul[g * n + h] * n + gi] not in members:
                    return False
        return True

    trivial = (a.member_set() & b.member_set()) == {e}
    a_normal = normal_in_join(a)
    b_normal = normal_in_join(b)
    if a_normal and b_normal and trivial:
        prediction = "independent"
    elif a_normal != b_normal:
        prediction = "not_independent"
    else:
        prediction = "no_prediction"
    return GroupDiagnostics(trivial, a_normal, b_normal, prediction)


def check_word_condition(
    parent: FiniteStructure,
    a: SubUniverse,
    b: SubUniverse,
    alpha: Homomorphism,
    beta: Homomorphism,
) -> bool:
    """Does every product identity prod a_i b_i = e survive (alpha, beta)?

    Equivalent to the existence of the joint extension: the pair set generated
    by graph(alpha) u graph(beta) inside the join's square is exactly
    {(prod a_i b_i, prod alpha(a_i) beta(b_i))}, so the quantified word
    condition holds iff that set is functional.  Implemented through
    ``joint_extension``, whose term evaluation along the join's derivation
    DAG is this condition.
    """
    if not is_group(parent):
        raise InputError("parent is not a group")
    return isinstance(joint_extension(parent, a, b, alpha, beta), Homomorphism)
