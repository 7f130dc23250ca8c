"""Finite first-order structures over a shared signature.

Universes are always 0..size-1.  Operation tables are flat tuples, row-major
over argument tuples in lexicographic order, so ``table[flat_index(n, args)]``
is the value of the operation on ``args``.  Relations are frozensets of
argument tuples.  External element names live in an optional label table that
no algorithm ever reads.

Every type here is immutable after construction: values can be shared between
threads, memoized, and used as dict keys.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

import numpy as np


# Largest universe a structure may have.  ``validate`` refuses more, so a
# file cannot make a decider allocate per-element state for a size it only
# declares.
MAX_STRUCTURE_SIZE = 1 << 16
# Largest operation table or relation tuple set ``direct_product`` builds, in
# entries: the binary table of Z32 x Z32 (1024 elements).
MAX_PRODUCT_CELLS = 1 << 20


class InputError(ValueError):
    """An argument violates an operation's precondition."""


def _excerpt(value, limit: int = 32) -> str:
    """A refused value as an error message shows it: its repr, or, when the
    value's text is longer than ``limit``, its first ``limit`` characters
    and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= limit:
        return repr(value)
    return f"{text[:limit]!r}... ({len(text)} characters)"


class SizeLimitExceeded(RuntimeError):
    """An exhaustive computation would exceed its configured size bound."""


def flat_index(size: int, args: Iterable[int]) -> int:
    """Row-major index of an argument tuple in a flat operation table."""
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


@dataclass(frozen=True)
class Signature:
    """Operation and relation symbols with arities; the shared similarity type."""

    op_symbols: tuple[tuple[str, int], ...] = ()
    rel_symbols: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        names = [n for n, _ in self.op_symbols] + [n for n, _ in self.rel_symbols]
        if len(names) != len(set(names)):
            raise InputError("duplicate symbol name in signature")
        for name, ar in self.op_symbols:
            if ar < 0:
                raise InputError(f"operation symbol {name!r} has negative arity")
        for name, ar in self.rel_symbols:
            if ar < 1:
                raise InputError(f"relation symbol {name!r} must have arity >= 1")


@dataclass(frozen=True)
class FiniteStructure:
    """A finite structure: total operation tables plus relation tuple sets.

    ``op_tables[i]`` and ``rel_tables[i]`` are aligned with the signature's
    symbol lists.  Labels are display-only and excluded from equality.
    """

    sig: Signature
    size: int
    op_tables: tuple[tuple[int, ...], ...] = ()
    rel_tables: tuple[frozenset, ...] = ()
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __hash__(self) -> int:
        # the deciders' memos hash structures on every lookup, so the hash
        # of the compared fields is computed once and kept on the instance
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.sig, self.size, self.op_tables, self.rel_tables))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so a pickle carries the
        # fields only, not the hash, the ``_plan`` or the generating
        # sequence of ``morphisms._kept_sequence`` kept beside
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    def op_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.sig.op_symbols):
            if n == name:
                return i
        raise InputError(f"unknown operation symbol {name!r}")

    def op_table(self, name: str) -> tuple[int, ...]:
        return self.op_tables[self.op_index(name)]

    def op(self, name: str, *args: int) -> int:
        """Apply one operation; convenience accessor, not for hot loops."""
        return self.op_table(name)[flat_index(self.size, args)]

    def constants(self) -> list[int]:
        """Values of all arity-0 operation symbols."""
        return [
            self.op_tables[i][0]
            for i, (_, ar) in enumerate(self.sig.op_symbols)
            if ar == 0
        ]

    def op_views(self) -> list[tuple[str, int, tuple[int, ...]]]:
        """(name, arity, table) triples, in signature order."""
        return [
            (name, ar, self.op_tables[i])
            for i, (name, ar) in enumerate(self.sig.op_symbols)
        ]

    def rel_views(self) -> list[tuple[str, int, frozenset]]:
        return [
            (name, ar, self.rel_tables[i])
            for i, (name, ar) in enumerate(self.sig.rel_symbols)
        ]


# A structure of at most this many elements has every value in one byte, so
# ``_Plan.read`` gathers its lines with ``bytes.translate`` when the map's
# domain is that small too; otherwise numpy ``take`` gathers the same lines.
BYTE_RANGE = 256


def _generators(t) -> list[int]:
    """A generating set G of the binary table ``t``, an n x n array, under
    ``t`` alone: each element not yet reached joins G, and the reached set
    grows by right multiplication by G, in O(n*|G|) table reads.  Every
    reached element is a product of generators, so G generates; when ``t``
    is associative every product is reached, so G is the same as for a
    closure under all products."""
    rows = t.tolist()
    reached = [False] * len(rows)
    members: list[int] = []
    gens: list[int] = []
    for x in range(len(rows)):
        if reached[x]:
            continue
        gens.append(x)
        todo = [x] + [rows[r][x] for r in members]
        while todo:
            y = todo.pop()
            if not reached[y]:
                reached[y] = True
                members.append(y)
                row = rows[y]
                todo += [row[g] for g in gens]
    return gens


def _associative(t, gens=None) -> bool:
    """Is the binary table ``t`` associative?  Light's test (Clifford and
    Preston, *The Algebraic Theory of Semigroups* I, 1961, 1.2): the middle
    elements g with (x*g)*y = x*(g*y) for all x, y are closed under ``t``,
    so checking the generators g of ``gens`` (default ``_generators(t)``)
    is exact.  Each g compares t[t[:, g]] with t[:, t[g]], two n x n
    gathers of one shape, by their bytes, in O(n^2) time and memory."""
    if gens is None:
        gens = _generators(t)
    return all(
        t.take(t[:, g], axis=0).tobytes() == t.take(t[g], axis=1).tobytes() for g in gens
    )


class _Plan:
    """How one structure's operation tables are read: by the map checks of
    ``morphisms._preserves`` and ``is_congruence``, and by ``generation``.

    ``ops`` holds, per operation of positive arity in signature order, its
    arity and its table.  Line i of a table is the operation with its first
    arity-1 arguments fixed to the base-n digits of i, its prefix: cells
    i*n to i*n + n - 1.  The rest is built on first use:

    - ``lines``: each table as a numpy array of shape (n**(arity-1), n);
    - ``rows``: by position in ``ops``, the generators of ``_generators``
      for each binary operation that has fewer than n of them and that
      Light's test on them finds associative; with n generators the rows
      are every row, so the test is not run;
    - ``full`` and ``own``: the lines a check reads on the domain side,
      every line, or the generator rows for the operations in ``rows``;
    - ``tables``: on the codomain side, for at most ``BYTE_RANGE``
      elements, each line padded to one 256-byte ``bytes.translate`` table;
    - ``translations``: the basic translations, per argument position.

    The plan is kept on the structure, as its hash is; two threads that
    both build a part on a first call store equal values.
    """

    def __init__(self, structure: FiniteStructure):
        self.size = structure.size
        self.ops = [(ar, table) for _, ar, table in structure.op_views() if ar > 0]

    @functools.cached_property
    def lines(self) -> list[np.ndarray]:
        return [np.array(table, dtype=np.intp).reshape(-1, self.size) for _, table in self.ops]

    @functools.cached_property
    def rows(self) -> dict[int, list[int]]:
        rows = {}
        for i, ((ar, _), t) in enumerate(zip(self.ops, self.lines)):
            if ar == 2:
                gens = _generators(t)
                if len(gens) < self.size and _associative(t, gens):
                    rows[i] = gens
        return rows

    @functools.cached_property
    def full(self) -> tuple:
        return self._select({})

    @functools.cached_property
    def own(self) -> tuple:
        return self._select(self.rows) if self.rows else self.full

    @functools.cached_property
    def tables(self) -> list[list[bytes]]:
        m = self.size
        pad = bytes(BYTE_RANGE - m)
        return [
            [bytes(table[k : k + m]) + pad for k in range(0, len(table), m)]
            for _, table in self.ops
        ]

    @functools.cached_property
    def translations(self) -> list[tuple[int, list[tuple[int, ...]]]]:
        """(arity, family) per argument position p of each operation, by
        arity, then in signature order.  ``family[a]`` holds the table's own
        ints at the cells with a at p, the other arguments in row-major
        order (row a of a binary table at p = 0, column a at p = 1), so each
        basic translation is one column of a family.  A family equal to an
        earlier one of its operation, as in a commutative table, is left out."""
        n = self.size
        out = []
        for ar, table in sorted(self.ops, key=lambda op: op[0]):
            families: list = []
            for p in range(ar):
                inner = n ** (ar - 1 - p)  # runs of this many cells share the value at p
                if inner == 1:  # one strided slice, not n**ar one-cell runs
                    family = [table[a::n] for a in range(n)]
                else:
                    runs = [table[k : k + inner] for k in range(0, len(table), inner)]
                    family = [tuple(itertools.chain.from_iterable(runs[a::n])) for a in range(n)]
                if family not in families:
                    families.append(family)
            out += [(ar, family) for family in families]
        return out

    def _select(self, rows: dict) -> tuple:
        """The domain side of a check that reads the operations at the
        positions in ``rows`` on those rows and every other one on every
        line: per operation its arity, the line numbers and, above arity 2,
        their prefixes; and the cells of those lines, concatenated, as bytes
        when they fit in one and as an array above that."""
        n = self.size
        checks = []
        for i, (ar, table) in enumerate(self.ops):
            ids = rows.get(i, range(len(table) // n))
            prefixes = list(itertools.product(range(n), repeat=ar - 1)) if ar > 2 else None
            checks.append((ar, ids, prefixes))
        if n <= BYTE_RANGE:
            cells = b"".join(
                bytes(table) if i not in rows
                else b"".join(bytes(table[k * n : k * n + n]) for k in rows[i])
                for i, (_, table) in enumerate(self.ops)
            )
        else:
            cells = np.concatenate(
                [np.empty(0, dtype=np.intp)]
                + [t[ids].ravel() for (_, ids, _), t in zip(checks, self.lines)]
            )
        return checks, cells

    def read(self, checks, g):
        """This structure's operations read at the map ``g`` on every axis,
        over the lines ``checks`` of a domain of len(g) elements: f(gp, gx)
        for each checked prefix p and every x, in the order of the domain's
        cells.  Bytes, through the line tables, when both structures have
        at most ``BYTE_RANGE`` elements; else an array, by numpy ``take``."""
        m = self.size
        if m <= BYTE_RANGE and len(g) <= BYTE_RANGE:
            gb = bytes(g)
            parts = []
            for (ar, ids, prefixes), tables in zip(checks, self.tables):
                if ar == 1:
                    parts.append(gb.translate(tables[0]))
                elif ar == 2:
                    parts += [gb.translate(tables[g[r]]) for r in ids]
                else:
                    parts += [
                        gb.translate(tables[flat_index(m, [g[a] for a in p])])
                        for p in prefixes
                    ]
            return b"".join(parts)
        ga = np.array(g, dtype=np.intp)
        parts = [np.empty(0, dtype=np.intp)]
        for (ar, ids, prefixes), lines in zip(checks, self.lines):
            if ar == 1:
                at = [0]
            elif ar == 2:
                at = ga.take(ids)
            else:
                digits = ga.take(np.array(prefixes, dtype=np.intp))
                at = np.ravel_multi_index(tuple(digits.T), (m,) * (ar - 1))
            parts.append(lines.take(at, axis=0).take(ga, axis=1).ravel())
        return np.concatenate(parts)


def _plan(structure: FiniteStructure) -> _Plan:
    """The ``_Plan`` of ``structure``, built once and kept on it."""
    try:
        return structure.__dict__["_plan"]
    except KeyError:
        plan = _Plan(structure)
        object.__setattr__(structure, "_plan", plan)
        return plan


def validate(structure: FiniteStructure) -> list[str]:
    """Check all structure invariants; an empty list means the structure is ok.

    Diagnostics are ordered, so the first entry names the first violated
    invariant together with the offending indices.
    """
    diags: list[str] = []
    n = structure.size
    if n < 1:
        diags.append(f"size must be positive, got {n}")
        return diags
    if n > MAX_STRUCTURE_SIZE:
        diags.append(f"size {n} exceeds the bound of {MAX_STRUCTURE_SIZE} elements")
        return diags
    if len(structure.op_tables) != len(structure.sig.op_symbols):
        diags.append(
            f"expected {len(structure.sig.op_symbols)} operation tables, "
            f"got {len(structure.op_tables)}"
        )
        return diags
    if len(structure.rel_tables) != len(structure.sig.rel_symbols):
        diags.append(
            f"expected {len(structure.sig.rel_symbols)} relation tables, "
            f"got {len(structure.rel_tables)}"
        )
        return diags
    for i, (name, ar) in enumerate(structure.sig.op_symbols):
        table = structure.op_tables[i]
        # n**ar > len(table) once n >= 2 and ar exceeds the bit length of
        # len(table), so a huge arity is refused without building the power
        fits = n < 2 or ar <= len(table).bit_length()
        if not fits or len(table) != n**ar:
            diags.append(
                f"operation {name!r}: non-total table "
                f"(expected {n}**{ar} entries, got {len(table)})"
            )
            continue
        for j, v in enumerate(table):
            if not (0 <= v < n):
                diags.append(
                    f"operation {name!r}: out-of-range entry {v} at row {j}"
                )
                break
    for i, (name, ar) in enumerate(structure.sig.rel_symbols):
        for t in sorted(structure.rel_tables[i]):
            if len(t) != ar:
                diags.append(
                    f"relation {name!r}: tuple {t} has length {len(t)}, arity is {ar}"
                )
                break
            if any(not (0 <= v < n) for v in t):
                diags.append(f"relation {name!r}: out-of-range entry in tuple {t}")
                break
    if structure.labels is not None and len(structure.labels) != n:
        diags.append(
            f"labels: expected {n} entries, got {len(structure.labels)}"
        )
    return diags


def _check_elements(structure: FiniteStructure, elements: Iterable[int]) -> list[int]:
    out = []
    for e in elements:
        if not (0 <= e < structure.size):
            raise InputError(
                f"element {e} out of range for universe 0..{structure.size - 1}"
            )
        out.append(e)
    return out


def is_subuniverse(structure: FiniteStructure, subset: Iterable[int]) -> bool:
    """True iff the subset contains all constants and is closed under every op."""
    members = set(_check_elements(structure, subset))
    for name, ar, table in structure.op_views():
        if ar == 0:
            if table[0] not in members:
                return False
            continue
        for args in itertools.product(members, repeat=ar):
            if table[flat_index(structure.size, args)] not in members:
                return False
    return True


@dataclass(frozen=True)
class SubUniverse:
    """A subset of a parent structure's universe closed under all operations."""

    parent: FiniteStructure
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        if not is_subuniverse(self.parent, members):
            raise InputError(
                f"subset {list(members)} is not closed under the parent's operations"
            )

    @classmethod
    def _closed(cls, parent: FiniteStructure, members: tuple[int, ...]) -> "SubUniverse":
        """A subuniverse the library closed itself.  ``members`` must be
        sorted, distinct and closed; unlike the constructor, this does not
        check it again."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "members", members)
        return sub

    def __len__(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset:
        return frozenset(self.members)


def induced_substructure(
    structure: FiniteStructure, sub: SubUniverse
) -> tuple[FiniteStructure, tuple[int, ...]]:
    """Restrict a structure to a subuniverse, re-indexed to 0..|sub|-1.

    Returns the restricted structure together with the re-index map
    ``embed`` where ``embed[i]`` is the parent element of new element ``i``.
    Relation tuples survive exactly when all their entries lie in the
    subuniverse (the spanned reading of substructures).
    """
    if sub.parent != structure:
        raise InputError("subuniverse does not belong to this structure")
    if not sub.members:
        raise InputError("cannot induce a structure on the empty subuniverse")
    embed = sub.members
    pos = {e: i for i, e in enumerate(embed)}
    rel_tables = []
    for name, ar, tuples in structure.rel_views():
        kept = frozenset(
            tuple(pos[v] for v in t) for t in tuples if all(v in pos for v in t)
        )
        rel_tables.append(kept)
    labels = None
    if structure.labels is not None:
        labels = tuple(structure.labels[e] for e in embed)
    restricted = FiniteStructure(
        structure.sig, len(embed), _restrict(structure, embed, pos),
        tuple(rel_tables), labels,
    )
    return restricted, embed


def _restrict(
    structure: FiniteStructure, elements, relabel
) -> tuple[tuple[int, ...], ...]:
    """Every operation table of ``structure`` read on the argument tuples
    over ``elements``, in row-major order, each value passed through
    ``relabel``.  A constant is read on the one empty tuple, at index 0."""
    n = structure.size
    return tuple(
        tuple(
            relabel[table[flat_index(n, args)]]
            for args in itertools.product(elements, repeat=ar)
        )
        for _, ar, table in structure.op_views()
    )


def _check_product(sig: Signature, n: int, rel_sizes: Iterable[int] = ()) -> None:
    """Refuse a product of ``n`` elements, whose relations would hold
    ``rel_sizes`` tuples, with more than ``MAX_STRUCTURE_SIZE`` elements or
    an operation table or relation over ``MAX_PRODUCT_CELLS`` entries."""
    if n > MAX_STRUCTURE_SIZE:
        raise InputError(
            f"the product would have {_excerpt(n)} elements, over the bound of {MAX_STRUCTURE_SIZE}"
        )
    cells = max([n**ar for _, ar in sig.op_symbols] + list(rel_sizes), default=0)
    if cells > MAX_PRODUCT_CELLS:
        raise InputError(
            f"the product would have {n} elements and a table of {cells} entries, "
            f"over the bound of {MAX_PRODUCT_CELLS} cells"
        )


def direct_product(x: FiniteStructure, y: FiniteStructure) -> FiniteStructure:
    """Componentwise product; pair (i, j) becomes element i*|y| + j.

    A relation holds on a tuple of pairs iff it holds componentwise in both
    factors.  A product over ``MAX_STRUCTURE_SIZE`` elements, or with a
    table or relation over ``MAX_PRODUCT_CELLS`` entries, is refused first.
    """
    if x.sig != y.sig:
        raise InputError("direct product requires structures of the same signature")
    nx, ny = x.size, y.size
    n = nx * ny
    _check_product(
        x.sig, n, [len(rx) * len(ry) for rx, ry in zip(x.rel_tables, y.rel_tables)]
    )
    op_tables = [
        _product_table(tx, ty, nx, ny, ar)
        for (_, ar), tx, ty in zip(x.sig.op_symbols, x.op_tables, y.op_tables)
    ]
    rel_tables = [
        frozenset(tuple(u * ny + v for u, v in zip(tx, ty)) for tx in rx for ty in ry)
        for rx, ry in zip(x.rel_tables, y.rel_tables)
    ]
    return FiniteStructure(x.sig, n, tuple(op_tables), tuple(rel_tables))


def _product_table(tx, ty, nx: int, ny: int, ar: int) -> tuple[int, ...]:
    """The product's table of an operation of arity ``ar``, from the tables
    ``tx`` and ``ty`` of factors of ``nx`` and ``ny`` elements.  Pair (x, y)
    is x*ny + y, so the product's row-major argument axes split into
    (x1, y1, ..., xar, yar), and the table is one broadcast sum of tx over
    the x axes and ty over the y axes."""
    if nx * ny == 1:  # one cell, whatever the arity; numpy caps its axes
        return (tx[0] * ny + ty[0],)
    x = np.asarray(tx, dtype=np.intp).reshape((nx, 1) * ar)
    flat = x * ny + np.asarray(ty, dtype=np.intp).reshape((1, ny) * ar)
    return tuple(flat.ravel().tolist())


@dataclass(frozen=True)
class Congruence:
    """A partition stored as a canonical block assignment.

    ``block_of[e]`` is the block index of element e; blocks are numbered by
    first occurrence, so equal partitions always compare equal.  The block
    count is stored once, outside the fields, so equality, hashing and
    ``asdict`` see only ``block_of``.
    """

    block_of: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = -1
        for b in self.block_of:
            if b > seen + 1 or b < 0:
                raise InputError("block assignment is not in canonical form")
            seen = max(seen, b)
        object.__setattr__(self, "_num_blocks", seen + 1)

    @staticmethod
    def from_assignment(values: Iterable[int]) -> "Congruence":
        """Canonicalize an arbitrary labelling into first-occurrence numbering,
        which the constructor would only scan again."""
        relabel: dict[int, int] = {}
        out = []
        for v in values:
            if v not in relabel:
                relabel[v] = len(relabel)
            out.append(relabel[v])
        return Congruence._canonical(tuple(out), len(relabel))

    @staticmethod
    def _canonical(block_of: tuple[int, ...], num_blocks: int) -> "Congruence":
        """A partition the library numbered itself.  ``block_of`` must already
        be in first-occurrence form with ``num_blocks`` blocks; unlike the
        constructor, this does not check it again."""
        theta = object.__new__(Congruence)
        object.__setattr__(theta, "block_of", block_of)
        object.__setattr__(theta, "_num_blocks", num_blocks)
        return theta

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Congruence":
        assign = [-1] * size
        for i, block in enumerate(blocks):
            for e in block:
                if not (0 <= e < size) or assign[e] != -1:
                    raise InputError("blocks must partition 0..size-1")
                assign[e] = i
        if -1 in assign:
            raise InputError("blocks must cover the whole universe")
        return Congruence.from_assignment(assign)

    @staticmethod
    def identity(size: int) -> "Congruence":
        return Congruence(tuple(range(size)))

    @staticmethod
    def full(size: int) -> "Congruence":
        return Congruence((0,) * size)

    @property
    def size(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for e, b in enumerate(self.block_of):
            out[b].append(e)
        return tuple(tuple(block) for block in out)

    def generating_pairs(self) -> list[tuple[int, int]]:
        """Consecutive pairs inside each block; they generate the partition."""
        pairs = []
        for block in self.blocks():
            for a, b in zip(block, block[1:]):
                pairs.append((a, b))
        return pairs

    def is_identity(self) -> bool:
        return self.num_blocks == self.size

    def is_full(self) -> bool:
        return self.num_blocks <= 1


def is_congruence(structure: FiniteStructure, theta: Congruence) -> bool:
    """True iff the partition is compatible with every operation table.

    With r(x) the first element of x's block, θ is compatible exactly when
    f(x) θ f(r(x)) for every argument tuple x, since x θ y gives r(x) =
    r(y).  So the blocks of every table are compared with the blocks of the
    table read at r on every axis, which ``_Plan.read`` gathers."""
    if theta.size != structure.size:
        return False
    block = theta.block_of
    first: list[int] = []  # blocks are numbered by first occurrence
    for e, b in enumerate(block):
        if b == len(first):
            first.append(e)
    plan = _plan(structure)
    checks, cells = plan.full
    right = plan.read(checks, [first[b] for b in block])
    if isinstance(right, bytes):
        to_block = bytes(block) + bytes(BYTE_RANGE - len(block))
        return cells.translate(to_block) == right.translate(to_block)
    to_block = np.array(block, dtype=np.intp)
    if isinstance(cells, bytes):
        cells = np.frombuffer(cells, dtype=np.uint8)
    return to_block.take(cells).tobytes() == to_block.take(right).tobytes()


def quotient(
    structure: FiniteStructure, theta: Congruence
) -> tuple[FiniteStructure, tuple[int, ...]]:
    """Quotient by a congruence; returns the block structure and the block map.

    Operations act on each block's first element, after ``is_congruence``
    has checked that this is well-defined; a relation holds on blocks iff it
    holds on some representative tuple.
    """
    if theta.size != structure.size:
        raise InputError("congruence size does not match the structure")
    if not is_congruence(structure, theta):
        raise InputError("not a congruence: an operation is ill-defined on blocks")
    block = theta.block_of
    blocks = theta.blocks()
    op_tables = _restrict(structure, [b[0] for b in blocks], block)
    rel_tables = []
    for name, ar, tuples in structure.rel_views():
        rel_tables.append(frozenset(tuple(block[v] for v in t) for t in tuples))
    labels = tuple("{" + ",".join(map(str, b)) + "}" for b in blocks)
    q = FiniteStructure(structure.sig, len(blocks), op_tables, tuple(rel_tables), labels)
    return q, theta.block_of
