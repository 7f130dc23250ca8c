"""The deciders' memos: a memoized stream or induced structure never changes
a verdict, whatever the order of calls, and a stream is read once."""

import dataclasses
import importlib
import itertools
import pkgutil
import sys
import threading

import pytest

import algindep
from algindep import generation, independence, morphisms
from algindep.core import InputError, SubUniverse, induced_substructure
from algindep.generation import all_congruences, all_subuniverses, close, join
from algindep.independence import decide_congruence_independence, decide_subalgebra_independence
from algindep.morphisms import HOM_CLASSES, Homomorphism, enumerate_endos, joint_extension
from algindep.zoo import (
    cyclic_group,
    dihedral_group,
    empty_sig_set,
    graph,
    permutation_index,
    powerset_boolean_algebra,
    symmetric_group,
    vector_space,
)

from oracles import reference_subalgebra_independence

MODES = ("weak", "strong")


def _reflexive_path(n):
    edges = [(v, v) for v in range(n)]
    for v in range(n - 1):
        edges += [(v, v + 1), (v + 1, v)]
    return graph(n, edges)


def _graph5():
    return graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 0), (2, 4)])


# Groups, spaces and Boolean algebras have no relations, so one mode suffices.
ORDER_CASES = [
    (symmetric_group(3), MODES),
    (empty_sig_set(4), MODES),
    (_reflexive_path(4), MODES),
    (symmetric_group(4), ("weak",)),
    (dihedral_group(6), ("weak",)),
    (vector_space(2, 3), ("weak",)),
    (powerset_boolean_algebra(3), ("weak",)),
    (_graph5(), MODES),
]
ORDER_IDS = ["S3", "set4", "reflexive-path4", "S4", "D6", "F2^3", "BA3", "graph5"]


@pytest.mark.parametrize("parent, modes", ORDER_CASES, ids=ORDER_IDS)
def test_verdicts_do_not_depend_on_call_order(parent, modes, cold_memos):
    # every ordered subuniverse pair in the modes and both hom classes,
    # forward on a cold and then a warm memo, backward on a warm and then a
    # cold one: each run equals the per-pair propagation reference, whether
    # the join's tables were compiled for this pair, for its reverse, or for
    # another pair with the same join
    subs = all_subuniverses(parent)
    keys = [
        (a, b, hom_class, mode)
        for mode in modes
        for hom_class in HOM_CLASSES
        for a in subs
        for b in subs
    ]
    expected = {k: reference_subalgebra_independence(parent, *k) for k in keys}
    assert not all(v.independent for v in expected.values())
    runs = ((keys, True), (keys, False), (keys[::-1], False), (keys[::-1], True))
    for order, cold in runs:
        if cold:
            cold_memos()
        for k in order:
            assert decide_subalgebra_independence(parent, *k) == expected[k]


@pytest.mark.parametrize("parent, modes", ORDER_CASES[3:], ids=ORDER_IDS[3:])
def test_joint_extension_is_the_same_on_cold_and_warm_memos(parent, modes, cold_memos):
    # the first two endomorphisms of each side, every ordered subuniverse
    # pair: gamma (or the refusal) computed on empty memos, then again with
    # every join compiled
    subs = all_subuniverses(parent)
    calls = []
    for mode in modes:
        for a in subs:
            for b in subs:
                ends = []
                for sub in (a, b):
                    struct, _ = induced_substructure(parent, sub)
                    ends.append(list(itertools.islice(enumerate_endos(struct, mode), 2)))
                calls += [(a, b, alpha, beta) for alpha in ends[0] for beta in ends[1]]
    cold = []
    for call in calls:
        cold_memos()
        cold.append(joint_extension(parent, *call))
    assert any(isinstance(g, Homomorphism) for g in cold)
    assert any(not isinstance(g, Homomorphism) for g in cold)
    assert [joint_extension(parent, *call) for call in calls] == cold


def test_induced_records_stay_within_the_memo_bound(cold_memos):
    # more distinct subuniverses than the memo keeps: the oldest records are
    # evicted, and a pair whose records were rebuilt decides alike
    s11 = empty_sig_set(11)
    pairs = [
        (SubUniverse(s11, members), SubUniverse(s11, members[:1]))
        for k in range(2, 12)
        for members in itertools.combinations(range(11), k)
    ][: morphisms._INDUCED_MEMO_SIZE + 100]
    first = [decide_subalgebra_independence(s11, *pair) for pair in pairs[:3]]
    for pair in pairs:
        morphisms._JointContext(s11, *pair, "weak")
    info = morphisms._induced_memo.cache_info()
    assert info.maxsize == morphisms._INDUCED_MEMO_SIZE == 1024
    assert info.currsize == info.maxsize
    for (join, side), verdict in zip(pairs[:3], first):
        misses = morphisms._induced_memo.cache_info().misses
        assert decide_subalgebra_independence(s11, join, side) == verdict
        assert morphisms._induced_memo.cache_info().misses == misses + 1  # rebuilt


def test_census_of_a_5_set_opens_one_stream_per_size(monkeypatch):
    # 961 decisions over subsets of 1..5 elements induce five structures
    s5 = empty_sig_set(5)
    subs = all_subuniverses(s5)
    assert len(subs) == 31
    opened = []
    enumerate_endos = independence.enumerate_endos

    def counting(structure, mode, hom_class):
        opened.append(structure.size)
        return enumerate_endos(structure, mode, hom_class)

    monkeypatch.setattr(independence, "enumerate_endos", counting)
    for a in subs:
        for b in subs:
            decide_subalgebra_independence(s5, a, b)
    assert sorted(opened) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "kwargs", [{"hom_class": "bogus"}, {"mode": "bogus"}], ids=["hom_class", "mode"]
)
def test_unknown_mode_or_hom_class_raises_on_every_call(kwargs):
    z6 = cyclic_group(6)
    a, b = SubUniverse(z6, (0, 3)), SubUniverse(z6, (0, 2, 4))
    for _ in range(2):
        with pytest.raises(InputError):
            decide_subalgebra_independence(z6, a, b, **kwargs)
    assert decide_subalgebra_independence(z6, a, b).pairs_examined == 6


def _s3_pair():
    s3 = symmetric_group(3)
    a, _ = close(s3, [permutation_index(3, (1, 2, 0))])
    b, _ = close(s3, [permutation_index(3, (1, 0, 2))])
    return s3, a, b


def _z6_pair():
    z6 = cyclic_group(6)
    return z6, SubUniverse(z6, (0, 3)), SubUniverse(z6, (0, 2, 4))


@pytest.mark.parametrize("after", [0, 1])
@pytest.mark.parametrize("make", [_s3_pair, _z6_pair], ids=["S3-refused", "Z6-independent"])
def test_stream_that_raised_is_not_replayed(monkeypatch, make, after):
    # the first stream opened raises when item ``after`` is read; a
    # truncated replay would examine fewer pairs, or call S3 independent
    parent, a, b = make()
    enumerate_endos = independence.enumerate_endos
    opened = []

    def flaky(structure, mode, hom_class):
        stream = enumerate_endos(structure, mode, hom_class)
        opened.append(structure)
        if len(opened) > 1:
            return stream

        def raising():
            for k, hom in enumerate(stream):
                if k == after:
                    raise RuntimeError("injected")
                yield hom

        return raising()

    monkeypatch.setattr(independence, "enumerate_endos", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        decide_subalgebra_independence(parent, a, b)
    for _ in range(2):
        got = decide_subalgebra_independence(parent, a, b)
        assert got == reference_subalgebra_independence(parent, a, b)


def test_joint_extension_keeps_each_parents_labels():
    # parents equal in value but not in labels get their own induced
    # structures: the extension lives on this parent's join, labels included
    z6 = cyclic_group(6)
    renamed = dataclasses.replace(z6, labels=tuple(f"g{i}" for i in range(6)))
    assert renamed == z6 and renamed.labels != z6.labels
    for parent in (z6, renamed, z6):
        a, b = SubUniverse(parent, (0, 3)), SubUniverse(parent, (0, 2, 4))
        a_struct, _ = induced_substructure(parent, a)
        b_struct, _ = induced_substructure(parent, b)
        gamma = joint_extension(
            parent,
            a,
            b,
            Homomorphism(a_struct, a_struct, (0, 1)),
            Homomorphism(b_struct, b_struct, (0, 1, 2)),
        )
        jstruct, _ = induced_substructure(parent, join(parent, a, b)[0])
        assert gamma.dom.labels == jstruct.labels == parent.labels


def test_threads_sharing_cold_memos_get_the_sequential_verdicts(cold_memos):
    # more threads than cores read the same streams from a cold memo at
    # once; a lost or reordered item would change a verdict
    parents = [symmetric_group(3), empty_sig_set(4)]
    jobs = [
        (parent, a, b, hom_class)
        for parent in parents
        for hom_class in HOM_CLASSES
        for a in all_subuniverses(parent)
        for b in all_subuniverses(parent)
    ]
    expected = [decide_subalgebra_independence(*job) for job in jobs]
    workers = 6
    start = threading.Barrier(workers)

    def work(w):
        start.wait()
        results[w] = [decide_subalgebra_independence(*job) for job in jobs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            cold_memos()
            results = [None] * workers
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharing_the_lattice_memo_get_the_sequential_lattices(
    monkeypatch, cold_memos
):
    # more threads than cores fill and evict the congruence lattice memo at
    # once; a lost update would return a wrong lattice or leave the memo
    # over its bound
    structures = [empty_sig_set(n) for n in range(1, 7)]
    structures += [symmetric_group(3), dihedral_group(4), vector_space(2, 3)]

    def lattices():
        return [(list(t), t.meet_irreducibles) for t in map(all_congruences, structures)]

    expected = lattices()
    bound = 250  # under the 303 congruences of all nine lattices
    monkeypatch.setattr(generation, "_LATTICE_MEMO_CONGRUENCES", bound)
    workers = 6
    start = threading.Barrier(workers)

    def work(w):
        start.wait()
        results[w] = lattices()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cold_memos()
            results = [None] * workers
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert all(r == expected for r in results)
            held = sum(len(cons) for cons, _ in generation._lattice_memo.values())
            assert 0 < held <= bound
    finally:
        sys.setswitchinterval(interval)


def _module_memos() -> dict[str, int]:
    """Every module-level memo of the library by name, with its size: each
    ``lru_cache`` and each ``_*_memo`` dict."""
    memos = {}
    for info in pkgutil.iter_modules(algindep.__path__):
        module = importlib.import_module(f"algindep.{info.name}")
        for name, value in vars(module).items():
            where = f"{info.name}.{name}"
            if hasattr(value, "cache_info"):
                memos[where] = value.cache_info().currsize
            elif name.startswith("_") and name.endswith("_memo") and isinstance(value, dict):
                memos[where] = len(value)
    return memos


def test_the_memo_fixture_empties_every_module_memo(cold_memos):
    # one decision of each kind fills every memo; a memo that the fixture
    # in conftest.py does not empty fails here
    z6 = cyclic_group(6)
    a, b = SubUniverse(z6, (0, 3)), SubUniverse(z6, (0, 2, 4))
    decide_subalgebra_independence(z6, a, b)
    decide_congruence_independence(z6, a, b)
    all_congruences(z6)
    filled = _module_memos()
    assert {"generation._lattice_memo", "independence._endo_memo", "morphisms._induced_memo"} <= set(filled)
    assert all(filled.values()), filled
    cold_memos()
    assert not any(_module_memos().values())
