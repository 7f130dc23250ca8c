"""The deciders' memos: a memoized stream or induced structure never changes
a verdict, whatever the order of calls, and a stream is read once."""

import dataclasses
import sys
import threading

import pytest

from algindep import independence
from algindep.core import InputError, SubUniverse, induced_substructure
from algindep.generation import all_subuniverses, close, join
from algindep.independence import decide_subalgebra_independence
from algindep.morphisms import HOM_CLASSES, Homomorphism, joint_extension
from algindep.zoo import (
    cyclic_group,
    empty_sig_set,
    graph,
    permutation_index,
    symmetric_group,
)

from oracles import reference_subalgebra_independence

MODES = ("weak", "strong")


def _reflexive_path(n):
    edges = [(v, v) for v in range(n)]
    for v in range(n - 1):
        edges += [(v, v + 1), (v + 1, v)]
    return graph(n, edges)


@pytest.mark.parametrize(
    "parent",
    [symmetric_group(3), empty_sig_set(4), _reflexive_path(4)],
    ids=["S3", "set4", "reflexive-path4"],
)
def test_verdicts_do_not_depend_on_call_order(parent, cold_memos):
    # every ordered subuniverse pair in both modes and both hom classes,
    # forward on a cold and then a warm memo, backward on a warm and then a
    # cold one: each run equals the per-pair propagation reference
    subs = all_subuniverses(parent)
    keys = [
        (a, b, hom_class, mode)
        for mode in MODES
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
