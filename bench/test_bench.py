"""Tests of the benchmark's own helpers: relabelling, the tail percentile and
span arithmetic.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import pytest

from run import tail_percentile
from spans import EXTEND, FUNCTIONS, SpanRecorder, install, self_times
from workloads import CASES, fresh_library, is_image, is_isomorphism, permutation, relabel

# Groups, Boolean algebras, vector spaces, sets and a graph with relations.
PARENTS = CASES["census"] + CASES["deep-pairs"]


@pytest.fixture(scope="module")
def lib():
    return fresh_library()


def _inverse(perm):
    inverse = [0] * len(perm)
    for x, y in enumerate(perm):
        inverse[y] = x
    return tuple(inverse)


@pytest.mark.parametrize("case", PARENTS, ids=lambda c: c.name)
def test_relabelling_is_an_isomorphism(lib, case):
    original = case.make(lib)
    perm = permutation(original.size, 5, case.name)
    copy = relabel(lib, original, perm)
    assert is_image(original, copy, perm)
    assert is_isomorphism(original, copy, perm)
    assert is_isomorphism(copy, original, _inverse(perm))
    assert lib["api"].is_homomorphism(original, copy, perm, "strong")


def test_seed_zero_keeps_the_labels_and_other_seeds_repeat():
    assert permutation(12, 0, "Z12") == tuple(range(12))
    assert permutation(12, 3, "Z12") == permutation(12, 3, "Z12")
    assert permutation(12, 3, "Z12") != permutation(12, 4, "Z12")
    assert sorted(permutation(12, 3, "Z12")) == list(range(12))


def test_image_check_rejects_wrong_copies(lib):
    api = lib["api"]
    s4 = api.build("symmetric_group", 4)[0]
    perm = permutation(s4.size, 1, "S4")
    copy = relabel(lib, s4, perm)
    swapped = list(perm)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not is_image(s4, copy, swapped)
    tables = [list(t) for t in copy.op_tables]
    tables[2][5] = (tables[2][5] + 1) % s4.size
    broken = lib["core"].FiniteStructure(copy.sig, copy.size, tuple(map(tuple, tables)))
    assert not is_image(s4, broken, perm)

    cycle = api.build("graph", 3, [(0, 1), (1, 2), (2, 0)])[0]
    perm = permutation(3, 2, "cycle")
    copy = relabel(lib, cycle, perm)
    assert is_image(cycle, copy, perm)
    fewer = lib["core"].FiniteStructure(
        copy.sig, 3, (), (frozenset(list(copy.rel_tables[0])[1:]),)
    )
    assert not is_image(cycle, fewer, perm)
    assert not is_isomorphism(cycle, fewer, perm)


def test_percentile_reports_its_sample_count():
    p99 = tail_percentile(list(range(1, 1001)), 99)
    assert (p99.value, p99.count, p99.beyond) == (990, 1000, 10)
    p50 = tail_percentile([5.0] * 10 + [1.0] * 10, 50)
    assert (p50.value, p50.count, p50.beyond) == (1.0, 20, 10)


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(999)), 99) is None
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile([], 50) is None


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4], which holds c [2, 3], and b [5, 9]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own == [3, 2, 1, 4]
    assert sum(own) == end[0] - start[0]


def test_recorder_nests_wrapped_calls():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: next(ticks))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [rec.names[i] for i in rec.name] == ["outer", "inner", "inner"]
    assert list(rec.parent) == [-1, 0, 0]
    own = self_times(rec.start, rec.end, rec.parent)
    assert own == [3.0, 1.0, 1.0]
    assert sum(own) == rec.end[0] - rec.start[0]


def test_stream_spans_cover_each_next():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: next(ticks))
    stream = rec.wrap_stream("s", lambda n: iter(range(n)))
    assert list(stream(3)) == [0, 1, 2]
    assert len(rec) == 4  # three items and the exhausted call
    assert rec.counters["s.streams"] == 1
    assert rec.counters["s.yielded"] == 3
    assert all(rec.end[i] > rec.start[i] for i in range(len(rec)))


def test_wrappers_reach_every_import_site():
    traced = fresh_library()
    rec = SpanRecorder()
    install(traced, rec)
    for _, _, attr in FUNCTIONS:
        for module in traced.values():
            value = vars(module).get(attr)
            if value is not None:
                assert hasattr(value, "__wrapped__"), (module.__name__, attr)
    api = traced["api"]
    z6 = api.build("cyclic_group", 6)[0]
    a, b = api.SubUniverse(z6, (0, 3)), api.SubUniverse(z6, (0, 2, 4))
    verdict = api.decide_subalgebra_independence(z6, a, b)
    extends = sum(rec.names[i] == EXTEND for i in rec.name)
    assert extends == verdict.pairs_examined == 6
