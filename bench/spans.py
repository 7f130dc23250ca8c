"""Span recorder for the traced benchmark run.

A span is one call across a layer boundary of the library: its name, start,
end, the span that was open when it began (its parent) and the job it belongs
to.  Spans live in flat arrays while the benchmark runs, so a census pass of a
few hundred thousand calls stays a few megabytes, and are written out once,
when the run ends.

The wrappers are installed from the benchmark's own code, around the
library's public functions at every module that imported them; nothing in the
library knows it is being traced.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter

# (layer name, defining module, attribute); wrapped at every import site.
FUNCTIONS = (
    ("core.is_subuniverse", "core", "is_subuniverse"),
    ("core.induced_substructure", "core", "induced_substructure"),
    ("generation.close", "generation", "close"),
    ("generation.join", "generation", "join"),
    ("generation.cg", "generation", "cg"),
    ("generation.all_subuniverses", "generation", "all_subuniverses"),
    ("generation.all_congruences", "generation", "all_congruences"),
    ("morphisms.find_isomorphism", "morphisms", "find_isomorphism"),
    ("independence.decide_subalgebra_independence", "independence",
     "decide_subalgebra_independence"),
    ("independence.decide_congruence_independence", "independence",
     "decide_congruence_independence"),
    ("io.load_structure", "io", "load_structure"),
    ("zoo.build", "zoo", "build"),
)
# Layers whose results are counted: "found" is the length of the returned list.
FOUND = ("generation.all_subuniverses", "generation.all_congruences")
STREAM = "morphisms.enumerate_endos"
EXTEND = "morphisms.extend"
JOINT_CONTEXT = "morphisms.joint_context"


class SpanRecorder:
    """Spans of one run, in call order, so a parent always precedes its
    children."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.current_job = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_stream(self, name: str, fn):
        """A generator function whose every ``next()`` is a span; counts the
        streams opened and the items they yield."""
        nid = self.name_id(name)
        counters = self.counters

        def stream(it):
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                counters[name + ".yielded"] += 1
                yield item

        def traced(*args, **kwargs):
            counters[name + ".streams"] += 1
            return stream(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """All spans as gzipped TSV: name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations add up.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def install(modules: dict, recorder: SpanRecorder) -> None:
    """Wrap the traced layers at every module of ``modules`` that holds them.

    ``modules`` maps short names ("core", "morphisms", ...) to the library's
    freshly imported modules; the package itself is included under "api".
    """
    counters = recorder.counters

    def count_found(name):
        def on_result(result):
            counters[name + ".found"] += len(result)

        return on_result

    def replace(original, wrapped):
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    for name, home, attr in FUNCTIONS:
        original = getattr(modules[home], attr)
        on_result = count_found(name) if name in FOUND else None
        replace(original, recorder.wrap(name, original, on_result))
    original = modules["morphisms"].enumerate_endos
    replace(original, recorder.wrap_stream(STREAM, original))

    refusal = modules["morphisms"].ExtensionRefusal

    def count_refused(result):
        if isinstance(result, refusal):
            counters[EXTEND + ".refused"] += 1

    ctx = modules["morphisms"]._JointContext
    ctx.extend = recorder.wrap(EXTEND, ctx.extend, count_refused)
    ctx.__init__ = recorder.wrap(JOINT_CONTEXT, ctx.__init__)


def check_nesting(recorder: SpanRecorder) -> list[str]:
    """Problems with the recorded spans: children must lie inside their
    parent and no span may be left open."""
    problems = []
    start, end, parent = recorder.start, recorder.end, recorder.parent
    for i in range(len(recorder)):
        if end[i] < start[i]:
            problems.append(f"span {i} ({recorder.names[recorder.name[i]]}) never closed")
        p = parent[i]
        if p >= 0 and (start[i] < start[p] or end[i] > end[p]):
            problems.append(f"span {i} lies outside its parent {p}")
        if len(problems) >= 5:
            break
    return problems

