"""Benchmark of the algindep deciders: one workload, one seed, one run.

    python3 bench/run.py --workload census --seed 0 --seconds 28 --trace 0

A run repeats passes until --seconds have been spent (at least three).  Each
pass sets the library up from scratch (fresh import, build, relabel, JSON
round trip), then makes the workload's library calls one after another in
this one thread, a closed loop with a single client, and checks every output.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are its per-layer ones, from passes that
alternate between untraced and traced.  bench/README.md explains the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import (
    EXTEND,
    FUNCTIONS,
    JOINT_CONTEXT,
    STREAM,
    SpanRecorder,
    check_nesting,
    install,
    self_times,
)
from workloads import (
    PASSES,
    WORKLOADS,
    BenchError,
    Jobs,
    check,
    expected_found,
    fresh_library,
    set_up,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
# Set-up takes tens of milliseconds, so each untraced pass repeats it to give
# its median enough samples; the pass runs on the last one.
SETUPS_PER_PASS = 3
# Traced passes keep every span in memory; this caps that memory when passes
# get fast.
MAX_TRACED_PASSES = 8
# Times are scaled to a host on which one probe takes this long; see probe().
PROBE_REFERENCE_S = 0.05
PROBES_PER_PASS = 3


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop, as a gauge of how fast the
    host runs this process right now.

    The host's speed drifts by up to 1.5x over minutes.  The median probe
    time over a run follows that drift, so dividing by it makes runs made
    minutes apart comparable.
    """
    start = perf_counter()
    x = 0
    for i in range(600_000):
        x += i * i % 7
    return perf_counter() - start


@dataclass(frozen=True)
class Percentile:
    value: float
    count: int  # samples
    beyond: int  # samples ranked above the value


def tail_percentile(samples, q: int):
    """Nearest-rank q-th percentile, or None unless at least ten samples lie
    beyond it."""
    n = len(samples)
    rank = -(-q * n // 100)
    if rank < 1 or n - rank < 10:
        return None
    return Percentile(sorted(samples)[rank - 1], n, n - rank)


@dataclass
class Pass:
    traced: bool
    setup_s: list[float]
    wall_s: float
    kinds: list[str]
    seconds: list[float]
    outcomes: list
    spans: tuple[int, int, int] = (0, 0, 0)  # first span, pass span, end
    counters: Counter = field(default_factory=Counter)
    cache: tuple[int, int] = (0, 0)  # generating_sequence hits, misses


def _cache_info(lib) -> tuple[int, int]:
    info = getattr(lib["morphisms"].generating_sequence, "cache_info", None)
    if info is None:
        return (0, 0)
    stats = info()
    return (stats.hits, stats.misses)


def run_pass(workload: str, seed: int, workdir: Path, recorder=None) -> Pass:
    setup_s = []
    for _ in range(SETUPS_PER_PASS if recorder is None else 1):
        start = perf_counter()
        lib = fresh_library()
        first = len(recorder) if recorder is not None else 0
        if recorder is not None:
            install(lib, recorder)
            setup_span = recorder.open(recorder.name_id("bench.setup"))
        parents = set_up(lib, workload, seed, workdir)
        setup_s.append(perf_counter() - start)
    if recorder is not None:
        recorder.close(setup_span)
        counters_before = Counter(recorder.counters)
        pass_span = recorder.open(recorder.name_id("bench.pass"))
    cache_before = _cache_info(lib)
    jobs = Jobs(recorder)
    begin = perf_counter()
    out = PASSES[workload](lib, parents, jobs)
    wall_s = perf_counter() - begin
    result = Pass(recorder is not None, setup_s, wall_s, jobs.kinds, jobs.seconds, [])
    if recorder is not None:
        recorder.close(pass_span)
        recorder.current_job = -1
        result.spans = (first, pass_span, len(recorder))
        result.counters = recorder.counters - counters_before
    hits, misses = _cache_info(lib)
    result.cache = (hits - cache_before[0], misses - cache_before[1])
    result.outcomes = check(workload, out)
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path):
    """Passes until ``seconds`` are spent, the span recorder of the traced ones,
    the process's peak memory after its first pass in MB, and the probe
    times taken before each pass."""
    recorder = SpanRecorder() if trace else None
    deadline = perf_counter() + seconds
    passes: list[Pass] = []
    probes: list[float] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        began = perf_counter()
        probes += [probe() for _ in range(PROBES_PER_PASS)]
        passes.append(run_pass(workload, seed, workdir, recorder if traced else None))
        took = perf_counter() - began
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(passes) < (4 if trace else MIN_PASSES):  # traced: two of each
            continue
        if trace and sum(p.traced for p in passes) >= MAX_TRACED_PASSES:
            break
        if perf_counter() + took > deadline:
            break
    return passes, recorder, peak_rss_mb, probes


def check_outputs(workload: str, seed: int, passes: list[Pass]) -> None:
    """Pass-to-pass determinism, and at seed 0 the recorded digests."""
    recorded = json.loads((HERE / "expected.json").read_text())["digests"][workload]
    reference = passes[0].outcomes
    for p in passes:
        for outcome, ref in zip(p.outcomes, reference):
            if outcome.digest != ref.digest:
                outcome.problems.append("outputs differ from the first pass")
            if seed == 0 and recorded.get(outcome.name) != outcome.digest:
                outcome.problems.append(
                    f"digest {outcome.digest} differs from the recorded seed-0 digest"
                )


def end_to_end(passes: list[Pass], peak_rss_mb: float, probes: list[float]):
    """End-to-end metrics, and report lines for those only some workloads have.

    Passes repeat identical work, so their times differ only by what the host
    adds, and the pass time is that of the fastest pass.  Set-up is the median
    of every set-up in the run.  Both are scaled to the reference host speed
    by the run's median probe time.  Memory is taken after the first pass, as
    a process that runs the workload once would use it: every fresh import
    leaves about a megabyte behind, so later passes would make it depend on
    how many passes the run made.
    """
    setup_s = statistics.median(s for p in passes for s in p.setup_s)
    wall_s = min(p.wall_s for p in passes)
    host = statistics.median(probes) / PROBE_REFERENCE_S
    metrics = {
        "setup_s": setup_s / host,
        "wall_s": wall_s / host,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"measured: fastest pass {wall_s:.4f} s, median set-up {setup_s:.4f} s; "
        f"median probe {statistics.median(probes):.4f} s over {len(probes)} probes, "
        f"so the host ran at 1/{host:.3f} of the reference speed",
        f"library calls per pass: {len(passes[0].seconds)}",
    ]
    decisions = [
        s for p in passes for k, s in zip(p.kinds, p.seconds)
        if k in ("subalgebra", "congruence")
    ]
    if decisions:
        lines.append(
            f"decision_p50_ms {1e3 * statistics.median(decisions):.4f} ms "
            f"over {len(decisions)} decisions"
        )
        p99 = tail_percentile(decisions, 99)
        if p99:
            lines.append(
                f"decision_p99_ms {1e3 * p99.value:.4f} ms over {p99.count} "
                f"decisions, {p99.beyond} beyond it"
            )
    rates = []
    for p in passes:
        busy = sum(s for k, s in zip(p.kinds, p.seconds) if k == "subalgebra")
        if busy:
            rates.append(sum(o.pairs for o in p.outcomes) / busy)
    if rates:
        lines.append(f"pairs_per_s {max(rates):.1f} 1/s in subalgebra decisions")
    return metrics, lines


def _layer_metrics(recorder: SpanRecorder, own, p: Pass) -> dict:
    first, pass_span, end = p.spans
    calls, busy = Counter(), Counter()
    watched = {
        recorder.name_id("generation.all_subuniverses"): recorder.name_id("generation.close"),
        recorder.name_id("generation.all_congruences"): recorder.name_id("generation.cg"),
    }
    under = {}  # span -> nearest enclosing all_subuniverses / all_congruences
    useful = Counter()
    for i in range(first, end):
        nid, parent = recorder.name[i], recorder.parent[i]
        calls[nid] += 1
        busy[nid] += own[i]
        anchor = under.get(parent, -1)
        if nid in watched:
            anchor = i
        under[i] = anchor
        if anchor >= 0 and watched[recorder.name[anchor]] == nid:
            useful[recorder.name[anchor]] += 1
    m = {}
    for name in [f[0] for f in FUNCTIONS] + [EXTEND, JOINT_CONTEXT, STREAM]:
        nid = recorder.name_id(name)
        m[f"{name}.calls"] = calls[nid]
        m[f"{name}.self_s"] = busy[nid]
    for name in ("generation.all_subuniverses", "generation.all_congruences"):
        found = p.counters[f"{name}.found"]
        m[f"{name}.found"] = found
        attempts = useful[recorder.name_id(name)]
        m[f"{name}.useful_ratio"] = found / attempts if attempts else 0.0
    m[f"{STREAM}.streams"] = p.counters[f"{STREAM}.streams"]
    m[f"{STREAM}.yielded"] = p.counters[f"{STREAM}.yielded"]
    m[f"{EXTEND}.refused"] = p.counters[f"{EXTEND}.refused"]
    m["morphisms.generating_sequence.hits"], m["morphisms.generating_sequence.misses"] = p.cache
    m["_pass_self_s"] = sum(own[pass_span:end])
    return m


def per_layer(workload: str, passes: list[Pass], recorder: SpanRecorder):
    """Per-layer metrics of the fastest traced pass, and failed cross-checks."""
    own = self_times(recorder.start, recorder.end, recorder.parent)
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    problems = check_nesting(recorder)
    rows = []
    for p in traced:
        m = _layer_metrics(recorder, own, p)
        pairs = sum(o.pairs for o in p.outcomes)
        if m[f"{EXTEND}.calls"] != pairs:
            problems.append(
                f"{m[f'{EXTEND}.calls']} extend calls traced, {pairs} pairs examined"
            )
        for name, want in expected_found(workload).items():
            if m[name] != want:
                problems.append(f"{name} is {m[name]}, expected {want}")
        gap = m.pop("_pass_self_s") - p.wall_s
        if abs(gap) > 1e-3:
            problems.append(f"self times miss the traced wall time by {gap:.6f} s")
        rows.append(m)
    fastest = min(range(len(traced)), key=lambda i: traced[i].wall_s)
    metrics = rows[fastest]
    metrics["trace.overhead_s"] = traced[fastest].wall_s - min(p.wall_s for p in plain)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        # Fails early when the library is absent; also loads its dependencies,
        # whose first import no later set-up repeats.
        fresh_library()
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT) as workdir:
            passes, recorder, peak_rss_mb, probes = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir)
            )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    check_outputs(args.workload, args.seed, passes)
    attempted = sum(len(p.seconds) for p in passes)
    failed = 0
    reported = Counter()
    for p in passes:
        for outcome in p.outcomes:
            if outcome.problems:
                failed += outcome.jobs
                reported[f"{outcome.name}: {'; '.join(outcome.problems)}"] += 1
    for problem, count in reported.items():
        print(f"bench: {problem} ({count} of {len(passes)} passes)", file=sys.stderr)
    problems = []
    if args.trace:
        values, problems = per_layer(args.workload, passes, recorder)
        listed = spec["per_layer"]
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        recorder.write(spans_file)
        extra = [f"{len(recorder)} spans written to {spans_file.relative_to(ROOT)}"]
    else:
        values, extra = end_to_end(passes, peak_rss_mb, probes)
        listed = spec["end_to_end"]
    for problem in problems:
        print(f"bench: cross-check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes"
          f" ({sum(p.traced for p in passes)} traced)")
    for metric in listed:
        print(f"  {metric['name']:<56} {values[metric['name']]:>14.6g} {metric['unit']}")
    for line in extra:
        print(f"  {line}")
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.6g}")
    for outcome in passes[0].outcomes:
        print(f"  digest {outcome.digest}  {outcome.name}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
