"""The seed-0 outputs of every benchmark workload match bench/expected.json,
the cross-checks of a traced run of each workload hold, and the benchmark's
own tests in bench/test_bench.py pass.

One pass of each workload runs in a subprocess through ``bench/workloads.py``,
because ``fresh_library`` re-imports ``algindep`` and would otherwise split
class identity inside this test session.  The benchmark files are only read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

ONE_PASS = """
import json, sys, tempfile
from pathlib import Path

import pytest
sys.path.insert(0, sys.argv[1])
from workloads import PASSES, WORKLOADS, Jobs, check, fresh_library, set_up

report = {}
for workload in WORKLOADS:
    lib = fresh_library()
    with tempfile.TemporaryDirectory() as tmp:
        parents = set_up(lib, workload, 0, Path(tmp))
        jobs = Jobs()
        outcomes = check(workload, PASSES[workload](lib, parents, jobs))
    report[workload] = {
        "raised": jobs.raised,
        "problems": {o.name: o.problems for o in outcomes if o.problems},
        "digests": {o.name: o.digest for o in outcomes},
    }
print(json.dumps(report))
"""


def test_seed_0_pass_of_every_workload_matches_recorded_digests():
    run = subprocess.run(
        [sys.executable, "-c", ONE_PASS, str(BENCH)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    recorded = json.loads((BENCH / "expected.json").read_text())["digests"]
    assert sorted(report) == sorted(recorded)
    for workload, outcome in report.items():
        assert outcome["raised"] == 0, workload
        assert outcome["problems"] == {}, workload
        assert outcome["digests"] == recorded[workload], workload


@pytest.mark.parametrize("workload", ["census", "deep-pairs", "congruence", "lattice"])
def test_traced_run_passes_its_cross_checks(workload):
    # extend calls equal the pairs examined, the lattice sizes found equal
    # the expected ones, and the spans' self times add up to the traced wall
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    assert "cross-check failed" not in run.stderr, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0


def test_benchmark_helpers_pass_their_own_tests():
    # they call fresh_library and spans.install, which re-import and patch
    # algindep, so they run in a pytest of their own
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(BENCH / "test_bench.py")],
        capture_output=True,
        text=True,
        cwd=BENCH.parent,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stdout + run.stderr
