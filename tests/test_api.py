"""The public surface: every key operation of the paper's method is
importable from its module, and every library module imports on its own."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algindep

# Module -> the key operations of the paper's method that it provides.
KEY_OPERATIONS = {
    "algindep.core": [
        "Signature", "FiniteStructure", "SubUniverse", "Congruence", "validate",
        "is_subuniverse", "induced_substructure", "direct_product", "quotient",
    ],
    "algindep.generation": [
        "close", "join", "generated_subuniverse_of_square", "cg",
        "all_congruences", "all_subuniverses",
    ],
    "algindep.morphisms": [
        "enumerate_homs", "enumerate_endos", "joint_extension", "kernel",
        "find_isomorphism",
    ],
    "algindep.independence": [
        "boole_independent", "group_diagnostics", "check_word_condition",
    ],
    "algindep.zoo": ["coproduct", "canonical_quotient", "verify_coproduct_property"],
}


def test_paper_key_operations_are_importable():
    missing = [
        (module, name)
        for module, names in KEY_OPERATIONS.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
    assert sum(len(names) for names in KEY_OPERATIONS.values()) >= 25


# the modules the benchmark imports, beside the package itself
BENCH_MODULES = ("core", "generation", "morphisms", "independence", "zoo", "io")


def _fresh_python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(algindep.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("module", [*BENCH_MODULES, "cli", "acceptance", "reference"])
def test_module_imports_in_a_fresh_interpreter(module):
    r = _fresh_python(f"import algindep.{module}")
    assert r.returncode == 0, r.stderr


def test_library_and_bench_modules_leave_the_brute_forces_unimported():
    imports = "; ".join(f"import algindep.{m}" for m in BENCH_MODULES)
    r = _fresh_python(
        f"import sys, algindep; {imports}; "
        "print(sorted({'algindep.acceptance', 'algindep.reference'} & set(sys.modules)))"
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_reference_takes_only_data_types_from_core():
    # the brute forces must not share the fast paths they check
    source = Path(algindep.__file__).with_name("reference.py").read_text()
    modules, names = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
            names |= {alias.name for alias in node.names}
    assert [m for m in modules if m.startswith((".", "algindep"))] == [".core"]
    assert not names & {"_plan", "_Plan", "is_congruence", "_restrict"}
