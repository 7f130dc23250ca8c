"""The public surface: every key operation of the paper's method is
importable from its module, and every library module imports on its own."""

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


@pytest.mark.parametrize(
    "module",
    ["core", "generation", "morphisms", "independence", "zoo", "io", "cli", "acceptance"],
)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(Path(algindep.__file__).parents[1]))
    r = subprocess.run(
        [sys.executable, "-c", f"import algindep.{module}"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0, r.stderr
