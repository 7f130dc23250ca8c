"""The public surface: every operation PAPER.md lists is importable from its
module, and every library module imports on its own."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import algindep

PAPER = Path(__file__).resolve().parents[1] / "PAPER.md"


def _key_operations() -> dict[str, list[str]]:
    """Module -> operation names from the "Key operations, by module" bullets:
    the first backticked name of a bullet is the module, the rest are its
    operations."""
    text = PAPER.read_text()
    section = text.split("Key operations, by module:", 1)[1]
    section = section.split("\n\n", 2)[1]  # the bullet list after the heading
    listed = {}
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        listed[module] = names
    return listed


def test_paper_key_operations_are_importable():
    listed = _key_operations()
    assert set(listed) == {
        f"algindep.{m}" for m in ("core", "generation", "morphisms", "independence", "zoo")
    }
    missing = [
        (module, name)
        for module, names in listed.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
    assert sum(len(names) for names in listed.values()) >= 25


@pytest.mark.parametrize(
    "module", ["core", "generation", "morphisms", "independence", "zoo", "io", "cli"]
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
