"""Shared fixtures: every test starts with the library's memos empty."""

import pytest

from algindep import generation, independence, morphisms


def _clear_memos() -> None:
    generation._lattice_memo.clear()
    independence._endo_memo.clear()
    morphisms._induced_memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the decider memos before each test, so neither test order nor
    a monkeypatch can leak cached state.  A test that asks for this fixture
    gets the function, to empty them again."""
    _clear_memos()
    return _clear_memos
