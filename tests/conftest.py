"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.datagen.random_graphs import random_itpg
from repro.eval.engine import ReferenceEngine
from repro.model.convert import itpg_to_tpg
from repro.model.examples import contact_tracing_example, tiny_example


@pytest.fixture(scope="session")
def figure1():
    """The Figure-1 contact-tracing ITPG (the paper's running example)."""
    return contact_tracing_example()


@pytest.fixture(scope="session")
def figure1_tpg(figure1):
    """Point-based expansion of the running example."""
    return itpg_to_tpg(figure1)


@pytest.fixture(scope="session")
def figure1_engine(figure1):
    """A reference engine over the running example (session-scoped: caches relations)."""
    return ReferenceEngine(figure1)


@pytest.fixture(scope="session")
def tiny():
    """A three-node ITPG with interrupted existence, for focused unit tests."""
    return tiny_example()


@pytest.fixture()
def small_random_graphs():
    """A handful of deterministic small random ITPGs for cross-checking engines."""
    return [random_itpg(seed) for seed in range(6)]
