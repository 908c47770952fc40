"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
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
from repro.perf import columnar


@contextlib.contextmanager
def columnar_hidden():
    """Run the block as a host without NumPy: the columnar kernel reports
    itself unavailable, so every engine picks the interpreted kernel.

    The engine has no kernel option; this is how a test reaches the
    interpreted oracle leg.  Worker processes forked inside the block
    inherit the hidden kernel; already-running workers keep theirs.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "np", None)
        yield


class Interpreted:
    """An engine whose every method call runs under :func:`columnar_hidden`."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def __getattr__(self, name):
        attribute = getattr(self.engine, name)
        if not callable(attribute):
            return attribute

        def hidden(*args, **kwargs):
            with columnar_hidden():
                return attribute(*args, **kwargs)

        return hidden


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
