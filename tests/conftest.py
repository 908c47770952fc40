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


def _kernel_steps(engine, query):
    """Yield ``(op, frontier)`` after every columnar op the kernel runs
    for ``query`` on ``engine``'s graph, leaf by leaf.  ``frontier`` is
    the kernel's struct-of-arrays ``_State``."""
    from repro.perf import columnar

    plan = engine.prepare(query).kernel_plan
    ctx = engine.index.columnar_context()
    kernel = columnar._Kernel(ctx)
    for ops in plan.leaves:
        state = columnar.seed_state(ctx, plan)
        for op in ops:
            if state.rows == 0:
                break
            state = kernel.run(state, (op,))
            yield op, state


@pytest.fixture(scope="session")
def kernel_steps():
    """The kernel's frontier after every op (see :func:`_kernel_steps`)."""
    return _kernel_steps
