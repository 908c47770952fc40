"""Differential oracle: attached artifacts vs in-memory graphs.

The store's correctness contract is *zero divergence*: a graph attached
from a compiled ``repro-index`` artifact must answer every query
identically to the in-memory graph it was compiled from — under every
engine the fuzz oracle exercises (the dataflow engine and the
reference engine).

Seeds deliberately reuse the :mod:`tests.test_differential_fuzz`
derivation (``random_itpg(seed)`` + ``random_match_query(seed*31+7)``)
so any failure here reproduces with the same recipe.
"""

from __future__ import annotations

import pytest

from repro.datagen.random_graphs import random_itpg, random_match_query
from repro.dataflow import DataflowEngine
from repro.eval import ReferenceEngine
from repro.store import attach, compile_graph

SEEDS = tuple(range(1, 9))


def _attached(tmp_path, graph):
    path = str(tmp_path / "graph.rix")
    compile_graph(graph, path)
    return attach(path)


class TestEngineConfigurations:
    """Every fuzz-oracle engine agrees attached vs in-memory."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_attached_matches_in_memory(self, tmp_path, seed):
        graph = random_itpg(seed)
        query = random_match_query(seed * 31 + 7)
        expected = ReferenceEngine(graph).match(query).as_set()
        attachment = _attached(tmp_path, graph)
        try:
            engines = {
                "dataflow": DataflowEngine(attachment.graph),
                "reference-point": ReferenceEngine(attachment.graph),
            }
            for name, engine in engines.items():
                got = engine.match(query).as_set()
                assert got == expected, (
                    f"{name} diverged on attached store, seed {seed}: "
                    f"reproduce with random_itpg({seed}) and "
                    f"random_match_query({seed * 31 + 7})"
                )
        finally:
            attachment.close()
