"""Differential oracle: attached artifacts vs in-memory graphs.

The store's correctness contract is *zero divergence*: a graph attached
from a compiled ``repro-index`` artifact must answer every query
identically to the in-memory graph it was compiled from — under every
engine the fuzz oracle exercises (the dataflow engine and the
reference engine), and through the process backend's
``StoreRef`` dispatch on both ``fork`` and ``spawn`` start methods.

Seeds deliberately reuse the :mod:`tests.test_differential_fuzz`
derivation (``random_itpg(seed)`` + ``random_match_query(seed*31+7)``)
so any failure here reproduces with the same recipe.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.datagen.random_graphs import random_itpg, random_match_query
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.eval import ReferenceEngine
from repro.model import contact_tracing_example
from repro.parallel.plan import store_ref
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


class TestProcessBackendStoreRef:
    """Workers attach by (path, token) and agree with the serial answer."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_workers_attach(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable")
        graph = contact_tracing_example()
        text = PAPER_QUERIES["Q1"].text
        expected = DataflowEngine(graph).match(text).as_set()
        attachment = _attached(tmp_path, graph)
        try:
            assert store_ref(attachment.graph) is not None
            engine = DataflowEngine(
                attachment.graph, workers=2, start_method=start_method
            )
            assert engine.match(text).as_set() == expected
        finally:
            attachment.close()

    def test_payload_fallback_heals_missing_artifact(self, tmp_path):
        """Renaming the artifact away degrades to the pickled payload."""
        graph = contact_tracing_example()
        text = PAPER_QUERIES["Q1"].text
        expected = DataflowEngine(graph).match(text).as_set()
        attachment = _attached(tmp_path, graph)
        try:
            engine = DataflowEngine(attachment.graph, workers=2)
            (tmp_path / "graph.rix").rename(tmp_path / "gone.rix")
            assert engine.match(text).as_set() == expected
        finally:
            attachment.close()

    def test_payload_fallback_heals_damaged_header_length(self, tmp_path):
        """A worker refused by a damaged header length uses the payload."""
        graph = contact_tracing_example()
        text = PAPER_QUERIES["Q1"].text
        expected = DataflowEngine(graph).match(text).as_set()
        attachment = _attached(tmp_path, graph)
        try:
            engine = DataflowEngine(attachment.graph, workers=2)
            raw = bytearray((tmp_path / "graph.rix").read_bytes())
            raw[17] ^= 0xFF  # high bytes of the u64 header length
            damaged = tmp_path / "damaged.rix"
            damaged.write_bytes(bytes(raw))
            # A new inode: the parent's own mapping of the intact file stays valid.
            damaged.replace(tmp_path / "graph.rix")
            result = engine.match_with_stats(text)
            assert result.table.as_set() == expected
            assert result.degradation is None  # healed inside the pool, no retry
        finally:
            attachment.close()
