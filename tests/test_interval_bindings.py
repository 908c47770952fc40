"""The lazy, interval-backed binding table (PR 3's full-scan output path).

:class:`~repro.eval.bindings.IntervalBindingTable` stores the coalesced
``(bindings, IntervalSet)`` families of the dataflow engine's Step 3 and
derives point rows only on demand.  These tests pin:

* the lazy-expansion contract — producing (and sizing, and
  limit-printing) the table does not expand point rows;
* exact equivalence with the eager :class:`BindingTable` on every
  read-path (rows, sets, records, pretty, equality);
* which query shapes the dataflow engine serves lazily.
"""

from __future__ import annotations

import pytest

from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.eval import ReferenceEngine
from repro.eval.bindings import BindingTable, IntervalBindingTable
from repro.temporal import IntervalSet


def families_fixture():
    return [
        ((("x", "n2"), ("y", "n9")), IntervalSet([(0, 3), (6, 7)])),
        ((("x", "n1"), ("y", "n3")), IntervalSet([(2, 4)])),
    ]


class TestLazyContract:
    def test_len_and_emptiness_without_expansion(self):
        table = IntervalBindingTable(("x", "y"), families_fixture())
        assert len(table) == 9
        assert table and not table.is_empty()
        assert table.num_families() == 2
        assert table.num_intervals() == 3
        assert table._table is None  # nothing expanded yet

    def test_limited_pretty_does_not_materialize(self):
        table = IntervalBindingTable(("x", "y"), families_fixture())
        rendered = table.pretty(limit=3)
        assert table._table is None
        assert "... (6 more rows)" in rendered

    def test_limited_pretty_equals_eager_pretty(self):
        table = IntervalBindingTable(("x", "y"), families_fixture())
        for limit in (1, 3, 9, 50, 0, -1, -4):
            lazy = IntervalBindingTable(("x", "y"), families_fixture())
            assert lazy.pretty(limit=limit) == table.materialized().pretty(limit=limit)

    def test_rows_expand_sorted_and_cached(self):
        table = IntervalBindingTable(("x", "y"), families_fixture())
        rows = table.rows
        assert table._table is not None
        expected = BindingTable.build(
            ("x", "y"),
            [
                (("n2", t), ("n9", t))
                for t in (0, 1, 2, 3, 6, 7)
            ]
            + [(("n1", t), ("n3", t)) for t in (2, 3, 4)],
        )
        assert rows == expected.rows
        assert table == expected and expected == table

    def test_empty_families_are_dropped(self):
        table = IntervalBindingTable(
            ("x",), [((("x", "a"),), IntervalSet.empty())]
        )
        assert table.is_empty()
        assert len(table) == 0
        assert table.rows == ()

    def test_zero_variable_table(self):
        matched = IntervalBindingTable((), [((), IntervalSet([(0, 5)]))])
        assert len(matched) == 1
        assert matched.rows == ((),)
        empty = IntervalBindingTable((), [])
        assert len(empty) == 0
        assert empty.rows == ()

    def test_rename_stays_lazy(self):
        table = IntervalBindingTable(("x", "y"), families_fixture())
        renamed = table.rename({"x": "a"})
        assert isinstance(renamed, IntervalBindingTable)
        assert renamed.variables == ("a", "y")
        assert renamed._table is None
        assert renamed.rows == tuple(table.materialized().rename({"x": "a"}).rows)

    def test_records_and_columns_delegate(self):
        table = IntervalBindingTable(("x", "y"), families_fixture())
        eager = table.materialized()
        assert table.to_records() == eager.to_records()
        assert table.column("x") == eager.column("x")
        assert table.as_set() == eager.as_set()
        assert table.project(("y",)) == eager.project(("y",))


class TestEngineIntegration:
    """Which dataflow outputs stay interval-native, and their equivalence."""

    LAZY = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q9", "Q10", "Q11", "Q12")
    EAGER = ("Q6", "Q7", "Q8")

    @pytest.mark.parametrize("name", LAZY)
    def test_single_group_queries_return_lazy_tables(self, figure1, name):
        result = DataflowEngine(figure1).match_with_stats(PAPER_QUERIES[name].text)
        assert isinstance(result.table, IntervalBindingTable)
        assert result.output_size == len(result.table)
        # output_size was computed without expanding the table.
        assert result.table._table is None

    @pytest.mark.parametrize("name", EAGER)
    def test_group_spanning_queries_stay_pointwise(self, figure1, name):
        result = DataflowEngine(figure1).match_with_stats(PAPER_QUERIES[name].text)
        assert isinstance(result.table, BindingTable)

    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_lazy_tables_equal_reference(self, figure1, name):
        table = DataflowEngine(figure1).match(PAPER_QUERIES[name].text)
        reference = ReferenceEngine(figure1).match(PAPER_QUERIES[name].text)
        assert table.rows == reference.rows
