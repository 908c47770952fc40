"""Temporal binding tables: the result format of MATCH evaluation.

A binding table has one column pair per variable: the object bound to
the variable and the time point at which it is bound (the ``x`` /
``x_time`` columns of Section IV).  Rows are deduplicated and kept in a
canonical sorted order so tables can be compared directly in tests.

Two implementations share that contract:

* :class:`BindingTable` — rows materialized eagerly as point tuples;
* :class:`IntervalBindingTable` — rows *derived* from coalesced
  ``(bindings, IntervalSet)`` families, the interval-native output of
  the coalescing dataflow engine.  Point expansion happens only on
  demand (iteration, ``rows``, limited pretty-printing expands just the
  requested prefix) and never during query evaluation, which is what
  keeps the Q1/Q2-style full-scan output path interval-native end to
  end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.temporal.coalesce import coalesce_point_rows
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable
Binding = tuple[ObjectId, int]
Row = tuple[Binding, ...]
#: One coalesced output family: variable bindings plus shared validity times.
Family = tuple[tuple[tuple[str, ObjectId], ...], IntervalSet]


@dataclass(frozen=True)
class BindingTable:
    """An immutable table of temporal bindings.

    Attributes
    ----------
    variables:
        Column (variable) names in binding order.
    rows:
        Sorted, deduplicated rows; each row has one ``(object, time)``
        pair per variable.
    """

    variables: tuple[str, ...]
    rows: tuple[Row, ...]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def build(variables: Sequence[str], rows: Iterable[Row]) -> "BindingTable":
        """Normalize (dedupe + sort) and wrap a set of rows."""
        unique = {tuple(row) for row in rows}
        ordered = tuple(sorted(unique, key=_row_sort_key))
        return BindingTable(tuple(variables), ordered)

    @staticmethod
    def empty(variables: Sequence[str]) -> "BindingTable":
        return BindingTable(tuple(variables), ())

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def to_records(self) -> list[dict[str, ObjectId | int]]:
        """Rows as dictionaries with ``var`` and ``var_time`` keys (Section IV format)."""
        records: list[dict[str, ObjectId | int]] = []
        for row in self.rows:
            record: dict[str, ObjectId | int] = {}
            for variable, (obj, t) in zip(self.variables, row):
                record[variable] = obj
                record[f"{variable}_time"] = t
            records.append(record)
        return records

    def as_set(self) -> frozenset[Row]:
        """Rows as a frozenset, convenient for order-insensitive comparisons."""
        return frozenset(self.rows)

    def column(self, variable: str) -> list[Binding]:
        """All bindings of one variable (with duplicates, in row order)."""
        index = self._column_index(variable)
        return [row[index] for row in self.rows]

    def _column_index(self, variable: str) -> int:
        try:
            return self.variables.index(variable)
        except ValueError as exc:
            raise KeyError(f"unknown variable {variable!r}") from exc

    # ------------------------------------------------------------------ #
    # Relational operations
    # ------------------------------------------------------------------ #
    def project(self, variables: Sequence[str]) -> "BindingTable":
        """Keep only the given variables (duplicates introduced by projection are removed)."""
        indexes = [self._column_index(v) for v in variables]
        rows = (tuple(row[i] for i in indexes) for row in self.rows)
        return BindingTable.build(variables, rows)

    def select(self, predicate) -> "BindingTable":
        """Keep only the rows for which ``predicate(record)`` is true."""
        keep: list[Row] = []
        for row, record in zip(self.rows, self.to_records()):
            if predicate(record):
                keep.append(row)
        return BindingTable.build(self.variables, keep)

    def rename(self, mapping: Mapping[str, str]) -> "BindingTable":
        """Rename variables according to ``mapping`` (missing names are kept)."""
        renamed = tuple(mapping.get(v, v) for v in self.variables)
        return BindingTable(renamed, self.rows)

    def coalesced(self, variable: str) -> list[tuple[tuple[Binding, ...], ObjectId, Interval]]:
        """Coalesce rows over the time of ``variable``.

        Returns triples ``(other bindings, object bound to variable,
        maximal interval of consecutive binding times)`` — the compact
        output representation the paper uses for single-variable results
        (Section VI, Step 3 discussion).
        """
        index = self._column_index(variable)
        keyed: list[tuple[tuple, int]] = []
        for row in self.rows:
            others = tuple(b for i, b in enumerate(row) if i != index)
            obj, t = row[index]
            keyed.append(((others, obj), t))
        coalesced_rows = coalesce_point_rows(keyed)
        return [(others, obj, interval) for (others, obj), interval in coalesced_rows]

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def pretty(self, limit: int | None = 20) -> str:
        """A fixed-width text rendering of the table (``limit`` rows)."""
        shown = self.rows if limit is None else self.rows[:limit]
        return _render_table(self.variables, shown, len(self.rows), limit)

    def __str__(self) -> str:
        return self.pretty()


class IntervalBindingTable:
    """A binding table backed by coalesced per-binding interval families.

    The coalescing dataflow engine's Step 3 produces, for every distinct
    binding tuple, one coalesced :class:`IntervalSet` of matching times
    (:meth:`repro.dataflow.executor.DataflowEngine.match_intervals`).
    This table stores exactly that representation and derives the
    point-based rows lazily: ``len`` and emptiness are answered from the
    interval families, ``pretty(limit)`` expands only the requested
    prefix through a lazy k-way merge, and the full sorted row tuple is
    expanded (then cached) only when actually read — so producing the
    table never costs more than the number of maximal intervals.

    The constructor requires the families to already be keyed by
    *distinct* binding tuples, each with nonempty times — the invariant
    the materializer's family merge guarantees; under it the expanded
    rows are duplicate-free, which is what makes ``len`` a pure interval
    count.  Expansion is cross-checked against the eager tables in the
    differential fuzz suite.
    """

    __slots__ = ("variables", "_families", "_table", "_size")

    def __init__(self, variables: Sequence[str], families: Iterable[Family]) -> None:
        self.variables = tuple(variables)
        self._families: tuple[Family, ...] = tuple(
            (tuple(bindings), times) for bindings, times in families
            if not times.is_empty()
        )
        self._table: Optional[BindingTable] = None
        #: The point-row count, summed once: the table never changes.
        self._size: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Interval-native accessors (never expand)
    # ------------------------------------------------------------------ #
    @property
    def families(self) -> tuple[Family, ...]:
        """The coalesced ``(bindings, times)`` families backing the table."""
        return self._families

    def num_families(self) -> int:
        """Number of distinct binding tuples (the compact row count)."""
        return len(self.families)

    def num_intervals(self) -> int:
        """Number of stored maximal intervals across all families."""
        return sum(len(times) for _bindings, times in self.families)

    def __len__(self) -> int:
        if self._size is None:
            if not self.variables:
                # A variable-free MATCH yields a single empty row when it
                # holds anywhere (mirrors the eager tables).
                self._size = 1 if self.families else 0
            else:
                self._size = sum(
                    times.total_points() for _bindings, times in self.families
                )
        return self._size

    def is_empty(self) -> bool:
        return self.num_families() == 0

    def __bool__(self) -> bool:
        return not self.is_empty()

    # ------------------------------------------------------------------ #
    # Point-row protocol (expands on demand, cached)
    # ------------------------------------------------------------------ #
    def _expand(self) -> Iterator[Row]:
        for bindings, times in self.families:
            if not bindings:
                yield ()
                continue
            objects = tuple(obj for _name, obj in bindings)
            for t in times.points():
                yield tuple((obj, t) for obj in objects)

    def materialized(self) -> BindingTable:
        """The equivalent eager :class:`BindingTable` (expanded once, cached)."""
        if self._table is None:
            self._table = BindingTable.build(self.variables, self._expand())
        return self._table

    @property
    def rows(self) -> tuple[Row, ...]:
        return self.materialized().rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.materialized().rows)

    def as_set(self) -> frozenset[Row]:
        return self.materialized().as_set()

    def to_records(self) -> list[dict[str, ObjectId | int]]:
        return self.materialized().to_records()

    def column(self, variable: str) -> list[Binding]:
        return self.materialized().column(variable)

    def project(self, variables: Sequence[str]) -> BindingTable:
        return self.materialized().project(variables)

    def select(self, predicate) -> BindingTable:
        return self.materialized().select(predicate)

    def rename(self, mapping: Mapping[str, str]) -> "IntervalBindingTable":
        renamed_vars = tuple(mapping.get(v, v) for v in self.variables)
        renamed = IntervalBindingTable(
            renamed_vars,
            (
                (
                    tuple((mapping.get(name, name), obj) for name, obj in bindings),
                    times,
                )
                for bindings, times in self.families
            ),
        )
        return renamed

    def coalesced(self, variable: str):
        return self.materialized().coalesced(variable)

    # ------------------------------------------------------------------ #
    # Presentation and comparison
    # ------------------------------------------------------------------ #
    def pretty(self, limit: int | None = 20) -> str:
        """Fixed-width rendering; with a ``limit``, only that prefix expands.

        Negative limits keep Python slice semantics by delegating to the
        eager table (they need the full row set anyway).
        """
        if limit is None or limit < 0 or self._table is not None:
            return self.materialized().pretty(limit)
        shown = list(islice(self._sorted_prefix(), limit))
        return _render_table(self.variables, shown, len(self), limit)

    def _sorted_prefix(self) -> Iterator[Row]:
        """Rows in canonical sort order via a lazy merge over the families.

        Within one family the sort key is increasing in ``t`` (the
        object reprs are fixed), so each family yields a sorted stream
        and ``heapq.merge`` interleaves them without expanding any
        family past the requested prefix.
        """

        def stream(family: Family) -> Iterator[tuple[tuple, Row]]:
            bindings, times = family
            if not bindings:
                yield (), ()
                return
            objects = tuple(obj for _name, obj in bindings)
            reprs = tuple(repr(obj) for obj in objects)
            for t in times.points():
                yield (
                    tuple((r, t) for r in reprs),
                    tuple((obj, t) for obj in objects),
                )

        merged = heapq.merge(
            *(stream(family) for family in self.families),
            key=lambda keyed: keyed[0],
        )
        return (row for _key, row in merged)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BindingTable, IntervalBindingTable)):
            return self.variables == other.variables and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.variables, self.rows))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.num_families()} families, "
            f"{self.num_intervals()} intervals)"
        )

    def __str__(self) -> str:
        return self.pretty()


def _render_table(
    variables: Sequence[str],
    shown: Sequence[Row],
    total: int,
    limit: int | None,
) -> str:
    """Shared fixed-width renderer behind both tables' ``pretty``."""
    headers: list[str] = []
    for variable in variables:
        headers.extend([variable, f"{variable}_time"])
    body: list[list[str]] = []
    for row in shown:
        cells: list[str] = []
        for obj, t in row:
            cells.extend([str(obj), str(t)])
        body.append(cells)
    widths = [len(h) for h in headers]
    for cells in body:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    if limit is not None and total > limit:
        lines.append(f"... ({total - limit} more rows)")
    return "\n".join(lines)


def expand_match_families(
    families: Iterable[Family], variables: Sequence[str]
) -> frozenset[Row]:
    """Expand coalesced ``(bindings, times)`` families to point rows.

    The single definition of the expansion contract shared by the
    differential-fuzz oracle, the engine tests and the benchmark
    cross-checks: one row per family per covered time point, columns in
    ``variables`` order; a variable-free MATCH expands to the single
    empty row iff any family is nonempty.
    """
    families = list(families)
    if not variables:
        return (
            frozenset([()])
            if any(not times.is_empty() for _bindings, times in families)
            else frozenset()
        )
    rows: set[Row] = set()
    for bindings, times in families:
        lookup = dict(bindings)
        objects = tuple(lookup[v] for v in variables)
        for t in times.points():
            rows.add(tuple((obj, t) for obj in objects))
    return frozenset(rows)


def _row_sort_key(row: Row) -> tuple:
    return tuple((repr(obj), t) for obj, t in row)
