"""Temporal substrate: intervals, coalesced interval families and alignment.

This package implements the interval machinery that the paper's
interval-timestamped temporal property graphs (ITPGs) are built on:

* :class:`~repro.temporal.interval.Interval` — closed integer intervals
  ``[a, b]`` with Allen's interval relations (Appendix A of the paper).
* :class:`~repro.temporal.intervalset.IntervalSet` — finite *coalesced*
  families of intervals (the set ``FC`` of the paper).
* :class:`~repro.temporal.valued.ValuedIntervalSet` — finite coalesced
  families of *valued* intervals (the set ``vFC`` of the paper), used to
  time-stamp property values.
* :mod:`~repro.temporal.coalesce` — coalescing algorithms for intervals,
  valued intervals and arbitrary tagged rows.
* :mod:`~repro.temporal.alignment` — interval-level reachability of a
  temporal step, the scalar reference for the columnar kernel.
"""

from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet
from repro.temporal.valued import ValuedInterval, ValuedIntervalSet
from repro.temporal.coalesce import (
    coalesce_intervals,
    coalesce_valued_intervals,
    coalesce_rows,
)

__all__ = [
    "Interval",
    "IntervalSet",
    "ValuedInterval",
    "ValuedIntervalSet",
    "coalesce_intervals",
    "coalesce_valued_intervals",
    "coalesce_rows",
]
