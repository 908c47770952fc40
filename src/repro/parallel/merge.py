"""Parent-side merging of per-chunk partial results.

Worker-process chunks return either interval families
(single-temporal-group outputs — the common case) or point tuples
(group-spanning outputs).  Both merges restore exactly the invariant the
sequential engine guarantees:

* **families** — one entry per distinct binding tuple with a coalesced
  validity family.  Bindings reached in several chunks (signature-equal
  frontier rows that landed in different chunks) are unioned through
  :meth:`IntervalSet.union_many` — a single coalescing pass on the
  *output* representation, after each chunk has already done Step 3.
* **points** — plain concatenation; :meth:`BindingTable.build`
  deduplicates and canonically sorts downstream, so chunk order can
  never leak into the output.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.eval.bindings import Family
from repro.temporal.intervalset import IntervalSet


def merge_family_chunks(chunks: Iterable[Sequence[Family]]) -> list[Family]:
    """Merge per-chunk families into one canonical family list."""
    gathered: dict[tuple, list[IntervalSet]] = {}
    for chunk in chunks:
        for bindings, times in chunk:
            gathered.setdefault(tuple(bindings), []).append(times)
    return [
        (bindings, times[0] if len(times) == 1 else IntervalSet.union_many(times))
        for bindings, times in gathered.items()
    ]


def merge_point_chunks(chunks: Iterable[Sequence[tuple]]) -> list[tuple]:
    """Concatenate per-chunk point tuples (dedup happens in the table build)."""
    out: list[tuple] = []
    for chunk in chunks:
        out.extend(chunk)
    return out
