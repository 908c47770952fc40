"""Cost-aware partitioning of work items across workers.

Slicing a list into contiguous, equally-*sized* chunks (what the seed
did) is the wrong unit for frontier work: the per-seed cost of
running a chain is dominated by the out-degree of the seed object, so a
count-based split routinely hands one worker every hub node and leaves
the rest idle (the straggler effect the paper avoids with Rayon's work
stealing).  :func:`weighted_chunks` balances chunks by total *weight*
instead, using the classic LPT (longest processing time first) greedy:
items are assigned heaviest-first to the currently lightest chunk, which
guarantees a makespan within 4/3 of optimal.

The process pool and ``explain()``'s chunk plan share this partitioner,
so chunking policy is a single place to reason about; determinism is
part of the contract — equal inputs produce equal chunk assignments,
ties break by original position — because the pool replays chunks
across interpreter boundaries and the differential tests compare runs.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Sequence, TypeVar

Item = TypeVar("Item")


def weighted_chunks(
    items: Sequence[Item],
    parts: int,
    weight: Optional[Callable[[Item], int]] = None,
) -> list[list[Item]]:
    """Split ``items`` into at most ``parts`` chunks of balanced total weight.

    With ``weight=None`` every item counts 1, which degenerates to a
    balanced count split.  Chunks preserve the original relative order
    of their items, no chunk is empty, and the assignment is
    deterministic: items are placed heaviest-first (ties by original
    position) onto the lightest chunk (ties by lowest chunk index).
    """
    if parts <= 1 or len(items) <= 1:
        return [list(items)]
    count = min(parts, len(items))
    if weight is None:
        # Balanced contiguous split: same totals as LPT with unit
        # weights, but keeps neighbouring items together.
        size, extra = divmod(len(items), count)
        chunks: list[list[Item]] = []
        start = 0
        for i in range(count):
            end = start + size + (1 if i < extra else 0)
            chunks.append(list(items[start:end]))
            start = end
        return chunks
    weights = [int(weight(item)) for item in items]
    order = sorted(range(len(items)), key=lambda i: (-weights[i], i))
    # (current load, chunk index) min-heap: pop = lightest chunk,
    # ties resolved by chunk index for determinism.
    heap = [(0, i) for i in range(count)]
    assignment: list[list[int]] = [[] for _ in range(count)]
    for i in order:
        load, chunk = heapq.heappop(heap)
        assignment[chunk].append(i)
        heapq.heappush(heap, (load + max(weights[i], 1), chunk))
    chunks = []
    for indices in assignment:
        if indices:
            indices.sort()
            chunks.append([items[i] for i in indices])
    return chunks


def chunk_weight(
    chunk: Sequence[Item], weight: Optional[Callable[[Item], int]] = None
) -> int:
    """Total weight of one chunk (unit weights when ``weight`` is ``None``)."""
    if weight is None:
        return len(chunk)
    return sum(int(weight(item)) for item in chunk)
