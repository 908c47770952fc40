"""Random temporal graphs and random expressions for property-based tests.

These generators produce *small* instances (a handful of nodes, a short
temporal domain) on which the reference bottom-up engine is fast, so the
test suite can cross-check every engine against it on many random cases.
They are deterministic given a seed, which keeps hypothesis shrinking and
failure reproduction stable.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.lang import ast
from repro.lang.ast import PathExpr, Test
from repro.lang.parser import EdgePattern, MatchQuery, NodePattern, PathPattern
from repro.model.itpg import IntervalTPG
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

_LABELS = ("Person", "Room", "Device")
_EDGE_LABELS = ("knows", "visits", "meets")
_PROPS = ("risk", "color")
_VALUES = ("low", "high", "red", "blue")


def random_itpg(
    seed: int,
    num_nodes: int = 5,
    num_edges: int = 7,
    num_windows: int = 8,
) -> IntervalTPG:
    """A small random ITPG with random existence intervals and properties."""
    rng = random.Random(seed)
    domain = Interval(0, num_windows - 1)
    graph = IntervalTPG(domain)
    node_ids = [f"n{i}" for i in range(num_nodes)]
    for node_id in node_ids:
        existence = _random_intervalset(rng, domain)
        graph.add_node(node_id, rng.choice(_LABELS), existence)
        for interval in existence:
            if rng.random() < 0.7:
                graph.set_property(
                    node_id, rng.choice(_PROPS), rng.choice(_VALUES), interval.start, interval.end
                )
    edge_count = 0
    attempts = 0
    while edge_count < num_edges and attempts < num_edges * 10:
        attempts += 1
        src = rng.choice(node_ids)
        tgt = rng.choice(node_ids)
        shared = graph.existence(src).intersect(graph.existence(tgt))
        if shared.is_empty():
            continue
        pieces = [iv for iv in shared]
        interval = rng.choice(pieces)
        if len(interval) > 1 and rng.random() < 0.5:
            start = rng.randint(interval.start, interval.end)
            end = rng.randint(start, interval.end)
            interval = Interval(start, end)
        edge_id = f"e{edge_count}"
        graph.add_edge(edge_id, rng.choice(_EDGE_LABELS), src, tgt, IntervalSet((interval,)))
        if rng.random() < 0.5:
            graph.set_property(
                edge_id, "loc", rng.choice(("cafe", "park")), interval.start, interval.end
            )
        edge_count += 1
    graph.validate()
    return graph


def _random_intervalset(rng: random.Random, domain: Interval) -> IntervalSet:
    pieces = []
    for _ in range(rng.randint(1, 2)):
        start = rng.randint(domain.start, domain.end)
        end = min(domain.end, start + rng.randint(0, len(domain) // 2))
        pieces.append(Interval(start, end))
    return IntervalSet(pieces)


def random_delta_batches(
    graph: IntervalTPG,
    seed: int,
    num_batches: int = 3,
    start_sequence: int = 1,
) -> list:
    """A valid sequence of random delta batches for ``graph``.

    Used by the streaming differential oracle: batches mix new nodes
    (with properties), new edges between nodes whose existence overlaps,
    existence extensions, property writes on fresh existence, and
    occasional horizon advances.  Every batch is constructed to pass
    :func:`repro.streaming.delta.apply_delta` validation against the
    graph grown by its predecessors, so the caller can apply the whole
    sequence; the construction only reads ``graph`` (it tracks the
    prospective existence itself) and is deterministic given ``seed``.
    """
    from repro.streaming.delta import DeltaBatch

    rng = random.Random(0xDE17A + seed)
    horizon = graph.domain.end
    existence: dict = {obj: graph.existence(obj) for obj in graph.nodes()}
    next_id = 0
    batches = []
    for position in range(num_batches):
        batch = DeltaBatch(sequence=start_sequence + position)
        if rng.random() < 0.3:
            horizon += rng.randint(1, 3)
            batch.extend_domain(horizon)
        domain = Interval(graph.domain.start, horizon)
        for _ in range(rng.randint(0, 2)):
            node_id = f"sn{next_id}"
            next_id += 1
            start = rng.randint(domain.start, domain.end)
            end = min(domain.end, start + rng.randint(0, 3))
            batch.add_node(node_id, rng.choice(_LABELS), [(start, end)])
            existence[node_id] = IntervalSet(((start, end),))
            if rng.random() < 0.6:
                batch.set_property(
                    node_id, rng.choice(_PROPS), rng.choice(_VALUES), start, end
                )
        nodes = sorted(existence, key=repr)
        for _ in range(rng.randint(0, 3)):
            src, tgt = rng.choice(nodes), rng.choice(nodes)
            shared = existence[src].intersect(existence[tgt])
            if shared.is_empty():
                continue
            piece = rng.choice(list(shared))
            start = rng.randint(piece.start, piece.end)
            end = rng.randint(start, piece.end)
            edge_id = f"se{next_id}"
            next_id += 1
            batch.add_edge(
                edge_id, rng.choice(_EDGE_LABELS), src, tgt, [(start, end)]
            )
            if rng.random() < 0.4:
                batch.set_property(edge_id, "loc", rng.choice(("cafe", "park")), start, end)
        for _ in range(rng.randint(0, 2)):
            obj = rng.choice(nodes)
            start = rng.randint(domain.start, domain.end)
            end = min(domain.end, start + rng.randint(0, 2))
            batch.add_existence(obj, start, end)
            grown = IntervalSet(((start, end),))
            existence[obj] = existence[obj].union(grown)
            if rng.random() < 0.5:
                # A property on the freshly added existence (new values
                # could conflict with stored ones, so fresh-only writes
                # use a dedicated name that the random graphs never set).
                batch.set_property(obj, "seen", "yes", start, end)
        batches.append(batch)
    return batches


def random_path_expression(
    seed: int,
    max_depth: int = 3,
    allow_occurrence_indicators: bool = True,
    allow_path_conditions: bool = False,
) -> PathExpr:
    """A random NavL expression of bounded depth.

    The distribution favours expressions that actually traverse the graph
    (axes and concatenations) so that random cross-checks exercise more
    than empty relations.
    """
    rng = random.Random(seed)
    return _random_path(rng, max_depth, allow_occurrence_indicators, allow_path_conditions)


def _random_path(
    rng: random.Random,
    depth: int,
    allow_noi: bool,
    allow_pc: bool,
) -> PathExpr:
    if depth <= 0:
        return _random_leaf(rng, allow_pc)
    choice = rng.random()
    if choice < 0.35:
        return ast.concat(
            _random_path(rng, depth - 1, allow_noi, allow_pc),
            _random_path(rng, depth - 1, allow_noi, allow_pc),
        )
    if choice < 0.5:
        return ast.union(
            _random_path(rng, depth - 1, allow_noi, allow_pc),
            _random_path(rng, depth - 1, allow_noi, allow_pc),
        )
    if choice < 0.65 and allow_noi:
        lower = rng.randint(0, 2)
        upper: Optional[int] = lower + rng.randint(0, 3)
        if rng.random() < 0.25:
            upper = None
        return ast.repeat(_random_path(rng, depth - 1, allow_noi, allow_pc), lower, upper)
    return _random_leaf(rng, allow_pc)


def random_match_query(seed: int, max_connectors: int = 2) -> MatchQuery:
    """A random MATCH clause inside the dataflow-supported fragment.

    Used by the differential fuzzing harness: the generated queries
    combine node/edge patterns with path connectors whose occurrence
    indicators sit only on temporal axes, so every engine (dataflow,
    the streaming walk, reference, bottom-up) accepts them.  The
    construction is deterministic given ``seed`` and always binds at
    least one variable.
    """
    rng = random.Random(0x5EED_0000 + seed)
    names = iter(f"v{i}" for i in range(16))
    elements = [_random_node_pattern(rng, next(names), bind=True)]
    connectors: list[EdgePattern | PathPattern] = []
    for _ in range(rng.randint(0, max_connectors)):
        connectors.append(_random_connector(rng, next(names)))
        elements.append(
            _random_node_pattern(rng, next(names), bind=rng.random() < 0.6)
        )
    return MatchQuery(
        elements=tuple(elements),
        connectors=tuple(connectors),
        graph_name="g",
        text=f"<random_match_query({seed})>",
    )


def _random_node_pattern(rng: random.Random, name: str, bind: bool) -> NodePattern:
    label = rng.choice(_LABELS) if rng.random() < 0.4 else None
    condition = _random_static_test(rng) if rng.random() < 0.4 else None
    return NodePattern(
        variable=name if bind else None, label=label, condition=condition
    )


def _random_connector(rng: random.Random, name: str) -> EdgePattern | PathPattern:
    if rng.random() < 0.45:
        direction = rng.choice(("out", "in", "both"))
        bind = direction != "both" and rng.random() < 0.4
        return EdgePattern(
            variable=name if bind else None,
            label=rng.choice(_EDGE_LABELS) if rng.random() < 0.5 else None,
            condition=None,
            direction=direction,
        )
    path = _random_dataflow_path(rng, depth=2)
    return PathPattern(path=path, source_text="<random>")


def _random_dataflow_path(rng: random.Random, depth: int) -> PathExpr:
    parts: list[PathExpr] = []
    for _ in range(rng.randint(1, 3)):
        choice = rng.random()
        if choice < 0.3:
            parts.append(rng.choice((ast.F, ast.B)))
        elif choice < 0.6:
            axis: PathExpr = rng.choice((ast.N, ast.P))
            if rng.random() < 0.5:
                # Practical-syntax style: every visited point must exist
                # ((N/∃) and its repetitions — the contiguous fragment).
                axis = ast.concat(axis, ast.test(ast.exists()))
            if rng.random() < 0.6:
                lower = rng.randint(0, 2)
                upper: Optional[int] = lower + rng.randint(0, 3)
                if rng.random() < 0.2:
                    upper = None
                axis = ast.repeat(axis, lower, upper)
            parts.append(axis)
        elif choice < 0.85 or depth <= 0:
            parts.append(ast.test(_random_static_test(rng)))
        else:
            parts.append(
                ast.union(
                    _random_dataflow_path(rng, depth - 1),
                    _random_dataflow_path(rng, depth - 1),
                )
            )
    if len(parts) == 1:
        return parts[0]
    return ast.concat(*parts)


def _random_static_test(rng: random.Random) -> Test:
    choice = rng.random()
    if choice < 0.3:
        return ast.exists()
    if choice < 0.5:
        return ast.label(rng.choice(_LABELS + _EDGE_LABELS))
    if choice < 0.7:
        return ast.prop_eq(rng.choice(_PROPS), rng.choice(_VALUES))
    if choice < 0.85:
        return ast.time_lt(rng.randint(1, 8))
    return ast.and_(ast.exists(), ast.prop_eq(rng.choice(_PROPS), rng.choice(_VALUES)))


def _random_leaf(rng: random.Random, allow_pc: bool) -> PathExpr:
    choice = rng.random()
    if choice < 0.4:
        return rng.choice((ast.F, ast.B, ast.N, ast.P))
    if choice < 0.55:
        return ast.test(ast.exists())
    if choice < 0.65:
        return ast.test(ast.label(rng.choice(_LABELS + _EDGE_LABELS)))
    if choice < 0.75:
        return ast.test(ast.prop_eq(rng.choice(_PROPS), rng.choice(_VALUES)))
    if choice < 0.85:
        return ast.test(rng.choice((ast.is_node(), ast.is_edge())))
    if choice < 0.95 or not allow_pc:
        return ast.test(ast.time_lt(rng.randint(1, 8)))
    return ast.test(ast.path_test(ast.concat(ast.F, ast.test(ast.exists()))))
