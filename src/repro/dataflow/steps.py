"""Compilation of NavL path expressions into dataflow chain steps.

The dataflow engine evaluates *chains*: linear sequences of steps where

* a :class:`TestStep` filters the validity times of the current object,
* a :class:`StructStep` moves across an edge (``F``/``B``) within the
  same snapshot,
* a :class:`TemporalStep` moves the same object through time by a
  bounded or unbounded number of steps (``N``/``P`` with occurrence
  indicators, every visited point required to exist),
* an :class:`AltStep` evaluates alternative sub-chains (union).

:func:`compile_chain` turns a NavL[PC,NOI] expression produced by the
practical-syntax parser into such a chain, or raises
:class:`~repro.errors.UnsupportedFragmentError` if the expression falls
outside the implemented fragment (path conditions, repetition over
structural navigation) — those queries are handled by the reference
engine instead.

:func:`condition_times` evaluates a static test for a fixed object as a
set of validity intervals, which is what lets the engine stay in the
interval representation during Steps 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.errors import UnsupportedFragmentError
from repro.lang.ast import (
    AndTest,
    Axis,
    Concat,
    EdgeTest,
    ExistsTest,
    LabelTest,
    NodeTest,
    NotTest,
    OrTest,
    PathExpr,
    PathTest,
    PropEq,
    Repeat,
    Test,
    TestPath,
    TimeLt,
    TrueTest,
    Union,
)
from repro.model.itpg import IntervalTPG
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable


# --------------------------------------------------------------------- #
# Step classes
# --------------------------------------------------------------------- #
class ChainStep:
    """Base class of dataflow chain steps."""

    __slots__ = ()


@dataclass(frozen=True)
class TestStep(ChainStep):
    """Filter the current group's validity times with a static condition."""

    __test__ = False  # not a pytest test class despite the name

    condition: Test


@dataclass(frozen=True)
class StructStep(ChainStep):
    """Structural move: ``forward=True`` is ``F``, ``forward=False`` is ``B``."""

    forward: bool


@dataclass(frozen=True)
class TemporalStep(ChainStep):
    """Temporal move on the same object.

    ``forward=True`` is ``NEXT``-like, ``forward=False`` is ``PREV``-like.
    ``lower``/``upper`` bound the number of one-point moves (``upper``
    ``None`` means unbounded).  ``require_existence`` records whether
    every visited time point (excluding the anchor) must exist — true for
    every expression produced by the practical syntax.

    ``target_conditions`` holds static tests fused into the step by
    :func:`fuse_hops` (coalesced engine only): the reached times are
    intersected with their satisfaction times, and — because the tests
    are evaluated from memoized condition tables keyed by object — rows
    whose object cannot satisfy them skip the window arithmetic
    entirely.
    """

    forward: bool
    lower: int
    upper: Optional[int]
    require_existence: bool = True
    target_conditions: tuple[Test, ...] = ()


@dataclass(frozen=True)
class AltStep(ChainStep):
    """Union: evaluate each alternative sub-chain and merge the results."""

    alternatives: tuple[tuple[ChainStep, ...], ...]


@dataclass(frozen=True)
class HopStep(ChainStep):
    """A fused ``Struct · Test* · Struct · Test*`` traversal.

    The coalescing engine rewrites a structural move, the static tests
    on the object it lands on, and the following structural move into a
    single set-at-a-time hop (:func:`fuse_hops`).  The columnar kernel
    runs a hop as struct/test passes with a signature merge after each
    struct, so parallel edges between the same endpoints collapse into
    one coalesced interval family per ``(source, target)`` pair — what
    stops Q11/Q12-style room joins from multiplying rows.
    """

    forward_in: bool
    mid_conditions: tuple[Test, ...]
    forward_out: bool
    target_conditions: tuple[Test, ...]


@dataclass(frozen=True)
class BindStep(ChainStep):
    """Bind the current object (at the group's times) to a variable."""

    variable: str


# --------------------------------------------------------------------- #
# Chain compilation
# --------------------------------------------------------------------- #
def compile_chain(path: PathExpr) -> tuple[ChainStep, ...]:
    """Flatten a NavL expression into a chain of dataflow steps."""
    return tuple(_flatten(path))


def _flatten(path: PathExpr) -> list[ChainStep]:
    if isinstance(path, TestPath):
        _reject_path_conditions(path.condition)
        return [TestStep(path.condition)]
    if isinstance(path, Axis):
        if path.is_structural:
            return [StructStep(forward=(path.kind == "F"))]
        return [
            TemporalStep(
                forward=(path.kind == "N"), lower=1, upper=1, require_existence=False
            )
        ]
    if isinstance(path, Concat):
        steps: list[ChainStep] = []
        for part in path.parts:
            steps.extend(_flatten(part))
        return _merge_existence(steps)
    if isinstance(path, Union):
        return [AltStep(tuple(tuple(_flatten(part)) for part in path.parts))]
    if isinstance(path, Repeat):
        return [_compile_repeat(path)]
    raise UnsupportedFragmentError(f"cannot compile {path!r} into a dataflow chain")


def _compile_repeat(path: Repeat) -> ChainStep:
    """Only temporal repetition is part of the dataflow fragment."""
    body_steps = _merge_existence(_flatten(path.body))
    if len(body_steps) == 1 and isinstance(body_steps[0], TemporalStep):
        inner = body_steps[0]
        if inner.lower == 1 and inner.upper == 1:
            return TemporalStep(
                forward=inner.forward,
                lower=path.lower,
                upper=path.upper,
                require_existence=inner.require_existence,
            )
    raise UnsupportedFragmentError(
        "the dataflow engine only supports occurrence indicators on temporal "
        f"steps (NEXT/PREV); cannot compile {path!r}"
    )


def _merge_existence(steps: list[ChainStep]) -> list[ChainStep]:
    """Merge ``TemporalStep`` followed by an ``EXISTS`` test into one step.

    The practical syntax translates ``NEXT`` into ``N/∃``; for interval
    processing it is more convenient (and equivalent) to record the
    existence requirement on the temporal step itself.  The merge is
    only valid for exactly-one-move steps (``lower == upper == 1``),
    where "the final point exists" and "every visited point exists"
    coincide.  For a multi-move step, ``require_existence`` demands
    that *every* visited point exists (the ``(N/∃)[n,m]`` semantics)
    whereas a trailing test only constrains the final point
    (``N[n,m]/∃``), so merging wrongly rejects navigation across
    existence gaps; for a zero-move-capable step (``N[0,1]/∃``) the
    trailing test still applies while ``require_existence`` checks
    nothing on the identity branch, so merging wrongly admits
    non-existing anchors.  Both cases were flagged by differential
    cross-checks against the bottom-up ground truth.
    """
    merged: list[ChainStep] = []
    for step in steps:
        if (
            merged
            and isinstance(step, TestStep)
            and isinstance(step.condition, ExistsTest)
            and isinstance(merged[-1], TemporalStep)
            and merged[-1].lower == 1
            and merged[-1].upper == 1
        ):
            previous = merged[-1]
            merged[-1] = TemporalStep(
                forward=previous.forward,
                lower=previous.lower,
                upper=previous.upper,
                require_existence=True,
            )
            continue
        merged.append(step)
    return merged


def _reject_path_conditions(condition: Test) -> None:
    if isinstance(condition, PathTest):
        raise UnsupportedFragmentError(
            "path conditions (?path) are outside the dataflow fragment"
        )
    if isinstance(condition, (AndTest, OrTest)):
        for part in condition.parts:
            _reject_path_conditions(part)
    elif isinstance(condition, NotTest):
        _reject_path_conditions(condition.inner)


def chain_has_temporal_step(steps: tuple[ChainStep, ...]) -> bool:
    """True if any step (including nested alternatives) navigates through time."""
    for step in steps:
        if isinstance(step, TemporalStep):
            return True
        if isinstance(step, AltStep):
            if any(chain_has_temporal_step(alt) for alt in step.alternatives):
                return True
    return False


def fuse_hops(
    steps: tuple[ChainStep, ...], is_static: Callable[[Test], bool]
) -> tuple[ChainStep, ...]:
    """Rewrite ``Struct · Test* · Struct [· Test*]`` runs into :class:`HopStep`\\ s.

    Only static tests (decided by ``is_static``) may be folded into a
    hop, and the trailing target tests are left unconsumed when another
    structural step follows them: they are re-emitted as ordinary
    :class:`TestStep`\\ s between the two hops (evaluated on the
    already-coalesced node-level frontier, which is cheap), so chains
    of hops fuse pairwise without overlap.
    Alternatives are fused recursively; every other step is preserved,
    and the rewrite is a pure execution-strategy change (hops evaluate
    to exactly the relation of the steps they replace).
    """
    out: list[ChainStep] = []
    i = 0
    n = len(steps)
    while i < n:
        step = steps[i]
        if isinstance(step, AltStep):
            out.append(
                AltStep(
                    tuple(fuse_hops(alt, is_static) for alt in step.alternatives)
                )
            )
            i += 1
            continue
        if isinstance(step, TemporalStep):
            j = i + 1
            conditions: list[Test] = []
            while (
                j < n
                and isinstance(steps[j], TestStep)
                and is_static(steps[j].condition)
            ):
                conditions.append(steps[j].condition)
                j += 1
            if conditions:
                out.append(
                    TemporalStep(
                        forward=step.forward,
                        lower=step.lower,
                        upper=step.upper,
                        require_existence=step.require_existence,
                        target_conditions=step.target_conditions + tuple(conditions),
                    )
                )
                i = j
                continue
            out.append(step)
            i += 1
            continue
        if isinstance(step, StructStep):
            j = i + 1
            mids: list[Test] = []
            while (
                j < n
                and isinstance(steps[j], TestStep)
                and is_static(steps[j].condition)
            ):
                mids.append(steps[j].condition)
                j += 1
            if j < n and isinstance(steps[j], StructStep):
                second = steps[j]
                j += 1
                targets: list[Test] = []
                while (
                    j < n
                    and isinstance(steps[j], TestStep)
                    and is_static(steps[j].condition)
                ):
                    targets.append(steps[j].condition)
                    j += 1
                if j < n and isinstance(steps[j], StructStep):
                    # Leave the target tests to seed the next hop's mids.
                    j -= len(targets)
                    targets = []
                out.append(
                    HopStep(
                        forward_in=step.forward,
                        mid_conditions=tuple(mids),
                        forward_out=second.forward,
                        target_conditions=tuple(targets),
                    )
                )
                i = j
                continue
        out.append(step)
        i += 1
    return tuple(out)


def bind_group_indices(steps: tuple[ChainStep, ...]) -> Optional[set[int]]:
    """The temporal-group indices at which the chain binds variables.

    Each top-level :class:`TemporalStep` closes the current group and
    opens the next one, so the returned set tells whether all variables
    share one matching time (``len(result) <= 1``) — the condition under
    which the output can stay coalesced.  Returns ``None`` when the
    group index becomes branch-dependent (an :class:`AltStep` whose
    alternatives navigate through time); callers must then decide per
    frontier row.  :class:`BindStep`\\ s never occur inside alternatives
    (alternatives come from path unions, bindings from segments).
    """
    group = 0
    groups: set[int] = set()
    for step in steps:
        if isinstance(step, TemporalStep):
            group += 1
        elif isinstance(step, AltStep):
            if any(chain_has_temporal_step(alt) for alt in step.alternatives):
                return None
        elif isinstance(step, BindStep):
            groups.add(group)
    return groups


# --------------------------------------------------------------------- #
# Static tests as interval sets
# --------------------------------------------------------------------- #
def condition_times(graph: IntervalTPG, obj: ObjectId, condition: Test) -> IntervalSet:
    """The set of time points at which ``(obj, t)`` satisfies ``condition``.

    The result is a coalesced interval family, computed without ever
    expanding the graph to time points — this is the primitive that keeps
    Steps 1 and 2 of the evaluation interval-based.
    """
    domain = graph.domain
    full = IntervalSet((domain,))
    empty = IntervalSet.empty()
    if isinstance(condition, NodeTest):
        return full if graph.is_node(obj) else empty
    if isinstance(condition, EdgeTest):
        return full if graph.is_edge(obj) else empty
    if isinstance(condition, LabelTest):
        return full if graph.label(obj) == condition.label else empty
    if isinstance(condition, PropEq):
        return graph.property_family(obj, condition.prop).when_equals(condition.value)
    if isinstance(condition, TimeLt):
        if condition.bound <= domain.start:
            return empty
        return IntervalSet((Interval(domain.start, min(domain.end, condition.bound - 1)),))
    if isinstance(condition, ExistsTest):
        return graph.existence(obj)
    if isinstance(condition, TrueTest):
        return full
    if isinstance(condition, AndTest):
        result = full
        for part in condition.parts:
            result = result.intersect(condition_times(graph, obj, part))
            if result.is_empty():
                return result
        return result
    if isinstance(condition, OrTest):
        result = empty
        for part in condition.parts:
            result = result.union(condition_times(graph, obj, part))
        return result
    if isinstance(condition, NotTest):
        return condition_times(graph, obj, condition.inner).complement(domain)
    if isinstance(condition, PathTest):
        raise UnsupportedFragmentError(
            "path conditions (?path) are outside the dataflow fragment"
        )
    raise TypeError(f"unknown test {condition!r}")
