"""Compilation of NavL path expressions into dataflow chain steps.

The dataflow engine evaluates *chains*: linear sequences of steps where

* a :class:`TestStep` filters the validity times of the current object,
* a :class:`StructStep` moves across an edge (``F``/``B``) within the
  same snapshot,
* a :class:`TemporalStep` moves the same object through time by a
  bounded or unbounded number of steps (``N``/``P`` with occurrence
  indicators, every visited point required to exist), or back along
  such a move (its converse),
* an :class:`AltStep` evaluates alternative sub-chains (union),
* a :class:`BindStep` binds the current object to a variable.

A chain is the query as written: which tests travel with which move is
decided once, by the columnar planner
(:func:`repro.perf.columnar.plan_query`).  :func:`converse_chain` reads
a chain from its far end; NavL is closed under converse, so both
denote the same answers and the planner may seed from either end.

:func:`compile_chain` turns a NavL[PC,NOI] expression produced by the
practical-syntax parser into such a chain, or raises
:class:`~repro.errors.UnsupportedFragmentError` if the expression falls
outside the implemented fragment (path conditions, repetition over
structural navigation) — those queries are handled by the reference
engine instead.

:func:`~repro.perf.graph_index.condition_times` evaluates a static test
for a fixed object as a set of validity intervals, which is what lets
the engine stay in the interval representation during Steps 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Optional, Sequence

from repro.errors import UnsupportedFragmentError
from repro.lang.ast import (
    AndTest,
    Axis,
    Concat,
    ExistsTest,
    NotTest,
    OrTest,
    PathExpr,
    PathTest,
    Repeat,
    Test,
    TestPath,
    Union,
)

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

    ``converse=True`` marks the inverse move, from each point the
    unmarked step reaches back to the anchors it reaches it from: the
    converse of ``(N/∃)[n,m]`` is ``(∃/P)[n,m]``, which checks the
    anchor and every point in between but not the one it lands on.
    """

    forward: bool
    lower: int
    upper: Optional[int]
    require_existence: bool = True
    converse: bool = False


@dataclass(frozen=True)
class AltStep(ChainStep):
    """Union: evaluate each alternative sub-chain and merge the results."""

    alternatives: tuple[tuple[ChainStep, ...], ...]


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


def converse_chain(chain: Sequence[ChainStep]) -> tuple[ChainStep, ...]:
    """``chain`` read from its far end, with the same answers.

    The chain splits into *object slots* — the maximal runs of tests and
    binds between moves — and the moves between them.  The converse
    lists the slots and the moves in reverse order, flips each
    structural move (``F``↔``B``), marks (or unmarks) each temporal move
    as its converse and converses every alternative.  Each test and bind
    stays on its object: inside a slot the tests come first, so the
    planner still folds them into the move the slot follows (the slot's
    times are shared, so a bind's place in its slot changes nothing).
    Applied twice it returns the chain with every slot so ordered.
    """
    slots: list[list[ChainStep]] = [[]]
    moves: list[ChainStep] = []
    for step in chain:
        if isinstance(step, (TestStep, BindStep)):
            slots[-1].append(step)
        else:
            moves.append(_converse_move(step))
            slots.append([])
    out: list[ChainStep] = []
    for slot, move in zip(reversed(slots), (*reversed(moves), None)):
        out.extend(step for step in slot if isinstance(step, TestStep))
        out.extend(step for step in slot if isinstance(step, BindStep))
        if move is not None:
            out.append(move)
    return tuple(out)


def _converse_move(step: ChainStep) -> ChainStep:
    if isinstance(step, StructStep):
        return StructStep(forward=not step.forward)
    if isinstance(step, TemporalStep):
        return replace(step, converse=not step.converse)
    if isinstance(step, AltStep):
        return AltStep(tuple(converse_chain(alt) for alt in step.alternatives))
    raise TypeError(f"unknown chain step {step!r}")


def chain_has_temporal_step(steps: tuple[ChainStep, ...]) -> bool:
    """True if any step (including nested alternatives) navigates through time."""
    for step in steps:
        if isinstance(step, TemporalStep):
            return True
        if isinstance(step, AltStep):
            if any(chain_has_temporal_step(alt) for alt in step.alternatives):
                return True
    return False


#: Why a chain has no interval (coalesced) output (see :func:`binds_share_group`).
FAMILIES_UNDEFINED = (
    "interval (coalesced) output is only defined when every variable is "
    "bound within a single temporal group"
)


def binds_share_group(steps: tuple[ChainStep, ...]) -> bool:
    """True when every leaf of the chain binds all its variables within
    one temporal group — the one rule under which the output stays
    interval-native (one coalesced family per binding tuple).

    Each :class:`TemporalStep` closes the current group and opens the
    next, and an :class:`AltStep` whose alternatives navigate through
    time is distributed into leaves, one per branch, so some leaf
    crosses a group boundary between two binds exactly when a step
    between the first and the last :class:`BindStep` navigates through
    time.  A temporal alternation before the first bind or after the
    last one does not matter.  :class:`BindStep`\\ s never occur inside
    alternatives (alternatives come from path unions, bindings from
    segments).
    """
    binds = [i for i, step in enumerate(steps) if isinstance(step, BindStep)]
    return not binds or not chain_has_temporal_step(steps[binds[0] : binds[-1]])
