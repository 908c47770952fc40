"""Unit tests for interval-level temporal reachability.

``reachable_window``/``reachable_sources`` are also the scalar
reference the columnar kernel's vectorized temporal reach is pinned to
(:class:`TestKernelReach`).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataflow.steps import TemporalStep
from repro.model.itpg import IntervalTPG
from repro.perf.columnar import _Kernel
from repro.perf.graph_index import GraphIndex
from repro.temporal import Interval, IntervalSet
from repro.temporal.alignment import reachable_sources, reachable_window


class TestReachableWindow:
    """The interval form of temporal navigation used by the dataflow engine."""

    DOMAIN = Interval(0, 20)

    def test_forward_bounded_contiguous(self):
        existence = IntervalSet([(0, 10)])
        out = reachable_window(Interval(2, 3), existence, 1, 4, True, True, self.DOMAIN)
        assert out == [(Interval(2, 3), Interval(3, 7))]

    def test_forward_contiguous_respects_run_end(self):
        existence = IntervalSet([(0, 5), (8, 12)])
        out = reachable_window(Interval(4, 4), existence, 0, 10, True, True, self.DOMAIN)
        # The run containing 4 ends at 5; the later run is unreachable
        # contiguously.  Reachable points: {4} (zero moves) ∪ {5}.
        assert out == [
            (Interval(4, 4), Interval(4, 4)),
            (Interval(4, 4), Interval(5, 5)),
        ]

    def test_backward_unbounded_contiguous(self):
        existence = IntervalSet([(2, 9)])
        out = reachable_window(Interval(9, 9), existence, 0, None, False, True, self.DOMAIN)
        assert out == [
            (Interval(9, 9), Interval(9, 9)),
            (Interval(9, 9), Interval(2, 8)),
        ]

    def test_anchor_outside_existence_reaches_only_itself_when_contiguous(self):
        # Zero moves visit no point, so with lower bound 0 every anchor
        # reaches itself regardless of existence ((N/∃)[0,m] semantics:
        # the k = 0 repetition is the identity).
        existence = IntervalSet([(5, 9)])
        out = reachable_window(Interval(1, 2), existence, 0, 3, True, True, self.DOMAIN)
        assert out == [(Interval(1, 2), Interval(1, 2))]

    def test_anchor_just_before_run_can_enter_it(self):
        # The anchor itself is never visited, so a move from t = 4 into
        # the run [5, 9] is contiguous: the visited points 5, 6, 7 exist.
        existence = IntervalSet([(5, 9)])
        out = reachable_window(Interval(4, 4), existence, 1, 3, True, True, self.DOMAIN)
        assert out == [(Interval(4, 4), Interval(5, 7))]

    def test_anchor_just_after_run_can_enter_it_backward(self):
        existence = IntervalSet([(5, 9)])
        out = reachable_window(Interval(10, 10), existence, 2, None, False, True, self.DOMAIN)
        assert out == [(Interval(10, 10), Interval(5, 8))]

    def test_anchor_spanning_two_runs_produces_identity_and_run_windows(self):
        existence = IntervalSet([(0, 3), (6, 9)])
        out = reachable_window(Interval(2, 7), existence, 0, None, True, True, self.DOMAIN)
        assert out == [
            (Interval(2, 7), Interval(2, 7)),  # zero moves
            (Interval(2, 2), Interval(3, 3)),  # within the first run
            (Interval(5, 7), Interval(6, 9)),  # entering/within the second run
        ]

    def test_non_contiguous_ignores_existence(self):
        existence = IntervalSet([(0, 1)])
        out = reachable_window(Interval(3, 4), existence, 2, 3, True, False, self.DOMAIN)
        assert out == [(Interval(3, 4), Interval(5, 7))]

    def test_non_contiguous_clamps_to_domain(self):
        existence = IntervalSet([(0, 20)])
        out = reachable_window(Interval(18, 19), existence, 0, 5, True, False, self.DOMAIN)
        assert out == [(Interval(18, 19), Interval(18, 20))]

    def test_backward_non_contiguous_unbounded(self):
        existence = IntervalSet([(0, 20)])
        out = reachable_window(Interval(5, 6), existence, 2, None, False, False, self.DOMAIN)
        assert out == [(Interval(5, 6), Interval(0, 4))]

    def test_lower_bound_exceeding_run_gives_nothing(self):
        existence = IntervalSet([(0, 4)])
        assert reachable_window(Interval(3, 4), existence, 5, 9, True, True, self.DOMAIN) == []


REACH_DOMAIN = Interval(3, 20)


def families(min_size: int = 0):
    """Coalesced families of intervals inside ``REACH_DOMAIN``."""
    bound = st.integers(REACH_DOMAIN.start, REACH_DOMAIN.end)
    pairs = st.tuples(bound, bound).map(lambda p: (min(p), max(p)))
    return st.lists(pairs, min_size=min_size, max_size=4).map(IntervalSet)


@st.composite
def reach_cases(draw):
    """Existence families of a few objects; rows, each an object and an
    anchor family; ``[lower, upper]`` (``upper`` ``None`` = unbounded);
    direction; and whether visited points must exist."""
    existence = draw(st.lists(families(), min_size=1, max_size=4))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, len(existence) - 1), families(min_size=1)),
            min_size=1,
            max_size=5,
        )
    )
    lower = draw(st.integers(0, 4))
    upper = draw(st.one_of(st.none(), st.integers(lower, lower + 6)))
    return existence, rows, lower, upper, draw(st.booleans()), draw(st.booleans())


class TestKernelReach:
    """``_Kernel._targets``/``_sources`` equal the union, over each row's
    anchor intervals, of the scalar ``reachable_window`` targets and
    ``reachable_sources`` windows — and for a converse step the other
    way round."""

    @staticmethod
    def run(case, method, converse=False):
        existence, rows, lower, upper, forward, require = case
        graph = IntervalTPG(REACH_DOMAIN)
        for number, family in enumerate(existence):
            graph.add_node(f"n{number}", "Node", family)
        index = GraphIndex(graph)
        kernel = _Kernel(index.columnar_context())
        step = TemporalStep(
            forward=forward,
            lower=lower,
            upper=upper,
            require_existence=require,
            converse=converse,
        )
        obj = np.array([index.object_id[f"n{number}"] for number, _ in rows], dtype=np.int64)
        spans = [(row, iv) for row, (_, family) in enumerate(rows) for iv in family]
        owner = np.array([row for row, _ in spans], dtype=np.int64)
        start = np.array([iv.start for _, iv in spans], dtype=np.int64)
        end = np.array([iv.end for _, iv in spans], dtype=np.int64)
        got_owner, got_start, got_end = getattr(kernel, method)(step, obj, owner, start, end)
        got = {}
        for row, lo, hi in zip(got_owner.tolist(), got_start.tolist(), got_end.tolist()):
            got.setdefault(row, []).append(Interval(lo, hi))
        args = (lower, upper, forward, require, REACH_DOMAIN)
        for row, (number, family) in enumerate(rows):
            reached = []
            for anchor in family:
                if (method == "_targets") != converse:
                    pairs = reachable_window(anchor, existence[number], *args)
                    reached.extend(target for _, target in pairs)
                else:
                    reached.extend(reachable_sources(anchor, existence[number], *args))
            expected = IntervalSet(reached)
            # The kernel's per-row family is already coalesced.
            assert got.pop(row, []) == list(expected.intervals), (row, case)
        assert not got

    @settings(max_examples=300, deadline=None)
    @given(reach_cases())
    def test_targets_equal_reachable_window(self, case):
        self.run(case, "_targets")

    @settings(max_examples=300, deadline=None)
    @given(reach_cases())
    def test_sources_equal_reachable_sources(self, case):
        self.run(case, "_sources")

    @settings(max_examples=300, deadline=None)
    @given(reach_cases())
    def test_converse_targets_equal_reachable_sources(self, case):
        self.run(case, "_targets", converse=True)

    @settings(max_examples=300, deadline=None)
    @given(reach_cases())
    def test_converse_sources_equal_reachable_window(self, case):
        self.run(case, "_sources", converse=True)
