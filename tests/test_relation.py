"""Tests for temporal relations (composition, repetition by squaring)."""

import random

import pytest

from repro.eval.relation import TemporalRelation


def rel(*tuples):
    return TemporalRelation(tuples)


@pytest.fixture()
def identity():
    # Identity over a tiny universe of temporal objects: one object, times 0..4.
    return TemporalRelation({("o", t, "o", t) for t in range(5)})


@pytest.fixture()
def step():
    # "Move one time point forward" over the same universe.
    return TemporalRelation({("o", t, "o", t + 1) for t in range(4)})


class TestBasicOperations:
    def test_len_iter_contains(self, step):
        assert len(step) == 4
        assert ("o", 0, "o", 1) in step
        assert ("o", 4, "o", 5) not in step
        assert set(step) == step.tuples

    def test_union_intersect_difference(self, step, identity):
        both = step.union(identity)
        assert len(both) == 9
        assert step.intersect(identity).is_empty()
        assert both.difference(identity) == step

    def test_equality_and_hash(self):
        assert rel(("a", 1, "b", 1)) == rel(("a", 1, "b", 1))
        assert hash(rel(("a", 1, "b", 1))) == hash(rel(("a", 1, "b", 1)))

    def test_source_project(self):
        r = rel(("a", 1, "b", 2), ("a", 1, "c", 3), ("d", 4, "a", 1))
        assert r.source_project() == {("a", 1), ("d", 4)}

    def test_repr(self, step):
        assert "4 tuples" in repr(step)


class TestComposition:
    def test_compose_chains_tuples(self):
        left = rel(("a", 0, "b", 1))
        right = rel(("b", 1, "c", 2), ("b", 9, "x", 9))
        assert left.compose(right) == rel(("a", 0, "c", 2))

    def test_compose_no_match_is_empty(self):
        assert rel(("a", 0, "b", 1)).compose(rel(("c", 1, "d", 2))).is_empty()

    def test_compose_with_identity_is_noop(self, step, identity):
        assert step.compose(identity) == step
        assert identity.compose(step) == step

    def test_compose_is_associative(self, step, identity):
        a = step
        b = step.union(identity)
        c = step.compose(step)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


class TestRepetition:
    def test_power_zero_is_identity(self, step, identity):
        assert step.power(0, identity) == identity

    def test_power_one_is_self(self, step, identity):
        assert step.power(1, identity) == step

    def test_power_two(self, step, identity):
        expected = TemporalRelation({("o", t, "o", t + 2) for t in range(3)})
        assert step.power(2, identity) == expected

    def test_power_matches_iterated_composition(self, step, identity):
        manual = step
        for _ in range(3):
            manual = manual.compose(step)
        assert step.power(4, identity) == manual

    def test_bounded_repetition_enumerates_range(self, step, identity):
        # steps of length 1..3
        out = step.bounded_repetition(1, 3, identity)
        expected = set()
        for k in (1, 2, 3):
            expected |= {("o", t, "o", t + k) for t in range(5 - k)}
        assert out.tuples == frozenset(expected)

    def test_bounded_repetition_includes_zero(self, step, identity):
        out = step.bounded_repetition(0, 1, identity)
        assert identity.tuples <= out.tuples
        assert step.tuples <= out.tuples

    def test_bounded_repetition_equal_bounds(self, step, identity):
        assert step.bounded_repetition(2, 2, identity) == step.power(2, identity)

    def test_bounded_repetition_invalid_bounds(self, step, identity):
        with pytest.raises(ValueError):
            step.bounded_repetition(3, 1, identity)

    def test_unbounded_repetition_is_reflexive_transitive_closure(self, step, identity):
        closure = step.unbounded_repetition(0, identity)
        expected = {("o", t, "o", t2) for t in range(5) for t2 in range(t, 5)}
        assert closure.tuples == frozenset(expected)

    def test_unbounded_repetition_with_lower_bound(self, step, identity):
        closure = step.unbounded_repetition(2, identity)
        expected = {("o", t, "o", t2) for t in range(5) for t2 in range(t + 2, 5)}
        assert closure.tuples == frozenset(expected)

    def test_unbounded_matches_large_bounded(self, step, identity):
        assert step.unbounded_repetition(0, identity) == step.bounded_repetition(
            0, 25, identity
        )


# --------------------------------------------------------------------- #
# Random relations against the set-comprehension definitions
# --------------------------------------------------------------------- #
OBJECTS = ["a", "b", "c", "d"]
DOMAIN = range(0, 12)
IDENTITY = TemporalRelation((o, t, o, t) for o in OBJECTS for t in DOMAIN)


def random_temporal_relation(seed: int, size: int = 40) -> TemporalRelation:
    """Random point tuples biased towards small time offsets."""
    rng = random.Random(seed)
    tuples = []
    for _ in range(size):
        o = rng.choice(OBJECTS)
        o2 = rng.choice(OBJECTS)
        t = rng.choice(DOMAIN)
        t2 = min(DOMAIN[-1], max(DOMAIN[0], t + rng.randint(-3, 3)))
        tuples.append((o, t, o2, t2))
    return TemporalRelation(tuples)


def naive_compose(left, right) -> frozenset:
    return frozenset(
        (o, t, o3, t3)
        for o, t, o2, t2 in left
        for p, s, o3, t3 in right
        if (p, s) == (o2, t2)
    )


def naive_powers(relation: TemporalRelation, upper: int) -> list[frozenset]:
    """``relation^0 .. relation^upper`` by iterated composition."""
    powers = [IDENTITY.tuples]
    for _ in range(upper):
        powers.append(naive_compose(powers[-1], relation))
    return powers


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_point_round_trip(self, seed):
        relation = random_temporal_relation(seed)
        rebuilt = TemporalRelation(list(relation))
        assert rebuilt == relation
        assert hash(rebuilt) == hash(relation)
        assert len(rebuilt) == len(set(relation.tuples))

    def test_membership_matches_expansion(self):
        relation = random_temporal_relation(3)
        for o in OBJECTS:
            for o2 in OBJECTS:
                for t in DOMAIN:
                    for t2 in DOMAIN:
                        assert ((o, t, o2, t2) in relation) == (
                            (o, t, o2, t2) in relation.tuples
                        )

    def test_duplicate_tuples_collapse(self):
        relation = TemporalRelation([("a", 0, "b", 1)] * 5 + [("a", 0, "b", 2)])
        assert len(relation) == 2
        assert relation == rel(("a", 0, "b", 2), ("a", 0, "b", 1))


class TestAlgebraAgreement:
    """Each operation, fast paths included, equals its set definition."""

    @pytest.mark.parametrize("seed", range(6))
    def test_union(self, seed):
        a = random_temporal_relation(seed)
        b = random_temporal_relation(seed + 100)
        assert a.union(b).tuples == a.tuples | b.tuples

    @pytest.mark.parametrize("seed", range(6))
    def test_intersect(self, seed):
        a = random_temporal_relation(seed)
        b = random_temporal_relation(seed + 1)  # adjacent seeds share tuples
        assert a.intersect(b).tuples == a.tuples & b.tuples

    @pytest.mark.parametrize("seed", range(6))
    def test_compose(self, seed):
        a = random_temporal_relation(seed)
        b = random_temporal_relation(seed + 100)
        assert a.compose(b).tuples == naive_compose(a, b)

    @pytest.mark.parametrize("exponent", [0, 1, 2, 3, 5])
    def test_power(self, exponent):
        relation = random_temporal_relation(7)
        expected = naive_powers(relation, exponent)[exponent]
        assert relation.power(exponent, IDENTITY).tuples == expected

    @pytest.mark.parametrize("bounds", [(0, 0), (0, 1), (1, 3), (2, 2), (0, 5)])
    def test_bounded_repetition(self, bounds):
        lower, upper = bounds
        relation = random_temporal_relation(9)
        expected = frozenset().union(*naive_powers(relation, upper)[lower:])
        got = relation.bounded_repetition(lower, upper, IDENTITY)
        assert got.tuples == expected

    @pytest.mark.parametrize("lower", [0, 1, 2])
    def test_unbounded_repetition(self, lower):
        relation = random_temporal_relation(11, size=60)  # long walks
        # A walk longer than lower + |temporal objects| repeats a temporal
        # object in its tail, so cutting that cycle keeps it >= lower.
        horizon = lower + len(IDENTITY)
        expected = frozenset().union(*naive_powers(relation, horizon)[lower:])
        got = relation.unbounded_repetition(lower, IDENTITY)
        assert got.tuples == expected

    def test_bounded_repetition_rejects_inverted_bounds(self):
        relation = random_temporal_relation(9)
        with pytest.raises(ValueError):
            relation.bounded_repetition(3, 1, IDENTITY)


class TestProjectionsAndEdges:
    def test_source_project(self):
        relation = random_temporal_relation(5)
        assert relation.source_project() == {(o, t) for o, t, _o2, _t2 in relation}

    def test_empty_operands(self):
        relation = random_temporal_relation(2)
        empty = TemporalRelation()
        assert empty.is_empty()
        assert relation.union(empty) == relation
        assert empty.union(relation) == relation
        assert relation.compose(empty).is_empty()
        assert empty.compose(relation).is_empty()
        assert relation.intersect(empty).is_empty()
        assert empty.intersect(relation).is_empty()

    def test_empty_input_builds_empty_relation(self):
        relation = TemporalRelation(iter(()))
        assert relation.is_empty()
        assert len(relation) == 0
        assert relation == TemporalRelation()
        assert relation.source_project() == set()
