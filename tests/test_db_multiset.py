"""Unit tests for repro.db.multiset — the message-buffer semantics."""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import Fact, FactMultiset, fact


@pytest.fixture
def buf():
    return FactMultiset([fact("M", 1), fact("M", 1), fact("M", 2)])


class TestBasics:
    def test_counts(self, buf):
        assert buf.count(fact("M", 1)) == 2
        assert buf.count(fact("M", 2)) == 1
        assert buf.count(fact("M", 3)) == 0

    def test_len_counts_occurrences(self, buf):
        assert len(buf) == 3

    def test_contains(self, buf):
        assert fact("M", 1) in buf
        assert fact("M", 9) not in buf

    def test_iter_repeats_duplicates(self, buf):
        assert list(buf) == [fact("M", 1), fact("M", 1), fact("M", 2)]

    def test_distinct(self, buf):
        assert buf.distinct() == (fact("M", 1), fact("M", 2))

    def test_empty_singleton_behaviour(self):
        assert not FactMultiset.empty()
        assert len(FactMultiset.empty()) == 0

    def test_rejects_non_facts(self):
        with pytest.raises(TypeError):
            FactMultiset([1])

    def test_immutable(self, buf):
        with pytest.raises(AttributeError):
            buf._counts = {}


class TestAlgebra:
    def test_add(self, buf):
        bigger = buf.add(fact("M", 1))
        assert bigger.count(fact("M", 1)) == 3
        assert buf.count(fact("M", 1)) == 2  # original untouched

    def test_add_negative_rejected(self, buf):
        with pytest.raises(ValueError):
            buf.add(fact("M", 1), times=-1)

    def test_union_adds_multiplicities(self, buf):
        other = FactMultiset([fact("M", 1), fact("M", 3)])
        u = buf.union(other)
        assert u.count(fact("M", 1)) == 3
        assert u.count(fact("M", 3)) == 1

    def test_union_accepts_iterable(self, buf):
        u = buf.union([fact("M", 9)])
        assert fact("M", 9) in u

    def test_remove_one_occurrence(self, buf):
        fewer = buf.remove(fact("M", 1))
        assert fewer.count(fact("M", 1)) == 1

    def test_remove_more_than_present_rejected(self, buf):
        with pytest.raises(KeyError):
            buf.remove(fact("M", 2), times=2)

    def test_difference_floors_at_zero(self, buf):
        d = buf.difference(FactMultiset([fact("M", 2), fact("M", 2)]))
        assert d.count(fact("M", 2)) == 0
        assert d.count(fact("M", 1)) == 2

    def test_no_zero_counts_are_kept(self, buf):
        # Equality and hashing compare the stored counts, so no
        # operation may leave a fact with count zero behind.
        absent = fact("M", 7)
        assert buf.add(absent, times=0) == buf
        assert buf.remove(absent, times=0) == buf
        assert hash(buf.remove(fact("M", 2)).remove(fact("M", 1), times=2)) == hash(
            FactMultiset()
        )
        assert buf.difference(FactMultiset([absent])) == buf

    def test_contains_multiset(self, buf):
        assert buf.contains_multiset(FactMultiset([fact("M", 1), fact("M", 1)]))
        assert not buf.contains_multiset(
            FactMultiset([fact("M", 1)] * 3)
        )

    def test_equality_and_hash(self):
        a = FactMultiset([fact("M", 1), fact("M", 1)])
        b = FactMultiset([fact("M", 1)]).add(fact("M", 1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != FactMultiset([fact("M", 1)])


# Values of two types, so the sorted view orders across types too.
_VALUES = st.one_of(st.integers(0, 4), st.sampled_from(["a", "b"]))


@st.composite
def _steps(draw):
    """A chain of add/union/remove steps; each step may first compute
    the parent's cached views, which must not leak into the derived
    multiset."""
    kind = draw(st.sampled_from(["add", "union", "union-multiset", "remove"]))
    values = draw(st.lists(_VALUES, min_size=1, max_size=3))
    return kind, values, draw(st.integers(0, 2)), draw(st.booleans())


class TestInheritedViews:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_steps(), max_size=12))
    def test_views_equal_a_rebuilt_multiset(self, steps):
        current, model = FactMultiset(), Counter()
        for kind, values, times, warm in steps:
            # Fresh Fact objects: equal to the buffered ones, not identical.
            facts = [Fact("M", (v,)) for v in values]
            if warm:
                current.distinct(), current.distinct_set()
            if kind == "add":
                derived = current.add(facts[0], times)
                model[facts[0]] += times
            elif kind in ("union", "union-multiset"):
                derived = current.union(
                    FactMultiset(facts) if kind == "union-multiset" else facts
                )
                model.update(facts)
            else:
                present = sorted(model)
                if not present:
                    continue
                f = Fact("M", present[times % len(present)].values)
                n = 1 + times % model[f]
                derived = current.remove(f, n)
                model[f] -= n
            model = +model  # drop zero counts
            rebuilt = FactMultiset(model.elements())
            assert derived == rebuilt
            assert derived.distinct() == rebuilt.distinct() == tuple(sorted(model))
            assert derived.distinct_set() == rebuilt.distinct_set() == frozenset(model)
            current = derived
