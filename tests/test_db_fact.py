"""Unit tests for repro.db.fact."""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.db import Fact, fact, facts
from repro.db.values import Permutation


class TestConstruction:
    def test_basic(self):
        f = fact("S", 1, 2)
        assert f.relation == "S"
        assert f.values == (1, 2)
        assert f.arity == 2

    def test_nullary(self):
        f = fact("Ready")
        assert f.arity == 0
        assert f.values == ()

    def test_rejects_non_atomic_values(self):
        with pytest.raises(ValueError):
            Fact("S", [(1, 2)])

    def test_rejects_empty_relation_name(self):
        with pytest.raises(ValueError):
            Fact("", (1,))

    def test_immutable(self):
        f = fact("S", 1)
        with pytest.raises(AttributeError):
            f.relation = "T"


class TestValueSemantics:
    def test_equality(self):
        assert fact("S", 1, 2) == fact("S", 1, 2)
        assert fact("S", 1, 2) != fact("S", 2, 1)
        assert fact("S", 1) != fact("T", 1)

    def test_hash_consistent(self):
        assert hash(fact("S", 1, 2)) == hash(fact("S", 1, 2))

    def test_ordering_is_total_on_mixed_types(self):
        mixed = [fact("S", 1), fact("S", "a"), fact("R", 2), fact("S", "a", 1)]
        ordered = sorted(mixed)
        assert sorted(ordered) == ordered  # stable / consistent

    def test_repr(self):
        assert repr(fact("S", 1, "a")) == "S(1, 'a')"


class TestOperations:
    def test_rename(self):
        assert fact("S", 1, 2).rename("T") == fact("T", 1, 2)

    def test_apply_permutation(self):
        h = Permutation.swap(1, 2)
        assert fact("S", 1, 2, 3).apply(h) == fact("S", 2, 1, 3)

    def test_project(self):
        assert fact("S", "a", "b", "c").project([2, 0]) == ("c", "a")

    def test_facts_builder(self):
        fs = facts("S", [(1, 2), (2, 3)])
        assert fs == frozenset({fact("S", 1, 2), fact("S", 2, 3)})


def _uncached_key(f: Fact) -> tuple:
    """The sort key, built from scratch."""
    return (f.relation, len(f.values), tuple((type(v).__name__, repr(v)) for v in f.values))


MIXED_FACTS = st.lists(st.builds(
    Fact,
    st.sampled_from(["R", "S"]),
    st.lists(st.one_of(st.integers(-12, 12), st.text("1a-", max_size=2)), max_size=3),
))


class TestSortKeyCache:
    @given(MIXED_FACTS)
    def test_cached_keys_order_like_uncached_ones(self, mixed):
        expected = sorted(mixed, key=_uncached_key)
        assert sorted(mixed) == expected  # keys built and cached here
        assert sorted(mixed) == expected  # and read back from the cache
        assert sorted(mixed, key=Fact._sort_key) == expected
        assert [f._sort_key() for f in mixed] == [_uncached_key(f) for f in mixed]

    def test_cached_key_is_not_pickled(self):
        f = fact("S", 1, "a")
        before = pickle.dumps(f)
        f._sort_key()
        assert pickle.dumps(f) == before
        clone = pickle.loads(before)
        assert clone == f and clone._sort_key() == _uncached_key(f)
