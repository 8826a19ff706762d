"""The bounded LRU memo (``repro.memo.Memo``) and the pools built on it."""

from __future__ import annotations

import pickle
import sys
import threading
import time

from repro.lang import joinplan
from repro.lang.joinplan import IndexPool
from repro.memo import Memo

THREADS = 4


class TestMemo:
    def test_get_misses_as_none_and_hits_the_stored_value(self):
        memo = Memo(4)
        assert memo.get("a") is None
        value = frozenset()
        memo.put("a", value)
        assert memo.get("a") is value
        assert len(memo) == 1

    def test_stalest_entry_goes_first(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)
        assert memo.get("a") is None
        assert (memo.get("b"), memo.get("c")) == (2, 3)

    def test_hit_refreshes_recency(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1
        memo.put("c", 3)
        assert memo.get("b") is None
        assert (memo.get("a"), memo.get("c")) == (1, 3)

    def test_never_holds_more_than_its_limit(self):
        memo = Memo(3)
        for i in range(50):
            memo.put(i, i)
            assert len(memo) <= 3
        assert [memo.get(i) for i in (47, 48, 49)] == [47, 48, 49]

    def test_pickles_empty_with_its_limit(self):
        used = Memo(7)
        for i in range(5):
            used.put(i, str(i))
        clone = pickle.loads(pickle.dumps(used))
        assert type(clone) is Memo
        assert clone.limit == 7 and len(clone) == 0
        assert pickle.dumps(used) == pickle.dumps(Memo(7))

    def test_local_is_the_calling_threads_entry_dict(self):
        memo = Memo(4)
        memo.put("a", 1)
        entries = memo.local()
        assert entries == {"a": 1} and memo.local() is entries
        entries["b"] = 2
        assert memo.get("b") == 2
        seen = []
        thread = threading.Thread(target=lambda: seen.append(dict(memo.local())))
        thread.start()
        thread.join()
        assert seen == [{}]

    def test_transducer_group_lookups_keep_the_memo_bound(self, monkeypatch):
        from repro.core import transducer as transducer_module
        from repro.core import transitive_closure_transducer
        from repro.db import instance, schema

        monkeypatch.setattr(transducer_module, "MEMO_LIMIT", 3)
        tc = transitive_closure_transducer()
        state = tc.make_state(instance(schema(S=2), S=[(1, 2), (2, 3)]), "a", {"a"})
        for _ in range(4):
            state = tc.heartbeat(state).new_state
            assert len(tc._group_memo) <= 3

    def test_each_thread_sees_only_its_own_entries(self):
        memo = Memo(4)
        memo.put("a", "main")
        seen = []
        other = threading.Thread(
            target=lambda: (seen.append(memo.get("a")), memo.put("a", "other"))
        )
        other.start()
        other.join()
        assert seen == [None]
        assert memo.get("a") == "main" and len(memo) == 1

    def test_threads_sharing_a_memo_never_raise_or_overshoot(self):
        # Keys that are equal but not identical, with an __eq__ that
        # yields the GIL: a lookup then runs Python code mid-operation,
        # the interleaving that crashed a shared OrderedDict LRU.
        memo = Memo(8)
        sizes = _hammer(lambda idx: _work(memo, idx, 20_000))
        assert sizes and max(sizes) <= 8


class _Key:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return hash(self.value % 16)  # collisions force __eq__ calls

    def __eq__(self, other):
        time.sleep(0)
        return isinstance(other, _Key) and self.value == other.value


def _work(memo, idx, rounds):
    for i in range(rounds):
        key = (i * 7 + idx) % 64
        value = memo.get(_Key(key))
        if value is None:
            memo.put(_Key(key), (idx, key))
        elif value != (idx, key):
            raise AssertionError(f"thread {idx} read {value} under {key}")
    return len(memo)


def _hammer(work) -> list:
    """Run *work(idx)* on THREADS threads at a 1 µs switch interval;
    return the results, raising the first error."""
    barrier = threading.Barrier(THREADS)
    results: list = []
    errors: list[BaseException] = []

    def run(idx: int) -> None:
        try:
            barrier.wait()
            results.append(work(idx))
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


class TestIndexPool:
    def test_caps_entries_at_its_module_bound(self, monkeypatch):
        monkeypatch.setattr(joinplan, "INDEX_MEMO_LIMIT", 2)
        pool = IndexPool()
        extents = [frozenset({(i, i)}) for i in range(4)]
        built = [pool.index(e, (0,)) for e in extents]
        assert len(pool._indexes) == 2
        # The two freshest extents are still served from the pool.
        assert pool.index(extents[3], (0,)) is built[3]
        assert pool.index(extents[2], (0,)) is built[2]
        assert pool.index(extents[0], (0,)) is not built[0]
