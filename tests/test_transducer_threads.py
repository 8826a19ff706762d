"""Thread-safety regression for a transducer shared across threads.

The verification service hands one ``Transducer`` object to every job
thread when a ``module:attr`` spec names an object rather than a
factory.  Its memos (the transition cache, the group memo and the
received-instance cache) are unlocked dicts bounded by
``_transition_cache_limit``; once one is full, every insert first drops
its stalest entry.  Reading that entry while another thread inserted
raised ``RuntimeError: dictionary changed size during iteration``.  The
hammer below fills the memos fast (a lowered limit) and interleaves the
threads finely (a 1 µs switch interval), then checks that every thread
saw exactly the serial run's outputs.
"""

from __future__ import annotations

import sys
import threading

from repro.core import transitive_closure_transducer
from repro.db import instance, schema
from repro.net import check_consistency, line

THREADS = 4
ROUNDS = 3
CHAIN = 6


def _check(transducer):
    s2 = schema(S=2)
    chain = instance(s2, S=[(i, i + 1) for i in range(1, CHAIN + 1)])
    report = check_consistency(
        line(3), transducer, chain, partition_count=3, seeds=(0, 1)
    )
    return report.consistent, report.outputs


def test_shared_transducer_matches_serial_under_eviction():
    expected = _check(transitive_closure_transducer())
    shared = transitive_closure_transducer()
    shared._transition_cache_limit = 64
    barrier = threading.Barrier(THREADS)
    results: list[list] = [[] for _ in range(THREADS)]
    errors: list[BaseException] = []

    def work(idx: int) -> None:
        try:
            barrier.wait()
            for _ in range(ROUNDS):
                results[idx].append(_check(shared))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    assert expected[0]
    for outputs in results:
        assert outputs == [expected] * ROUNDS
