"""Thread-safety regression for a transducer shared across threads.

The verification service hands one ``Transducer`` object to every job
thread when a ``module:attr`` spec names an object rather than a
factory.  Its memos (the transition cache, the group memo, the
received-instance cache and the convergence summaries) are
:class:`repro.memo.Memo` s.  The hammer below lowers their bounds so
every memo evicts, interleaves the threads finely (a 1 µs switch
interval), then checks that every thread saw exactly the serial run's
outputs and that no memo outgrew its bound.
"""

from __future__ import annotations

import sys
import threading

from repro.core import transducer as transducer_module
from repro.core import transitive_closure_transducer
from repro.db import instance, schema
from repro.net import check_consistency, line

THREADS = 4
ROUNDS = 3
CHAIN = 6
MEMO_BOUND = 64


def _check(transducer):
    s2 = schema(S=2)
    chain = instance(s2, S=[(i, i + 1) for i in range(1, CHAIN + 1)])
    report = check_consistency(
        line(3), transducer, chain, partition_count=3, seeds=(0, 1)
    )
    return report.consistent, report.outputs


def _memo_sizes(transducer) -> list[tuple[str, int, int]]:
    """``(memo, entries, bound)`` for every memo of *transducer*, as the
    calling thread sees them."""
    return [
        (name, len(getattr(transducer, name)), MEMO_BOUND)
        for name in (
            "_transition_cache", "_group_memo", "_received_by_fact",
            "summary_memo",
        )
    ]


def test_shared_transducer_matches_serial_under_eviction(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "indexed")
    expected = _check(transitive_closure_transducer())
    monkeypatch.setattr(transducer_module, "MEMO_LIMIT", MEMO_BOUND)
    shared = transitive_closure_transducer()
    barrier = threading.Barrier(THREADS)
    results: list[list] = [[] for _ in range(THREADS)]
    sizes: list[list] = [[] for _ in range(THREADS)]
    errors: list[BaseException] = []

    def work(idx: int) -> None:
        try:
            barrier.wait()
            for _ in range(ROUNDS):
                results[idx].append(_check(shared))
            sizes[idx] = _memo_sizes(shared)
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
    for seen in sizes:
        assert all(entries <= bound for _, entries, bound in seen), seen
        # The transition cache and the group memo filled up, so each
        # of them evicted.
        full = {name for name, entries, bound in seen if entries == bound}
        assert {"_transition_cache", "_group_memo"} <= full, seen
