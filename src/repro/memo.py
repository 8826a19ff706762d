"""The one bounded memo type of the runtime.

Every per-object memo caches a pure function of its key, so an evicted
entry costs time, never a wrong answer.  A memo keeps one LRU dict per
thread: threads sharing its owner (service jobs sharing one
``Transducer``) never touch the same dict, so no lock is needed.  One
shared dict would not be safe: a key's Python ``__eq__`` runs mid-lookup
while other threads change the dict (see ``docs/runtime.md``).
"""

from __future__ import annotations

import threading


class Memo:
    """At most *limit* entries per thread, least recently used first out.

    ``None`` is not a storable value: :meth:`get` returns it on a miss.
    A memo pickles as an empty memo with the same limit.
    """

    __slots__ = ("limit", "_local")

    def __init__(self, limit: int):
        self.limit = limit
        # The local's __dict__ is the calling thread's entry dict.
        self._local = threading.local()

    def get(self, key):
        entries = self._local.__dict__
        value = entries.pop(key, None)
        if value is not None:
            entries[key] = value  # re-inserted last: the dict order is the recency
        return value

    def local(self) -> dict:
        """The calling thread's entry dict, for a caller that makes many
        lookups in a row (a transition-cache miss looks up each of its
        rule groups).  The caller keeps the LRU discipline of
        :meth:`get` and :meth:`put`: re-insert a hit last, and drop the
        first entry when an insert passes :attr:`limit`."""
        return self._local.__dict__

    def put(self, key, value) -> None:
        """Store *value* under *key* after a miss."""
        entries = self._local.__dict__
        entries[key] = value
        if len(entries) > self.limit:
            del entries[next(iter(entries))]

    def __len__(self) -> int:
        return len(self._local.__dict__)

    def __reduce__(self):
        return (Memo, (self.limit,))
