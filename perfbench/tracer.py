"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the library.  It replaces the attribute each
caller looks up — a class attribute for methods (:meth:`Tracer.patch_attr`),
and for functions every ``repro.*`` module global bound to the original
object (:meth:`Tracer.patch_function`: ``net/run.py`` imports
``initial_configuration`` by name, ``analysis/calm.py`` imports
``check_coordination_free_on`` by name) — with a wrapper that records a
span.  :meth:`Tracer.uninstall` puts every original back.  Which
functions get wrapped is decided in :mod:`layers`.

A span is ``(sid, parent, name, op, t0, t1, self, value)``.  Spans are
kept in memory, one buffer and one stack per thread (the service runs
jobs on concurrent threads), and are written out when the run ends.
``self`` is computed when the span closes: the span's duration minus
the durations of the spans opened under it on the same thread, which
never overlap each other.  :func:`self_times` computes the same
quantity offline from the intervals alone, and also handles children
recorded on other threads (a job span linked to the client request
that caused it), whose intervals may overlap: there the union of the
child intervals, clipped to the parent, is what gets subtracted.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array

import numpy as np

_perf = time.perf_counter


class _Buffer:
    """One thread's spans, as parallel compact arrays."""

    __slots__ = ("sid", "parent", "name", "op", "t0", "t1", "self_s", "value")

    def __init__(self) -> None:
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.self_s = array("d")
        self.value = array("d")

    def __len__(self) -> int:
        return len(self.sid)


class _Frame:
    """An open span on a thread's stack."""

    __slots__ = ("sid", "name", "child_s")

    def __init__(self, sid: int, name: int) -> None:
        self.sid = sid
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Records spans around patched library functions."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.op_ids: list[object] = [None]
        self._op_index: dict[object, int] = {None: 0}
        self._patches: list[tuple[object, str, object]] = []
        #: Counts recorded beside the spans (e.g. fault actions per run).
        self.counters: dict[str, float] = {}

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_index:
                self._name_index[name] = len(self.names)
                self.names.append(name)
            return self._name_index[name]

    def _op_id(self, op) -> int:
        with self._lock:
            if op not in self._op_index:
                self._op_index[op] = len(self.op_ids)
                self.op_ids.append(op)
            return self._op_index[op]

    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.buffer
        except AttributeError:
            tls.stack = []
            tls.buffer = _Buffer()
            tls.op = 0
            with self._lock:
                self._buffers.append(tls.buffer)
            return tls.stack, tls.buffer

    def set_op(self, op) -> None:
        """Tag the spans this thread opens from now on with *op*."""
        self._state()
        self._tls.op = self._op_id(op)

    def enter(self, name: int) -> _Frame:
        stack, _ = self._state()
        frame = _Frame(next(self._ids), name)
        stack.append(frame)
        return frame

    def leave(self, frame: _Frame, t0: float, t1: float, value: float = 0.0) -> None:
        stack, buf = self._state()
        stack.pop()
        duration = t1 - t0
        if stack:
            parent = stack[-1]
            parent.child_s += duration
            parent_sid = parent.sid
        else:
            parent_sid = 0
        buf.sid.append(frame.sid)
        buf.parent.append(parent_sid)
        buf.name.append(frame.name)
        buf.op.append(self._tls.op)
        buf.t0.append(t0)
        buf.t1.append(t1)
        buf.self_s.append(duration - frame.child_s)
        buf.value.append(value)

    def span(self, name: str, op=None):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, self.name_id(name), op)

    def wrap(self, name: str, fn, measure=None):
        """*fn* wrapped in a span named *name*.

        *measure* maps the call's result to the span's ``value`` (rows
        returned, steps run, cells swept).
        """
        name_id = self.name_id(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            frame = enter(name_id)
            t0 = _perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _perf()
                leave(frame, t0, t1, measure(result) if measure and result is not None else 0.0)

        return _mark(traced, fn, name)

    def wrap_generator_factory(self, name: str, fn):
        """*fn* returns a generator; time every resumption of it."""
        name_id = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            return _TimedGenerator(tracer, name_id, fn(*args, **kwargs))

        return _mark(traced, fn, name)

    # -- patching --------------------------------------------------------

    def patch_attr(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to *replacement*, remembering the original.

        Only attributes *owner* defines itself are patched, so restoring
        never turns an inherited attribute into an own one.
        """
        original = vars(owner)[attr]
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def patch_function(self, original, replacement) -> int:
        """Rebind every ``repro.*`` module global that is *original*."""
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch_attr(module, attr, replacement)
                    count += 1
        if count == 0:
            raise LookupError(f"{original!r} is bound in no repro module")
        return count

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out --------------------------------------------------------

    def span_count(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers)

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as numpy arrays keyed by field name."""
        with self._lock:
            buffers = [_Buffer()] + list(self._buffers)
        return {
            field: np.concatenate([np.frombuffer(getattr(b, field), dtype=getattr(b, field).typecode)
                                   for b in buffers])
            for field in _Buffer.__slots__
        }

    def write(self, path) -> None:
        """Write every span to *path* (numpy ``.npz``, names alongside)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op_ids=np.array([str(o) for o in self.op_ids]),
            **self.columns(),
        )


def _mark(traced, fn, name: str):
    """Give a wrapper its original's name, and the marker tests look for."""
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    traced.perfbench_span = name
    return traced


class _SpanContext:
    __slots__ = ("tracer", "name", "op", "frame", "t0", "prev_op")

    def __init__(self, tracer: Tracer, name: int, op) -> None:
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        tracer = self.tracer
        tracer._state()
        self.prev_op = tracer._tls.op
        if self.op is not None:
            tracer.set_op(self.op)
        self.frame = tracer.enter(self.name)
        self.t0 = _perf()
        return self

    def __exit__(self, *exc):
        t1 = _perf()
        self.tracer.leave(self.frame, self.t0, t1)
        self.tracer._tls.op = self.prev_op
        return False


class _TimedGenerator:
    """Generator proxy: each ``send``/``next``/``throw`` is one span.

    Supports the full generator protocol, so ``yield from`` and a
    driver's explicit ``send`` both work through it.
    """

    __slots__ = ("_tracer", "_name", "_gen")

    def __init__(self, tracer: Tracer, name: int, gen) -> None:
        self._tracer, self._name, self._gen = tracer, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _timed(self, call, *args):
        tracer = self._tracer
        frame = tracer.enter(self._name)
        t0 = _perf()
        try:
            return call(*args)
        finally:
            tracer.leave(frame, t0, _perf())

    def send(self, value):
        return self._timed(self._gen.send, value)

    def throw(self, *args):
        return self._timed(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


def self_times(spans) -> dict[int, float]:
    """Self time of every span from its interval and its children's.

    *spans* is an iterable of ``(sid, parent, t0, t1)``.  A span's
    children are the spans naming it as parent, on any thread; the
    union of their intervals, clipped to the parent's, is subtracted
    from the parent's duration.  Children on the parent's own thread
    never overlap, so for them this is the plain sum the tracer
    computes when a span closes.
    """
    spans = list(spans)
    interval = {sid: (t0, t1) for sid, _parent, t0, t1 in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, t0, t1 in spans:
        if parent in interval:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, (p0, p1) in interval.items():
        covered = 0.0
        end = p0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, p1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (p1 - p0) - covered
    return out
