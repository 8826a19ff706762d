"""Self-healing of the sweep engine: deaths, retries, timeouts.

The robustness contract of :class:`~repro.net.SweepEngine`: a worker
killed mid-map (``os._exit``, OOM-kill…) is detected and the pool
respawned with every unfinished task resubmitted; a worker-raised
exception retries with capped backoff up to ``max_retries``; a task
exceeding the per-run ``timeout`` is quarantined (its hung worker
killed) and re-run serially in the parent, once, after the pool rounds
finish — so a sweep *completes with bit-identical results* instead of
hanging or crashing, and :class:`~repro.net.EngineHealth` reports what
it took.  Every exceptional exit routes through the session's
``terminate()``, so no child processes are ever leaked — including on
``KeyboardInterrupt``.

The injection helpers are module-level (fork pools resolve them by
reference) and coordinate through sentinel files under a per-test
directory: "fail until the flag exists" makes every fault one-shot,
so the healed rerun succeeds and results can be compared
observation-for-observation against an undisturbed serial run.
"""

import multiprocessing
import os
import time

import pytest

from repro.core import build_transducer
from repro.db import Fact, Instance, schema
from repro.lang import PythonQuery
from repro.net import (
    EngineHealth,
    SweepEngine,
    line,
    round_robin,
    sample_partitions,
    sweep_runs,
)

#: The test process; injection helpers only misbehave in forked
#: children, so serial reference runs are never disturbed.
_PARENT_PID = os.getpid()


def _live_children():
    return {p.pid for p in multiprocessing.active_children()}


def _flag(ctx, name):
    return os.path.join(ctx, name)


def _trip(path):
    """Atomically claim a one-shot flag: True exactly once."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# --- engine.map task functions (fn(context, item), module-level) -----


def _square(ctx, item):
    return item * item


def _kill_worker_once(ctx, item):
    if item == 3 and _trip(_flag(ctx, "killed")):
        os._exit(1)
    return item * item


def _hang_once(ctx, item):
    if item == 2 and _trip(_flag(ctx, "hung")):
        time.sleep(600)
    return item + 10


def _fail_twice(ctx, item):
    if item == 1:
        attempts = _flag(ctx, "attempts")
        with open(attempts, "ab") as handle:
            handle.write(b".")
        if os.path.getsize(attempts) <= 2:
            raise ValueError("injected transient failure")
    return -item


def _always_fail(ctx, item):
    raise ValueError("injected permanent failure")


def _interrupt(ctx, item):
    raise KeyboardInterrupt


class TestSupervisedMap:
    def test_clean_map_reports_clean_health(self):
        engine = SweepEngine(workers=2, lifetime="fork")
        assert engine.map(_square, None, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert engine.health == EngineHealth()

    def test_worker_death_respawns_and_completes(self, tmp_path):
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork")
        got = engine.map(_kill_worker_once, str(tmp_path), [1, 2, 3, 4, 5])
        assert got == [1, 4, 9, 16, 25]
        assert engine.health.worker_deaths >= 1
        assert engine.health.respawns >= 1
        assert engine.health.retries >= 1
        assert engine.health.quarantined == 0
        assert _live_children() <= before

    def test_timeout_quarantines_and_reruns_serially(self, tmp_path):
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork", timeout=0.5)
        got = engine.map(_hang_once, str(tmp_path), [1, 2, 3, 4])
        assert got == [11, 12, 13, 14]
        assert engine.health.timeouts == 1
        assert engine.health.quarantined == 1
        assert engine.health.serial_reruns == 1
        assert engine.health.respawns >= 1  # the hung worker was killed
        assert _live_children() <= before

    def test_transient_failures_retry_with_backoff(self, tmp_path):
        engine = SweepEngine(workers=2, lifetime="fork", max_retries=2,
                             retry_backoff=0.01)
        got = engine.map(_fail_twice, str(tmp_path), [1, 2, 3])
        assert got == [-1, -2, -3]
        assert engine.health.retries == 2
        assert engine.health.quarantined == 0
        # both injected failures really happened before the success
        assert os.path.getsize(_flag(str(tmp_path), "attempts")) == 3

    def test_permanent_failure_raises_past_the_cap(self):
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork", max_retries=1,
                             retry_backoff=0.01)
        with pytest.raises(ValueError, match="injected permanent"):
            engine.map(_always_fail, None, [1, 2])
        assert engine.health.retries >= 1
        assert _live_children() <= before

    def test_keyboard_interrupt_propagates_without_leaking(self):
        # KeyboardInterrupt is never swallowed into a retry: a worker
        # raising it dies (it escapes the pool worker loop), the task
        # quarantines at the cap, and the serial rerun re-raises in the
        # parent — through the terminate() discipline, leak-free.
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork", max_retries=0,
                             retry_backoff=0.01)
        with pytest.raises(KeyboardInterrupt):
            engine.map(_interrupt, None, [1, 2])
        assert _live_children() <= before

    def test_bad_resilience_knobs_are_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            SweepEngine(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            SweepEngine(retry_backoff=-0.1)
        with pytest.raises(ValueError, match="timeout"):
            SweepEngine(timeout=0)


# --- fault injection inside a real sweep -----------------------------

# The injection surface for sweep-level tests is the transducer's
# output query: a PythonQuery consulting these globals.  Fork pools
# inherit the set values; the parent-pid guard keeps serial reference
# runs (and parent-side serial reruns) undisturbed.
_SWEEP_KILL_DIR = None
_SWEEP_HANG_DIR = None


def _sabotaged_output(instance):
    if os.getpid() != _PARENT_PID:
        if _SWEEP_KILL_DIR is not None and _trip(
            _flag(_SWEEP_KILL_DIR, "sweep-kill")
        ):
            os._exit(1)
        if _SWEEP_HANG_DIR is not None and _trip(
            _flag(_SWEEP_HANG_DIR, "sweep-hang")
        ):
            time.sleep(600)
    return instance.relation("R")


def _sabotaged_relay():
    """A relay transducer whose output query runs the saboteur."""
    return build_transducer(
        inputs={"S": 1},
        messages={"M": 1},
        memory={"R": 1},
        output_arity=1,
        rules="""
            send M(x)   :- S(x).
            send M(x)   :- M(x).
            insert R(x) :- M(x).
        """,
        output=PythonQuery(
            _sabotaged_output, 1, schema(R=1), reads=("R",),
            name="sabotaged_relay_output",
        ),
        name="sabotaged_relay",
    )


def _obs_signature(observations):
    return [
        (obs.seed, obs.result.output, obs.result.converged,
         obs.result.stats.steps, obs.result.quiescence_step)
        for obs in observations
    ]


class TestSelfHealingSweep:
    """The ISSUE acceptance criterion: an injected worker ``os._exit``
    and an injected per-run hang both complete the sweep with results
    observation-for-observation identical to an undisturbed serial run.
    """

    @pytest.fixture()
    def grid(self):
        elements = Instance(
            schema(S=1), [Fact("S", (v,)) for v in (1, 2, 3)]
        )
        net = line(3)
        partitions = [round_robin(elements, net)] + sample_partitions(
            elements, net, 2
        )
        return net, partitions, (0, 1)

    def test_worker_exit_mid_sweep_heals(self, grid, tmp_path):
        global _SWEEP_KILL_DIR
        net, partitions, seeds = grid
        # Separate transducer instances: the reference run must not
        # pre-warm the faulty run's transition cache (warm workers
        # would answer every local query from the cache and never
        # reach the saboteur).
        reference = sweep_runs(net, _sabotaged_relay(), partitions, seeds)
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork")
        _SWEEP_KILL_DIR = str(tmp_path)
        try:
            got = sweep_runs(
                net, _sabotaged_relay(), partitions, seeds, engine=engine
            )
        finally:
            _SWEEP_KILL_DIR = None
        assert _obs_signature(got) == _obs_signature(reference)
        assert os.path.exists(_flag(str(tmp_path), "sweep-kill"))
        assert engine.health.worker_deaths >= 1
        assert engine.health.respawns >= 1
        assert _live_children() <= before

    def test_hung_run_mid_sweep_heals(self, grid, tmp_path):
        global _SWEEP_HANG_DIR
        net, partitions, seeds = grid
        reference = sweep_runs(net, _sabotaged_relay(), partitions, seeds)
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork", timeout=2.0)
        _SWEEP_HANG_DIR = str(tmp_path)
        try:
            got = sweep_runs(
                net, _sabotaged_relay(), partitions, seeds, engine=engine
            )
        finally:
            _SWEEP_HANG_DIR = None
        assert _obs_signature(got) == _obs_signature(reference)
        assert os.path.exists(_flag(str(tmp_path), "sweep-hang"))
        assert engine.health.timeouts == 1
        assert engine.health.quarantined == 1
        assert engine.health.serial_reruns == 1
        assert _live_children() <= before
