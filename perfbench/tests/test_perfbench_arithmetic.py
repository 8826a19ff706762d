"""Tests of the benchmark's own arithmetic and of the tracer's restore.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from calibrate import NOMINAL_S, Speed  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _spans(tracer):
    cols = tracer.columns()
    return list(zip(cols["sid"].tolist(), cols["parent"].tolist(),
                    cols["t0"].tolist(), cols["t1"].tolist())), cols


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        tracer = Tracer()
        a = tracer.enter(tracer.name_id("a"))
        b = tracer.enter(tracer.name_id("b"))
        c = tracer.enter(tracer.name_id("c"))
        tracer.leave(c, 2.0, 2.5)
        tracer.leave(b, 1.0, 3.0)
        d = tracer.enter(tracer.name_id("d"))
        tracer.leave(d, 4.0, 5.0)
        tracer.leave(a, 0.0, 10.0)
        spans, cols = _spans(tracer)
        online = dict(zip(cols["sid"].tolist(), cols["self_s"].tolist()))
        assert online == pytest.approx(self_times(spans))
        assert online[a.sid] == pytest.approx(10.0 - 2.0 - 1.0)
        assert online[b.sid] == pytest.approx(1.5)
        assert online[c.sid] == pytest.approx(0.5)

    def test_cross_thread_children_count_once_and_clip_to_the_parent(self):
        # A client request [0, 10] and work other threads did for it:
        # two overlapping job spans and one that outlives the request.
        spans = [(1, 0, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 1, 3.0, 6.0), (4, 1, 8.0, 12.0),
                 (5, 2, 1.5, 2.0)]
        out = self_times(spans)
        assert out[1] == pytest.approx(10.0 - 5.0 - 2.0)
        assert out[2] == pytest.approx(2.5)
        assert out[4] == pytest.approx(4.0)

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        started, release = threading.Event(), threading.Event()

        def worker():
            with tracer.span("worker", op="job"):
                started.set()
                release.wait(5)

        with tracer.span("client", op="request"):
            thread = threading.Thread(target=worker)
            thread.start()
            started.wait(5)
            release.set()
            thread.join(5)
        assert not thread.is_alive()
        cols = tracer.columns()
        by_name = {tracer.names[n]: i for i, n in enumerate(cols["name"].tolist())}
        worker_span, client_span = by_name["worker"], by_name["client"]
        # The worker's span is a root of its own thread, not the client's child,
        assert cols["parent"][worker_span] == 0
        # so the client keeps its whole duration as self time.
        assert cols["self_s"][client_span] == pytest.approx(
            cols["t1"][client_span] - cols["t0"][client_span])
        assert tracer.op_ids[cols["op"][worker_span]] == "job"


class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        out = common.tail(range(100))
        assert out == {"value": 89, "percentile": 90.0, "beyond": 10, "samples": 100}

    def test_eleven_samples_is_the_smallest_with_a_tail(self):
        out = common.tail([5.0] + [1.0] * 10)
        assert out["value"] == 1.0 and out["beyond"] == 10 and out["samples"] == 11

    def test_fewer_than_eleven_samples_report_the_maximum(self):
        out = common.tail([3.0, 1.0, 2.0])
        assert out["value"] == 3.0 and out["beyond"] == 0 and out["percentile"] == 100.0

    def test_order_of_samples_does_not_matter(self):
        xs = [0.3, 0.1, 0.9, 0.5, 0.7, 0.2, 0.8, 0.4, 0.6, 1.0, 1.1, 1.2]
        assert common.tail(xs) == common.tail(sorted(xs, reverse=True))
        assert common.tail(xs)["value"] == 0.2


class TestSpeedScaling:
    def test_ops_are_scaled_by_the_slices_around_them(self):
        # Eleven ops of 1 s of reference work: the first ones on a core
        # at the reference speed, the last ones at half speed.
        speed = Speed()
        speed.slices = [NOMINAL_S] * 6 + [2 * NOMINAL_S] * 6
        assert speed.factor(0) == pytest.approx(1.0)
        assert speed.factor(10) == pytest.approx(0.5)
        latency = [1.0] * 5 + [1.5] + [2.0] * 5
        is_op = [i in (0, 10) for i in range(11)]
        metrics, details = common.op_metrics(latency, latency, is_op, [i == 10 for i in range(11)],
                                             speed)
        assert metrics["op_p50_s"] == pytest.approx(1.0)
        assert metrics["repeat_p50_s"] == pytest.approx(1.0)
        assert details["raw_wall_clock"]["op_p50_s"] == pytest.approx(1.5)
        assert details["raw_wall_clock"]["ops_per_s"] == pytest.approx(11 / 16.5)

    def test_ops_outside_the_op_mask_count_only_in_throughput(self):
        speed = Speed()
        speed.slices = [NOMINAL_S] * 4
        metrics, _ = common.op_metrics(
            [5.0, 1.0, 3.0], [5.0, 1.0, 3.0], [False, True, True], [True, False, False], speed)
        assert metrics["op_p50_s"] == pytest.approx(2.0)
        assert metrics["repeat_p50_s"] == pytest.approx(5.0)
        assert metrics["ops_per_s"] == pytest.approx(3 / 9.0)


def _where(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


def _wrappers_left() -> set[str]:
    """Every tracer wrapper still bound in a repro module or class."""
    left = set()
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "perfbench_span"):
                left.add(_where(module, attr))
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for cattr, cvalue in list(vars(value).items()):
                    if hasattr(cvalue, "perfbench_span"):
                        left.add(_where(value, cattr))
    return left


class TestTracerRestore:
    def test_uninstall_restores_every_wrapped_attribute(self):
        from repro.core import transitive_closure_transducer
        from repro.db import instance, schema
        from repro.net import check_consistency, line

        tracer = Tracer()
        layers.install(tracer, service=True)
        patched = list(tracer._patches)
        assert len(patched) > 20
        assert _wrappers_left() == {_where(owner, attr) for owner, attr, _ in patched}
        chain = instance(schema(S=2), S=[(1, 2), (2, 3)])
        with tracer.span(layers.OP, op=0):
            check_consistency(line(2), transitive_closure_transducer(), chain,
                              partition_count=1, seeds=(0,))
        names = {tracer.names[n] for n in tracer.columns()["name"].tolist()}
        assert {"executor", "run", "transition", "query", "convergence"} <= names
        tracer.uninstall()

        assert _wrappers_left() == set()
        for owner, attr, original in patched:
            assert vars(owner)[attr] is original
        before = tracer.span_count()
        check_consistency(line(2), transitive_closure_transducer(), chain,
                          partition_count=1, seeds=(0,))
        assert tracer.span_count() == before


def test_benchmark_json_declares_what_the_benchmark_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in declared["per_layer"]] == [m[0] for m in layers.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
