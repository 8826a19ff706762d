"""Statistics, environment stamp and process helpers shared by the workloads."""

from __future__ import annotations

import os
import platform
import resource
import statistics

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(samples) -> float:
    samples = list(samples)
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def tail(samples) -> dict:
    """The latency at the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    With *n* sorted samples that is the sample at index ``n - 11``: ten
    samples sit above it, and it is the ``100 * (n - 10) / n``-th
    percentile.  Fewer than eleven samples leave no such percentile;
    the maximum is reported instead, flagged by ``beyond < 10``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "value": xs[k],
        "percentile": 100.0 * (k + 1) / n,
        "beyond": n - 1 - k,
        "samples": n,
    }


def op_metrics(latency, busy, is_op, is_repeat, speed) -> tuple[dict, dict]:
    """The timed phase's metrics, at the reference core speed.

    Op *i* took ``latency[i]`` seconds from request to answer and
    ``busy[i]`` seconds of the loop in all (with its untimed prepare
    and check); ``speed.factor(i)`` scales both.  ``op_p50_s`` and
    ``op_tail_s`` are over the ops with ``is_op``, ``repeat_p50_s``
    over those with ``is_repeat``, and ``ops_per_s`` counts every op
    over the summed busy time.  The same figures on the raw wall clock
    go into the details.
    """
    n = len(latency)
    factors = [speed.factor(i) for i in range(n)]
    out, tails = {}, {}
    for name, scale in (("scaled", factors), ("raw", [1.0] * n)):
        lat = [x * f for x, f in zip(latency, scale)]
        ops = [x for x, keep in zip(lat, is_op) if keep]
        op_tail = tails[name] = tail(ops)
        out[name] = {
            "op_p50_s": median(ops),
            "op_tail_s": op_tail["value"],
            "ops_per_s": n / sum(b * f for b, f in zip(busy, scale)),
            "repeat_p50_s": median(x for x, keep in zip(lat, is_repeat) if keep),
        }
    details = {
        "op_tail": tails["scaled"],
        "repeat_samples": sum(1 for keep in is_repeat if keep),
        "raw_wall_clock": out["raw"],
        "speed_factor_median": median(factors),
        "speed_factor_range": [min(factors), max(factors)],
        "calibration_s": speed.seconds(),
    }
    return out["scaled"], details


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def bench_environment() -> dict:
    """The machine stamp, with the same fields as the experiment benches'."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
    }


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
