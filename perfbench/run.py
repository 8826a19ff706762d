"""The checker's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload tc-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same ops untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit, the
tail percentile and its sample count, the exact counts of the run and
the machine stamp.  Spans of a traced run are written to
``.perfbench_out/``.  Seed 1000 is held out: do not tune against it,
and use it to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tc-sweep", "calm-zoo", "service-mix")
HELD_OUT_SEED = 1000
SETUPS = 7
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "repeat_p50_s": "s",
    "peak_rss_mb": "MiB",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _in_process_workload(name: str, seed: int):
    if name == "tc-sweep":
        import tc_sweep

        return tc_sweep.Workload(seed)
    import calm_zoo

    return calm_zoo.Workload(seed)


def _probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it is ready to run
    op 0, and the calibration slice that interpreter timed next, on its
    own core (the parent may sit on the other one)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or first.strip() != b"ready":
        raise RuntimeError(f"setup probe failed: {err.decode()[-500:]}")
    return elapsed, float(rest.split()[-1])


def _pin_to_one_core() -> int | None:
    """Run this process, and every process it starts, on one core, so
    that the calibration slices time the core the ops ran on.  Returns
    the core, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no library source at {ROOT / 'src' / 'repro'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("REPRO_ENGINE", None)

    if args.setup_probe:
        # Everything a run does before its first timed op.
        workload = _in_process_workload(args.workload, args.seed)
        workload.prepare(0)
        print("ready", flush=True)
        from calibrate import SETUP_SLICES, slice_s

        print(statistics.median(slice_s() for _ in range(SETUP_SLICES)))
        return 0

    import common
    from calibrate import NOMINAL_S

    pinned_cpu = _pin_to_one_core()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = None
    if args.workload == "service-mix":
        import service_mix

        if args.trace:
            metrics, details, records, tracer = service_mix.traced(args.seed, args.seconds)
        else:
            metrics, details, records = service_mix.end_to_end(
                ROOT, out_dir, args.seed, args.seconds)
        attempted = details.get("attempted", len(records))
        errors = [f"job {r.index} ({r.kind}): {r.error}" for r in records if not r.ok]
        failed = len(errors)
    else:
        import inprocess

        workload = _in_process_workload(args.workload, args.seed)
        if args.trace:
            metrics, details, log, tracer = inprocess.traced(workload, args.seconds)
            attempted = details["attempted"]
        else:
            probes = [_probe_setup(args.workload, args.seed) for _ in range(SETUPS)]
            metrics, details, log = inprocess.end_to_end(workload, args.seconds)
            metrics["setup_s"] = common.median(t * NOMINAL_S / cal for t, cal in probes)
            details["setup_samples_s"] = [t for t, _ in probes]
            details["setup_slices_s"] = [cal for _, cal in probes]
            attempted = len(log)
        errors, failed = log.errors, log.failed

    if tracer is not None:
        tracer.write(out_dir / f"spans-{args.workload}.npz")
        import layers

        units = layers.UNITS
    else:
        units = END_TO_END_UNITS
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "pinned_cpu": pinned_cpu,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "environment": common.bench_environment(),
    })
    for name in units:
        print(f"{name:>26} {metrics[name]:.6g} {units[name]}")
    print(f"{'failed_ratio':>26} {details['failed_ratio']:.6g} ({failed}/{attempted})")
    if tracer is not None:
        held = metrics["trace.coverage"] >= layers.COVERAGE_FLOOR
        print(f"layer self times cover {metrics['trace.coverage']:.3f} of traced op time "
              f"(stated floor {layers.COVERAGE_FLOOR}): {'held' if held else 'NOT HELD'}")
    for error in errors[:20]:
        print(f"  error: {error}")
    print("details " + json.dumps(details, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
