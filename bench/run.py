"""Benchmark of the timebarrier package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's closed loop untraced and prints the
end-to-end metrics listed in BENCHMARK.json. Its work is fixed by the seed and
``--seconds``: one call per seeded input, as many inputs as take ``--seconds``
on the reference host (see workloads.py). Call times are reference-host times
(see hostspeed.py). ``--trace 1`` runs a fixed prefix of the seeded inputs
untraced and then traced (see tracer.py) and prints the per-layer metrics.
The last line of stdout is one JSON object; details, work counters and the
trace go to ``bench/out/``. Timers act only on this process and the set-up
probes it starts: no system-wide tracing, no cache dropping, no change to
machine settings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _now() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so a
    # probe's timestamps compare with its parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_package() -> float:
    """Import timebarrier from this checkout's src/; return the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = _now()
    import timebarrier
    import timebarrier.cli  # noqa: F401

    elapsed = _now() - start
    if not Path(timebarrier.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"timebarrier imported from {timebarrier.__file__}, not {SRC}")
    return elapsed


# ------------------------------------------------------------------ set-up

def setup_probe(workload: str, seed: int, seconds: float) -> None:
    """Child process: import the package, build the inputs, report the times."""
    import_s = import_package()
    from workloads import WORKLOADS

    start = _now()
    chosen = WORKLOADS[workload]()
    chosen.inputs(seed, chosen.size(seconds))
    ready = _now()
    print(json.dumps({"ready": ready, "import_s": import_s, "inputs_s": ready - start}))


def measure_setup(workload: str, seed: int, seconds: float) -> list:
    """Set-up time of fresh interpreters: launch until the inputs are built."""
    samples = []
    for _ in range(SETUP_PROBES):
        launched = _now()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        probe = json.loads(child.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe["ready"] - launched
        samples.append(probe)
    return samples


# -------------------------------------------------------------------- loop

def run_ops(workload, items, *, tracer=None):
    """Closed loop: one call per item, one call at a time. ``spans`` holds the
    wall interval of each call; ``latencies`` their lengths."""
    import timebarrier as tb

    spans, latencies, works, failures, problems = [], [], [], [], []
    first_work = {}  # id of an item -> work of its first call
    units = 0
    for i, item in enumerate(items):
        start = time.perf_counter()
        with tracer.op(i) if tracer is not None else nullcontext():
            try:
                out, error = workload.call(item), None
            except tb.TimeBarrierError as exc:
                out, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        spans.append((start, end))
        latencies.append(end - start)
        if error is None:
            outcome = workload.check(item, out)
            units += outcome.units
            failures += outcome.failures
            problems += outcome.wrong
            works.append(outcome.work)
        else:
            units += 1
            failures.append(error)
            works.append({})
        if first_work.setdefault(id(item), works[i]) != works[i]:
            problems.append(f"op {i}: work counters differ from the item's first call")
    return {
        "spans": spans, "latencies": latencies, "works": works, "units": units,
        "failures": failures, "problems": problems,
    }


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it. With fewer than 21 samples that percentile would lie at or
    below the median, so the median stands in for it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def sum_work(works: list) -> dict:
    total = {}
    for work in works:
        for key, value in work.items():
            total[key] = total.get(key, 0) + value
    return total


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeatable(workload: str, seed: int, works: list) -> list:
    """Compare per-op work counters with earlier runs of the same code and seed."""
    path = OUT / "work" / f"{workload}-seed{seed}-{source_digest()}.json"
    previous = json.loads(path.read_text()) if path.exists() else []
    failures = [
        f"op {i}: work counters {works[i]} differ from an earlier run ({previous[i]})"
        for i in range(min(len(previous), len(works)))
        if previous[i] != works[i]
    ]
    if len(works) > len(previous):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(works))
        os.replace(tmp, path)
    return failures


# ----------------------------------------------------------------- metrics

def end_to_end_metrics(run: dict, setup: list) -> dict:
    latencies = run["work_times"]
    tail_s, _ = tail(latencies)
    return {
        "ops_per_s": run["units"] / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(p["setup_s"] for p in setup),
    }


def layer_metrics(tracer, setup: list, overhead: float) -> dict:
    totals, counters = tracer.totals, tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    accepted = counters.get("integrate.steps_accepted", 0)
    rejected = counters.get("integrate.steps_rejected", 0)
    metrics = {
        "integrate.simulate.self_s": self_s("integrate.simulate"),
        "integrate.us_per_step": 1e6 * total_s("integrate.simulate") / accepted if accepted else 0.0,
        "integrate.steps_accepted": accepted,
        "integrate.steps_rejected": rejected,
        "integrate.accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "integrate.samples": counters.get("integrate.samples", 0),
        "systems.rhs_per_step": calls("systems.rhs") / accepted if accepted else 0.0,
        "certify.check_dissipation.calls": calls("certify.check_dissipation"),
        "certify.check_dissipation.self_s": self_s("certify.check_dissipation"),
        "sweep.run_sweep.self_s": self_s("sweep.run_sweep"),
        "setup.import_s": statistics.median(p["import_s"] for p in setup),
        "setup.inputs_s": statistics.median(p["inputs_s"] for p in setup),
        "trace.overhead_ratio": overhead,
    }
    for name in (
        "core.w_transform", "systems.rhs", "systems.v", "systems.vdot",
        "analytic.exact_solution_scalar", "analytic.settling_bound",
        "analytic.remaining_settling_time", "integrate.resample",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = total_s(name)
    for name in ("cli.render_trajectory_csv", "cli.parse_trajectory_csv", "cli.render_sweep_csv"):
        metrics[f"{name}.s"] = total_s(name)
    for name in (
        "certify.checked_samples", "certify.fd_resample_calls",
        "certify.fd_default_tol_violations", "sweep.rows", "cli.csv_bytes",
    ):
        metrics[name] = counters.get(name, 0)
    for layer, seconds in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def select(metrics: dict, declared: list) -> dict:
    """The declared metrics, with the units BENCHMARK.json gives them."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "timers": "time.perf_counter in this process and CLOCK_MONOTONIC for set-up "
                  "probes; no system-wide tracing, no cache dropping, no change to "
                  "machine settings",
    }


# -------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def traced_run(workload, items, setup: list) -> tuple:
    """The first ``trace_ops`` ops untraced, then traced: layer metrics."""
    from tracer import Tracer

    items = items[: workload.trace_ops]
    plain = run_ops(workload, items)
    tracer = Tracer()
    tracer.install()
    try:
        run = run_ops(workload, items, tracer=tracer)
    finally:
        tracer.uninstall()
    problems = run["problems"] + plain["problems"]
    if run["works"] != plain["works"] or run["failures"] != plain["failures"]:
        problems.append("traced ops did other work or failed otherwise than untraced ops")
    if tracer.counters.get("integrate.steps_accepted", 0) != sum_work(run["works"]).get("steps_accepted", 0):
        problems.append("traced step count disagrees with the results' step counts")
    worst = 0.0
    for op_id, (duration, self_sum) in tracer.self_time_by_op().items():
        mismatch = abs(self_sum - duration)
        worst = max(worst, mismatch / duration if duration else mismatch)
        if op_id is None or mismatch > 1e-9 + 1e-6 * duration:
            problems.append(f"op {op_id}: self times sum to {self_sum}, span is {duration}")
    overhead = sum(run["latencies"]) / sum(plain["latencies"])
    metrics = layer_metrics(tracer, setup, overhead)
    extra = {"self_time_partition_worst_rel_error": worst, "trace": tracer.dump()}
    return run, problems, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds)
        return 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import timebarrier from {SRC}: {exc}", file=sys.stderr)
        return 2
    from hostspeed import Sampler
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    setup = measure_setup(args.workload, args.seed, args.seconds)
    items = workload.inputs(args.seed, workload.size(args.seconds))

    if args.trace:
        run, problems, metrics, extra = traced_run(workload, items, setup)
        declared = config["per_layer"]
    else:
        with Sampler() as sampler:
            run = run_ops(workload, items)
        run["work_times"] = sampler.work_times(run["spans"])
        problems = run["problems"]
        extra = {"work_s": sum(run["work_times"]), "calibration_s": sampler.durations}
        metrics = end_to_end_metrics(run, setup)
        declared = config["end_to_end"]
    problems += check_repeatable(workload.name, args.seed, run["works"])

    calls = len(run["latencies"])
    attempted, failed = run["units"], len(run["failures"])
    _, tail_pct = tail(run["latencies"])
    work = sum_work(run["works"])
    detail = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "provenance": provenance(),
        "setup": setup, "calls": calls, "wall_s": sum(run["latencies"]),
        "attempted": attempted, "failed": failed,
        "failures": run["failures"][:50], "problems": problems, "work": work,
        "latency_tail_percentile": tail_pct, "metrics": metrics,
    }
    if hasattr(workload, "unequal"):
        detail["unequal_share"] = sum(map(workload.unequal, items[:calls])) / calls
    trace = extra.pop("trace", None)
    detail.update(extra)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if trace is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(trace))

    print(f"workload {workload.name}: {workload.why}")
    print(f"setup_s samples: {[round(p['setup_s'], 4) for p in setup]}")
    print(f"ops: {calls} calls, {attempted} attempted, {failed} failed, "
          f"failed_ops_ratio={failed / attempted:g} (base {attempted})")
    print(f"latency tail: p{tail_pct:.2f} over {calls} samples")
    print(f"work: {json.dumps(work, sort_keys=True)}")
    if "unequal_share" in detail:
        print(f"unequal-magnitude share: {detail['unequal_share']:.4f}")
    for message in run["failures"][:10]:
        print(f"FAILED: {message}")
    for message in problems:
        print(f"INCORRECT: {message}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(metrics, declared),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
