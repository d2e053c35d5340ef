"""Real-time lockstep benchmark of rtahs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A run computes the reference solutions, then repeats whole
rounds of one workload (see ``workloads.py``) until ``--seconds`` have
passed, checks every round, and prints the metrics, one per line, with a
JSON summary as the last line of standard output.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and gives the per-layer metrics and the tracing overhead, and
writes the spans to ``bench/out/``.  Exits 1 when a check fails and 2
when the program's sources are missing.
"""

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from measure import median, nest, percentile, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("rt_factor", "x"),
    ("step_us.p50", "us"),
    ("step_us.p99", "us"),
    ("peak_rss_mb", "MB"),
)
COUNTERS = (
    "sent", "lost", "received", "stale", "duplicates", "decode_errors", "retries", "timeouts"
)
PER_LAYER = (
    ("estimators.step_us.p50", "us"),
    ("estimators.step_us.p99", "us"),
    ("cases.measure_us.p50", "us"),
    ("cases.advance_us.p50", "us"),
    ("wire.encode_us.p50", "us"),
    ("wire.decode_us.p50", "us"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("cosim.exchange_us.p50", "us"),
    ("cosim.exchange_us.p99", "us"),
    ("cosim.exchange_self_us.p50", "us"),
    ("cosim.transport_us.p50", "us"),
    ("cosim.recovery_s", "s"),
    ("cosim.handshake_s", "s"),
    *((f"cosim.{side}.{c}", "count") for side in ("server", "surrogate") for c in COUNTERS),
    ("loop.self_us.p50", "us"),
    ("loop.deadline_miss", "count"),
    ("loop.step_us.max", "us"),
    ("python.gc_collections", "count"),
    ("integrators.oracle_s", "s"),
    ("metrics.compare_s", "s"),
    ("harness.artifacts_s", "s"),
    ("harness.artifact_bytes", "bytes"),
    ("setup.import_s", "s"),
    ("harness.build_s", "s"),
    ("trace.overhead.step_us.p50", "%"),
    ("trace.overhead.run_s", "%"),
)


# Importing rtahs can be timed only once per process, so set-up takes it
# from fresh interpreters: the median of this many, spread over the run
# like the rounds so that a slow spell of the host weighs on both alike.
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import rtahs; print(time.perf_counter() - t)"
)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import rtahs (numpy,
    scipy.linalg and yaml with it)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def end_to_end(rounds, import_s: float) -> dict:
    """End-to-end metrics over the untraced rounds: medians of per-round
    values.  Each round's step percentiles come from its own 10,000 step
    intervals, so a slow spell of the host moves one round, not the run."""
    return {
        "setup_s": import_s + median([r.setup_s for r in rounds]),
        "run_s": median([r.run_s for r in rounds]),
        "rt_factor": median([r.rt_factor for r in rounds]),
        "step_us.p50": median([r.step_p50_us for r in rounds]),
        "step_us.p99": median([r.step_p99_us for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(spans: list, rnd) -> dict:
    """Per-layer metrics of one traced round from its spans."""
    n = rnd.n_samples
    # A step runs from one measure call to the next; the spans its thread
    # opens in between nest inside it.
    step_thread = next(s[0] for s in spans if s[1] == "cases.measure")
    spans = spans + [
        (step_thread, "loop.step", k, a, b, 0)
        for k, (a, b) in enumerate(zip(rnd.stamps, rnd.stamps[1:]))
    ]
    intervals = [(s[3], s[4]) for s in spans]
    own = self_times(intervals, nest([(s[0], s[3], s[4]) for s in spans]))
    by_name: dict[str, list] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[1], []).append((s, own[i]))

    def us(name):
        return [(s[4] - s[3]) / 1e3 for s, _ in by_name.get(name, ())]

    # The surrogate's MEASUREMENT exchanges, one per step.
    exchanges = [(s, t) for s, t in by_name.get("cosim.exchange", ()) if 0 <= s[2] < n]
    exchange_us = [(s[4] - s[3]) / 1e3 for s, _ in exchanges]
    process_ns = {s[2]: s[4] - s[3] for s, _ in by_name.get("estimators.process", ())}
    codec = [s for name in ("wire.encode", "wire.decode") for s, _ in by_name.get(name, ())]
    prepare_s = sum(us("harness.prepare")) / 1e6
    out = {
        "estimators.step_us.p50": percentile(us("estimators.process"), 50),
        "estimators.step_us.p99": percentile(us("estimators.process"), 99),
        "cases.measure_us.p50": percentile(us("cases.measure"), 50),
        "cases.advance_us.p50": percentile(us("cases.advance"), 50),
        "wire.encode_us.p50": percentile(us("wire.encode"), 50),
        "wire.decode_us.p50": percentile(us("wire.decode"), 50),
        "wire.frames": len(codec),
        "wire.bytes": sum(s[5] for s in codec),
        "cosim.exchange_us.p50": percentile(exchange_us, 50),
        "cosim.exchange_us.p99": percentile(exchange_us, 99),
        "cosim.exchange_self_us.p50": percentile([t / 1e3 for _, t in exchanges], 50),
        "cosim.transport_us.p50": percentile(
            [(s[4] - s[3] - process_ns[s[2]]) / 1e3 for s, _ in exchanges if s[2] in process_ns],
            50,
        ),
        "cosim.recovery_s": sum(s[4] - s[3] for s, _ in exchanges if s[5] > 0) / 1e9,
        # Bind, thread start and handshake: from the loop call to the
        # first step, less the noise pre-draw that runs in between.
        "cosim.handshake_s": rnd.phases["cosim.handshake"] - prepare_s if exchanges else 0.0,
        "loop.self_us.p50": percentile([t / 1e3 for _, t in by_name["loop.step"]], 50),
        "integrators.oracle_s": rnd.phases["integrators.oracle"],
        "metrics.compare_s": rnd.phases["metrics.compare"],
        "harness.artifacts_s": rnd.phases["harness.artifacts"],
        "harness.artifact_bytes": rnd.artifact_bytes,
        "harness.build_s": rnd.phases["harness.build"] + prepare_s,
    }
    for side, st in (("server", rnd.server_stats), ("surrogate", rnd.surrogate_stats)):
        for c in COUNTERS:
            out[f"cosim.{side}.{c}"] = getattr(st, c) if st is not None else 0
    return out


def per_layer(untraced, traced, tracer, import_s: float) -> dict:
    """Per-layer metrics: medians over the traced rounds, loop health and
    the tracing overhead from the untraced rounds of the same run."""
    rows = [layer_metrics(tracer.spans[slice(*r.span_range)], r) for r in traced]
    out = {name: median([row[name] for row in rows]) for name in rows[0]}
    out["loop.deadline_miss"] = median([r.deadline_miss for r in untraced])
    out["loop.step_us.max"] = max(r.step_max_us for r in untraced)
    out["python.gc_collections"] = median([r.gc_collections for r in untraced])
    out["setup.import_s"] = import_s
    e_plain, e_traced = end_to_end(untraced, 0.0), end_to_end(traced, 0.0)
    for key in ("step_us.p50", "run_s"):
        out[f"trace.overhead.{key}"] = 100.0 * (e_traced[key] / e_plain[key] - 1.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rtahs" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the whole process, set before any thread exists.  Both
    # UDP endpoints then hand off on one core; across cores each hand-off
    # waits for an idle virtual CPU to wake, which on a shared host costs
    # milliseconds that vary from round to round.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS, build_reference, check_reference, check_round, run_round

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    ref = build_reference(wl.load(ROOT, args.seed))

    tracer = Tracer() if args.trace else None
    rounds, errors, probes = [], check_reference(ref), []
    start = time.monotonic()
    while not rounds or time.monotonic() < start + args.seconds or (tracer and len(rounds) < 2):
        due = start + len(probes) * args.seconds / IMPORT_PROBES
        if len(probes) < IMPORT_PROBES and time.monotonic() >= due:
            probes.append(import_probe())
        gc.collect()
        traced = tracer is not None and len(rounds) % 2 == 1
        rnd = run_round(ROOT, wl, args.seed, out_dir, tracer if traced else None)
        if rnd.completed:
            errors += [f"round {len(rounds)}: {e}" for e in check_round(rnd, wl, ref)]
            rnd.result = None
            rnd.summarize()
        else:
            errors.append(f"round {len(rounds)}: session died after "
                          f"{rnd.n_samples - rnd.failed} of {rnd.n_samples} steps: {rnd.error}")
        rounds.append(rnd)

    probes += [import_probe() for _ in range(IMPORT_PROBES - len(probes))]
    import_s = median(probes)
    attempted = sum(r.n_samples for r in rounds)
    failed = sum(r.failed for r in rounds)
    done = [r for r in rounds if r.completed]
    untraced = [r for r in done if not r.traced]
    if args.trace:
        traced = [r for r in done if r.traced]
        values = per_layer(untraced, traced, tracer, import_s) if untraced and traced else {}
        units = PER_LAYER
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.csv"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path}")
    else:
        values = end_to_end(untraced, import_s) if untraced else {}
        units = END_TO_END
    import numpy
    import scipy

    print(f"host: {os.cpu_count()} CPUs, run on CPU {cpu}; Python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    print(f"workload {wl.name}, seed {args.seed}: {len(rounds)} rounds, "
          f"{sum(r.n_samples - 1 for r in untraced)} untraced step intervals")
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    metrics = {}
    for name, unit in units:
        if name in values:
            metrics[name] = {"value": float(values[name]), "unit": unit}
            print(f"{name:32s} {values[name]:14.6g} {unit}")
    summary = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
