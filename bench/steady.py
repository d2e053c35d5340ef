"""Steadiness of the benchmark: run each workload N times, alternating
workloads and using a new seed each time, and print the median,
quartiles and relative spread (IQR / median) of every metric.

    python3 bench/steady.py --runs 10 --seconds 30 [--seed0 100]

Each run is ``bench/run.py`` in its own process, as the benchmark is
run for real.  The bounds in BENCHMARK.json are set from this output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from measure import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - start
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            res = one_run(w, args.seed0 + i, args.seconds)
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w}: {res['wall_s']:.1f} s wall, "
                  f"{res['attempted']} attempted, {res['failed']} failed", file=sys.stderr)

    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"failed share {shares}, all correct: {all(r['correct'] for r in runs)}, "
              f"wall {min(r['wall_s'] for r in runs):.0f}-{max(r['wall_s'] for r in runs):.0f} s")
        print(f"  {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
        for name, m in runs[0]["metrics"].items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:30s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
