"""Compare the parent and change runs of a BENCH_*.json trajectory.

    python3 tools/bench_compare.py BENCH_6.json [--benchmark BENCHMARK.json]

The trajectory holds pairs of ``bench/run.py`` runs, one on the parent
commit and one on the change, each the last-line JSON the benchmark
prints.  For every workload and every end-to-end metric that
``BENCHMARK.json`` declares, this prints the parent and change medians,
the parent's quartile spread (IQR), the change in the median, and the
change's wins out of the pairs, using the metric's direction and bound
from ``BENCHMARK.json``:

* ``worse`` marks a median worse than the parent's by more than the bound;
* ``gain`` marks a change that wins at least nine pairs in ten and whose
  median beats the parent's by more than the parent's IQR.

Exits 1 if any metric is ``worse`` or any change run is incorrect or
fails more steps than its parent, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def value(run: dict, name: str):
    metric = run.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def compare(pairs: list[dict], end_to_end: list[dict]) -> bool:
    """Print one workload's table; returns False on a regression."""
    ok = True
    n = len(pairs)
    parents, changes = [p["parent"] for p in pairs], [p["change"] for p in pairs]
    for side, runs in (("parent", parents), ("change", changes)):
        correct = sum(bool(r.get("correct")) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        attempted = sum(r.get("attempted", 0) for r in runs)
        print(f"  {side}: {correct}/{n} runs correct, {failed} of {attempted} steps failed")
    for p in pairs:
        if not p["change"].get("correct") or p["change"].get("failed", 0) > p["parent"].get(
            "failed", 0
        ):
            print(f"  seed {p['seed']}: change run incorrect or failed more steps than parent")
            ok = False
    print(
        f"  {'metric':14s} {'unit':5s} {'parent':>12s} {'IQR':>10s} {'change':>12s} "
        f"{'delta':>8s} {'bound':>6s} {'wins':>6s}"
    )
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        both = [(value(p["parent"], name), value(p["change"], name)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        par, chg = [a for a, _ in both], [b for _, b in both]
        med_p, med_c, spread = median(par), median(chg), iqr(par)
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        delta = (med_c - med_p) / med_p if med_p else 0.0
        worse = delta > m["bound"] if lower else -delta > m["bound"]
        better_by = (med_p - med_c) if lower else (med_c - med_p)
        gain = wins >= 0.9 * len(both) and better_by > spread
        verdict = "worse" if worse else "gain" if gain else ""
        ok = ok and not worse
        print(
            f"  {name:14s} {m['unit']:5s} {med_p:12.5g} {spread:10.3g} {med_c:12.5g} "
            f"{delta:+8.2%} {m['bound']:6.0%} {wins:3d}/{len(both):<2d} {verdict}"
        )
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trajectory", type=Path)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    doc = json.loads(args.trajectory.read_text())
    print(doc.get("command", ""))
    ok = True
    for wl in bench["workloads"]:
        pairs = [p for p in doc["pairs"] if p["workload"] == wl["name"]]
        if not pairs:
            continue
        print(f"{wl['name']}: {len(pairs)} pairs")
        ok = compare(pairs, bench["end_to_end"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
