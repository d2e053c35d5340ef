"""Time the filter step of two source trees against each other.

    python3 tools/step_cost.py TREE_A TREE_B [--repeats N] [--calls C]

Each measurement runs in a fresh process that imports ``rtahs`` from
``TREE/src``.  It runs the shipped ``configs/case2dof.yaml`` in process
(seed 0) for 3 s and keeps the filter state, input, measurement and model
of step 3000 as its operating point.  There it times ``aekf_step`` (the
config's forgetting factor) and ``ekf_step`` in 5 rounds of C calls each
and keeps the fastest round.  Then it times one 10-s in-process
``run_loop`` of the same config.  It does the same for the shipped
``configs/case1-nonlinear.yaml``: ``ekf_step`` at step 3000, the fused
single-DOF step (``ekf_case1``), and one 10-s ``run_loop`` over UDP
(``udp_10s``).  The trees alternate, A then B, N times, all pinned to one
CPU.  For each quantity the script prints the min and the median over
the N processes of each tree, and the change of B's median against A's.
Exits 0.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

OPERATING_STEP = 3000
ROUNDS = 5
LOOP_SECONDS = 10.0
QUANTITIES = (
    ("aekf_step", "us"),
    ("ekf_step", "us"),
    ("loop_10s", "s"),
    ("ekf_case1", "us"),
    ("udp_10s", "s"),
)


def measure(tree: str, calls: int) -> dict[str, float]:
    """Per-call times of the steps at their operating points and the
    wall times of the two 10-s loops, on the tree's sources."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from rtahs import cosim
    from rtahs.config import load_config
    from rtahs.estimators import aekf_step, ekf_step
    from rtahs.harness import run_loop

    def operating_point(cfg, name: str):
        """(fs, u, z, m) of step 3000 of cfg in process, recorded at the
        step ``cosim.<name>``."""
        step, recorded = getattr(cosim, name), []

        def recording_step(fs, u, z, m, **kwargs):
            if fs.k + 1 == OPERATING_STEP:
                recorded.append((fs, u.copy(), z.copy(), m))
            return step(fs, u, z, m, **kwargs)

        setattr(cosim, name, recording_step)
        run_loop(replace(cfg, mode="in-process", t_end=OPERATING_STEP * cfg.dt))
        setattr(cosim, name, step)
        return recorded[0]

    def per_call_us(step, point, *extra) -> float:
        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            for _ in range(calls):
                step(*point, *extra)
            best = min(best, time.perf_counter() - start)
        return best / calls * 1e6

    def loop_s(cfg) -> float:
        start = time.perf_counter()
        run_loop(replace(cfg, t_end=LOOP_SECONDS))
        return time.perf_counter() - start

    configs = Path(tree) / "configs"
    cfg = replace(load_config(configs / "case2dof.yaml"), mode="in-process")
    point = operating_point(cfg, "aekf_step")
    out = {
        "aekf_step": per_call_us(aekf_step, point, cfg.filter.forgetting_factor),
        "ekf_step": per_call_us(ekf_step, point),
        "loop_10s": loop_s(cfg),
    }
    cfg = replace(load_config(configs / "case1-nonlinear.yaml"), mode="udp")
    out["ekf_case1"] = per_call_us(ekf_step, operating_point(cfg, "ekf_step"))
    out["udp_10s"] = loop_s(cfg)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="source tree A (the reference)")
    parser.add_argument("tree_b", type=Path, help="source tree B")
    parser.add_argument("--repeats", type=int, default=5, help="processes per tree (default 5)")
    parser.add_argument("--calls", type=int, default=20000, help="calls per timed round (default 20000)")
    args = parser.parse_args(argv)

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the spawned workers inherit the mask
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}
    runs: dict[str, list[dict[str, float]]] = {"A": [], "B": []}
    ctx = multiprocessing.get_context("spawn")
    for _ in range(args.repeats):
        for name, tree in trees.items():
            with ctx.Pool(1) as pool:
                runs[name].append(pool.apply(measure, (str(tree), args.calls)))

    print(f"A = {trees['A']}\nB = {trees['B']}")
    print(f"CPU {cpu}, {args.repeats} processes per tree, step {OPERATING_STEP}, "
          f"best of {ROUNDS} x {args.calls} calls")
    print(f"{'quantity':<10} {'unit':<4} {'A min':>9} {'A median':>9} {'B min':>9} {'B median':>9} {'change':>8}")
    for key, unit in QUANTITIES:
        a = [r[key] for r in runs["A"]]
        b = [r[key] for r in runs["B"]]
        a_med, b_med = statistics.median(a), statistics.median(b)
        print(f"{key:<10} {unit:<4} {min(a):9.4g} {a_med:9.4g} {min(b):9.4g} {b_med:9.4g} "
              f"{(b_med - a_med) / a_med:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
