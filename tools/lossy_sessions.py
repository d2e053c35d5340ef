"""Count the deaths of the lossy UDP sessions of the mode-equivalence test.

    python3 tools/lossy_sessions.py REPEATS

Runs the three 1-s UDP sessions of ``test_mode_equivalence_all_cases``
with 5% loss per endpoint and a 10 ms ``cosim.timeout`` (so a 40 ms
silence budget per exchange), one per shipped case, REPEATS times each,
on the source tree the script sits in.  The loss pattern is seeded, so
a session that dies where another lived died of its timing.  For each
death it prints the case, the repeat, the sequence number of the
exchange that died, its resends and the first wait it started from (the
retransmission timeout once the link has lost a frame, else the whole
timeout), then the error.  The last line counts the deaths per case and
the spurious resends: over every MEASUREMENT exchange of the surrogate,
the resends beyond the frames either endpoint lost while it lasted.  A
timer that fires before a reply that is on its way makes them.  Exits 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("case1-linear", "case1-nonlinear", "case2dof")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("repeats", type=int, help="sessions per case")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from rtahs import cosim
    from rtahs.cases import default_config
    from rtahs.harness import run_loop
    from rtahs.wire import MsgType

    request, drop = cosim.LockstepEndpoint.request, cosim.LossInjector.drop
    dying: list[tuple[int, int, float]] = []
    lost: list[None] = []  # one entry per frame either endpoint dropped (append is atomic)
    spurious = 0

    def counted(injector):
        dropped = drop(injector)
        if dropped:
            lost.append(None)
        return dropped

    def recorded(endpoint, outbound, want_type, want_seq):
        nonlocal spurious
        retries, lost_before = endpoint.stats.retries, len(lost)
        first_wait = endpoint.timer.rto if endpoint.lossy else endpoint.timeout
        try:
            reply = request(endpoint, outbound, want_type, want_seq)
        except cosim.SessionError:
            dying.append((outbound.seq, endpoint.stats.retries - retries, first_wait))
            raise
        if outbound.msg_type == MsgType.MEASUREMENT:
            resends = endpoint.stats.retries - retries
            spurious += max(0, resends - (len(lost) - lost_before))
        return reply

    cosim.LockstepEndpoint.request = recorded
    cosim.LossInjector.drop = counted
    deaths = dict.fromkeys(CASES, 0)
    for repeat in range(args.repeats):
        for case in CASES:
            cfg = default_config(case, t_end=1.0)
            cfg = replace(cfg, mode="udp", cosim=replace(cfg.cosim, loss_rate=0.05, timeout=0.01))
            dying.clear()
            try:
                run_loop(cfg)
            except cosim.SessionError as exc:
                deaths[case] += 1
                seq, resends, wait = dying[-1] if dying else (None, None, float("nan"))
                print(f"{case} repeat {repeat}: seq {seq}, {resends} resends, "
                      f"first wait {wait * 1e3:.3f} ms: {exc}", flush=True)
    counts = ", ".join(f"{case} {n}" for case, n in deaths.items())
    print(f"{sum(deaths.values())} deaths in {len(CASES) * args.repeats} sessions ({counts}), "
          f"{spurious} spurious resends")
    return 0


if __name__ == "__main__":
    sys.exit(main())
