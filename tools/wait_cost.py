"""Time a loopback round trip for three ways of waiting for the reply.

    python3 tools/wait_cost.py [--trips N]

Two threads of one process, pinned to one CPU, ping-pong a frame-sized
datagram over loopback.  The echo thread waits like the server's
``answer``: one ``select`` with a long timeout, then the read.  It then
spins 20 us, a stand-in for the server's filter step, before it echoes:
with an instant echo the reply is often queued before the pinging
thread waits, and no wait sleeps.  The pinging thread sends, then waits
for the echo in one of three ways:

* ``select 1 s``: one ``select`` whose timeout is far past the kernel tick;
* ``select G ms``: one ``select`` of ``RTO_MARGIN``, the margin G of the
  retransmission timeout over the smoothed round trip, shorter than the
  kernel tick;
* ``yield + G ms``: ``os.sched_yield``, a ``select`` that does not
  wait, and the G ms ``select`` only if nothing has come, as a lossy
  ``LockstepEndpoint`` waits.

The labels print G in milliseconds.

A wait that ends with nothing queued is repeated, so every round trip
ends with its echo.  The three waits take turns in 5 rounds of N / 5
round trips each, after 200 untimed ones.  For each wait the script
prints the p50 and the p99 of the round trip and the share of round
trips that armed a timed ``select``.  Exits 0, or 1 if the echo
thread does not stop.
"""

from __future__ import annotations

import argparse
import os
import select
import socket
import sys
import threading
import time
from pathlib import Path
from statistics import quantiles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from rtahs.cosim import RTO_MARGIN  # noqa: E402

ROUNDS = 5
WARMUP = 200
LONG_WAIT = 1.0
PAYLOAD = bytes(68)  # the longest frame
STOP = b"stop"
ECHO_WORK = 20e-6  # seconds the echo thread spins before it answers


# Each wait returns whether it called the timed ``select``.
def wait_long(sock: socket.socket) -> bool:
    select.select((sock,), (), (), LONG_WAIT)
    return True


def wait_short(sock: socket.socket) -> bool:
    select.select((sock,), (), (), RTO_MARGIN)
    return True


def wait_yield(sock: socket.socket) -> bool:
    os.sched_yield()
    if select.select((sock,), (), (), 0.0)[0]:
        return False
    select.select((sock,), (), (), RTO_MARGIN)
    return True


SHORT = f"{RTO_MARGIN * 1e3:g} ms"
WAITS = (("select 1 s", wait_long), (f"select {SHORT}", wait_short), (f"yield + {SHORT}", wait_yield))


def echo(sock: socket.socket) -> None:
    while True:
        if not select.select((sock,), (), (), LONG_WAIT)[0]:
            continue
        data, addr = sock.recvfrom(len(PAYLOAD) + 1)
        if data == STOP:
            return
        until = time.perf_counter() + ECHO_WORK
        while time.perf_counter() < until:
            pass
        sock.sendto(data, addr)


def round_trip(sock: socket.socket, peer, wait) -> tuple[float, bool]:
    """Seconds from the send to the echo's read, and whether any wait of
    it armed a timed ``select``."""
    timed = False
    start = time.perf_counter()
    sock.sendto(PAYLOAD, peer)
    while True:
        timed |= wait(sock)
        try:
            sock.recvfrom(len(PAYLOAD) + 1, socket.MSG_DONTWAIT)
            return time.perf_counter() - start, timed
        except BlockingIOError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trips", type=int, default=20000,
                        help="round trips per wait (default 20000)")
    args = parser.parse_args(argv)
    per_round = max(1, args.trips // ROUNDS)

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the echo thread inherits the mask
    ping = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    pong = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    thread = threading.Thread(target=echo, args=(pong,), name="echo", daemon=True)
    try:
        for s in (ping, pong):
            s.bind(("127.0.0.1", 0))
        peer = pong.getsockname()
        thread.start()
        for _ in range(WARMUP):
            round_trip(ping, peer, wait_long)
        samples = {name: [] for name, _ in WAITS}
        timed = dict.fromkeys(samples, 0)
        for _ in range(ROUNDS):
            for name, wait in WAITS:
                for _ in range(per_round):
                    rtt, armed = round_trip(ping, peer, wait)
                    samples[name].append(rtt)
                    timed[name] += armed
        ping.sendto(STOP, peer)
        thread.join(timeout=5.0)
    finally:
        ping.close()
        pong.close()
    if thread.is_alive():
        print("echo thread still running", file=sys.stderr)
        return 1

    n = per_round * ROUNDS
    print(f"CPU {cpu}, {n} round trips per wait, short wait {SHORT}")
    print(f"{'wait':<16} {'p50_us':>8} {'p99_us':>8} {'timed':>7}")
    for name, rtts in samples.items():
        cuts = quantiles(rtts, n=100, method="inclusive")
        print(f"{name:<16} {cuts[49] * 1e6:8.1f} {cuts[98] * 1e6:8.1f} {timed[name] / n:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
