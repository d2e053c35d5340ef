"""tools/wait_cost.py: loopback round trips for three waits."""

import re
import subprocess
import sys
from pathlib import Path

from rtahs.cosim import RTO_MARGIN

ROOT = Path(__file__).resolve().parents[1]


def test_a_few_hundred_round_trips_per_wait():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "wait_cost.py"), "--trips", "300"],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    short = f"{RTO_MARGIN * 1e3:g} ms"
    assert re.fullmatch(rf"CPU \d+, 300 round trips per wait, short wait {re.escape(short)}", lines[0])
    assert lines[1].split() == ["wait", "p50_us", "p99_us", "timed"]
    number = r"\s+(\d+\.\d)"
    timed = []
    for line, name in zip(lines[2:], ("select 1 s", f"select {short}", f"yield + {short}")):
        m = re.fullmatch(rf"{re.escape(name)}{number * 2}\s+(\d+\.\d)%", line)
        assert m, line
        p50, p99, share = map(float, m.groups())
        assert 0 < p50 <= p99
        timed.append(share)
    assert timed[:2] == [100.0, 100.0] and 0.0 <= timed[2] <= 100.0
    assert len(lines) == 5
