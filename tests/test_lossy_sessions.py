"""tools/lossy_sessions.py: death counts of the lossy mode-equivalence
sessions."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_repeat_counts_three_sessions():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lossy_sessions.py"), "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    *deaths, last = proc.stdout.splitlines()
    m = re.fullmatch(
        r"(\d+) deaths in 3 sessions \(case1-linear (\d+), case1-nonlinear (\d+), case2dof (\d+)\), "
        r"\d+ spurious resends",
        last,
    )
    assert m, last
    total, *per_case = map(int, m.groups())
    assert total == sum(per_case) == len(deaths)
    for line in deaths:
        assert re.match(r"case\S+ repeat 0: seq \d+, \d+ resends, first wait [\d.]+ ms: ", line), line
