"""tools/step_cost.py: filter-step timings of two source trees."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_repeat_times_both_steps_and_the_loop():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_cost.py"), str(ROOT), str(ROOT),
         "--repeats", "1", "--calls", "10"],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == f"A = {ROOT}" and lines[1] == f"B = {ROOT}"
    assert re.fullmatch(r"CPU \d+, 1 processes per tree, step 3000, best of 5 x 10 calls", lines[2])
    assert lines[3].split() == ["quantity", "unit", "A", "min", "A", "median", "B", "min", "B",
                                "median", "change"]
    number = r"\s+(\d[\d.e+-]*)"
    quantities = (("aekf_step", "us"), ("ekf_step", "us"), ("loop_10s", "s"),
                  ("ekf_case1", "us"), ("udp_10s", "s"))
    for line, (name, unit) in zip(lines[4:], quantities, strict=True):
        m = re.fullmatch(rf"{name}\s+{unit}{number * 4}\s+[+-]\d+\.\d%", line)
        assert m, line
        a_min, a_med, b_min, b_med = map(float, m.groups())
        assert 0 < a_min <= a_med and 0 < b_min <= b_med
    assert len(lines) == 9
