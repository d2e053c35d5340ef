"""tools/artifact_digests.py: one sha256 line per artifact of the shipped
configs in both modes and per delay-study table."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_twenty_digests_and_udp_equals_in_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), str(tmp_path), "--t-end", "0.05"],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 20
    digests = {}
    for line in lines:
        digest, name = line.split("  ")
        assert len(digest) == 64 and (tmp_path / name).is_file()
        digests[name] = digest
    for case in ("case1-linear", "case1-nonlinear", "case2dof"):
        assert digests[f"{case}-in-process/rtahs.csv"] == digests[f"{case}-udp/rtahs.csv"], case
        assert digests[f"{case}-in-process/oracle.csv"] == digests[f"{case}-udp/oracle.csv"], case
    for case in ("case1-linear", "case2dof"):
        assert f"{case}-delay/delay_study.csv" in digests, case
