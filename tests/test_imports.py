"""The runtime loads numpy and PyYAML only: scipy is a test dependency."""

import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {code}"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_does_not_load_scipy():
    out = run_python("import rtahs, rtahs.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


@pytest.mark.parametrize("case", ["case1-linear", "case1-nonlinear", "case2dof"])
def test_run_does_not_load_scipy(case, tmp_path):
    # each shipped config, in its shipped mode, cut to half a second
    raw = yaml.safe_load((ROOT / "configs" / f"{case}.yaml").read_text())
    raw["t_end"] = 0.5
    config = tmp_path / f"{case}.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = run_python(
        "from rtahs.cli import main; "
        f"rc = main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(rc, 'scipy' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False"
