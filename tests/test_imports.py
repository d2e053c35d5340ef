"""The runtime loads numpy and PyYAML only: scipy is a test dependency.
``import rtahs`` loads every runtime module, and the README's library
snippet runs."""

import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
RUNTIME_MODULES = [
    f"rtahs.{name}"
    for name in (
        "aero", "cases", "config", "cosim", "dynamics",
        "estimators", "harness", "integrators", "metrics", "wire",
    )
]


def run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {code}"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_does_not_load_scipy():
    # the package exports four names but still loads the whole runtime,
    # so the import costs what a run's import costs
    out = run_python(
        "import rtahs; print(sorted(m for m in sys.modules if m.startswith('rtahs.'))); "
        "import rtahs.cli; print('scipy' in sys.modules)"
    )
    assert out.splitlines() == [str(RUNTIME_MODULES), "False"]


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    short = snippet.replace('default_config("case1-linear")', 'default_config("case1-linear", t_end=0.5)')
    assert short != snippet
    nrms, envelope = run_python(short).split()
    assert float(nrms) > 0 and envelope in ("convergent", "divergent", "bounded")


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
