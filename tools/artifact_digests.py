"""Print the sha256 of every artifact ``rtahs run`` writes for the shipped
configs in both modes, and of two delay-study tables.

    python3 tools/artifact_digests.py OUT [--t-end T]

For each of ``configs/case1-linear.yaml``, ``configs/case1-nonlinear.yaml``
and ``configs/case2dof.yaml`` and each mode, ``in-process`` and ``udp``,
this runs ``rtahs run --config <config> --mode <mode> --out
OUT/<case>-<mode>`` (with ``--t-end T`` if given) on the source tree the
script sits in, then prints one ``sha256  <case>-<mode>/<file>`` line per
artifact, as ``sha256sum`` does.  For ``case1-linear`` and ``case2dof`` it
then writes the shipped config, with ``t_end`` set to T if given, to
``OUT/<case>-delay.yaml``, runs ``rtahs delay-study --config
OUT/<case>-delay.yaml --taus 0,0.0015,0.05 --out OUT/<case>-delay``
(with ``--compare-adaptation-off`` for the AEKF of ``case2dof``) and
prints the line of its ``delay_study.csv``: 20 lines in all.  Run it
from two checkouts and compare the lines to see whether a change kept
the artifacts byte-identical.  What ``rtahs`` itself prints goes to
stderr.  Exits 1 if a command exits with a code
other than 0 or 4.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import redirect_stdout
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CASES = ("case1-linear", "case1-nonlinear", "case2dof")
MODES = ("in-process", "udp")
ARTIFACTS = ("oracle.csv", "rtahs.csv", "summary.txt")
DELAY_CASES = ("case1-linear", "case2dof")
DELAY_TAUS = "0,0.0015,0.05"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory for the run artifacts")
    parser.add_argument("--t-end", dest="t_end", type=float, help="override every config's t_end")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from rtahs.cli import main as rtahs

    def call(name: str, argv: list[str], artifacts) -> bool:
        with redirect_stdout(sys.stderr):
            rc = rtahs(argv)
        if rc not in (0, 4):
            print(f"rtahs {argv[0]} of {name} exited {rc}", file=sys.stderr)
            return False
        for artifact in artifacts:
            digest = hashlib.sha256((args.out / name / artifact).read_bytes()).hexdigest()
            print(f"{digest}  {name}/{artifact}")
        return True

    for case in CASES:
        for mode in MODES:
            name = f"{case}-{mode}"
            run = ["run", "--config", str(ROOT / "configs" / f"{case}.yaml")]
            run += ["--mode", mode, "--out", str(args.out / name)]
            if args.t_end is not None:
                run += ["--t-end", repr(args.t_end)]
            if not call(name, run, ARTIFACTS):
                return 1
    for case in DELAY_CASES:
        name = f"{case}-delay"
        raw = yaml.safe_load((ROOT / "configs" / f"{case}.yaml").read_text())
        if args.t_end is not None:
            raw["t_end"] = args.t_end
        config = args.out / f"{name}.yaml"
        config.write_text(yaml.safe_dump(raw, sort_keys=False))
        study = ["delay-study", "--config", str(config), "--taus", DELAY_TAUS]
        study += ["--out", str(args.out / name)]
        if case == "case2dof":
            study.append("--compare-adaptation-off")
        if not call(name, study, ("delay_study.csv",)):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
