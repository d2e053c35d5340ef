"""Command-line harness.

Subcommands: ``run`` (full case: loop + oracle + metrics + artifacts),
``serve``/``physical`` (one endpoint of a UDP session each), ``compare``
(metrics between two CSV artifacts), and ``delay-study``.

Exit codes: 0 success, 2 configuration or input error (including a file
that cannot be read and an address that cannot be bound), 3 session
error or numerical failure of the filter or an integrator (``run``, and
``serve`` with ``--out``, write the partial trajectory to
``rtahs.partial.csv``), 4 success with divergence-truncated series
(informational).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Optional

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SESSION = 3
EXIT_TRUNCATED = 4


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {text!r}")
    return host, int(port)


def _load_case(args) -> "CaseConfig":
    from .cases import default_config
    from .config import load_config

    if getattr(args, "case", None):
        cfg = default_config(args.case)
    else:
        cfg = load_config(args.config)

    overrides = {
        name: getattr(args, name)
        for name in ("dt", "t_end", "seed", "mode", "estimator")
        if getattr(args, name, None) is not None
    }
    if getattr(args, "delay", None) is not None:
        overrides["surrogate"] = replace(cfg.surrogate, delay_tau=args.delay)
    return replace(cfg, **overrides)


@contextmanager
def _partial_csv_on_failure(out: Optional[Path]):
    """Write the partial trajectory of a SessionError raised inside the
    block to ``out/rtahs.partial.csv``, if ``out`` is given, and re-raise."""
    from .cosim import SessionError
    from .harness import write_series

    try:
        yield
    except SessionError as exc:
        series = exc.partial_series
        if out is not None and series is not None and len(series) > 0:
            out.mkdir(parents=True, exist_ok=True)
            write_series(series, out / "rtahs.partial.csv")
            print(f"partial trajectory written to {out / 'rtahs.partial.csv'}", file=sys.stderr)
        raise


def _cmd_run(args) -> int:
    from .harness import metric_items, run_case, write_case_artifacts

    cfg = _load_case(args)
    out = Path(args.out)
    with _partial_csv_on_failure(out):
        result = run_case(cfg)
    paths = write_case_artifacts(result, out)
    for channel, m in sorted(result.metrics.items()):
        print(f"{channel}: " + " ".join(f"{k}={v}" for k, v in metric_items(m, "{:.6g}")))
    print(f"artifacts written to {out}")
    if result.truncated:
        print("note: at least one series was divergence-truncated")
        return EXIT_TRUNCATED
    return EXIT_OK


def _cmd_serve(args) -> int:
    from .cosim import NumericalServer
    from .harness import build_estimator_session, numerical_failure_as_session_error, write_series

    cfg = _load_case(args)
    server = NumericalServer(cfg, build_estimator_session(cfg), bind=_parse_addr(args.bind))
    print(f"numerical substructure listening on {server.address[0]}:{server.address[1]}")
    out = Path(args.out) if args.out else None
    with _partial_csv_on_failure(out), numerical_failure_as_session_error(server.session):
        series = server.run()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_series(series, out / "rtahs.csv")
        print(f"trajectory written to {out / 'rtahs.csv'}")
    st = server.stats
    print(f"session complete: sent={st.sent} received={st.received} retries={st.retries}")
    return EXIT_OK


def _cmd_physical(args) -> int:
    from .cosim import SurrogateRunner
    from .harness import build_surrogate_session, numerical_failure_as_session_error

    cfg = _load_case(args)
    runner = SurrogateRunner(cfg, build_surrogate_session(cfg), _parse_addr(args.connect))
    with numerical_failure_as_session_error():
        runner.run()
    st = runner.stats
    print(f"session complete: sent={st.sent} received={st.received} retries={st.retries}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .harness import metric_items, read_series
    from .metrics import compare_series

    a = read_series(Path(args.a))
    b = read_series(Path(args.b))
    for k, v in metric_items(compare_series(a, b, args.channel), "{:.6g}"):
        print(f"{k} = {v}")
    return EXIT_OK


def _cmd_delay_study(args) -> int:
    from .harness import FLOAT_FMT, METRIC_FIELDS, metric_items, run_delay_study

    cfg = _load_case(args)
    taus = [float(v) for v in args.taus.split(",") if v != ""]
    rows = run_delay_study(cfg, taus, compare_adaptation_off=args.compare_adaptation_off)
    lines = [",".join(("tau", "adaptation", "channel", *METRIC_FIELDS))]
    for row in rows:
        for channel, m in sorted(row.metrics.items()):
            head = [FLOAT_FMT.format(row.tau), str(row.adaptation).lower(), channel]
            lines.append(",".join(head + [v for _, v in metric_items(m)]))
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "delay_study.csv").write_text(table)
        print(f"table written to {out / 'delay_study.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .cases import CASE_IDS, ESTIMATORS, MODES

    parser = argparse.ArgumentParser(
        prog="rtahs",
        description="Real-time aeroelastic hybrid simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a validation case (loop + oracle + metrics)")
    source = runp.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", choices=CASE_IDS)
    source.add_argument("--config", help="YAML configuration file")
    runp.add_argument("--out", required=True, help="output directory for artifacts")
    runp.add_argument("--dt", type=float)
    runp.add_argument("--t-end", dest="t_end", type=float)
    runp.add_argument("--delay", type=float, help="force-channel delay in seconds")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--mode", choices=MODES)
    runp.add_argument("--estimator", choices=ESTIMATORS)
    runp.set_defaults(func=_cmd_run)

    servep = sub.add_parser("serve", help="run the numerical-substructure UDP server")
    servep.add_argument("--bind", required=True, help="host:port to bind")
    servep.add_argument("--config", required=True)
    servep.add_argument("--out", help="directory for the trajectory CSV")
    servep.set_defaults(func=_cmd_serve)

    physp = sub.add_parser("physical", help="run the surrogate physical substructure")
    physp.add_argument("--connect", required=True, help="host:port of the server")
    physp.add_argument("--config", required=True)
    physp.set_defaults(func=_cmd_physical)

    cmpp = sub.add_parser("compare", help="compare two trajectory CSV files")
    cmpp.add_argument("a", help="reference CSV")
    cmpp.add_argument("b", help="test CSV")
    cmpp.add_argument("--channel", required=True, help="channel name, e.g. x_heave")
    cmpp.set_defaults(func=_cmd_compare)

    delayp = sub.add_parser("delay-study", help="sweep force-channel delays")
    delayp.add_argument("--config", required=True)
    delayp.add_argument("--taus", required=True, help="comma-separated delays in seconds")
    delayp.add_argument("--out", help="directory for the study table")
    delayp.add_argument(
        "--compare-adaptation-off",
        action="store_true",
        help="estimator aekf only: also run each delayed case with the EKF (no adaptation)",
    )
    delayp.set_defaults(func=_cmd_delay_study)
    return parser


def main(argv=None) -> int:
    from .cosim import SessionError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SessionError as exc:
        print(f"session error: {exc}", file=sys.stderr)
        return EXIT_SESSION


if __name__ == "__main__":
    sys.exit(main())
