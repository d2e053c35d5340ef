"""Run orchestration: execute a configured case (in-process or over the
UDP pair), run the matching oracle, compute comparison metrics, and
write the CSV/summary artifacts."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .cases import (
    DISPLACEMENT_LIMIT_HEIGHTS,
    CaseConfig,
    case_stepper,
    filter_model,
    initial_filter_state,
    truth_generator,
)
from .cosim import (
    EstimatorSession,
    LossInjector,
    SessionError,
    SessionStats,
    SurrogateSession,
    run_in_process,
    run_udp_pair,
)
from .dynamics import ConfigurationError
from .estimators import FilterNumericalError
from .integrators import IntegrationError, TimeSeries, simulate
from .metrics import ComparisonMetrics, compare_series

# Floats are written with 17 significant digits so CSV artifacts are
# byte-reproducible and round-trip exactly.
FLOAT_FMT = "{:.17g}"
# Field order of every rendering of a ComparisonMetrics.
METRIC_FIELDS = tuple(f.name for f in fields(ComparisonMetrics))


@dataclass
class CaseResult:
    config: CaseConfig
    rtahs: TimeSeries
    oracle: TimeSeries
    metrics: dict[str, ComparisonMetrics]
    server_stats: Optional[SessionStats] = None
    surrogate_stats: Optional[SessionStats] = None

    @property
    def truncated(self) -> bool:
        return self.rtahs.truncated or self.oracle.truncated


def build_estimator_session(cfg: CaseConfig, trace_covariance: bool = False) -> EstimatorSession:
    """Estimator side of a case: the adaptive EKF step for ``aekf``, else
    the EKF step (the KF step on a linear model)."""
    model = filter_model(cfg)
    return EstimatorSession(
        model=model,
        init=initial_filter_state(cfg, model),
        dofs=cfg.dofs,
        dt=cfg.dt,
        n_samples=cfg.n_samples,
        forgetting_factor=cfg.filter.forgetting_factor if cfg.estimator == "aekf" else None,
        trace_covariance=trace_covariance,
    )


def build_surrogate_session(cfg: CaseConfig) -> SurrogateSession:
    """Surrogate side of a case: its truth generator, noise and delay.
    The hold takes the force sampled at or before t - tau (1.5 samples
    delay by 2); the slack absorbs the rounding of a whole tau / dt."""
    return SurrogateSession(
        generator=truth_generator(cfg),
        disp_noise_std=cfg.surrogate.disp_noise_std,
        force_noise_std=cfg.surrogate.force_noise_std,
        delay_steps=math.ceil(cfg.surrogate.delay_tau / cfg.dt - 1e-6),
        seed=cfg.seed,
    )


@contextmanager
def numerical_failure_as_session_error(est: Optional[EstimatorSession] = None):
    """Re-raise a filter or integrator failure inside the block as a
    SessionError chained to it, with the estimator's series up to its
    last good step when ``est`` is given."""
    try:
        yield
    except (FilterNumericalError, IntegrationError) as exc:
        partial = est.series() if est is not None else None
        raise SessionError(
            f"numerical failure: {exc}",
            last_good_step=len(partial) - 1 if partial else None,
            partial_series=partial,
        ) from exc


def run_loop(cfg: CaseConfig, trace_covariance: bool = False):
    """Run only the hybrid loop of a case; returns (series, server
    stats, surrogate stats, min covariance eigenvalue seen).  A filter or
    integrator failure is raised as a SessionError chained to it, with
    the estimator's series up to its last good step."""
    est = build_estimator_session(cfg, trace_covariance=trace_covariance)
    sur = build_surrogate_session(cfg)
    with numerical_failure_as_session_error(est):
        if cfg.mode == "udp":
            loss_rate = cfg.cosim.loss_rate
            server_loss = LossInjector(loss_rate, seed=cfg.seed + 1) if loss_rate else None
            sur_loss = LossInjector(loss_rate, seed=cfg.seed + 2) if loss_rate else None
            series, sstats, pstats = run_udp_pair(cfg, est, sur, server_loss, sur_loss)
        else:
            series = run_in_process(est, sur, cfg.n_samples)
            sstats = pstats = None
    min_eig = min(est.cov_min_eig) if est.cov_min_eig else None
    return series, sstats, pstats, min_eig


def run_oracle(cfg: CaseConfig) -> TimeSeries:
    """Run the high-fidelity reference integrator for a case: a fresh
    case stepper, sampled without noise."""
    labels = tuple(d.label for d in cfg.dofs)
    limit = DISPLACEMENT_LIMIT_HEIGHTS * cfg.aero.D
    return simulate(case_stepper(cfg), labels, cfg.t_end, limit)


def run_case(cfg: CaseConfig) -> CaseResult:
    """Run the hybrid loop and the oracle, compare per displacement
    channel (oracle as reference), and bundle the artifacts."""
    rtahs, sstats, pstats, _ = run_loop(cfg)
    oracle = run_oracle(cfg)
    metrics = {}
    for d in cfg.dofs:
        channel = f"x_{d.label}"
        metrics[channel] = compare_series(oracle, rtahs, channel)
    return CaseResult(
        config=cfg,
        rtahs=rtahs,
        oracle=oracle,
        metrics=metrics,
        server_stats=sstats,
        surrogate_stats=pstats,
    )


@dataclass
class DelayStudyRow:
    tau: float
    metrics: dict[str, ComparisonMetrics]
    adaptation: bool  # the run's filter adapts its noise statistics (aekf)


def run_delay_study(
    cfg: CaseConfig, taus: list[float], compare_adaptation_off: bool = False
) -> list[DelayStudyRow]:
    """Run the case once per force-channel delay and report each run's
    deviation from the single undelayed reference of the study (per
    displacement channel).  A zero delay is that reference run itself.

    With ``compare_adaptation_off`` an AEKF study gets an extra row per
    nonzero delay that runs the EKF, the same filter without covariance
    matching, against the same reference, quantifying what the
    adaptation buys under delay; the KF and the EKF have none to switch
    off.  Every run's config is checked before the first run.
    """
    if compare_adaptation_off and cfg.estimator != "aekf":
        raise ConfigurationError(
            f"--compare-adaptation-off needs estimator aekf; {cfg.estimator} does not adapt"
        )
    run_cfgs = [replace(cfg, surrogate=replace(cfg.surrogate, delay_tau=tau)) for tau in taus]
    base_cfg = replace(cfg, surrogate=replace(cfg.surrogate, delay_tau=0.0))
    reference, _, _, _ = run_loop(base_cfg)

    def one_run(run_cfg):
        series = reference if run_cfg.surrogate.delay_tau == 0 else run_loop(run_cfg)[0]
        metrics = {
            f"x_{d.label}": compare_series(reference, series, f"x_{d.label}")
            for d in cfg.dofs
        }
        return DelayStudyRow(run_cfg.surrogate.delay_tau, metrics, run_cfg.estimator == "aekf")

    rows = []
    for run_cfg in run_cfgs:
        rows.append(one_run(run_cfg))
        if compare_adaptation_off and run_cfg.surrogate.delay_tau > 0:
            rows.append(one_run(replace(run_cfg, estimator="ekf")))
    return rows


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def series_to_csv(series: TimeSeries) -> str:
    names = series.channels
    # Python floats format as their numpy scalars do, at a fraction of
    # the cost, and one template formats a whole row.
    cols = [series.t.tolist()] + [series.data[n].tolist() for n in names]
    row = ",".join([FLOAT_FMT] * len(cols)) + "\n"
    return ",".join(["t"] + names) + "\n" + "".join(row.format(*r) for r in zip(*cols))


def write_series(series: TimeSeries, path: Path) -> None:
    path.write_text(series_to_csv(series))


def read_series(path: Path) -> TimeSeries:
    """Load a CSV artifact back into a TimeSeries."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    if header[0] != "t":
        raise ValueError(f"{path}: first column must be t, got {header[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.shape[0] < 2:
        raise ValueError(f"{path}: need at least two samples")
    t = rows[:, 0]
    steps = np.diff(t)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=0, atol=1e-9 * max(dt, 1.0)):
        raise ValueError(f"{path}: time grid is not uniform")
    data = {name: rows[:, i + 1] for i, name in enumerate(header[1:])}
    return TimeSeries(dt=float(dt), t=t, data=data)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return FLOAT_FMT.format(value)
    return str(value)


def _section_items(name: str, section) -> list[tuple[str, str]]:
    return [(f"{name}.{f.name}", _fmt(getattr(section, f.name))) for f in fields(section)]


def config_summary_items(cfg: CaseConfig) -> list[tuple[str, str]]:
    """Flat, stably ordered echo of every configuration field."""
    items = [
        (key, _fmt(getattr(cfg, key)))
        for key in ("case", "estimator", "mode", "dt", "t_end", "seed", "span")
    ]
    for i, p in enumerate(sorted(cfg.modal, key=lambda p: p.dof)):
        base = f"modal.{p.dof.label}"
        items += [
            (f"{base}.inertia", _fmt(p.inertia)),
            (f"{base}.damping_ratio", _fmt(p.damping_ratio)),
            (f"{base}.circ_freq", _fmt(p.circ_freq)),
            (f"x0.{p.dof.label}.disp", _fmt(cfg.x0_disp[i])),
            (f"x0.{p.dof.label}.vel", _fmt(cfg.x0_vel[i])),
        ]
    items += _section_items("aero", cfg.aero)
    if cfg.coupling is not None:
        for name, mat in (("E_d", cfg.coupling.E_d), ("E_s", cfg.coupling.E_s)):
            for r in range(2):
                for c in range(2):
                    items.append((f"coupling.{name}[{r}][{c}]", _fmt(mat[r, c])))
    items += _section_items("filter", cfg.filter)
    items.append(("x_hat0", "truth" if cfg.x_hat0 is None else ",".join(map(str, cfg.x_hat0))))
    items += _section_items("surrogate", cfg.surrogate)
    items += _section_items("cosim", cfg.cosim)
    return items


def metric_items(m: ComparisonMetrics, fmt: str = FLOAT_FMT) -> list[tuple[str, str]]:
    """The one rendering of a comparison: (field, text) in METRIC_FIELDS
    order, numbers through ``fmt``, the envelope as it is, and the
    normalized RMS of an all-zero reference (None) as ``undefined``."""

    def text(v) -> str:
        return v if isinstance(v, str) else "undefined" if v is None else fmt.format(v)

    return [(name, text(getattr(m, name))) for name in METRIC_FIELDS]


def write_summary(result: CaseResult, path: Path) -> None:
    items = config_summary_items(result.config)
    items.append(("rtahs.samples", str(len(result.rtahs))))
    items.append(("rtahs.truncated", str(result.rtahs.truncated).lower()))
    items.append(("oracle.truncated", str(result.oracle.truncated).lower()))
    for channel, m in sorted(result.metrics.items()):
        items += [(f"metrics.{channel}.{k}", v) for k, v in metric_items(m)]
    for side, st in (("server", result.server_stats), ("surrogate", result.surrogate_stats)):
        if st is not None:
            items += [(f"session.{side}.{f.name}", str(getattr(st, f.name))) for f in fields(st)]
    path.write_text("".join(f"{k} = {v}\n" for k, v in items))


def write_case_artifacts(result: CaseResult, out_dir: Path) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "rtahs": out_dir / "rtahs.csv",
        "oracle": out_dir / "oracle.csv",
        "summary": out_dir / "summary.txt",
    }
    write_series(result.rtahs, paths["rtahs"])
    write_series(result.oracle, paths["oracle"])
    write_summary(result, paths["summary"])
    return paths
