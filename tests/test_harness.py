"""Harness layer: case orchestration, CSV/summary artifacts,
configuration files, and the CLI."""

import io
import socket
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from rtahs.cases import default_config
import rtahs.config
from rtahs import cosim, harness
from rtahs.cli import main
from rtahs.config import config_from_dict, load_config
from rtahs.dynamics import ConfigurationError
from rtahs.estimators import FilterNumericalError
from rtahs.harness import (
    FLOAT_FMT,
    build_surrogate_session,
    read_series,
    run_case,
    run_delay_study,
    run_loop,
    run_oracle,
    series_to_csv,
    write_case_artifacts,
)
from rtahs.integrators import IntegrationError, TimeSeries

# The shipped case1 heave mode as a config-file modal entry.
HEAVE = {"dof": "heave", "inertia": 182.178, "damping_ratio": 0.005, "circ_freq": 17.64}

# A heave force of 2000 times the heave velocity, a negative damping
# thousands of times the structure's, pumps the heave mode until the
# AEKF's innovation covariance turns singular at step 1058 of 1501.
SINGULAR_AT_1058 = """\
case: case2dof
t_end: 1.5
coupling: {variant: custom, E_d: [[2000.0, 0.0], [0.0, 4.0]], E_s: [[0.0, 0.0], [0.0, 0.0]]}
"""

# No initial displacement and no noise: every trajectory, the oracle's
# included, is all zero, so no normalized RMS is defined.
ZERO_REFERENCE = """\
case: case1-linear
t_end: 0.2
structure: {x0: {heave: {disp: 0.0, vel: 0.0}}}
surrogate: {disp_noise_std: 0.0, force_noise_std: 0.0}
"""


def short_cfg(case="case1-linear", **over):
    return default_config(case, t_end=1.0, **over)


def fail_on_51st_advance():
    """A ``SurrogateSession.advance`` whose truth fails on its 51st call,
    after step 50 has been exchanged."""
    calls = []

    def failing_advance(self):
        calls.append(1)
        if len(calls) == 51:
            raise IntegrationError("non-finite state")

    return failing_advance


class TestRunCase:
    def test_returns_loop_oracle_and_metrics(self):
        res = run_case(short_cfg())
        assert set(res.metrics) == {"x_heave"}
        assert len(res.rtahs) == len(res.oracle) == 1001
        m = res.metrics["x_heave"]
        assert m.normalized_rms is not None and m.normalized_rms < 0.05
        assert not res.truncated

    def test_zero_force_degenerate_config(self, tmp_path):
        cfg = replace(
            short_cfg(),
            x0_disp=(0.0,),
            x0_vel=(0.0,),
            surrogate=replace(short_cfg().surrogate, disp_noise_std=0.0, force_noise_std=0.0),
        )
        res = run_case(cfg)
        assert np.all(res.rtahs.channel("x_heave") == 0.0)
        assert np.all(res.oracle.channel("x_heave") == 0.0)
        assert res.metrics["x_heave"].normalized_rms is None
        paths = write_case_artifacts(res, tmp_path)
        assert "metrics.x_heave.normalized_rms = undefined" in paths["summary"].read_text()

    def test_case2dof_metrics_per_channel(self):
        res = run_case(default_config("case2dof", t_end=2.0))
        assert set(res.metrics) == {"x_heave", "x_torsion"}

    @pytest.mark.parametrize("mode", ["in-process", "udp"])
    def test_filter_failure_is_a_session_error_with_the_partial_series(self, mode):
        cfg = replace(config_from_dict(yaml.safe_load(SINGULAR_AT_1058)), mode=mode)
        with pytest.raises(cosim.SessionError, match="step 1058: singular") as err:
            run_loop(cfg)
        assert isinstance(err.value.__cause__, FilterNumericalError)
        assert err.value.last_good_step == 1057
        assert len(err.value.partial_series) == 1058

    def test_filter_failure_ends_the_udp_surrogate_at_once(self, monkeypatch):
        # the server sends its pinned peer a SHUTDOWN before it closes, so
        # the surrogate's request fails on that frame and never waits out
        # its silence budget; the partial series is the in-process one
        runners, errors = [], []

        class RecordedRunner(cosim.SurrogateRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

            def run(self):
                try:
                    super().run()
                except cosim.SessionError as exc:
                    errors.append(exc)
                    raise

        monkeypatch.setattr(cosim, "SurrogateRunner", RecordedRunner)
        cfg = config_from_dict(yaml.safe_load(SINGULAR_AT_1058))
        partial = {}
        for mode in ("in-process", "udp"):
            with pytest.raises(cosim.SessionError, match="step 1058: singular") as err:
                run_loop(replace(cfg, mode=mode))
            assert err.value.last_good_step == 1057
            partial[mode] = err.value.partial_series
        assert len(partial["udp"]) == 1058
        assert np.array_equal(partial["udp"].t, partial["in-process"].t)
        for name, col in partial["in-process"].data.items():
            assert np.array_equal(partial["udp"].data[name], col), name
        (runner,) = runners
        assert runner.stats.timeouts == 0 and runner.stats.retries == 0
        assert len(errors) == 1
        assert "unexpected SHUTDOWN seq 1502 while waiting for COMMAND seq 1059" in str(errors[0])

    @pytest.mark.parametrize("mode", ["in-process", "udp"])
    def test_truth_failure_is_a_session_error_with_the_partial_series(self, monkeypatch, mode):
        # the surrogate's truth fails on its 51st advance, after step 50
        # has been exchanged; in UDP mode the surrogate then sends its
        # pinned peer a SHUTDOWN, so the server fails on that frame at
        # once and never waits out its silence budget
        servers = []

        class RecordedServer(cosim.NumericalServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                servers.append(self)

        monkeypatch.setattr(cosim, "NumericalServer", RecordedServer)
        monkeypatch.setattr(cosim.SurrogateSession, "advance", fail_on_51st_advance())
        with pytest.raises(cosim.SessionError, match="non-finite state") as err:
            run_loop(short_cfg(mode=mode))
        assert isinstance(err.value.__cause__, IntegrationError)
        assert err.value.last_good_step == 50
        assert len(err.value.partial_series) == 51
        if mode == "udp":
            (server,) = servers
            assert server.stats.timeouts == 0
            assert "unexpected SHUTDOWN seq 1002 while waiting for MEASUREMENT seq 52" in str(
                err.value.__cause__.__cause__
            )


class TestOneStepperPerCase:
    @pytest.mark.parametrize("case", ["case1-linear", "case1-nonlinear", "case2dof"])
    def test_noiseless_surrogate_truth_is_the_oracle(self, case):
        # The surrogate truth and the oracle step one stepper per case on
        # one clock, so without noise the truth's measurements are the
        # oracle's samples bit for bit.
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{case}.yaml")
        cfg = replace(
            cfg,
            t_end=10.0,
            surrogate=replace(cfg.surrogate, disp_noise_std=0.0, force_noise_std=0.0),
        )
        oracle = run_oracle(cfg)
        sur = build_surrogate_session(cfg)
        sur.prepare(cfg.n_samples, cfg.n_dofs)
        forces, disps = [], []
        for k in range(cfg.n_samples):
            f, x = sur.measure(k)
            forces.append(f)
            disps.append(x)
            if k < cfg.n_samples - 1:
                sur.advance()
        forces, disps = np.array(forces), np.array(disps)
        assert not oracle.truncated
        for i, d in enumerate(cfg.dofs):
            assert np.array_equal(disps[:, i], oracle.channel(f"x_{d.label}"))
            assert np.array_equal(forces[:, i], oracle.channel(f"f_{d.label}"))


class TestArtifacts:
    def test_csv_round_trip_exact(self, tmp_path):
        res = run_case(short_cfg())
        paths = write_case_artifacts(res, tmp_path)
        back = read_series(paths["rtahs"])
        assert back.channels == res.rtahs.channels
        for ch in back.channels:
            assert np.array_equal(back.channel(ch), res.rtahs.channel(ch))
        assert np.array_equal(back.t, res.rtahs.t)

    def test_reproducible_csv_bytes(self, tmp_path):
        a = write_case_artifacts(run_case(short_cfg()), tmp_path / "a")
        b = write_case_artifacts(run_case(short_cfg()), tmp_path / "b")
        assert a["rtahs"].read_bytes() == b["rtahs"].read_bytes()
        assert a["oracle"].read_bytes() == b["oracle"].read_bytes()
        assert a["summary"].read_bytes() == b["summary"].read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = write_case_artifacts(run_case(short_cfg()), tmp_path / "a")
        b = write_case_artifacts(run_case(short_cfg(seed=1)), tmp_path / "b")
        assert a["rtahs"].read_bytes() != b["rtahs"].read_bytes()

    def test_summary_contains_config_echo_and_metrics(self, tmp_path):
        res = run_case(short_cfg())
        paths = write_case_artifacts(res, tmp_path)
        text = paths["summary"].read_text()
        for key in (
            "case = case1-linear",
            "estimator = kf",
            "modal.heave.inertia = 182.178",
            "x0.heave.disp = 0.01",
            "aero.Y1 = 6.5",
            "filter.process_var = 1.0000000000000001e-05",
            "metrics.x_heave.normalized_rms",
            "metrics.x_heave.envelope",
        ):
            assert key in text, key

    def test_csv_writer_matches_per_value_loop(self):
        def reference(series):
            # the writer as it was: each numpy scalar formatted on its own
            buf = io.StringIO()
            buf.write(",".join(["t"] + series.channels) + "\n")
            cols = [series.t] + [series.data[n] for n in series.channels]
            for row in zip(*cols):
                buf.write(",".join(FLOAT_FMT.format(v) for v in row) + "\n")
            return buf.getvalue()

        fi = np.finfo(float)
        sub = fi.smallest_subnormal
        edge = np.array(
            [0.0, -0.0, sub, -sub, 3 * sub, fi.tiny / 2, fi.tiny, -fi.tiny, fi.max,
             -fi.max, np.nan, np.inf, -np.inf, 0.1, 1 / 3, -2.5e-300, 1e16 + 2]
        )
        rng = np.random.default_rng(3)
        n = len(edge)
        wide = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        series = TimeSeries(
            dt=1e-3, t=np.arange(n) * 1e-3, data={"a": edge, "b": -edge[::-1], "c": wide}
        )
        assert series_to_csv(series) == reference(series)

    def test_read_series_rejects_nonuniform_grid(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x_heave\n0,0\n0.1,0\n0.3,0\n")
        with pytest.raises(ValueError):
            read_series(p)


class TestDelayStudy:
    def test_zero_tau_matches_baseline_exactly(self):
        cfg = default_config("case2dof", t_end=1.0)
        rows = run_delay_study(cfg, [0.0])
        for m in rows[0].metrics.values():
            assert m.rms_error == 0.0

    def test_zero_tau_reuses_the_reference_run(self, monkeypatch):
        calls = []

        def counted(cfg, *args, **kwargs):
            calls.append(cfg.surrogate.delay_tau)
            return run_loop(cfg, *args, **kwargs)

        monkeypatch.setattr(harness, "run_loop", counted)
        cfg = default_config("case1-linear", t_end=0.5)
        rows = run_delay_study(cfg, [0.0, 0.05])
        assert calls == [0.0, 0.05]
        assert [r.tau for r in rows] == [0.0, 0.05]

    def test_rows_and_adaptation_flag(self):
        cfg = default_config("case2dof", t_end=1.0)
        rows = run_delay_study(cfg, [0.0, 0.05], compare_adaptation_off=True)
        assert [(r.tau, r.adaptation) for r in rows] == [
            (0.0, True),
            (0.05, True),
            (0.05, False),
        ]

    @pytest.mark.parametrize("case", ["case1-linear", "case1-nonlinear"])
    def test_filters_without_adaptation_label_their_rows_false(self, case):
        # the KF and the EKF never adapt, so no row of theirs reads
        # adaptation, and there is no adaptation to switch off
        cfg = default_config(case, t_end=0.5)
        rows = run_delay_study(cfg, [0.0, 0.01])
        assert [(r.tau, r.adaptation) for r in rows] == [(0.0, False), (0.01, False)]
        with pytest.raises(ConfigurationError, match=f"{cfg.estimator} does not adapt"):
            run_delay_study(cfg, [0.0, 0.01], compare_adaptation_off=True)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            run_delay_study(default_config("case2dof", t_end=1.0), [-0.1])

    def test_adaptation_beats_disabled_filter_under_delay(self):
        # Against the study's common undelayed reference, the delayed run
        # with covariance matching stays closer (worst channel) than the
        # same filter with adaptation off.
        cfg = default_config("case2dof")
        rows = run_delay_study(cfg, [0.1], compare_adaptation_off=True)
        on = next(r for r in rows if r.adaptation)
        off = next(r for r in rows if not r.adaptation)
        worst_on = max(m.normalized_rms for m in on.metrics.values())
        worst_off = max(m.normalized_rms for m in off.metrics.values())
        assert worst_off > worst_on


class TestConfigFiles:
    def test_defaults_by_case(self):
        cfg = config_from_dict({"case": "case1-linear"})
        assert cfg.estimator == "kf"
        assert cfg.span == 1.8
        assert cfg.filter.process_var == 1e-5
        cfg2 = config_from_dict({"case": "case2dof"})
        assert cfg2.estimator == "aekf"
        assert cfg2.coupling is not None

    def test_full_override_round_trip(self, tmp_path):
        doc = {
            "case": "case1-nonlinear",
            "estimator": "ekf",
            "dt": 0.002,
            "t_end": 5.0,
            "seed": 3,
            "mode": "udp",
            "span": 2.0,
            "structure": {
                "modal": [
                    {
                        "dof": "heave",
                        "inertia": 100.0,
                        "damping_ratio": 0.004,
                        "circ_freq": 15.0,
                    }
                ],
                "x0": {"heave": {"disp": 0.02, "vel": 0.1}},
                "x_hat0": [0.02, 0.1],
            },
            "aero": {"Y1": 11.966, "U": 8.0},
            "filter": {"process_var": 1e-7},
            "surrogate": {"disp_noise_std": 1e-6, "delay_tau": 0.05},
            "cosim": {"loss_rate": 0.05, "max_retries": 5},
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        assert cfg.dt == 0.002 and cfg.t_end == 5.0 and cfg.seed == 3
        assert cfg.mode == "udp" and cfg.span == 2.0
        assert cfg.modal[0].inertia == 100.0
        assert cfg.x0_disp == (0.02,) and cfg.x0_vel == (0.1,)
        assert cfg.x_hat0 == (0.02, 0.1)
        assert cfg.aero.Y1 == 11.966 and cfg.aero.U == 8.0
        assert cfg.filter.process_var == 1e-7
        assert cfg.surrogate.delay_tau == 0.05
        assert cfg.cosim.loss_rate == 0.05 and cfg.cosim.max_retries == 5
        # an exponent without a dot is a float, as in YAML 1.2
        path.write_text("case: case1-linear\nseed: 7\nfilter: {meas_var: 1e-5, p0: 2E+0}\n")
        cfg = load_config(path)
        assert cfg.filter.meas_var == 1e-5 and cfg.filter.p0 == 2.0
        assert cfg.seed == 7 and isinstance(cfg.seed, int)

    def test_coupling_variants(self):
        cfg = config_from_dict({"case": "case2dof", "coupling": {"variant": "divergent"}})
        from rtahs.cases import COUPLING_DIVERGENT

        assert_allclose(cfg.coupling.E_d, COUPLING_DIVERGENT.E_d)
        custom = config_from_dict(
            {
                "case": "case2dof",
                "coupling": {
                    "variant": "custom",
                    "E_d": [[0, 0], [0, 0]],
                    "E_s": [[0, 1], [1, 0]],
                },
            }
        )
        assert custom.coupling.E_s[0, 1] == 1.0

    def test_documented_schema_is_case1_linear_defaults(self):
        block = rtahs.config.__doc__.split(".. code-block:: yaml")[1]
        cfg = config_from_dict(yaml.safe_load(textwrap.dedent(block)))
        assert replace(cfg, coupling=None) == default_config("case1-linear")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"case": "case1-linear", "bogus": 1})
        with pytest.raises(ConfigurationError):
            config_from_dict({"case": "case1-linear", "filter": {"nope": 2}})

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"case": "case9"})

    def test_shipped_config_files_load(self):
        root = Path(__file__).resolve().parents[1] / "configs"
        for name, case, estimator in (
            ("case1-linear.yaml", "case1-linear", "kf"),
            ("case1-nonlinear.yaml", "case1-nonlinear", "ekf"),
            ("case2dof.yaml", "case2dof", "aekf"),
        ):
            cfg = load_config(root / name)
            assert cfg.case == case
            assert cfg.estimator == estimator
            # each file shows its case's defaults; the one documented
            # difference is that case2dof runs over UDP
            expected = default_config(case)
            if case == "case2dof":
                assert cfg.mode == "udp" and expected.mode == "in-process"
                expected = replace(expected, mode="udp")
            assert cfg == expected, name

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"case": "case1-linear", "dt": -1.0})
        with pytest.raises(ConfigurationError):
            config_from_dict(
                {
                    "case": "case1-linear",
                    "structure": {
                        "modal": [
                            {
                                "dof": "heave",
                                "inertia": -5.0,
                                "damping_ratio": 0.0,
                                "circ_freq": 1.0,
                            }
                        ]
                    },
                }
            )
        for bad in (
            {"filter": 5},
            {"coupling": 7},
            {"structure": {"modal": [1]}},
            {"structure": {"x0": {"heave": 3}}},
            {"structure": {"x_hat0": 5}},
            {"filter": {"adapt_enabled": "no"}},
            {"filter": {"p0": True}},
            {"cosim": {"max_retries": True}},
            {"seed": False},
            {"cosim": {"max_retries": "abc"}},
            {"filter": {"p0": "abc"}},
            {"cosim": {"timeout": 0}},
            {"cosim": {"timeout": -0.1}},
            {"cosim": {"max_retries": -1}},
            {"cosim": {"loss_rate": 1.0}},
            {"cosim": {"loss_rate": -0.1}},
            {"surrogate": {"disp_noise_std": -1.0}},
            {"surrogate": {"force_noise_std": -1e-4}},
            {"surrogate": {"delay_tau": -0.01}},
            {"filter": {"p0": -1e-10}},
            {"filter": {"process_var": -1e-5}},
            {"filter": {"meas_var": -1e-5}},
            {"filter": {"meas_var": 0.0}},
            {"filter": {"meas_var": float("nan")}},
            {"filter": {"process_var": float("inf")}},
            {"filter": {"jacobian": "numeric"}},
            {"filter": {"q_update_form": "residual"}},
            {"filter": {"forgetting_factor": 1.0}},
            {"surrogate": {"kind": "foo"}},
            {"structure": {"x_hat0": [0.01]}},
            {"t_end": float("inf")},
            {"t_end": 1e7},  # SHUTDOWN's seq n_samples + 1 past the uint32
            {"surrogate": {"delay_tau": 50.001}},
            {"surrogate": {"delay_tau": float("inf")}},
            {"cosim": {"timeout": float("inf")}},
            {"cosim": {"timeout": 1e12}},
            {"seed": -1},
            {"structure": {"modal": [{**HEAVE, "inertia": float("inf")}]}},
            {"structure": {"modal": [{**HEAVE, "circ_freq": float("inf")}]}},
            {"structure": {"modal": [{**HEAVE, "damping_ratio": float("inf")}]}},
            {"surrogate": {"force_noise_std": float("inf")}},
            {"surrogate": {"disp_noise_std": float("inf")}},
            {"estimator": False},
            {"estimator": 0},
            {"estimator": ""},
            {"estimator": None},
        ):
            with pytest.raises(ConfigurationError):
                config_from_dict({"case": "case1-linear", **bad})


class TestCouplingVariants:
    def test_frozen_matrices_give_one_stable_one_unstable_system(self):
        # The documented pre-study property of the shipped coupling
        # matrices: all closed-loop eigenvalues decay for the convergent
        # variant, the torsional branch grows for the divergent one.
        from rtahs.cases import COUPLING_CONVERGENT, COUPLING_DIVERGENT, linear_state_matrix

        conv = default_config("case2dof", coupling=COUPLING_CONVERGENT)
        div = default_config("case2dof", coupling=COUPLING_DIVERGENT)
        eig_conv = np.linalg.eigvals(linear_state_matrix(conv))
        eig_div = np.linalg.eigvals(linear_state_matrix(div))
        assert np.max(eig_conv.real) < -0.01
        assert np.max(eig_div.real) > 0.01

    def test_divergent_variant_tracked_and_classified(self):
        from rtahs.cases import COUPLING_DIVERGENT

        cfg = default_config("case2dof", coupling=COUPLING_DIVERGENT, t_end=10.0)
        res = run_case(cfg)
        assert res.metrics["x_torsion"].envelope == "divergent"
        for m in res.metrics.values():
            assert m.normalized_rms is not None and m.normalized_rms <= 0.03

    def test_echo_surrogate_kind(self):
        from rtahs.cases import EchoGenerator, truth_generator

        cfg = default_config("case2dof", t_end=1.0)
        cfg = replace(cfg, surrogate=replace(cfg.surrogate, kind="echo"))
        assert isinstance(truth_generator(cfg), EchoGenerator)


class TestCaseConfigValidation:
    def test_unknown_case(self):
        with pytest.raises(ValueError):
            default_config("case7")

    def test_bad_estimator(self):
        with pytest.raises(ValueError):
            default_config("case1-linear", estimator="ukf")

    def test_ic_length_mismatch(self):
        with pytest.raises(ValueError):
            replace(default_config("case2dof"), x0_disp=(0.01,))

    def test_case2dof_needs_coupling(self):
        with pytest.raises(ConfigurationError, match="coupling"):
            default_config("case2dof", coupling=None)

    def test_sample_count_limit_of_the_wire(self):
        # n_samples + 1, the SHUTDOWN frame's seq, must fit a uint32
        cfg = default_config("case1-linear", dt=1.0, t_end=2.0**32 - 3)
        assert cfg.n_samples + 1 == 2**32 - 1
        with pytest.raises(ConfigurationError):
            replace(cfg, t_end=2.0**32 - 2)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--case",
                "case1-linear",
                "--t-end",
                "1.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "rtahs.csv").exists()
        assert (tmp_path / "oracle.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        out = capsys.readouterr().out
        assert "normalized_rms" in out

    def test_run_with_config_file(self, tmp_path):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("case: case1-linear\nt_end: 1.0\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_run_takes_exactly_one_of_case_and_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("case: case1-linear\nt_end: 1.0\n")
        out = tmp_path / "out"
        for flags in (
            ["--config", str(cfgfile), "--case", "case1-nonlinear"],
            ["--config", str(cfgfile), "--case", "case1-linear"],
            [],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["run", *flags, "--out", str(out)])
            assert exc.value.code == 2
        assert not out.exists()
        assert "--case" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind", ["unknown-key", "missing-csv", "missing-channel", "address-in-use"]
    )
    def test_config_error_exit_code(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.yaml"
        bad.write_text("case: case1-linear\nbogus: 1\n")
        good = tmp_path / "good.yaml"
        good.write_text("case: case1-linear\nt_end: 0.2\n")
        csv = tmp_path / "a.csv"
        csv.write_text("t,x_heave\n0,0\n0.001,1\n")
        busy = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        busy.bind(("127.0.0.1", 0))
        argv, message = {
            "unknown-key": (["run", "--config", str(bad), "--out", str(tmp_path)], "bogus"),
            "missing-csv": (
                ["compare", str(tmp_path / "none.csv"), str(csv), "--channel", "x_heave"],
                "none.csv",
            ),
            "missing-channel": (["compare", str(csv), str(csv), "--channel", "x_torsion"], "x_torsion"),
            "address-in-use": (
                ["serve", "--bind", f"127.0.0.1:{busy.getsockname()[1]}", "--config", str(good)],
                "in use",
            ),
        }[kind]
        try:
            assert main(argv) == 2
        finally:
            busy.close()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--delay", "1e300"]])
    def test_value_past_its_rule_exit_code(self, tmp_path, capsys, flags):
        # each passed every check once and then overflowed with a traceback
        out = tmp_path / "out"
        assert main(["run", "--case", "case1-linear", *flags, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "estimator: false",
            "estimator: 0",
            'estimator: ""',
            "estimator: null",
            "surrogate: {force_noise_std: .inf}",
            "structure: {modal: [{dof: heave, inertia: .inf, damping_ratio: 0.005, circ_freq: 17.64}]}",
        ],
        ids=["estimator-false", "estimator-0", "estimator-empty", "estimator-null",
             "force-noise-inf", "inertia-inf"],
    )
    def test_config_value_the_run_cannot_use_exit_code(self, tmp_path, capsys, line):
        # each ran once: the estimator ones with the default filter (exit
        # 0), the infinite ones into a non-finite state (exit 3)
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(f"case: case1-linear\nt_end: 0.1\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_session_error_exit_code(self, tmp_path):
        # the surrogate endpoint pointed at a dead port gives up after
        # its resend budget
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(
            "case: case1-linear\nt_end: 0.2\ncosim: {timeout: 0.02, max_retries: 1}\n"
        )
        rc = main(
            ["physical", "--connect", "127.0.0.1:9", "--config", str(cfgfile)]
        )
        assert rc == 3

    def test_divergence_truncation_exit_code(self, tmp_path):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("case: case1-linear\nt_end: 6.0\naero: {Y1: 300.0}\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert rc == 4

    @pytest.mark.parametrize("mode", ["in-process", "udp"])
    def test_filter_failure_exit_code_and_partial_csv(self, tmp_path, capsys, mode):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(SINGULAR_AT_1058)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), "--mode", mode, "--out", str(out)])
        assert rc == 3
        assert "step 1058: singular innovation covariance" in capsys.readouterr().err
        assert len(read_series(out / "rtahs.partial.csv")) == 1058
        assert sorted(p.name for p in out.iterdir()) == ["rtahs.partial.csv"]

    @pytest.mark.parametrize(
        "case, dofs",
        [
            ("case1-nonlinear", ["torsion"]),
            ("case1-linear", ["heave", "torsion"]),
            ("case2dof", ["heave", "transverse", "torsion"]),
        ],
    )
    def test_dof_set_the_case_cannot_run_exit_code(self, tmp_path, capsys, case, dofs):
        modal = [{"dof": d, "inertia": 1.0, "damping_ratio": 0.01, "circ_freq": 10.0} for d in dofs]
        x0 = {d: {"disp": 0.01, "vel": 0.0} for d in dofs}
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(
            yaml.safe_dump({"case": case, "t_end": 0.2, "structure": {"modal": modal, "x0": x0}})
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert f"case {case} takes exactly the DOFs" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_reference_is_undefined_in_every_rendering(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(ZERO_REFERENCE)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert "x_heave: rms_error=0 peak_error=0 normalized_rms=undefined" in (
            capsys.readouterr().out
        )
        argv = ["compare", str(out / "oracle.csv"), str(out / "rtahs.csv"), "--channel", "x_heave"]
        assert main(argv) == 0
        assert "normalized_rms = undefined" in capsys.readouterr().out.splitlines()
        argv = ["delay-study", "--config", str(cfgfile), "--taus", "0,0.01", "--out", str(out)]
        assert main(argv) == 0
        rows = [r.split(",") for r in (out / "delay_study.csv").read_text().splitlines()]
        assert rows[0][5] == "normalized_rms"
        assert [r[5] for r in rows[1:]] == ["undefined", "undefined"]

    def test_compare_subcommand(self, tmp_path, capsys):
        res = run_case(short_cfg())
        paths = write_case_artifacts(res, tmp_path)
        rc = main(
            [
                "compare",
                str(paths["oracle"]),
                str(paths["rtahs"]),
                "--channel",
                "x_heave",
            ]
        )
        assert rc == 0
        assert "rms_error" in capsys.readouterr().out

    def test_delay_study_subcommand(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("case: case2dof\nt_end: 1.0\n")
        rc = main(
            [
                "delay-study",
                "--config",
                str(cfgfile),
                "--taus",
                "0,0.05",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        table = (tmp_path / "out" / "delay_study.csv").read_text()
        assert table.splitlines()[0] == "tau,adaptation,channel,rms_error,peak_error,normalized_rms,envelope"
        assert len(table.splitlines()) == 1 + 2 * 2  # two taus x two channels

    @pytest.mark.parametrize("estimator", ["kf", "ekf"])
    def test_delay_study_refuses_adaptation_off_without_aekf(self, tmp_path, capsys, estimator):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(f"case: case1-linear\nestimator: {estimator}\nt_end: 0.1\n")
        argv = ["delay-study", "--config", str(cfgfile), "--taus", "0", "--compare-adaptation-off"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"{estimator} does not adapt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_udp_mode_via_cli(self, tmp_path):
        rc = main(
            [
                "run",
                "--case",
                "case1-linear",
                "--t-end",
                "0.5",
                "--mode",
                "udp",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        text = (tmp_path / "summary.txt").read_text()
        summary = dict(line.split(" = ") for line in text.splitlines())
        for side in ("server", "surrogate"):
            for counter in (
                "sent", "received", "retries", "stale",
                "lost", "duplicates", "decode_errors", "timeouts", "foreign",
            ):
                assert int(summary[f"session.{side}.{counter}"]) >= 0, (side, counter)

    def test_serve_and_physical_subcommands(self, tmp_path):
        # full split-process topology exercised through the CLI entry
        # points, surrogate on a thread
        import threading

        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("case: case1-linear\nt_end: 0.2\n")

        from rtahs.cases import default_config as dc
        from rtahs.cosim import NumericalServer
        from rtahs.harness import build_estimator_session

        cfg = dc("case1-linear", t_end=0.2)
        server = NumericalServer(cfg, build_estimator_session(cfg))
        host, port = server.address

        rcs = {}

        def run_physical():
            rcs["physical"] = main(
                ["physical", "--connect", f"{host}:{port}", "--config", str(cfgfile)]
            )

        t = threading.Thread(target=run_physical, daemon=True)
        t.start()
        series = server.run()
        t.join(timeout=10.0)
        assert rcs["physical"] == 0
        assert len(series) == 201

    @staticmethod
    def serve_and_physical(tmp_path, monkeypatch, cfgfile):
        """``rtahs serve --out tmp_path/serve`` and ``rtahs physical``
        against each other, one endpoint per CLI call on its own thread;
        returns their exit codes."""
        import threading

        bound = threading.Event()

        class BoundServer(cosim.NumericalServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                bound.set()

        monkeypatch.setattr(cosim, "NumericalServer", BoundServer)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
            addr = "127.0.0.1:%d" % probe.getsockname()[1]
        rcs = {}

        def call(name, *args):
            rcs[name] = main([name, *args, "--config", str(cfgfile)])

        serve = threading.Thread(
            target=call, args=("serve", "--bind", addr, "--out", str(tmp_path / "serve")),
            daemon=True,
        )
        physical = threading.Thread(
            target=call, args=("physical", "--connect", addr), daemon=True
        )
        serve.start()
        assert bound.wait(timeout=10.0)
        physical.start()
        for thread in (physical, serve):
            thread.join(timeout=30.0)
        return rcs

    def test_serve_filter_failure_exit_code_and_partial_csv(self, tmp_path, monkeypatch):
        # serve against physical on the diverging config: both exit 3, and
        # serve writes the partial trajectory that run writes
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(SINGULAR_AT_1058)
        assert self.serve_and_physical(tmp_path, monkeypatch, cfgfile) == {
            "serve": 3, "physical": 3
        }
        served = tmp_path / "serve"
        assert sorted(p.name for p in served.iterdir()) == ["rtahs.partial.csv"]
        run = tmp_path / "run"
        assert main(["run", "--config", str(cfgfile), "--out", str(run)]) == 3
        assert (served / "rtahs.partial.csv").read_bytes() == (
            run / "rtahs.partial.csv"
        ).read_bytes()

    def test_physical_truth_failure_exit_codes(self, tmp_path, monkeypatch, capsys):
        # physical's truth fails after step 50: physical sends serve a
        # SHUTDOWN, and both exit 3 with a message that names the failure
        monkeypatch.setattr(cosim.SurrogateSession, "advance", fail_on_51st_advance())
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("case: case1-linear\nt_end: 0.5\n")
        assert self.serve_and_physical(tmp_path, monkeypatch, cfgfile) == {
            "serve": 3, "physical": 3
        }
        err = capsys.readouterr().err
        assert "session error: numerical failure: non-finite state" in err
        assert "session error: unexpected SHUTDOWN seq 502 while waiting for MEASUREMENT seq 52" in err
        assert len(read_series(tmp_path / "serve" / "rtahs.partial.csv")) == 51

    def test_serve_and_physical_give_the_run_trajectory(self, tmp_path, monkeypatch):
        # the two-process deployment, one endpoint per CLI call on its own
        # thread: the server's trajectory is the in-process run's, byte
        # for byte
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("case: case1-linear\nt_end: 0.5\n")
        rcs = self.serve_and_physical(tmp_path, monkeypatch, cfgfile)
        assert rcs == {"serve": 0, "physical": 0}
        run = tmp_path / "run"
        rc = main(["run", "--config", str(cfgfile), "--mode", "in-process", "--out", str(run)])
        assert rc == 0
        served = (tmp_path / "serve" / "rtahs.csv").read_bytes()
        assert served == (run / "rtahs.csv").read_bytes()
