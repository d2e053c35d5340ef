"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.

All tolerances are fixed here; the runs are seeded and deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from finite_difference import numeric_jacobian
from rtahs.aero import heave_acceleration, heave_jacobian
from rtahs.cases import default_config
from rtahs.cosim import LossInjector, run_udp_pair
from rtahs.dynamics import DofId, ModalParams, StructuralMatrices, build_state_space
from rtahs.estimators import (
    PSD_FLOOR,
    FilterState,
    NoiseStats,
    ekf_step,
    forgetting_weight,
    linear_transition_model,
    predict,
    update,
)
from rtahs.harness import (
    build_estimator_session,
    build_surrogate_session,
    run_delay_study,
    run_loop,
    run_oracle,
)
from rtahs.integrators import newmark_matrix, rk4_step
from rtahs.metrics import compare_series
from rtahs.wire import (
    BadFieldError,
    BadLengthError,
    BadMagicError,
    BadVersionError,
    Frame,
    Handshake,
    MsgType,
    TruncatedFrameError,
    decode_frame,
    encode_frame,
)


def _nrms(reference, test, channel):
    return compare_series(reference, test, channel).normalized_rms


def test_criterion_1_case1_linear_kf_vs_newmark():
    start = time.perf_counter()
    results = {}
    for y1, expected_env in ((6.5, "convergent"), (11.966, "divergent")):
        cfg = default_config("case1-linear")
        cfg = replace(cfg, aero=replace(cfg.aero, Y1=y1))
        loop, _, _, _ = run_loop(cfg)
        oracle = run_oracle(cfg)
        m = compare_series(oracle, loop, "x_heave")
        assert m.normalized_rms is not None and m.normalized_rms <= 0.02, (
            f"Y1={y1}: normalized RMS {m.normalized_rms:.4g} > 2%"
        )
        assert m.envelope == expected_env, (
            f"Y1={y1}: classified {m.envelope}, expected {expected_env}"
        )
        results[y1] = m
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s >= 10s"
    print(
        f"\nACCEPTANCE 1 PASS: case1-linear KF vs Newmark oracle over 50 s, "
        f"Y1=6.5 nrms={results[6.5].normalized_rms:.2e} ({results[6.5].envelope}), "
        f"Y1=11.966 nrms={results[11.966].normalized_rms:.2e} "
        f"({results[11.966].envelope}), runtime {elapsed:.1f}s"
    )


def test_criterion_2_case1_nonlinear_ekf_vs_rk4():
    start = time.perf_counter()
    ekf_nrms = {}
    kf_worse = None
    for y1 in (6.5, 11.966):
        cfg = default_config("case1-nonlinear")
        cfg = replace(cfg, aero=replace(cfg.aero, Y1=y1))
        loop, _, _, _ = run_loop(cfg)
        oracle = run_oracle(cfg)
        m = compare_series(oracle, loop, "x_heave")
        assert m.normalized_rms is not None and m.normalized_rms <= 0.03, (
            f"Y1={y1}: EKF normalized RMS {m.normalized_rms:.4g} > 3%"
        )
        ekf_nrms[y1] = m.normalized_rms
        if y1 == 11.966:
            kf_cfg = replace(cfg, estimator="kf")
            kf_loop, _, _, _ = run_loop(kf_cfg)
            kf_m = compare_series(oracle, kf_loop, "x_heave")
            assert kf_m.normalized_rms > m.normalized_rms, (
                f"KF nrms {kf_m.normalized_rms:.4g} not strictly larger than "
                f"EKF nrms {m.normalized_rms:.4g}"
            )
            kf_worse = (kf_m.normalized_rms, m.normalized_rms)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.1f}s >= 10s"
    print(
        f"\nACCEPTANCE 2 PASS: case1-nonlinear EKF vs RK4 oracle over 50 s, "
        f"nrms Y1=6.5 {ekf_nrms[6.5]:.2e}, Y1=11.966 {ekf_nrms[11.966]:.2e}; "
        f"KF on same system {kf_worse[0]:.2e} > EKF {kf_worse[1]:.2e}, "
        f"runtime {elapsed:.1f}s"
    )


def test_criterion_3_case2dof_udp_lockstep_and_oracle():
    start = time.perf_counter()
    cfg = default_config("case2dof")
    mono, _, _, _ = run_loop(cfg)
    udp, _, _, _ = run_loop(replace(cfg, mode="udp"))
    oracle = run_oracle(cfg)
    lockstep = {}
    tracking = {}
    for d in cfg.dofs:
        ch = f"x_{d.label}"
        m_eq = compare_series(mono, udp, ch)
        assert m_eq.normalized_rms is not None and m_eq.normalized_rms <= 1e-9, (
            f"{ch}: UDP vs monolithic normalized RMS {m_eq.normalized_rms:.3g} > 1e-9"
        )
        lockstep[ch] = m_eq.normalized_rms
        m_tr = compare_series(oracle, udp, ch)
        assert m_tr.normalized_rms is not None and m_tr.normalized_rms <= 0.03, (
            f"{ch}: AEKF loop vs RK4 oracle normalized RMS {m_tr.normalized_rms:.4g} > 3%"
        )
        tracking[ch] = m_tr.normalized_rms
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 runtime {elapsed:.1f}s >= 30s"
    print(
        f"\nACCEPTANCE 3 PASS: case2dof AEKF over 20 s, UDP-vs-monolithic nrms "
        f"heave {lockstep['x_heave']:.1e} / torsion {lockstep['x_torsion']:.1e}; "
        f"vs RK4 oracle heave {tracking['x_heave']:.2e} / torsion "
        f"{tracking['x_torsion']:.2e}, runtime {elapsed:.1f}s (incl. spawn)"
    )


def test_criterion_4_filter_property_suite():
    # P_k stays PSD at every step across all three cases
    min_eigs = {}
    for case in ("case1-linear", "case1-nonlinear", "case2dof"):
        cfg = default_config(case, t_end=5.0)
        _, _, _, min_eig = run_loop(cfg, trace_covariance=True)
        assert min_eig is not None and min_eig >= PSD_FLOOR - 1e-15, (
            f"{case}: min covariance eigenvalue {min_eig:.3g}"
        )
        min_eigs[case] = min_eig

    # forgetting-weight identities
    b = 0.96
    assert abs(forgetting_weight(b, 1) - 1.0) <= 1e-12
    assert abs(forgetting_weight(b, 5000) - (1.0 - b)) <= 1e-12

    # EKF degenerates to KF on a linear model
    ssm = build_state_space(
        [ModalParams(DofId.HEAVE, 182.178, 0.005, 17.64)], dt=1e-3
    )
    model = linear_transition_model(ssm)
    noise = NoiseStats.diagonal(2, 1, q_var=1e-5, r_var=1e-5)
    fk = fe = FilterState(x=np.array([0.01, 0.0]), P=np.eye(2) * 1e-10, noise=noise)
    rng = np.random.default_rng(0)
    for _ in range(500):
        u = rng.normal(size=1)
        z = rng.normal(0.01, 1e-3, size=1)
        # the Kalman filter step: generic predict and update
        x_prior, P_prior, _ = predict(fk, u, model)
        fk = update(FilterState(x_prior, P_prior, fk.noise, fk.k + 1), z, model)
        fe = ekf_step(fe, u, z, model)
    assert np.max(np.abs(fk.x - fe.x)) <= 1e-12
    assert np.max(np.abs(fk.P - fe.P)) <= 1e-12

    # numeric vs analytic Jacobians on the amplitude-dependent dynamics
    m_i, om0, D = 182.178, 17.64, 0.175
    acc = heave_acceleration(m_i, om0, D)
    worst = 0.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = np.array([rng.uniform(0.002, 0.06), rng.uniform(-0.6, 0.6)])
        J_num = numeric_jacobian(lambda s: np.array([s[1], acc(s[0], s[1], 0.0)]), x)
        J_ana = np.array([[0.0, 1.0], heave_jacobian(om0, D)(*x)])
        rel = np.max(np.abs(J_num - J_ana) / np.maximum(np.abs(J_ana), 1.0))
        worst = max(worst, rel)
    assert worst <= 1e-5, f"Jacobian mismatch {worst:.3g} > 1e-5"

    print(
        f"\nACCEPTANCE 4 PASS: P PSD across cases (min eig "
        + ", ".join(f"{k}={v:.1e}" for k, v in min_eigs.items())
        + f"); d_1=1, d_inf=1-b at 1e-12; EKF=KF<=1e-12; "
        f"jacobian rel err {worst:.1e} <= 1e-5"
    )


def test_criterion_5_time_delay_study():
    cfg = default_config("case2dof")
    rows = run_delay_study(cfg, [0.0, 0.1])

    # tau = 0 reproduces the baseline exactly
    for m in rows[0].metrics.values():
        assert m.rms_error == 0.0 and m.peak_error == 0.0

    # tau = 0.1 s stays bounded and within 10% of the undelayed reference
    delayed = rows[1]
    worst = 0.0
    for ch, m in delayed.metrics.items():
        assert m.envelope != "divergent", f"{ch} classified divergent under delay"
        assert m.normalized_rms is not None and m.normalized_rms <= 0.10, (
            f"{ch}: delayed normalized RMS {m.normalized_rms:.4g} > 10%"
        )
        worst = max(worst, m.normalized_rms)
    print(
        f"\nACCEPTANCE 5 PASS: tau=0 exact; tau=0.1 s force delay bounded, "
        f"worst-channel nrms {worst:.2e} <= 10%"
    )


def test_criterion_6_integrator_suite():
    # Newmark energy drift over 1e4 undamped steps
    mats = StructuralMatrices(
        dofs=(DofId.HEAVE,),
        M=np.array([[1.0]]),
        C=np.array([[0.0]]),
        K=np.array([[1.0]]),
    )
    y = np.array([1.0, 0.0])
    e0 = 0.5 * (y[1] ** 2 + y[0] ** 2)
    T = newmark_matrix(mats, 0.01)
    drift = 0.0
    for _ in range(10_000):
        y = T @ y
        e = 0.5 * (y[1] ** 2 + y[0] ** 2)
        drift = max(drift, abs(e - e0) / e0)
    assert drift <= 1e-6, f"energy drift {drift:.3g} > 1e-6"

    # RK4 order-4 convergence factor on dt halving
    def global_error(dt):
        y = np.array([1.0])
        for k in range(round(1.0 / dt)):
            y = rk4_step(lambda t, y: -y, y, k * dt, dt)
        return abs(y[0] - math.exp(-1.0))

    factor = global_error(0.02) / global_error(0.01)
    assert 14.0 <= factor <= 18.0, f"convergence factor {factor:.2f} outside 16±2"

    # damped log-decrement against the analytic value
    from rtahs.dynamics import assemble_matrices

    m_i, xi, om = 182.178, 0.005, 17.64
    mats_d = assemble_matrices([ModalParams(DofId.HEAVE, m_i, xi, om)])
    y = np.array([0.01, 0.0])
    T = newmark_matrix(mats_d, 1e-3)
    xs = [0.01]
    for _ in range(int(12 * 2 * math.pi / om / 1e-3)):
        y = T @ y
        xs.append(y[0])
    xs = np.array(xs)
    peaks = [
        xs[i]
        for i in range(1, len(xs) - 1)
        if xs[i] > xs[i - 1] and xs[i] >= xs[i + 1] and xs[i] > 0
    ]
    delta = math.log(peaks[0] / peaks[10]) / 10.0
    expected = 2 * math.pi * xi / math.sqrt(1 - xi**2)
    rel = abs(delta - expected) / expected
    assert rel <= 0.01, f"log-decrement off by {rel:.3%}"

    print(
        f"\nACCEPTANCE 6 PASS: Newmark energy drift {drift:.1e} <= 1e-6; "
        f"RK4 halving factor {factor:.2f} in 16±2; log-decrement within {rel:.2%}"
    )


def _random_valid_frame(rng) -> Frame:
    msg_type = MsgType(int(rng.integers(1, 5)))
    dof = int(rng.integers(1, 4))
    seq = int(rng.integers(0, 2**32))
    sim_time = float(rng.normal() * 10)
    if msg_type == MsgType.HANDSHAKE:
        return Frame(
            msg_type=msg_type,
            dof_count=dof,
            seq=seq,
            sim_time=sim_time,
            handshake=Handshake(
                dt=float(abs(rng.normal()) + 1e-6),
                t_end=float(abs(rng.normal()) * 100),
                dof_mask=int(rng.integers(1, 8)),
                estimator_id=int(rng.integers(1, 4)),
            ),
        )
    if msg_type == MsgType.SHUTDOWN:
        return Frame(msg_type=msg_type, dof_count=dof, seq=seq, sim_time=sim_time)
    has_f = bool(rng.integers(0, 2))
    has_d = bool(rng.integers(0, 2))
    forces = tuple(float(v) for v in rng.normal(size=dof)) if has_f else None
    disps = tuple(float(v) for v in rng.normal(size=dof)) if has_d else None
    return Frame(
        msg_type=msg_type,
        dof_count=dof,
        seq=seq,
        sim_time=sim_time,
        forces=forces,
        displacements=disps,
    )


def test_criterion_7_protocol_suite():
    # round-trip bijection over 1e5 randomized valid frames
    rng = np.random.default_rng(2024)
    n_frames = 100_000
    for _ in range(n_frames):
        frame = _random_valid_frame(rng)
        assert decode_frame(encode_frame(frame)) == frame

    # every malformed-frame class is rejected with its documented kind
    good = encode_frame(
        Frame(
            msg_type=MsgType.MEASUREMENT,
            dof_count=1,
            seq=1,
            sim_time=0.0,
            forces=(1.0,),
            displacements=(2.0,),
        )
    )
    rejections = []
    for mutate, err in (
        (lambda d: d[:10], TruncatedFrameError),
        (lambda d: b"XXXX" + d[4:], BadMagicError),
        (lambda d: d[:4] + b"\x07" + d[5:], BadVersionError),
        (lambda d: d + b"\x00", BadLengthError),
        (lambda d: d[:-1], BadLengthError),
        (lambda d: d[:5] + b"\x09" + d[6:], BadFieldError),
        (lambda d: d[:6] + b"\x04" + d[7:], BadFieldError),
        (lambda d: d[:7] + b"\x05" + d[8:], BadFieldError),
    ):
        try:
            decode_frame(mutate(good))
        except err:
            rejections.append(err.__name__)
        else:  # pragma: no cover
            raise AssertionError(f"{err.__name__} not raised")

    # 10% injected loss completes via resend with the trajectory unchanged
    def loop(with_loss: bool):
        cfg = default_config("case1-linear", t_end=1.0)
        est = build_estimator_session(cfg)
        sur = build_surrogate_session(cfg)
        kwargs = {}
        if with_loss:
            kwargs = dict(
                server_loss=LossInjector(0.1, seed=11),
                surrogate_loss=LossInjector(0.1, seed=12),
            )
        return run_udp_pair(cfg, est, sur, **kwargs)

    clean, _, _ = loop(False)
    lossy, sstats, pstats = loop(True)
    assert sstats.lost + pstats.lost > 0
    assert sstats.retries + pstats.retries > 0
    assert np.array_equal(clean.channel("x_heave"), lossy.channel("x_heave"))

    print(
        f"\nACCEPTANCE 7 PASS: {n_frames} random frames round-trip bijectively; "
        f"{len(rejections)} malformed classes rejected; 10% loss session "
        f"completed with {sstats.retries + pstats.retries} resends, trajectory unchanged"
    )


@pytest.fixture(scope="module")
def clean_criterion_7_session():
    cfg = default_config("case1-linear", t_end=1.0)
    series, _, _ = run_udp_pair(
        cfg, build_estimator_session(cfg), build_surrogate_session(cfg)
    )
    return series


@pytest.mark.parametrize("seed", range(20, 40, 2))
def test_criterion_7_loss_session_survives_other_seeds(seed, clean_criterion_7_session):
    # Criterion 7's 10%-loss session on other loss seeds: the default
    # 100 ms timeout and 3 retries give a 400 ms silence budget, inside
    # which the surrogate resends at the estimated retransmission timeout.
    cfg = default_config("case1-linear", t_end=1.0)
    lossy, sstats, pstats = run_udp_pair(
        cfg,
        build_estimator_session(cfg),
        build_surrogate_session(cfg),
        server_loss=LossInjector(0.1, seed=seed),
        surrogate_loss=LossInjector(0.1, seed=seed + 1),
    )
    assert sstats.lost > 0 and pstats.lost > 0
    for ch in clean_criterion_7_session.channels:
        assert np.array_equal(lossy.channel(ch), clean_criterion_7_session.channel(ch)), ch
