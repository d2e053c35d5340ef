"""Lockstep co-simulation: force delay, loss injection, loopback
sessions, and UDP/in-process equivalence."""

import math
import os
import select
import socket
import threading
import time

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from rtahs.aero import linear_se_force
from rtahs.cases import EchoGenerator, SurrogateSettings, default_config
from rtahs import cosim, harness
from rtahs.cosim import (
    RECV_BUFSIZE,
    RTO_MIN,
    LockstepEndpoint,
    LossInjector,
    NumericalServer,
    RetransmitTimer,
    SessionError,
    SurrogateRunner,
    SurrogateSession,
    run_udp_pair,
    session_handshake,
)
from rtahs.harness import (
    build_estimator_session,
    build_surrogate_session,
    run_loop,
)
from rtahs.metrics import compare_series
from rtahs.wire import BadLengthError, Frame, MsgType, decode_frame, encode_frame


class ForceSequence:
    """Truth generator whose force at step k is ``samples[k]``, with a
    zero displacement."""

    def __init__(self, samples):
        self.samples = samples
        self.k = 0

    def outputs(self):
        f = np.atleast_1d(np.asarray(self.samples[self.k], dtype=float))
        return f, np.zeros_like(f)

    def receive_command(self, disp):
        pass

    def advance(self):
        self.k += 1


def delayed_forces(samples, delay_steps):
    """The forces a noiseless surrogate session reports at each step."""
    sur = SurrogateSession(ForceSequence(samples), delay_steps=delay_steps)
    out = []

    def exchange(k, forces, disps):
        out.append(forces)
        return disps

    sur.run(len(samples), len(np.atleast_1d(samples[0])), exchange)
    return out


class TestDelayLine:
    def test_zero_delay_is_identity(self):
        outs = delayed_forces([float(k) for k in range(20)], 0)
        assert [f[0] for f in outs] == list(range(20))

    def test_hold_before_first_sample(self):
        outs = delayed_forces([10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0], 5)
        assert [f[0] for f in outs] == [10.0] * 6 + [11.0]

    def test_sinusoid_phase_shift(self):
        om, dt, n_delay = 17.64, 1e-3, 100
        outs = delayed_forces([math.sin(om * k * dt) for k in range(1000)], n_delay)
        for k in range(n_delay, 1000):
            assert outs[k][0] == pytest.approx(math.sin(om * (k - n_delay) * dt), abs=1e-9)

    def test_constant_signal_invariant(self):
        assert all(f[0] == 3.25 for f in delayed_forces([3.25] * 100, 25))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SurrogateSettings(delay_tau=-0.1)

    def test_vector_samples(self):
        outs = delayed_forces([np.array([float(k), -float(k)]) for k in range(5)], 2)
        assert_allclose(outs[4], [2.0, -2.0])

    def test_fractional_delay_rounds_up_to_whole_samples(self):
        # The hold takes the force sampled at or before t - tau: 1.5 ms
        # delays by two 1 ms samples and 99.9 ms by 100.
        cfg = default_config("case1-linear", t_end=0.5)

        def run(tau):
            series, _, _, _ = run_loop(replace(cfg, surrogate=replace(cfg.surrogate, delay_tau=tau)))
            return series

        for tau, same in ((0.0015, 0.002), (0.0999, 0.1)):
            a, b = run(tau), run(same)
            assert all(np.array_equal(a.channel(ch), b.channel(ch)) for ch in a.channels), tau
        assert not np.array_equal(run(0.0015).channel("f_heave"), run(0.001).channel("f_heave"))


class TestMeasurementNoise:
    def test_measure_adds_the_scaled_raw_draw_bit_for_bit(self):
        # the block prepare draws is scaled once per channel group, so
        # step k reads the generator's outputs plus std times row k of
        # the raw default_rng(seed) draw, forces first
        f0, d0 = np.array([0.3, -1.2]), np.array([0.01, -0.02])

        class Constant:
            def outputs(self):
                return f0.copy(), d0.copy()

        sur = SurrogateSession(Constant(), disp_noise_std=1e-5, force_noise_std=1e-4, seed=7)
        sur.prepare(50, 2)
        eps = np.random.default_rng(7).standard_normal((50, 4))
        for k in range(50):
            f, d = sur.measure(k)
            assert np.array_equal(f, f0 + 1e-4 * eps[k, :2]), k
            assert np.array_equal(d, d0 + 1e-5 * eps[k, 2:]), k


class TestLossInjector:
    def test_zero_rate_never_drops(self):
        inj = LossInjector(0.0, seed=1)
        assert not any(inj.drop() for _ in range(1000))

    def test_deterministic_for_seed(self):
        a = [LossInjector(0.3, seed=5).drop() for _ in range(200)]
        b = [LossInjector(0.3, seed=5).drop() for _ in range(200)]
        assert a == b

    def test_approximate_rate(self):
        inj = LossInjector(0.1, seed=2)
        drops = sum(inj.drop() for _ in range(10_000))
        assert 800 <= drops <= 1200


class TestEchoGenerator:
    def test_commanded_sinusoid_force(self):
        cfg = default_config("case1-linear")
        aero, span = cfg.aero, cfg.span
        dt = 1e-3
        om = 17.64

        def force_eval(t, x, v):
            return np.array([span * linear_se_force(x[0], v[0], aero)])

        gen = EchoGenerator(force_eval, dt, 1, x0=np.array([0.0]))
        prev_cmd = 0.0
        for k in range(500):
            f, d = gen.outputs()
            cmd = gen.cmd[0]
            vel = (cmd - prev_cmd) / dt if k > 0 else 0.0
            assert f[0] == pytest.approx(
                span * linear_se_force(cmd, vel, aero), abs=1e-12
            )
            assert d[0] == cmd
            prev_cmd = cmd
            gen.receive_command(np.array([math.sin(om * (k + 1) * dt)]))
            gen.advance()


def zero_session(n_samples=50, estimator="kf"):
    cfg = default_config("case1-linear", estimator=estimator)
    cfg = replace(
        cfg,
        t_end=(n_samples - 1) * cfg.dt,
        x0_disp=(0.0,),
        x0_vel=(0.0,),
        surrogate=replace(cfg.surrogate, disp_noise_std=0.0, force_noise_std=0.0),
    )
    return cfg, build_estimator_session(cfg), build_surrogate_session(cfg)


class TestSessions:
    def test_zero_force_zero_init_all_zero_commands(self):
        cfg, est, sur = zero_session()
        series, sstats, pstats = run_udp_pair(cfg, est, sur)
        assert np.all(series.channel("x_heave") == 0.0)
        assert np.all(series.channel("f_heave") == 0.0)
        assert sstats.retries == 0 and pstats.retries == 0

    def test_udp_equals_monolithic_case1(self):
        cfg = default_config("case1-linear", t_end=2.0)
        mono, _, _, _ = run_loop(cfg)
        udp, _, _, _ = run_loop(replace(cfg, mode="udp"))
        for ch in ("x_heave", "xdot_heave", "f_heave"):
            m = compare_series(mono, udp, ch)
            assert m.rms_error <= 1e-9 * max(1.0, np.abs(mono.channel(ch)).max())

    @pytest.mark.parametrize(
        "case, loss_rate",
        [
            pytest.param(case, loss_rate, id=f"{case}-lossy" if loss_rate else case)
            for loss_rate in (0.0, 0.05)
            for case in ("case1-linear", "case1-nonlinear", "case2dof")
        ],
    )
    def test_mode_equivalence_all_cases(self, case, loss_rate):
        # 5% loss per endpoint with a 10 ms timeout is recoverable, and a
        # recovered session must give the clean trajectory bit for bit
        cfg = default_config(case, t_end=1.0)
        mono, _, _, _ = run_loop(cfg)
        if loss_rate:
            cfg = replace(cfg, cosim=replace(cfg.cosim, loss_rate=loss_rate, timeout=0.01))
        udp, sstats, pstats, _ = run_loop(replace(cfg, mode="udp"))
        assert mono.channels == udp.channels
        for ch in mono.channels:
            assert np.array_equal(mono.channel(ch), udp.channel(ch)), ch
        if loss_rate:
            assert sstats.lost > 0 and pstats.lost > 0

    def test_loss_recovery_trajectory_unchanged(self):
        cfg0, est0, sur0 = zero_session(n_samples=200)
        clean, _, _ = run_udp_pair(cfg0, est0, sur0)

        cfg1, est1, sur1 = zero_session(n_samples=200)
        lossy, sstats, pstats = run_udp_pair(
            cfg1,
            est1,
            sur1,
            server_loss=LossInjector(0.1, seed=3),
            surrogate_loss=LossInjector(0.1, seed=4),
        )
        assert sstats.lost > 0 or pstats.lost > 0
        assert pstats.retries > 0 or sstats.retries > 0
        assert np.array_equal(clean.channel("x_heave"), lossy.channel("x_heave"))
        assert len(lossy) == 200

    def test_lossless_statistics_conserve(self):
        cfg, est, sur = zero_session(n_samples=120)
        _, sstats, pstats = run_udp_pair(cfg, est, sur)
        # every datagram one peer sent was consumed by the other side as
        # accepted, stale, duplicate, or undecodable
        assert pstats.sent == sstats.received + sstats.stale + sstats.duplicates + sstats.decode_errors
        assert sstats.sent == pstats.received + pstats.stale + pstats.duplicates + pstats.decode_errors
        assert pstats.lost == 0 and sstats.lost == 0

    def test_lossy_statistics_accounting(self):
        cfg, est, sur = zero_session(n_samples=150)
        _, sstats, pstats = run_udp_pair(
            cfg,
            est,
            sur,
            server_loss=LossInjector(0.1, seed=6),
            surrogate_loss=LossInjector(0.1, seed=7),
        )
        # delivered >= consumed (a final shutdown resend may land on a
        # closed socket), and nothing is consumed that was not delivered
        for tx, rx in ((pstats, sstats), (sstats, pstats)):
            consumed = rx.received + rx.stale + rx.duplicates + rx.decode_errors
            assert consumed <= tx.sent - tx.lost
            assert tx.sent - tx.lost <= tx.sent

    def test_handshake_mismatch_raises(self):
        # server expects a different dt than the surrogate proposes
        import threading

        from rtahs.cosim import NumericalServer, SurrogateRunner

        cfg, est, sur = zero_session()
        bad = replace(cfg, dt=cfg.dt * 2, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        server = NumericalServer(cfg, est)
        runner = SurrogateRunner(bad, sur, server.address)

        def surrogate_side():
            try:
                runner.run()
            except SessionError:
                pass  # expected: the server never acknowledges

        t = threading.Thread(target=surrogate_side, daemon=True)
        t.start()
        try:
            with pytest.raises(SessionError):
                server.run()
        finally:
            t.join(timeout=5.0)

    def test_server_preserves_partial_series_on_dead_peer(self):
        # A peer that completes the handshake and three exchanges, then
        # goes silent: the server errors out but keeps what it processed.
        import socket as socket_mod
        import threading

        from rtahs.cosim import NumericalServer
        from rtahs.wire import Frame, MsgType, decode_frame, encode_frame

        cfg, est, sur = zero_session(n_samples=50)
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        server = NumericalServer(lcfg, est)
        addr = server.address

        def half_session():
            sock = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_DGRAM)
            sock.settimeout(2.0)
            hs = Frame(
                msg_type=MsgType.HANDSHAKE,
                dof_count=1,
                seq=0,
                sim_time=0.0,
                handshake=session_handshake(lcfg),
            )
            sock.sendto(encode_frame(hs), addr)
            sock.recvfrom(65535)
            for k in range(3):
                meas = Frame(
                    msg_type=MsgType.MEASUREMENT,
                    dof_count=1,
                    seq=k + 1,
                    sim_time=k * lcfg.dt,
                    forces=(0.0,),
                    displacements=(0.0,),
                )
                sock.sendto(encode_frame(meas), addr)
                reply = decode_frame(sock.recvfrom(65535)[0])
                assert reply.msg_type == MsgType.COMMAND and reply.seq == k + 1
            sock.close()

        t = threading.Thread(target=half_session, daemon=True)
        t.start()
        with pytest.raises(SessionError) as err:
            server.run()
        t.join(timeout=5.0)
        assert err.value.partial_series is not None
        assert len(err.value.partial_series) == 3
        assert err.value.last_good_step == 2

    def test_surrogate_resend_exhaustion_reaches_the_caller(self):
        # Loss seed 153 lets the server's handshake reply through and drops
        # its next 27 datagrams, among them the COMMAND for seq 1 and the
        # three re-replies the surrogate's resends ask for within its 80 ms
        # silence budget (one per timeout, as nothing was lost before).  The
        # surrogate gives up first; its own error is what the caller
        # sees, chained to the server's, with the server's partial series
        # attached.
        cfg, est, sur = zero_session(n_samples=50)
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=3))
        with pytest.raises(SessionError) as err:
            run_udp_pair(lcfg, est, sur, server_loss=LossInjector(0.99, seed=153))
        assert "no reply to MEASUREMENT seq 1 within 80 ms (3 resends)" in str(err.value)
        assert isinstance(err.value.__cause__, SessionError)
        assert "peer went silent" in str(err.value.__cause__)
        assert len(err.value.partial_series) == 1

    def test_foreign_sender_is_dropped(self):
        # Well-formed frames with the next sequence number, sent from a
        # third socket in the middle of a run, must be dropped: each
        # endpoint pinned its peer at the handshake.  The MEASUREMENT would
        # otherwise reach the filter, the COMMAND the surrogate.
        import socket as socket_mod
        import threading

        from rtahs.cosim import NumericalServer, SurrogateRunner
        from rtahs.wire import Frame, MsgType, encode_frame

        cfg = default_config("case1-linear", t_end=1.0)
        clean, _, _, _ = run_loop(replace(cfg, mode="udp"))
        server = NumericalServer(cfg, build_estimator_session(cfg), handshake_timeout=5.0)
        sur = build_surrogate_session(cfg)
        intruder = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_DGRAM)
        advance, advanced = sur.advance, []

        def advance_then_intrude():
            advance()
            advanced.append(None)
            if len(advanced) == 101:  # step 100 is done; the server expects seq 102
                meas = Frame(
                    msg_type=MsgType.MEASUREMENT,
                    dof_count=1,
                    seq=102,
                    sim_time=101 * cfg.dt,
                    forces=(5.0,),
                    displacements=(0.05,),
                )
                cmd = Frame(
                    msg_type=MsgType.COMMAND,
                    dof_count=1,
                    seq=102,
                    sim_time=101 * cfg.dt,
                    displacements=(0.05,),
                )
                intruder.sendto(encode_frame(meas), server.address)
                intruder.sendto(encode_frame(cmd), runner.sock.getsockname())

        sur.advance = advance_then_intrude
        runner = SurrogateRunner(cfg, sur, server.address)
        thread = threading.Thread(target=runner.run, daemon=True)
        thread.start()
        try:
            series = server.run()
        finally:
            thread.join(timeout=10.0)
            intruder.close()
        assert not thread.is_alive()
        assert len(advanced) == 101 + (cfg.n_samples - 102)
        for ch in clean.channels:
            assert np.array_equal(series.channel(ch), clean.channel(ch)), ch
        assert server.stats.foreign == 1 and runner.stats.foreign == 1
        assert server.stats.duplicates == 0 and runner.stats.stale == 0

    @pytest.mark.parametrize("sender", ["foreign", "undecodable"])
    def test_chatty_sender_does_not_extend_a_wait(self, sender):
        # A datagram every 20 ms for 1 s, from a third socket or junk
        # from the pinned peer itself: each is skipped, and the 50 ms
        # wait must still end on time instead of starting over.
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        other = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for s in (sock, peer, other):
            s.bind(("127.0.0.1", 0))
        ep = LockstepEndpoint(sock, peer.getsockname(), timeout=0.05, max_retries=0, dof_count=1)
        ep.pinned = True
        chatty = other if sender == "foreign" else peer
        stop = threading.Event()

        def spray():
            for _ in range(50):
                if stop.wait(0.02):
                    return
                chatty.sendto(b"junk", sock.getsockname())

        thread = threading.Thread(target=spray, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            assert ep.recv(0.05) is None
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            thread.join(timeout=5.0)
            for s in (sock, peer, other):
                s.close()
        skipped = ep.stats.foreign if sender == "foreign" else ep.stats.decode_errors
        assert skipped >= 1 and ep.stats.timeouts == 1
        assert elapsed < 0.05 + 0.05

    def test_oversize_datagram_is_a_decode_error(self):
        # The longest frame padded to 1 KB, from the pinned peer.  The read
        # takes one byte past the longest frame, so the datagram fails as
        # a length error instead of reading as the frame it starts with.
        frame = Frame(
            msg_type=MsgType.MEASUREMENT, dof_count=3, seq=1, sim_time=0.0,
            forces=(1.0, 2.0, 3.0), displacements=(4.0, 5.0, 6.0),
        )
        data = encode_frame(frame).ljust(1024, b"\0")
        with pytest.raises(BadLengthError):
            decode_frame(data[:RECV_BUFSIZE])
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for s in (sock, peer):
                s.bind(("127.0.0.1", 0))
            ep = LockstepEndpoint(sock, peer.getsockname(), timeout=0.05, max_retries=0, dof_count=1)
            ep.pinned = True
            peer.sendto(data, sock.getsockname())
            start = time.monotonic()
            assert ep.recv(0.05) is None
            elapsed = time.monotonic() - start
        finally:
            sock.close()
            peer.close()
        assert ep.stats.decode_errors == 1 and ep.stats.timeouts == 1
        assert 0.04 < elapsed < 0.05 + 0.05

    def test_surrogate_timeout_raises_session_error(self):
        cfg, est, sur = zero_session()
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        budget = (lcfg.cosim.max_retries + 1) * lcfg.cosim.timeout

        # Nothing answers the handshake: with no round-trip sample yet the
        # retransmission timeout is the whole timeout, as it always was.
        runner = SurrogateRunner(lcfg, sur, ("127.0.0.1", 9))  # discard port
        with pytest.raises(SessionError) as err:
            runner.run()
        assert err.value.last_good_step is None
        assert runner.stats.retries == lcfg.cosim.max_retries
        assert runner.sock.fileno() == -1

        # A peer that answers the handshake, answers the first measurement
        # only when it is resent, answers the second at once (a round-trip
        # sample, which undoes the backoff) and then goes silent: the third
        # measurement is resent at the estimated timeout, more often than
        # max_retries, and the error comes no earlier than the budget.
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer.bind(("127.0.0.1", 0))
        peer.settimeout(5.0)

        def answer_then_fall_silent():
            data, addr = peer.recvfrom(65535)
            peer.sendto(data, addr)  # the handshake reply echoes the proposal
            peer.recvfrom(65535)  # the first MEASUREMENT seq 1 goes unanswered
            for seq in (1, 2):
                peer.recvfrom(65535)
                cmd = Frame(
                    msg_type=MsgType.COMMAND, dof_count=1, seq=seq, sim_time=0.0,
                    displacements=(0.0,),
                )
                peer.sendto(encode_frame(cmd), addr)

        answering = threading.Thread(target=answer_then_fall_silent, daemon=True)
        answering.start()
        runner = SurrogateRunner(lcfg, zero_session()[2], peer.getsockname())
        sends, send = [], runner.endpoint.send

        def timed_send(frame):
            sends.append((frame.msg_type, frame.seq, time.monotonic()))
            send(frame)

        runner.endpoint.send = timed_send
        try:
            with pytest.raises(SessionError) as err:
                runner.run()
            failed_at = time.monotonic()
        finally:
            answering.join(timeout=5.0)
            peer.close()
        measurements = [t for kind, seq, t in sends if (kind, seq) == (MsgType.MEASUREMENT, 3)]
        assert "no reply to MEASUREMENT seq 3" in str(err.value)
        assert failed_at - measurements[0] >= budget
        assert len(measurements) - 1 > lcfg.cosim.max_retries
        assert measurements[-1] - measurements[0] < budget

    def test_server_without_peer_raises_with_no_good_step(self):
        cfg, est, _ = zero_session()
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        server = NumericalServer(lcfg, est, handshake_timeout=0.05)
        with pytest.raises(SessionError, match="peer went silent") as err:
            server.run()
        assert err.value.last_good_step is None
        assert len(err.value.partial_series) == 0

    def test_late_handshake_repeat_is_stale(self):
        # The server re-replies only to the frame it last answered.  A
        # HANDSHAKE repeated after two exchanges is not that frame: it is
        # dropped, and MEASUREMENT 3 gets COMMAND 3 as its next reply.
        cfg, est, _ = zero_session(n_samples=4)
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        server = NumericalServer(lcfg, est)
        hs = Frame(
            msg_type=MsgType.HANDSHAKE, dof_count=1, seq=0, sim_time=0.0,
            handshake=session_handshake(lcfg),
        )
        bye = Frame(msg_type=MsgType.SHUTDOWN, dof_count=1, seq=5, sim_time=lcfg.t_end)
        replies = []

        def peer():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(2.0)
                for frame in (hs, *map(measurement, range(1, 5)), bye):
                    if frame.seq == 3:
                        sock.sendto(encode_frame(hs), server.address)  # the late repeat
                    sock.sendto(encode_frame(frame), server.address)
                    replies.append(decode_frame(sock.recvfrom(65535)[0]))

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        series = server.run()
        thread.join(timeout=5.0)
        assert [(f.msg_type, f.seq) for f in replies] == [
            (MsgType.HANDSHAKE, 0),
            (MsgType.COMMAND, 1),
            (MsgType.COMMAND, 2),
            (MsgType.COMMAND, 3),
            (MsgType.COMMAND, 4),
            (MsgType.SHUTDOWN, 5),
        ]
        assert len(series) == 4
        st = server.stats
        assert (st.stale, st.duplicates, st.retries) == (1, 0, 0)

    @pytest.mark.parametrize(
        "shape, problem",
        [
            (dict(dof_count=2, forces=(0.0, 0.0), displacements=(0.0, 0.0)), "dof_count 2"),
            (dict(dof_count=1, forces=None, displacements=(0.0,)), "forces None"),
        ],
    )
    def test_server_rejects_a_measurement_of_another_shape(self, shape, problem):
        # MEASUREMENT 1 from the pinned peer has the type and seq the
        # server waits for, but not the session's shape.  It must not
        # reach the filter: a 2-DOF frame made numpy raise there, and one
        # without forces became a NaN force.
        cfg, est, _ = zero_session(n_samples=4)
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        server = NumericalServer(lcfg, est)
        hs = Frame(
            msg_type=MsgType.HANDSHAKE, dof_count=1, seq=0, sim_time=0.0,
            handshake=session_handshake(lcfg),
        )
        meas = Frame(msg_type=MsgType.MEASUREMENT, seq=1, sim_time=0.0, **shape)

        def peer():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(2.0)
                sock.sendto(encode_frame(hs), server.address)
                sock.recvfrom(65535)
                sock.sendto(encode_frame(meas), server.address)

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        try:
            with pytest.raises(SessionError) as err:
                server.run()
        finally:
            thread.join(timeout=5.0)
        assert "MEASUREMENT seq 1 does not fit the 1-DOF session" in str(err.value)
        assert problem in str(err.value)
        assert err.value.last_good_step is None
        assert len(err.value.partial_series) == 0

    def test_surrogate_rejects_a_command_without_displacements(self):
        # COMMAND 1 from the pinned peer carries no block: it must not
        # reach the truth generator as a None command.
        cfg, _, sur = zero_session(n_samples=4)
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer.bind(("127.0.0.1", 0))
        peer.settimeout(2.0)

        def answer_without_displacements():
            data, addr = peer.recvfrom(65535)
            peer.sendto(data, addr)  # the handshake reply echoes the proposal
            peer.recvfrom(65535)  # MEASUREMENT seq 1
            cmd = Frame(msg_type=MsgType.COMMAND, dof_count=1, seq=1, sim_time=0.0)
            peer.sendto(encode_frame(cmd), addr)

        thread = threading.Thread(target=answer_without_displacements, daemon=True)
        thread.start()
        runner = SurrogateRunner(lcfg, sur, peer.getsockname())
        try:
            with pytest.raises(SessionError) as err:
                runner.run()
        finally:
            thread.join(timeout=5.0)
            peer.close()
        assert "COMMAND seq 1 does not fit the 1-DOF session" in str(err.value)
        assert "displacements None" in str(err.value)
        assert err.value.last_good_step is None

    @pytest.mark.parametrize("mode", ["in-process", "udp"])
    def test_benchmark_hooks_see_every_step(self, monkeypatch, mode):
        # bench/spans.py and bench/workloads.py time a run by patching
        # these names; a loop that went round one would stop the bench
        calls = {}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return call

        for owner, name in (
            (cosim.SurrogateSession, "prepare"),
            (cosim.SurrogateSession, "measure"),
            (cosim.SurrogateSession, "advance"),
            (cosim.EstimatorSession, "process"),
            (cosim.LockstepEndpoint, "request"),
            (cosim, "encode_frame"),
            (cosim, "decode_frame"),
            (harness, "run_in_process"),
            (harness, "run_udp_pair"),
        ):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        cfg = default_config("case1-linear", t_end=0.2)
        n = cfg.n_samples
        run_loop(replace(cfg, mode=mode))
        assert calls["prepare"] == 1 and calls["advance"] == n - 1
        assert calls["measure"] == n and calls["process"] == n
        if mode == "udp":
            assert calls["run_udp_pair"] == 1 and calls["request"] == n + 2
            assert calls["encode_frame"] > 0 and calls["decode_frame"] > 0
        else:
            assert calls["run_in_process"] == 1

    def test_surrogate_still_running_has_its_socket_closed(self, monkeypatch):
        # The surrogate stalls on its last command until released, so the
        # server finishes (the shutdown exchange is allowed to fail) and
        # the join times out.
        monkeypatch.setattr(cosim, "JOIN_TIMEOUT", 0.05)
        runners = []

        class RecordedRunner(SurrogateRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

        monkeypatch.setattr(cosim, "SurrogateRunner", RecordedRunner)
        cfg, est, sur = zero_session(n_samples=5)
        lcfg = replace(cfg, cosim=replace(cfg.cosim, timeout=0.02, max_retries=1))
        release, apply_command, commands = threading.Event(), sur.apply_command, []

        def stall_on_last(displacements):
            apply_command(displacements)
            commands.append(None)
            if len(commands) == lcfg.n_samples:
                release.wait(timeout=10.0)

        sur.apply_command = stall_on_last
        try:
            with pytest.raises(SessionError, match="still running") as err:
                run_udp_pair(lcfg, est, sur)
            assert runners[0].sock.fileno() == -1
            assert len(err.value.partial_series) == lcfg.n_samples
        finally:
            release.set()
        for thread in threading.enumerate():
            if thread.name == "surrogate":
                thread.join(timeout=5.0)


class FakeLink:
    """A socket and a clock for one endpoint: every frame sent is
    answered by a COMMAND of the same seq ``rtt`` later, unless its send
    index is in ``drop``.  A wait that sees nothing advances the clock by
    its whole timeout."""

    PEER = ("127.0.0.1", 1)

    def __init__(self, rtt: float, drop=()):
        self.now = 0.0
        self.rtt = rtt
        self.drop = set(drop)
        self.sends: list[float] = []
        self.inbox: list[tuple[float, bytes]] = []
        self.timeouts: list[float] = []

    def clock(self) -> float:
        return self.now

    def ready(self, timeout: float) -> bool:
        self.timeouts.append(timeout)
        self.inbox.sort()
        if not self.inbox or self.inbox[0][0] > self.now + timeout:
            self.now += timeout
            return False
        self.now = max(self.now, self.inbox[0][0])
        return True

    def sendto(self, data: bytes, addr) -> None:
        if len(self.sends) not in self.drop:
            seq = decode_frame(data).seq
            reply = Frame(
                msg_type=MsgType.COMMAND, dof_count=1, seq=seq, sim_time=0.0,
                displacements=(0.0,),
            )
            self.inbox.append((self.now + self.rtt, encode_frame(reply)))
        self.sends.append(self.now)

    def recvfrom(self, bufsize: int, flags: int):
        assert flags == socket.MSG_DONTWAIT
        return self.inbox.pop(0)[1], self.PEER


class VanishingLink(FakeLink):
    """Reports a datagram ``after`` seconds into the first wait that the
    read then finds gone, as when the kernel drops it in between."""

    def __init__(self, after: float):
        super().__init__(rtt=0.0)
        self.inbox.append((after, b""))

    def recvfrom(self, bufsize: int, flags: int):
        self.inbox.pop(0)
        raise BlockingIOError


def measurement(seq: int) -> Frame:
    return Frame(
        msg_type=MsgType.MEASUREMENT, dof_count=1, seq=seq, sim_time=0.0,
        forces=(0.0,), displacements=(0.0,),
    )


class TestRetransmitTimer:
    # Round trips and waits are fractions of the floor, so each test keeps
    # its shape whatever the floor is; a first sample R gives 3 R.
    RTT = RTO_MIN / 4

    def test_rfc6298_arithmetic(self):
        timer = RetransmitTimer(1.0)
        assert timer.srtt is None and timer.rto == 1.0
        timer.sample(0.010)  # first sample: SRTT = R, RTTVAR = R / 2
        assert timer.srtt == 0.010 and timer.rttvar == 0.005
        assert timer.rto == pytest.approx(0.030)
        timer.sample(0.002)  # RTTVAR from the old SRTT, then SRTT
        assert timer.rttvar == pytest.approx(0.75 * 0.005 + 0.25 * 0.008)
        assert timer.srtt == pytest.approx(0.875 * 0.010 + 0.125 * 0.002)
        assert timer.rto == pytest.approx(timer.srtt + 4 * timer.rttvar)

    def test_rto_is_clamped_to_the_floor_and_the_timeout(self):
        fast, slow = RetransmitTimer(0.1), RetransmitTimer(0.1)
        fast.sample(1e-4)
        slow.sample(0.05)
        assert fast.rto == RTO_MIN and slow.rto == 0.1

    def endpoint(self, link: FakeLink, timeout=0.1, max_retries=3) -> LockstepEndpoint:
        ep = LockstepEndpoint(link, link.PEER, timeout, max_retries, dof_count=1)
        ep.clock, ep.ready = link.clock, link.ready
        return ep

    def test_first_exchange_waits_the_whole_timeout(self):
        link = FakeLink(rtt=self.RTT, drop={0})
        ep = self.endpoint(link)
        ep.request(measurement(1), MsgType.COMMAND, 1)
        assert link.sends == [0.0, pytest.approx(0.1)]
        assert ep.stats.retries == 1 and ep.timer.srtt is None  # Karn's rule

    def test_link_without_loss_waits_the_whole_timeout(self):
        link = FakeLink(rtt=self.RTT, drop={1})
        ep = self.endpoint(link)
        ep.request(measurement(1), MsgType.COMMAND, 1)
        assert ep.timer.rto == RTO_MIN and not ep.lossy
        start = link.now
        ep.request(measurement(2), MsgType.COMMAND, 2)
        assert link.sends[2] - start == pytest.approx(0.1)
        assert ep.lossy

    def lossy_endpoint(self, link: FakeLink, **kwargs) -> LockstepEndpoint:
        """An endpoint whose first exchange lost its first frame and whose
        second, clean one gave a round-trip sample."""
        link.drop.add(0)
        ep = self.endpoint(link, **kwargs)
        ep.request(measurement(1), MsgType.COMMAND, 1)
        ep.request(measurement(2), MsgType.COMMAND, 2)
        assert ep.lossy and ep.timer.srtt == pytest.approx(link.rtt)
        return ep

    def test_karn_rule_and_resend_at_the_estimate(self):
        link = FakeLink(rtt=0.3 * RTO_MIN, drop={3})
        ep = self.lossy_endpoint(link)
        assert ep.timer.rto == RTO_MIN
        start, waits = link.now, len(link.timeouts)
        ep.request(measurement(3), MsgType.COMMAND, 3)  # resent: no sample
        assert link.timeouts[waits] == RTO_MIN  # exactly the estimate
        assert link.sends[4] - start == pytest.approx(RTO_MIN)
        assert ep.timer.srtt == pytest.approx(0.3 * RTO_MIN) and ep.stats.retries == 2
        link.rtt = RTO_MIN / 2
        ep.request(measurement(4), MsgType.COMMAND, 4)  # clean again
        assert ep.timer.srtt == pytest.approx((0.875 * 0.3 + 0.125 * 0.5) * RTO_MIN)

    def test_backoff_doubles_to_the_timeout_until_the_budget_is_spent(self):
        link = FakeLink(rtt=self.RTT, drop=set(range(3, 100)))
        ep = self.lossy_endpoint(link, timeout=0.1, max_retries=3)
        start = link.now
        # from the floor the waits double up to the 100 ms timeout, and a
        # frame is resent whenever a wait ends inside the 400 ms budget
        gaps, wait = [], RTO_MIN
        while sum(gaps) + wait < 0.4:
            gaps.append(wait)
            wait = min(2 * wait, 0.1)
        with pytest.raises(SessionError, match=rf"within 400 ms \({len(gaps)} resends\)"):
            ep.request(measurement(3), MsgType.COMMAND, 3)
        assert np.diff(link.sends[3:]) == pytest.approx(gaps)
        assert link.now - start == pytest.approx(0.4)

    def test_next_exchange_keeps_the_backed_off_timeout(self):
        link = FakeLink(rtt=self.RTT, drop={3, 4, 5})
        ep = self.lossy_endpoint(link)
        ep.request(measurement(3), MsgType.COMMAND, 3)  # waits 1, 2 and 4 floors
        assert ep.timer.rto == pytest.approx(8 * RTO_MIN)
        start = link.now
        link.drop = {7}
        ep.request(measurement(4), MsgType.COMMAND, 4)
        assert link.sends[8] - start == pytest.approx(8 * RTO_MIN)

    def test_round_trip_above_the_floor_is_resent_early_only_once(self):
        # RFC 6298 5.5-5.7: the backed-off timeout holds until a reply to
        # a frame that was not resent gives a sample.  Starting each
        # exchange again from the floor would resend every one.
        link = FakeLink(rtt=self.RTT)
        ep = self.lossy_endpoint(link)
        assert ep.timer.rto == RTO_MIN
        link.rtt = 1.5 * RTO_MIN
        for seq in range(3, 13):
            ep.request(measurement(seq), MsgType.COMMAND, seq)
        assert ep.stats.retries == 2  # the lost first frame, then seq 3 once
        assert ep.timer.rto > 1.5 * RTO_MIN

    def test_datagram_gone_before_the_read_ends_the_wait_on_its_deadline(self):
        link = VanishingLink(after=0.01)
        ep = self.endpoint(link)
        assert ep.recv(0.05) is None
        assert link.now == pytest.approx(0.05)
        assert link.timeouts == [0.05, pytest.approx(0.04)]
        assert ep.stats.timeouts == 1 and ep.stats.decode_errors == 0


class TestYieldBeforeTheWait:
    """The wait of a lossy endpoint on real loopback sockets: yield, look
    without waiting, and only then arm the timed ``select``."""

    @pytest.fixture
    def pair(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for s in (sock, peer):
                s.bind(("127.0.0.1", 0))
            ep = LockstepEndpoint(sock, peer.getsockname(), timeout=0.05, max_retries=0, dof_count=1)
            ep.pinned = ep.lossy = True
            yield ep, peer
        finally:
            sock.close()
            peer.close()

    @staticmethod
    def recorded_waits(monkeypatch) -> list[float]:
        waits, real = [], select.select

        def recorded(rlist, wlist, xlist, timeout):
            waits.append(timeout)
            return real(rlist, wlist, xlist, timeout)

        monkeypatch.setattr(cosim.select, "select", recorded)
        return waits

    def test_queued_datagram_is_read_without_a_timed_wait(self, pair, monkeypatch):
        ep, peer = pair
        peer.sendto(encode_frame(measurement(7)), ep.sock.getsockname())
        assert select.select((ep.sock,), (), (), 1.0)[0]  # queued before the wait
        waits = self.recorded_waits(monkeypatch)
        assert ep.recv(0.05).seq == 7
        assert waits == [0.0]

    @pytest.mark.parametrize("yield_s", [None, 0.01], ids=["yield", "slow-yield"])
    def test_silent_wait_ends_on_its_deadline_counting_the_yield(
        self, pair, monkeypatch, yield_s
    ):
        ep, _ = pair
        if yield_s is not None:  # the CPU went to another thread for 10 ms
            monkeypatch.setattr(cosim.os, "sched_yield", lambda: time.sleep(yield_s))
        waits = self.recorded_waits(monkeypatch)
        start = time.monotonic()
        assert not ep.ready(0.03)
        elapsed = time.monotonic() - start
        assert waits[0] == 0.0 and len(waits) == 2
        assert 0.0 < waits[1] <= 0.03 - (yield_s or 0.0)
        assert 0.03 <= elapsed < 0.03 + 0.05

    @pytest.mark.parametrize("loss_rate", [0.0, 0.1], ids=["clean", "lossy"])
    def test_only_the_lossy_surrogate_yields(self, monkeypatch, loss_rate):
        # The server's ``answer`` and a link that has lost nothing wait as
        # before: one timed ``select``, no yield.
        yielders: list[str] = []
        real = os.sched_yield

        def counted():
            yielders.append(threading.current_thread().name)
            real()

        monkeypatch.setattr(cosim.os, "sched_yield", counted)
        cfg, est, sur = zero_session(n_samples=200)
        losses = [LossInjector(loss_rate, seed=s) for s in (3, 4)]
        _, sstats, pstats = run_udp_pair(cfg, est, sur, *losses)
        if loss_rate:
            assert pstats.retries > 0 and len(yielders) > 0
            assert set(yielders) == {"surrogate"}
        else:
            assert sstats.retries == pstats.retries == 0 and yielders == []


class TestDelayedLoop:
    def test_delay_applies_to_force_channel_only(self):
        cfg = default_config("case2dof", t_end=1.0)
        cfg_d = replace(cfg, surrogate=replace(cfg.surrogate, delay_tau=0.1))
        base, _, _, _ = run_loop(cfg)
        delayed, _, _, _ = run_loop(cfg_d)
        n_delay = round(0.1 / cfg.dt)
        f_base = base.channel("f_heave")
        f_del = delayed.channel("f_heave")
        # after the holding window the delayed force stream is the base
        # stream shifted by tau (identical surrogate trajectory and RNG)
        assert_allclose(f_del[n_delay:], f_base[: len(f_base) - n_delay], atol=1e-12)
        assert np.all(f_del[: n_delay + 1] == f_base[0])
