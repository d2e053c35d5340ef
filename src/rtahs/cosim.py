"""Lockstep co-simulation loop: a numerical-substructure server (the
estimator side) exchanging frames with a surrogate physical-substructure
client (the force-generator side) over UDP, with optional delay, noise
and packet-loss fault injection.

The loop is strictly alternating: the surrogate opens every step with a
MEASUREMENT and blocks until the matching COMMAND arrives, so with the
resend policy the coupled result is deterministic even though UDP is
not.  ``SurrogateSession.run`` is the one step loop of both modes.  Over
UDP the surrogate sends each measurement with ``request``, resending it
until its reply comes, and the server takes it with ``answer``, which
re-replies only to the frame it last answered and drops every other.  So
the UDP-split and monolithic loops agree to the last bit under any
recoverable loss.
"""

from __future__ import annotations

import os
import random
import select
import socket
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .cases import CaseConfig
from .dynamics import DofId
from .estimators import (
    FilterState,
    TransitionModel,
    aekf_step,
    ekf_step,
    update,
)
from .integrators import TimeSeries, dof_series
from .wire import (
    ESTIMATOR_IDS,
    MAX_FRAME_LEN,
    Frame,
    FrameDecodeError,
    Handshake,
    MsgType,
    decode_frame,
    encode_frame,
)

# Floor of the retransmission timeout: half of the shipped dt = 1 ms, so
# a lost datagram is resent inside the step budget.  On the 1%-loss
# case1-linear UDP loop (10 ms timeout, 30-s runs pinned to one CPU of a
# 2-vCPU VM, ten alternating pairs) the step p99 read 2,404 us with a
# 2 ms floor and 772 us with this one.  A timer due before the 4 ms
# kernel tick costs a wait about 10 us there (tools/wait_cost.py), so a
# lossy endpoint yields to its peer before it arms one
# (``LockstepEndpoint.ready``).
RTO_MIN = 0.0005
RTT_ALPHA = 1 / 8  # gain of the smoothed round trip (RFC 6298)
RTT_BETA = 1 / 4  # gain of its mean deviation
JOIN_TIMEOUT = 10.0  # seconds run_udp_pair waits for the surrogate thread
# One byte past the longest frame: a longer datagram still reads longer
# than any frame and fails decoding as a length error.
RECV_BUFSIZE = MAX_FRAME_LEN + 1
# The types of the frames with data blocks, looked up once.
_MEASUREMENT = MsgType.MEASUREMENT
_DATA = (_MEASUREMENT, MsgType.COMMAND)


def _last_good_step(want_seq: int) -> Optional[int]:
    """The step completed before frame ``want_seq`` was due (frame k + 1
    carries step k), None before the first."""
    return want_seq - 2 if want_seq >= 2 else None


class SessionError(RuntimeError):
    """Lockstep session failed; ``last_good_step`` is the most recent
    fully processed exchange, if any, and ``partial_series`` holds
    whatever trajectory had been recorded when the session died."""

    def __init__(
        self,
        message: str,
        last_good_step: Optional[int] = None,
        partial_series=None,
    ):
        super().__init__(message)
        self.last_good_step = last_good_step
        self.partial_series = partial_series


class LossInjector:
    """Deterministic (seeded) Bernoulli packet suppression."""

    def __init__(self, rate: float, seed: int = 0):
        self.rate = rate
        self._rng = random.Random(seed)

    def drop(self) -> bool:
        return self.rate > 0.0 and self._rng.random() < self.rate


@dataclass
class SessionStats:
    """Datagram accounting for one endpoint of a session."""

    sent: int = 0  # frames handed to the transport, including suppressed ones
    lost: int = 0  # frames suppressed by the loss injector
    received: int = 0  # valid frames accepted and processed
    stale: int = 0  # out-of-sequence frames, dropped
    duplicates: int = 0  # repeats of the last processed sequence number
    decode_errors: int = 0
    retries: int = 0  # resends of our own last outbound frame
    timeouts: int = 0
    foreign: int = 0  # datagrams from an address other than the peer, dropped


def session_handshake(cfg: CaseConfig) -> Handshake:
    """The session a config proposes, and the only one it accepts."""
    return Handshake(
        dt=cfg.dt,
        t_end=cfg.t_end,
        dof_mask=sum(1 << int(d) for d in set(cfg.dofs)),
        estimator_id=ESTIMATOR_IDS[cfg.estimator],
    )


def _shutdown_frame(cfg: CaseConfig) -> Frame:
    """The SHUTDOWN frame that ends a session of ``cfg``."""
    return Frame(MsgType.SHUTDOWN, cfg.n_dofs, cfg.n_samples + 1, cfg.t_end)


class RetransmitTimer:
    """Retransmission timeout from the measured round trip (Jacobson
    1988, RFC 6298).

    ``rto`` is ``ceiling`` until the first sample, then
    ``srtt + 4 * rttvar`` clamped to ``[RTO_MIN, ceiling]``.  An expired
    wait backs it off until the next sample (RFC 6298 sections 5.5-5.7).
    """

    def __init__(self, ceiling: float):
        self.ceiling = ceiling
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = ceiling

    def sample(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt, self.rttvar = rtt, rtt / 2
        else:
            self.rttvar = (1 - RTT_BETA) * self.rttvar + RTT_BETA * abs(self.srtt - rtt)
            self.srtt = (1 - RTT_ALPHA) * self.srtt + RTT_ALPHA * rtt
        self.rto = min(max(self.srtt + 4 * self.rttvar, RTO_MIN), self.ceiling)


class LockstepEndpoint:
    """One side of the alternating exchange: socket, peer address and
    statistics.

    Each side pins its peer at the handshake: the server the sender of
    the handshake it accepts, the surrogate the sender of the reply.
    From then on datagrams from any other address are dropped and
    counted as ``foreign``.

    The socket stays blocking and never gets a timeout: :meth:`ready`
    waits, and the read that follows does not block.

    The frame that a wait returns has passed :meth:`_checked`.
    """

    def __init__(
        self,
        sock: socket.socket,
        peer: Optional[tuple[str, int]],
        timeout: float,
        max_retries: int,
        dof_count: int,
        loss: Optional[LossInjector] = None,
    ):
        self.sock = sock
        self.peer = peer
        self.dof_count = dof_count
        self.pinned = False
        self.source: Optional[tuple[str, int]] = None  # sender of the last frame
        self.timeout = timeout
        self.max_retries = max_retries
        self.loss = loss
        self.stats = SessionStats()
        self.timer = RetransmitTimer(timeout)
        self.lossy = False  # a wait of this endpoint has expired before
        self.clock = time.monotonic

    def send(self, frame: Frame) -> None:
        self.stats.sent += 1
        if self.loss is not None and self.loss.drop():
            self.stats.lost += 1
            return
        self.sock.sendto(encode_frame(frame), self.peer)

    def abort(self, bye: Frame) -> None:
        """Send a pinned peer ``bye``, a SHUTDOWN, when this side fails
        mid-session, so that the peer's wait fails at once on it.  It is
        not resent, and a send error is suppressed: the failure that ended
        the session is the one to report."""
        if self.pinned:
            with suppress(OSError):
                self.send(bye)

    def _checked(self, frame: Frame) -> Frame:
        """``frame``, counted as received, unless it is a data frame that
        lacks the session's ``dof_count`` or a block its type needs (both
        on a MEASUREMENT, the displacements on a COMMAND): then a
        SessionError that names the frame."""
        mtype = frame.msg_type
        if mtype in _DATA and (
            frame.dof_count != self.dof_count
            or frame.displacements is None
            or frame.forces is None and mtype is _MEASUREMENT
        ):
            raise SessionError(
                f"{mtype.name} seq {frame.seq} does not fit the {self.dof_count}-DOF session: "
                f"dof_count {frame.dof_count}, forces {frame.forces}, "
                f"displacements {frame.displacements}",
                last_good_step=_last_good_step(frame.seq),
            )
        self.stats.received += 1
        return frame

    def ready(self, timeout: float) -> bool:
        """Whether a datagram has come within ``timeout`` seconds.

        ``select`` waits to the microsecond, where a socket timeout waits
        whole milliseconds.  It refuses file descriptors of 1024 and
        above.  A lossy endpoint, which waits a retransmission timeout
        shorter than the kernel tick, first yields the CPU once and looks
        at the socket without waiting: a peer on the same CPU answers
        during the yield, and no timer is armed.  Only if nothing has come
        does it arm the timed ``select``, for what is left of ``timeout``.
        ``os.sched_yield`` exists on Unix only."""
        socks = (self.sock,)
        if self.lossy:
            deadline = self.clock() + timeout
            os.sched_yield()
            if select.select(socks, (), (), 0.0)[0]:
                return True
            timeout = max(deadline - self.clock(), 0.0)
        return bool(select.select(socks, (), (), timeout)[0])

    def recv(self, timeout: float) -> Optional[Frame]:
        """One receive attempt within ``timeout`` seconds; returns None
        on timeout.  Foreign and undecodable datagrams are skipped, and
        however many come, the wait ends ``timeout`` after it began."""
        start, wait = self.clock(), timeout
        while wait > 0.0 and self.ready(wait):
            try:
                data, addr = self.sock.recvfrom(RECV_BUFSIZE, socket.MSG_DONTWAIT)
                if self.pinned and addr != self.peer:
                    self.stats.foreign += 1
                else:
                    frame = decode_frame(data)
                    self.source = addr
                    return frame
            except BlockingIOError:  # reported ready, then dropped by the kernel
                pass
            except FrameDecodeError:
                self.stats.decode_errors += 1
            wait = start + timeout - self.clock()
        self.stats.timeouts += 1
        return None

    def request(self, outbound: Frame, want_type: MsgType, want_seq: int) -> Frame:
        """Send ``outbound`` and wait for the matching reply.

        The frame is resent each time the wait expires, and each expiry
        doubles the wait up to ``timeout`` and keeps it as the
        retransmission timeout.  The first wait is the retransmission
        timeout once a wait of this endpoint has expired, and the whole
        ``timeout`` on a link that has not lost a frame, which has
        nothing to recover and so never yields or arms a sub-tick timer
        (:meth:`ready`).  The request fails only when no reply has come
        within ``(max_retries + 1) * timeout`` of the first send.  A reply
        to a frame that was never resent is a round-trip sample (Karn's
        rule), and only a sample undoes the backoff."""
        clock = self.clock
        self.send(outbound)
        start = clock()
        budget = (self.max_retries + 1) * self.timeout
        deadline = start + budget
        wait = self.timer.rto if self.lossy else self.timeout
        # the first wait is exactly the estimate, which
        # ``start + wait - start`` need not be
        remaining = min(wait, budget)
        expiry = start + remaining
        resends = 0
        while True:
            frame = self.recv(remaining)
            if frame is None:
                if expiry >= deadline:
                    raise SessionError(
                        f"no reply to {outbound.msg_type.name} seq {outbound.seq} "
                        f"within {budget * 1e3:.4g} ms ({resends} resends)",
                        last_good_step=_last_good_step(want_seq),
                    )
                self.lossy = True
                self.timer.rto = wait = min(2 * wait, self.timeout)
                expiry = min(clock() + wait, deadline)
                resends += 1
                self.stats.retries += 1
                self.send(outbound)
            elif frame.seq < want_seq:
                self.stats.stale += 1
            elif frame.msg_type != want_type or frame.seq != want_seq:
                raise SessionError(
                    f"unexpected {frame.msg_type.name} seq {frame.seq} while "
                    f"waiting for {want_type.name} seq {want_seq}"
                )
            else:
                if not resends:
                    self.timer.sample(clock() - start)
                return self._checked(frame)
            # a wait of zero would not look at the socket
            remaining = max(expiry - clock(), 1e-6)

    def answer(
        self, reply: Optional[Frame], want_type: MsgType, want_seq: int, max_timeouts: int
    ) -> Frame:
        """Send ``reply``, the answer to frame ``want_seq - 1`` (None
        before the handshake), and wait for frame ``want_seq`` of
        ``want_type``.  Frame ``want_seq - 1`` again means the reply was
        lost: it is resent.  A SHUTDOWN from the pinned peer ends the
        session at once, every other frame is stale and dropped, and
        ``max_timeouts`` silent waits of ``timeout`` end the session."""
        if reply is not None:
            self.send(reply)
        silent = 0
        while True:
            frame = self.recv(self.timeout)
            if frame is None:
                silent += 1
                if silent >= max_timeouts:
                    raise SessionError(
                        "peer went silent", last_good_step=_last_good_step(want_seq)
                    )
            elif frame.seq == want_seq - 1:
                self.stats.duplicates += 1
                self.stats.retries += 1
                self.send(reply)
            elif frame.msg_type != want_type or frame.seq != want_seq:
                if frame.msg_type is MsgType.SHUTDOWN and self.pinned:
                    raise SessionError(
                        f"unexpected SHUTDOWN seq {frame.seq} while waiting for "
                        f"{want_type.name} seq {want_seq}",
                        last_good_step=_last_good_step(want_seq),
                    )
                self.stats.stale += 1
            else:
                return self._checked(frame)


class EstimatorSession:
    """Per-step numerical work of the estimator side, shared verbatim by
    the UDP server and the in-process runner.

    Step k fuses the measurement taken at t_k: the very first sample
    only updates the configured initial state, later samples are
    predicted forward with the previous step's force (held over the
    interval) before the update.  The commanded target is the posterior
    displacement estimate.  The step is the EKF's (on a linear model, the
    Kalman filter's), or with a ``forgetting_factor`` the adaptive EKF's.
    """

    def __init__(
        self,
        model: TransitionModel,
        init: FilterState,
        dofs: tuple[DofId, ...],
        dt: float,
        n_samples: int,
        forgetting_factor: Optional[float] = None,
        trace_covariance: bool = False,
    ):
        self.model = model
        self.fs = init
        self.dofs = dofs
        self.dt = dt
        if forgetting_factor is None:
            self._step = ekf_step
        else:
            self._step = partial(aekf_step, forgetting_factor=forgetting_factor)
        self._prev_forces = np.zeros(len(dofs))
        n = len(dofs)
        self._xs = np.zeros((n_samples, n))
        self._vs = np.zeros((n_samples, n))
        self._fs_in = np.zeros((n_samples, n))
        self._steps_done = 0
        self.cov_min_eig: list[float] = [] if trace_covariance else None

    def process(self, k: int, forces: np.ndarray, displacements: np.ndarray) -> np.ndarray:
        """Fuse the k-th measurement and return the command displacements."""
        z = np.asarray(displacements, dtype=float)
        f = np.asarray(forces, dtype=float)
        if k == 0:
            self.fs = update(self.fs, z, self.model)
        else:
            self.fs = self._step(self.fs, self._prev_forces, z, self.model)
        self._prev_forces = f
        self._xs[k] = self.fs.x[0::2]
        self._vs[k] = self.fs.x[1::2]
        self._fs_in[k] = f
        self._steps_done = k + 1
        if self.cov_min_eig is not None:
            self.cov_min_eig.append(float(np.linalg.eigvalsh(self.fs.P)[0]))
        return self._xs[k].copy()

    def series(self) -> TimeSeries:
        n = self._steps_done
        labels = tuple(d.label for d in self.dofs)
        return dof_series(
            self.dt, labels, self._xs[:n].copy(), self._vs[:n].copy(), self._fs_in[:n].copy()
        )


class SurrogateSession:
    """Per-step work of the physical-substructure side: read the truth
    generator, add measurement noise, delay the force channel by
    ``delay_steps`` samples (holding the first until then), and feed
    commands back to the generator."""

    def __init__(
        self,
        generator,
        disp_noise_std: float = 0.0,
        force_noise_std: float = 0.0,
        delay_steps: int = 0,
        seed: int = 0,
    ):
        self.generator = generator
        self.disp_noise_std = disp_noise_std
        self.force_noise_std = force_noise_std
        self.rng = np.random.default_rng(seed)
        self._forces = deque(maxlen=delay_steps + 1)

    def prepare(self, n_samples: int, n_dofs: int) -> None:
        """Pre-draw the per-step noise block, force columns then
        displacement columns, and scale each group by its std once, in
        place, so that :meth:`measure` of step k only adds row k of each
        group: the same products, so the same bits.  ``prepare`` must run
        first."""
        block = self.rng.standard_normal((n_samples, 2 * n_dofs))
        block[:, :n_dofs] *= self.force_noise_std
        block[:, n_dofs:] *= self.disp_noise_std
        self._force_noise, self._disp_noise = block[:, :n_dofs], block[:, n_dofs:]

    def measure(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The noisy measurement of step k: the generator's outputs plus
        row k of the pre-scaled noise, one add per channel group, and
        the force of ``delay_steps`` steps before."""
        forces, disps = self.generator.outputs()
        self._forces.append(forces + self._force_noise[k])
        return self._forces[0], disps + self._disp_noise[k]

    def apply_command(self, displacements) -> None:
        self.generator.receive_command(displacements)

    def advance(self) -> None:
        self.generator.advance()

    def run(self, n_samples: int, n_dofs: int, exchange) -> None:
        """The step loop of both modes: measure step k, apply the command
        displacements ``exchange(k, forces, disps)`` returns, and advance
        the truth except after the last sample."""
        self.prepare(n_samples, n_dofs)
        for k in range(n_samples):
            forces, disps = self.measure(k)
            self.apply_command(exchange(k, forces, disps))
            if k < n_samples - 1:
                self.advance()


def run_in_process(
    est: EstimatorSession, sur: SurrogateSession, n_samples: int
) -> TimeSeries:
    """Monolithic loop: the surrogate's step loop exchanging with the
    estimator directly instead of through frames."""
    sur.run(n_samples, len(est.dofs), est.process)
    return est.series()


class NumericalServer:
    """Estimator-side endpoint of the UDP-split loop.

    ``handshake_timeout`` bounds how long the freshly bound server waits
    for a peer to appear; once the session is running, silence is judged
    by the much tighter lockstep budget.
    """

    def __init__(
        self,
        cfg: CaseConfig,
        session: EstimatorSession,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        loss: Optional[LossInjector] = None,
        handshake_timeout: float = 60.0,
    ):
        self.cfg = cfg
        self.session = session
        self.handshake_timeout = handshake_timeout
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.bind(bind)
        except OSError:
            self.sock.close()
            raise
        self.endpoint = LockstepEndpoint(
            self.sock, None, cfg.cosim.timeout, cfg.cosim.max_retries, cfg.n_dofs, loss
        )

    @property
    def address(self) -> tuple[str, int]:
        return self.sock.getsockname()

    @property
    def stats(self) -> SessionStats:
        return self.endpoint.stats

    def run(self) -> TimeSeries:
        """Serve one session.  When the estimator fails after the
        handshake, the pinned peer is sent a SHUTDOWN before the socket
        closes, so that its request fails at once on the unexpected
        frame instead of waiting out its silence budget.  That SHUTDOWN
        is not resent: if it is lost, the peer waits as before."""
        try:
            return self._run()
        except SessionError as exc:
            if exc.partial_series is None:
                exc.partial_series = self.session.series()
            raise
        except Exception:
            self.endpoint.abort(_shutdown_frame(self.cfg))
            raise
        finally:
            self.sock.close()

    def _run(self) -> TimeSeries:
        cfg = self.cfg
        ep = self.endpoint
        n_samples, n_dofs = cfg.n_samples, cfg.n_dofs
        budget = cfg.cosim.max_retries + 2
        hs_budget = max(2, int(np.ceil(self.handshake_timeout / cfg.cosim.timeout)))
        expected = session_handshake(cfg)
        # The HANDSHAKE and the SHUTDOWN are acknowledged by their echo.
        reply = ep.answer(None, MsgType.HANDSHAKE, 0, hs_budget)
        ep.peer, ep.pinned = ep.source, True
        if reply.handshake != expected:
            raise SessionError(
                f"handshake mismatch: peer proposed {reply.handshake}, expected {expected}"
            )
        measurement, command, dt = MsgType.MEASUREMENT, MsgType.COMMAND, cfg.dt
        for k in range(n_samples):
            meas = ep.answer(reply, measurement, k + 1, budget)
            cmd = self.session.process(k, meas.forces, meas.displacements)
            reply = Frame(command, n_dofs, k + 1, k * dt, None, tuple(cmd.tolist()))

        # Final SHUTDOWN exchange; losing it does not affect the data.
        try:
            ep.send(ep.answer(reply, MsgType.SHUTDOWN, n_samples + 1, budget))
        except SessionError:
            pass  # all exchanges complete; peer already gone
        return self.session.series()


class SurrogateRunner:
    """Force-generator-side endpoint of the UDP-split loop."""

    def __init__(
        self,
        cfg: CaseConfig,
        session: SurrogateSession,
        connect: tuple[str, int],
        loss: Optional[LossInjector] = None,
    ):
        self.cfg = cfg
        self.session = session
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.endpoint = LockstepEndpoint(
            self.sock, connect, cfg.cosim.timeout, cfg.cosim.max_retries, cfg.n_dofs, loss
        )

    @property
    def stats(self) -> SessionStats:
        return self.endpoint.stats

    def run(self) -> None:
        """Run one session.  When the surrogate fails after the
        handshake, the pinned peer is sent a SHUTDOWN before the socket
        closes, as :meth:`NumericalServer.run` does."""
        cfg = self.cfg
        ep = self.endpoint
        n_samples, n_dofs = cfg.n_samples, cfg.n_dofs
        measurement, command, dt = MsgType.MEASUREMENT, MsgType.COMMAND, cfg.dt

        def exchange(k: int, forces: np.ndarray, disps: np.ndarray) -> tuple[float, ...]:
            meas = Frame(
                measurement, n_dofs, k + 1, k * dt, tuple(forces.tolist()), tuple(disps.tolist())
            )
            return ep.request(meas, command, k + 1).displacements

        hs = Frame(
            msg_type=MsgType.HANDSHAKE,
            dof_count=n_dofs,
            seq=0,
            sim_time=0.0,
            handshake=session_handshake(cfg),
        )
        bye = _shutdown_frame(cfg)
        try:
            ep.request(hs, MsgType.HANDSHAKE, 0)
            ep.peer, ep.pinned = ep.source, True
            self.session.run(n_samples, n_dofs, exchange)
            try:
                ep.request(bye, MsgType.SHUTDOWN, n_samples + 1)
            except SessionError:
                pass  # shutdown ack lost; loop already complete
        except SessionError:
            raise
        except Exception:
            ep.abort(bye)
            raise
        finally:
            self.sock.close()


def run_udp_pair(
    cfg: CaseConfig,
    est: EstimatorSession,
    sur: SurrogateSession,
    server_loss: Optional[LossInjector] = None,
    surrogate_loss: Optional[LossInjector] = None,
) -> tuple[TimeSeries, SessionStats, SessionStats]:
    """Run server and surrogate against each other on the loopback
    interface, the surrogate on a background thread.

    Returns (series, server stats, surrogate stats).  The surrogate's
    own exception is re-raised here; when the server failed too, it is
    chained to the server's error and carries its partial series.  A
    surrogate thread still running after the join has its socket closed,
    and when the server finished it is a SessionError.  The handshake
    grace period is short since both endpoints start together.
    """
    server = NumericalServer(
        cfg, est, ("127.0.0.1", 0), server_loss, handshake_timeout=5.0
    )
    runner = SurrogateRunner(cfg, sur, server.address, surrogate_loss)
    failure: list[BaseException] = []

    def _run_surrogate():
        try:
            runner.run()
        except BaseException as exc:  # propagate to the caller's thread
            failure.append(exc)

    def _join() -> bool:
        """True once the surrogate thread has ended; closes the socket
        of one that is still running."""
        thread.join(timeout=JOIN_TIMEOUT)
        if thread.is_alive():
            runner.sock.close()
            return False
        return True

    thread = threading.Thread(target=_run_surrogate, name="surrogate", daemon=True)
    thread.start()
    try:
        series = server.run()
    except BaseException as exc:
        _join()
        if not (failure and isinstance(exc, SessionError)):
            raise
        err = failure[0]
        if isinstance(err, SessionError) and err.partial_series is None:
            err.partial_series = exc.partial_series
        raise err from exc
    ended = _join()
    if failure:
        raise failure[0]
    if not ended:
        raise SessionError(
            f"surrogate endpoint still running {JOIN_TIMEOUT:g} s after the server finished",
            last_good_step=len(series) - 1,
            partial_series=series,
        )
    return series, server.stats, runner.stats
