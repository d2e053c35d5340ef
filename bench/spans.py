"""In-memory span tracing around the program's public per-layer calls.

The program is not changed: for the length of a traced round only, the
traced run replaces the session methods (``EstimatorSession.process``,
``SurrogateSession.measure/advance/prepare``,
``LockstepEndpoint.request``) on their classes and the module-level
names that ``rtahs.cosim`` calls (``encode_frame``, ``decode_frame``)
with wrappers, and puts the originals back afterwards (``patch``).

A span is a tuple ``(thread, name, step, start_ns, end_ns, info)``:
``step`` is the lockstep step the call served (-1 when the call does
not name one), ``info`` a count (bytes for the codec, resends for an
exchange).  The hot path only stamps and appends; which span encloses
which is worked out afterwards from the nesting of the intervals on
each thread (``measure.nest``).
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Optional

from measure import nest

SPAN_FIELDS = ("id", "parent", "thread", "name", "step", "start_ns", "end_ns", "info")


class Tracer:
    """Records spans in memory; ``write`` saves them as CSV."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def wrap(self, name: str, fn, step_arg: Optional[int] = None):
        """Wrap ``fn`` in a span; its argument at position ``step_arg``,
        if given, is the step."""
        append, now, ident = self.spans.append, time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                append((ident(), name, -1 if step_arg is None else args[step_arg], t0, now(), 0))

        return traced

    def wrap_codec(self, name: str, fn, encode: bool):
        """Span around ``encode_frame``/``decode_frame``; the step is the
        frame's sequence number minus one, ``info`` its length in bytes.
        A call that raises is recorded with step -1."""
        append, now, ident = self.spans.append, time.perf_counter_ns, threading.get_ident

        def traced(arg):
            t0 = now()
            step, size = -1, 0
            try:
                out = fn(arg)
                frame, data = (arg, out) if encode else (out, arg)
                step, size = frame.seq - 1, len(data)
                return out
            finally:
                append((ident(), name, step, t0, now(), size))

        return traced

    def wrap_request(self, fn):
        """Span around ``LockstepEndpoint.request``; ``info`` is the
        number of resends the exchange needed."""
        append, now, ident = self.spans.append, time.perf_counter_ns, threading.get_ident

        def traced(endpoint, outbound, want_type, want_seq):
            retries = endpoint.stats.retries
            t0 = now()
            try:
                return fn(endpoint, outbound, want_type, want_seq)
            finally:
                t1 = now()
                resends = endpoint.stats.retries - retries
                append((ident(), "cosim.exchange", outbound.seq - 1, t0, t1, resends))

        return traced

    def write(self, path: Path) -> None:
        """Save every span with its id (1-based) and parent id (0: root)."""
        parents = nest([(s[0], s[3], s[4]) for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for i, (s, p) in enumerate(zip(self.spans, parents)):
                fh.write(",".join(map(str, (i + 1, p + 1, *s))) + "\n")


@contextmanager
def patch(owner, name: str, make):
    """Replace ``owner.name`` (a module global or a method on its class)
    with ``make(original)`` until the block ends."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def instrumented(tracer: Tracer):
    """Trace every layer call of the sessions built inside the block."""
    from rtahs import cosim

    patches = (
        (cosim.EstimatorSession, "process",
         lambda fn: tracer.wrap("estimators.process", fn, step_arg=1)),
        (cosim.SurrogateSession, "measure",
         lambda fn: tracer.wrap("cases.measure", fn, step_arg=1)),
        (cosim.SurrogateSession, "advance", lambda fn: tracer.wrap("cases.advance", fn)),
        (cosim.SurrogateSession, "prepare", lambda fn: tracer.wrap("harness.prepare", fn)),
        (cosim, "encode_frame", lambda fn: tracer.wrap_codec("wire.encode", fn, encode=True)),
        (cosim, "decode_frame", lambda fn: tracer.wrap_codec("wire.decode", fn, encode=False)),
        (cosim.LockstepEndpoint, "request", tracer.wrap_request),
    )
    with ExitStack() as stack:
        for owner, name, make in patches:
            stack.enter_context(patch(owner, name, make))
        yield
