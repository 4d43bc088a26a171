"""The daemon under test: ``deltanet serve`` with the benchmark's speed
probe and, in a traced run, spans around its layers.

    daemon_main.py SPANS_FILE|- PROBE_FILE serve --multi --listen ... --store ...

Runs the program's own CLI entry point unchanged.  On SIGWINCH the
daemon runs the speed probe (``common.probe``) in its own process and
appends the seconds to PROBE_FILE; the load generator asks for one only
when no request is in flight, so no request waits for it.  With ``-``
for SPANS_FILE the daemon is never traced.  The hub and each
session it opens are captured when constructed; SIGUSR1 wraps their
methods (``AsyncSessionHub.handle_line``, ``StreamServer.handle_request``,
``SessionStore.record/record_batch/checkpoint`` and the session's
layers) and SIGUSR2 unwraps them, so one daemon serves both the
untraced and the traced half of a run.  The spans are written to
SPANS_FILE when the daemon exits.
"""

from __future__ import annotations

import contextvars
import signal
import sys

from common import PROBE_SIGNAL, probe
from inproc import Counters, instrument_session
from spans import Tracer

from repro import cli
from repro.serve.aio import AsyncSessionHub
from repro.serve.sessions import SessionManager


class DaemonTracer:
    """Captures the daemon's hub and sessions; wraps them on demand."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counters = Counters()
        self.hubs = []
        self.servers = []
        self._current = contextvars.ContextVar("perfbench_request",
                                               default=None)
        self._pending = {}

    def capture(self) -> None:
        daemon = self
        hub_init = AsyncSessionHub.__init__
        manager_open = SessionManager.open

        def init(hub, *args, **kwargs):
            hub_init(hub, *args, **kwargs)
            daemon.hubs.append(hub)

        def open_session(manager, name, **overrides):
            server = manager_open(manager, name, **overrides)
            if server not in daemon.servers:
                daemon.servers.append(server)
            return server

        AsyncSessionHub.__init__ = init
        SessionManager.open = open_session

    def enable(self, *_signal) -> None:
        tracer = self.tracer
        tracer.unwrap_all()
        for hub in self.hubs:
            self._wrap_hub(hub)
        for server in self.servers:
            tracer.wrap(server, "handle_request",
                        "serve.stream.handle_request",
                        context=self._request_context)
            store = server.store
            tracer.wrap(store, "record", "persist.store.record")
            tracer.wrap(store, "record_batch", "persist.store.record_batch")
            tracer.wrap(store, "checkpoint", "persist.store.checkpoint")
            instrument_session(tracer, self.counters, server.session)

    def disable(self, *_signal) -> None:
        self.tracer.unwrap_all()

    def _wrap_hub(self, hub) -> None:
        current, pending = self._current, self._pending

        def line_started(_args, span: int, rid: int) -> None:
            current.set((span, rid))

        self.tracer.wrap_async(hub, "handle_line", "serve.aio.handle_line",
                               started=line_started)
        handle_request = hub.handle_request

        async def tagged(conn, request):
            # The session work runs on an executor thread (via the
            # writer queue for writes): remember which hub span the
            # request object belongs to, for its server-side span.
            tag = current.get()
            if tag is not None:
                pending[id(request)] = tag
            return await handle_request(conn, request)

        self.tracer.install(hub, "handle_request", tagged)

    def _request_context(self, args):
        return self._pending.pop(id(args[0]), (None, None))

    def write(self, path: str) -> None:
        self.tracer.unwrap_all()
        self.tracer.write(path, meta={"counters": self.counters.sums,
                                      "counter_calls": self.counters.calls})


def probe_to(path: str):
    """A signal handler that appends one probe reading to ``path``."""
    def handler(*_signal) -> None:
        seconds = probe()
        with open(path, "a", encoding="ascii") as handle:
            handle.write(f"{seconds!r}\n")
    return handler


def main(argv) -> int:
    spans_path, probe_path, cli_args = argv[0], argv[1], argv[2:]
    signal.signal(PROBE_SIGNAL, probe_to(probe_path))
    if spans_path == "-":
        return cli.main(cli_args)
    daemon = DaemonTracer()
    daemon.capture()
    signal.signal(signal.SIGUSR1, daemon.enable)
    signal.signal(signal.SIGUSR2, daemon.disable)
    try:
        return cli.main(cli_args)
    finally:
        daemon.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
