"""daemon-open: the real daemon over loopback TCP.

The daemon (``deltanet serve --multi``: the asyncio hub with one
session watching loops, default ``checkpoint_every``) runs in its own
process, preloaded through the ``batch`` verb.  This process is the load
generator: one connection carries insert/remove writes, another typed
``FlowsOn``/``Reachable``/``LinkDown`` reads at 1/:data:`READ_EVERY` of
the requests.  Every phase carries whole windows of ``checkpoint_every``
writes, so each window pays for exactly one snapshot, mid-window.

1. Open loop: one window at :data:`RATE` requests/s, sent on a fixed
   schedule whatever the replies do and timed from when each was due.
   Its p50/p99, the generator's lateness and its CPU time are reported
   as measured; the run is invalid if the generator fell behind.
2. Closed loop with :data:`LATENCY_DEPTH` requests in flight, for
   ``p50_us``/``p99_us``/``ops_per_s``.  Every :data:`PROBE_EVERY_S`
   the generator waits until no request is in flight, asks the daemon
   to run the speed probe in its own process and runs it itself; each
   request's time is normalised by the mean of the two, before and
   after it, as the in-process workloads normalise theirs, and
   ``ops_per_s`` is requests over the normalised time they took.
3. Saturation: :data:`DEPTH` requests in flight for
   :data:`SATURATION_WINDOWS` windows, probed the same way every
   :data:`SATURATION_PROBE_EVERY_S`; ``max_rps`` is requests over the
   normalised time they took.

Latencies of a daemon that idles between requests (the open loop, or a
closed loop of one request at a time) spread by 15-27% from one run to
the next on a shared 2-core host: they time the host's wake-ups more
than the daemon, and no speed probe follows them.  They are printed,
but the gated figures come from phases 2 and 3, where the daemon always
has work queued.  The daemon's peak resident set is measured per
closed-loop window (``VmHWM``, reset through ``/proc/PID/clear_refs`` as
each window starts); ``peak_rss_mb`` is the first window's.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional

import inputs
from common import (BENCH_DIR, OUT_DIR, PROBE_EVERY_S, PROBE_SIGNAL, Result,
                    SpeedTrack, percentile, probe, vm_hwm_mb)
from spans import LayerStats, Tracer
from spans import window as spans_window

from repro.core.rules import Link
from repro.datasets.format import Op
from repro.query.model import (
    FlowsOn, LinkDown, Reachable, query_to_payload,
)

clock = time.perf_counter

RATE = 500
READ_EVERY = 10
#: Writes per window: the daemon's default ``checkpoint_every``.
WINDOW_WRITES = 1000
#: Closed-loop windows per second of --seconds (at least three): the
#: median over windows is the run's figure.
WINDOWS_PER_SECOND = 1.8
SATURATION_WINDOWS = 10
#: Requests in flight in the latency windows: enough that the daemon
#: always has the next request queued (a closed loop of one request
#: at a time times the host's wake-ups, not the daemon).
LATENCY_DEPTH = 4
#: Requests in flight while saturating: well under the daemon's default
#: ``max_queue`` (64), so none is refused as overloaded.
DEPTH = 16
#: Saturated stretches run longer between probes than closed-loop ones:
#: each probe drains the pipeline, which costs throughput.
SATURATION_PROBE_EVERY_S = 0.25
#: The generator is on time when the p99 of its send lateness stays
#: under this bound at RATE; a run past it is flagged invalid.
LATENESS_LIMIT_S = 0.02
SETUPS = 3
#: A traced run switches the daemon's tracing on and off every this
#: many requests, so both halves see the same state.
TRACE_BLOCK = 200
SESSION = "bench"
REPLY_TIMEOUT = 60.0


def rule_payload(rule) -> dict:
    return {"rid": rule.rid, "lo": rule.lo, "hi": rule.hi,
            "priority": rule.priority, "source": rule.source,
            "target": rule.target}


def write_frame(op: Op) -> bytes:
    request = ({"cmd": "insert", "rule": rule_payload(op.rule)}
               if op.is_insert else {"cmd": "remove", "rid": op.rid})
    return (json.dumps(request) + "\n").encode("utf-8")


class Connection:
    """One ndjson connection to the hub."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.settimeout(REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, request: dict) -> dict:
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        return json.loads(self.reader.readline())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Daemon:
    """One daemon process with its own store, under ``perfbench/out``."""

    def __init__(self, tag: str, spans_path: Optional[str]) -> None:
        self.store = os.path.join(OUT_DIR, f"daemon-{tag}")
        self.log_path = self.store + ".log"
        shutil.rmtree(self.store, ignore_errors=True)
        self.probe_path = self.store + ".probe"
        self.probes = 0
        if os.path.exists(self.probe_path):
            os.remove(self.probe_path)
        command = [sys.executable, os.path.join(BENCH_DIR, "daemon_main.py"),
                   spans_path or "-", self.probe_path,
                   "serve", "--multi", "--listen", "127.0.0.1:0",
                   "--store", self.store, "--open", SESSION]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                         stderr=log)
        self.address = self._wait_listening()

    def _wait_listening(self, timeout: float = 60.0):
        deadline = clock() + timeout
        while clock() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                for line in log:
                    if line.startswith("# listening on "):
                        host, _sep, port = line.split()[-1].rpartition(":")
                        return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(f"daemon did not start; see {self.log_path}")

    def probe(self, timeout: float = 30.0) -> float:
        """Seconds of one speed probe run inside the daemon."""
        self.proc.send_signal(PROBE_SIGNAL)
        self.probes += 1
        deadline = clock() + timeout
        while clock() < deadline:
            if os.path.exists(self.probe_path):
                with open(self.probe_path, encoding="ascii") as handle:
                    lines = handle.read().split()
                if len(lines) >= self.probes:
                    return float(lines[self.probes - 1])
            time.sleep(0.0005)
        raise RuntimeError("the daemon did not answer the speed probe")

    def reset_peak_rss(self) -> None:
        """Start a new ``VmHWM`` measurement for the daemon."""
        with open(f"/proc/{self.proc.pid}/clear_refs", "w",
                  encoding="ascii") as handle:
            handle.write("5")

    def connect(self) -> Connection:
        conn = Connection(*self.address)
        reply = conn.call({"cmd": "attach", "session": SESSION})
        if not reply.get("ok"):
            raise RuntimeError(f"attach failed: {reply}")
        return conn

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self, conns: List[Connection]) -> None:
        """Shut the daemon down over ``conns[0]``, wait for it to exit
        and remove its store."""
        for conn in conns[1:]:
            conn.close()
        try:
            conns[0].call({"cmd": "shutdown"})
        except (OSError, ValueError):
            pass
        conns[0].close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        shutil.rmtree(self.store, ignore_errors=True)
        os.remove(self.log_path)
        if os.path.exists(self.probe_path):
            os.remove(self.probe_path)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def start(tag: str, preload: List[Op], spans_path: Optional[str]):
    """Start a daemon and preload it through the ``batch`` verb."""
    daemon = Daemon(tag, spans_path)
    try:
        conn = daemon.connect()
        (inserts, removals), = inputs.net_batches(preload, len(preload))
        reply = conn.call({"cmd": "batch",
                           "insert": [rule_payload(r) for r in inserts],
                           "remove": removals})
        if not reply.get("ok"):
            raise RuntimeError(f"preload failed: {reply}")
    except BaseException:
        daemon.kill()
        raise
    return daemon, conn


class Phase:
    """One open-loop phase: a schedule, sent and answered."""

    def __init__(self, frames: List[tuple], rate: float,
                 offset: int = 0) -> None:
        #: Requests of the stream sent before this phase: trace blocks
        #: run on across phases.
        self.offset = offset
        #: (connection index, frame bytes, is_write, op) per request.
        self.frames = frames
        n = len(frames)
        self.due = [index / rate for index in range(n)]
        self.sent = [0.0] * n
        self.recv = [0.0] * n
        self.replies: List[Optional[bytes]] = [None] * n
        self.start = 0.0
        self.cpu = 0.0
        #: The speed probes taken during the phase, if any.
        self.speed: Optional[SpeedTrack] = None

    def run(self, conns: List[Connection],
            toggle: Optional[Callable[[bool], None]] = None,
            depth: int = 0,
            speed_probe: Optional[Callable[[], float]] = None,
            probe_every: float = PROBE_EVERY_S) -> None:
        """Send on schedule and collect every reply.  With ``toggle``,
        blocks of :data:`TRACE_BLOCK` requests alternate between
        untraced and traced (``toggle(on)`` at each block start).

        With ``depth``, the schedule is ignored: each request is sent as
        soon as fewer than ``depth`` are unanswered, and is due when
        sent.  With ``speed_probe`` as well, every ``probe_every`` seconds
        the generator waits for every reply, calls ``speed_probe()``
        (untimed) and records its seconds in :attr:`speed`."""
        by_conn = [[i for i, frame in enumerate(self.frames) if frame[0] == k]
                   for k in range(len(conns))]
        slots = threading.Semaphore(depth) if depth else None

        def receive(k: int) -> None:
            reader = conns[k].reader
            try:
                for index in by_conn[k]:
                    line = reader.readline()
                    self.recv[index] = clock()
                    self.replies[index] = line
                    if slots is not None:
                        slots.release()
                    if not line:
                        return
            except OSError:
                return

        threads = [threading.Thread(target=receive, args=(k,), daemon=True)
                   for k in range(len(conns))]
        for thread in threads:
            thread.start()
        cpu = resource.getrusage(resource.RUSAGE_SELF)
        self.start = start = clock() + 0.005
        self.due = [start + offset for offset in self.due]
        socks = [conn.sock for conn in conns]
        if speed_probe is not None:
            self.speed = SpeedTrack()
            self.speed.mark(0, speed_probe())
        last_probe = clock()
        for index, (k, frame, _write, _op) in enumerate(self.frames):
            if toggle is not None and (
                    index == 0 or (self.offset + index) % TRACE_BLOCK == 0):
                toggle(self.traced(index))
            if slots is not None:
                if (speed_probe is not None
                        and clock() - last_probe >= probe_every):
                    for _ in range(depth):  # every reply is in
                        slots.acquire()
                    self.speed.mark(index, speed_probe())
                    for _ in range(depth):
                        slots.release()
                    last_probe = clock()
                slots.acquire()
                self.due[index] = clock()
            else:
                wait = self.due[index] - clock()
                if wait > 0:
                    time.sleep(wait)
            self.sent[index] = clock()
            socks[k].sendall(frame)
        if slots is not None:
            self.start = self.due[0]
        for thread in threads:
            thread.join(REPLY_TIMEOUT)
        if speed_probe is not None:
            self.speed.mark(len(self.frames), speed_probe())
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu = (after.ru_utime - cpu.ru_utime
                    + after.ru_stime - cpu.ru_stime)

    def traced(self, index: int) -> bool:
        return ((self.offset + index) // TRACE_BLOCK) % 2 == 1

    @property
    def end(self) -> float:
        return max(self.recv) if all(self.recv) else clock()

    def reply(self, index: int) -> dict:
        """The decoded reply to request ``index`` (empty if none)."""
        line = self.replies[index]
        try:
            return json.loads(line) if line else {}
        except ValueError:
            return {}

    def ok(self, index: int) -> bool:
        return bool(self.reply(index).get("ok"))

    def latencies(self) -> List[float]:
        return [(self.recv[i] or float("inf")) - self.due[i]
                for i in range(len(self.frames))]

    def lateness(self) -> List[float]:
        return [self.sent[i] - self.due[i] for i in range(len(self.frames))]

    def normalised(self) -> List[float]:
        """Latencies scaled to the reference speed by the probes."""
        return self.speed.normalise(self.latencies())

    def chunks(self) -> List[tuple]:
        """``(requests, seconds, normalised seconds)`` of each stretch
        between two probes: from its first send to its last reply."""
        marks = self.speed.marks
        factors = self.speed.factors(len(self.frames))
        out = []
        for start, end in zip(marks, marks[1:]):
            if end > start:
                took = max(self.recv[start:end]) - self.due[start]
                out.append((end - start, took, took * factors[start]))
        return out


class Traffic:
    """The request stream: writes in stream order, reads interleaved."""

    def __init__(self, writes: List[Op], preload: List[Op], seed: int,
                 connections: int) -> None:
        self.writes = writes
        self.next_write = 0
        self.requests = 0
        self.read_conn = min(1, connections - 1)
        live = inputs.live_rules(preload).values()
        links = sorted({Link(r.source, r.target) for r in live}, key=repr)
        nodes = sorted({node for link in links for node in link}, key=repr)
        self.rng = random.Random(seed ^ 0x5EAD)
        self.links, self.nodes = links, nodes

    def read_frame(self) -> bytes:
        kind = self.rng.randrange(3)
        if kind == 0:
            query = FlowsOn(self.links[self.rng.randrange(len(self.links))])
        elif kind == 1:
            query = Reachable(*self.rng.sample(self.nodes, 2))
        else:
            query = LinkDown(self.links[self.rng.randrange(len(self.links))])
        request = {"cmd": "query", "query": query_to_payload(query)}
        return (json.dumps(request) + "\n").encode("utf-8")

    def phase(self, rate: float, writes: int) -> Phase:
        """Traffic at ``rate`` carrying ``writes`` writes."""
        frames = []
        for index in range(writes * READ_EVERY // (READ_EVERY - 1)):
            if index % READ_EVERY == READ_EVERY - 1:
                frames.append((self.read_conn, self.read_frame(), False, None))
            else:
                op = self.writes[self.next_write]
                self.next_write += 1
                frames.append((0, write_frame(op), True, op))
        phase = Phase(frames, rate, offset=self.requests)
        self.requests += len(frames)
        return phase


def server_layers(result: Result, spans: List[list], meta: dict,
                  phases: List[Phase]) -> None:
    """Per-layer numbers from the daemon's spans inside ``phases``."""
    window = spans_window(spans, phases[0].start, phases[-1].end)
    stats = LayerStats(window)
    layers = result.layers
    layers["serve.aio.self_us"] = stats.mean_us("serve.aio.handle_line",
                                                self_only=True)
    layers["serve.stream.self_us"] = stats.mean_us(
        "serve.stream.handle_request", self_only=True)
    layers["persist.store.record_us"] = stats.mean_us("persist.store.record")
    layers["persist.store.checkpoint_ms"] = stats.mean_us(
        "persist.store.checkpoint") / 1e3
    layers["persist.store.checkpoints"] = stats.sum_calls(
        "persist.store.checkpoint")
    layers["api.session.self_us"] = stats.mean_us("api.session.apply",
                                                  self_only=True)
    layers["api.backend.self_us"] = stats.mean_us("api.backend.",
                                                  self_only=True)
    layers["core.deltanet.apply_us"] = stats.mean_us("core.deltanet.")
    layers["api.properties.loops.check_us"] = stats.mean_us(
        "api.properties.loops.check")
    for kind in ("linkdown", "reachable", "flows_on"):
        layers[f"query.planner.{kind}_us"] = stats.mean_us(
            f"query.planner.{kind}")
    sums, calls = meta.get("counters", {}), meta.get("counter_calls", {})
    for name in ("core.delta_links", "query.planner.atoms",
                 "query.planner.subgraph_links"):
        if calls.get(name):
            layers[name] = sums[name] / calls[name]
    rtt = [phase.recv[i] - phase.sent[i] for phase in phases
           for i in range(len(phase.frames)) if phase.traced(i)]
    hub_us = stats.mean_us("serve.aio.handle_line")
    layers["serve.wait_us"] = statistics.mean(rtt) * 1e6 - hub_us
    layers["trace.coverage_pct"] = stats.all_self() / sum(rtt) * 100
    result.table = ["  daemon self time per layer (traced blocks; share of "
                    "the traced requests' client-observed time):"]
    result.table += stats.table(sum(rtt))


def run_windows(daemon: Daemon, traffic: Traffic, conns: List[Connection],
                count: int, writes: int, **run) -> tuple:
    """``count`` windows of ``writes`` writes each.  Returns the windows
    and, per window, the daemon's peak resident set in MiB."""
    windows: List[Phase] = []
    peaks: List[float] = []
    for _ in range(count):
        windows.append(traffic.phase(RATE, writes=writes))
        daemon.reset_peak_rss()
        windows[-1].run(conns, **run)
        peaks.append(vm_hwm_mb(daemon.proc.pid))
    return windows, peaks


def daemon_open(seed: int, seconds: float, tracer: Optional[Tracer],
                scale: float, spans_path: str) -> Result:
    result = Result("daemon-open")
    preload, writes = inputs.daemon_input(seed, scale)
    connections = min(2, os.cpu_count() or 1)
    result.notes["transport"] = "TCP over the loopback interface (127.0.0.1)"
    result.notes["host"] = (f"nproc {os.cpu_count()}, Python "
                            f"{platform.python_version()}")
    result.notes["generator"] = (f"{connections} connections, reads "
                                 f"1/{READ_EVERY}; open loop at {RATE} "
                                 f"req/s, closed loop, saturation at depth "
                                 f"{DEPTH}")
    traced = tracer is not None
    # Smoke runs shrink the windows; full runs take one snapshot per window.
    window_writes = max(20, int(WINDOW_WRITES * scale))
    setups = []
    for number in range(SETUPS):
        began = clock()
        daemon, conn = start(f"{seed}-{number}",
                             preload, spans_path if traced else None)
        setups.append(clock() - began)
        if number < SETUPS - 1:
            daemon.stop([conn])
    result.metrics["setup_s"] = statistics.median(setups)
    result.notes["setup_runs_s"] = " ".join(f"{s:.4f}" for s in setups)
    conns = [conn]
    traffic = Traffic(writes, preload, seed, connections)
    phases: List[Phase] = []
    count = max(3, round(seconds * WINDOWS_PER_SECOND))
    try:
        conns += [daemon.connect() for _ in range(connections - 1)]
        # The preload ends with a snapshot; half a window of warm-up puts
        # every later snapshot mid-window.
        for writes_in in (window_writes // 2, window_writes):
            phases.append(traffic.phase(RATE, writes=writes_in))
            phases[-1].run(conns)
        open_loop = phases[-1]

        def system_probe() -> float:
            # Both processes work on every request: the speed of the
            # pair is the mean of the daemon's probe and the generator's.
            return (daemon.probe() + probe()) / 2

        toggle = None
        if traced:
            def toggle(on: bool) -> None:
                daemon.signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        main, peaks = run_windows(daemon, traffic, conns, count,
                                  window_writes, toggle=toggle,
                                  depth=LATENCY_DEPTH,
                                  speed_probe=system_probe)
        if traced:
            daemon.signal(signal.SIGUSR2)
        phases += main
        # The first window's: later windows' peaks step up by ~10 MB
        # (allocator growth) at points that vary from run to run.
        result.metrics["peak_rss_mb"] = peaks[0]
        result.notes["window_peak_rss_mb"] = " ".join(f"{p:.1f}"
                                                      for p in peaks)
        if not traced:
            saturated, _peaks = run_windows(
                daemon, traffic, conns, SATURATION_WINDOWS, window_writes,
                depth=DEPTH, speed_probe=system_probe,
                probe_every=SATURATION_PROBE_EVERY_S)
            phases += saturated
            chunks = [chunk for window in saturated
                      for chunk in window.chunks()]
            requests = sum(chunk[0] for chunk in chunks)
            result.metrics["max_rps"] = requests / sum(c[2] for c in chunks)
            result.notes["saturation_rps"] = (
                f"{requests / sum(c[1] for c in chunks):.0f} as measured")
        stats = conns[0].call({"cmd": "stats"})["stats"]
        health = conns[0].call({"cmd": "health"})
        snapshot_bytes, journal_bytes = _store_sizes(
            os.path.join(daemon.store, SESSION))
    finally:
        daemon.stop(conns)
    acked, failed, attempted = [], 0, 0
    for phase in phases:
        for index, (_k, _frame, is_write, op) in enumerate(phase.frames):
            attempted += 1
            if not phase.ok(index):
                failed += 1
            elif is_write:
                acked.append(op)
    result.attempted += attempted
    result.failed += failed
    latencies = [latency for window in main for latency in window.latencies()]
    # One window per snapshot interval, so each holds one snapshot.
    result.latency([t for window in main for t in window.normalised()],
                   sum(w.end - w.start for w in main),
                   window=len(main[0].frames), raw=latencies)
    chunks = [chunk for window in main for chunk in window.chunks()]
    result.metrics["ops_per_s"] = (sum(c[0] for c in chunks)
                                   / sum(c[2] for c in chunks))
    result.notes["open_loop"] = (
        f"{RATE} req/s: p50 {percentile(open_loop.latencies(), 50) * 1e6:.0f}"
        f" us, p99 {percentile(open_loop.latencies(), 99) * 1e6:.0f} us "
        f"(as measured, not gated)")
    lateness = open_loop.lateness()
    cpu = open_loop.cpu
    result.check("generator-on-time",
                 percentile(lateness, 99) <= LATENESS_LIMIT_S,
                 f"p99 send lateness {percentile(lateness, 99) * 1e3:.2f} ms"
                 f" (limit {LATENESS_LIMIT_S * 1e3:.0f} ms), client busy "
                 f"{cpu:.3f} s")
    result.check("replies-ok", failed == 0,
                 f"{failed} of {attempted} replies not ok")
    check_digest(result, preload, acked, stats.get("state_digest"))
    if traced:
        with open(spans_path, encoding="utf-8") as handle:
            dump = json.load(handle)
        server_layers(result, dump["spans"], dump.get("meta", {}), main)
        layers = result.layers
        ops_since = health["seq"] - health["last_checkpoint"]
        layers["persist.journal_bytes"] = (journal_bytes / ops_since
                                           if ops_since else 0.0)
        layers["persist.snapshot_bytes"] = snapshot_bytes
        layers["serve.rejected"] = failed
        layers["client.lateness_us"] = statistics.mean(lateness) * 1e6
        layers["client.busy_s"] = cpu
        layers["core.atoms"] = stats.get("atoms", 0)
        layers["api.properties.loops.violations"] = sum(
            len(window.reply(index).get("violations", ()))
            for window in main
            for index, frame in enumerate(window.frames) if frame[2])
        halves = [[latency for window in main
                   for index, latency in enumerate(window.latencies())
                   if window.traced(index) == on] for on in (False, True)]
        untraced_p50, traced_p50 = (percentile(half, 50) for half in halves)
        layers["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1) * 100
        result.notes["trace"] = (f"p50 untraced {untraced_p50 * 1e6:.0f} us, "
                                 f"traced {traced_p50 * 1e6:.0f} us")
    result.notes["sequence"] = health["seq"]
    return result


def check_digest(result: Result, preload: List[Op], acked: List[Op],
                 digest: Optional[str]) -> None:
    """The daemon's digest against an in-process replay of the
    acknowledged ops.  Atom numbering follows the order ops arrive in,
    so the replay takes the daemon's path: the preload as one batch,
    then one op at a time."""
    from repro.api import VerificationSession

    replay = VerificationSession("deltanet", width=inputs.WIDTH)
    (rules, rids), = inputs.net_batches(preload, len(preload))
    replay.apply_batch(rules, rids)
    for op in acked:
        replay.apply(op)
    result.check("stats-digest", digest == replay.state_digest(),
                 f"daemon {digest} vs replay {replay.state_digest()}")


def _store_sizes(store: str):
    """Bytes of a session store's snapshot and journal files."""
    from repro.persist.store import JOURNAL_NAME, SNAPSHOT_NAME

    return (os.path.getsize(os.path.join(store, SNAPSHOT_NAME)),
            os.path.getsize(os.path.join(store, JOURNAL_NAME)))
