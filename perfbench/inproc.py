"""The in-process workloads: update-50k, scenario-mix and whatif-50k.

Each drives :class:`repro.api.VerificationSession` in a closed loop (one
caller that waits for each result), times every unit, then checks the
outputs outside the timed region.  In a traced run, blocks of units
alternate between traced and untraced, so the tracing overhead is
measured on the same program state as the traced numbers.

After set-up the loaded state is moved out of the cyclic collector's
reach (``gc.freeze()``), as a long-running Python service does once it
has loaded: otherwise each full collection walks the whole 50k-rule
base, and whether 1% of the units happen to land on one decides p99.
Garbage the timed work itself makes is still collected, and timed.

Unit and set-up times are normalised to a reference speed by the speed
probe that runs between them (``common.SpeedTrack``); the figures as
measured are printed in the notes.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Callable, Dict, List, Optional

import inputs
from common import (MIN_UNITS, PROBE_EVERY_S, SETUP_REPEATS, TRACE_BLOCK,
                    Result, SpeedTrack, vm_hwm_mb)
from spans import LayerStats, Tracer

from repro.api import LoopProperty, VerificationSession
from repro.api.registry import canonical_cycle
from repro.query import FlowsOn, LinkDown, Loops, Reachable

clock = time.perf_counter

QUERY_KINDS = {LinkDown: "linkdown", Reachable: "reachable",
               FlowsOn: "flows_on", Loops: "loops"}

#: Links and Reachable pairs whose answers are re-checked by the oracle.
ORACLE_SAMPLE = 16

# Units per second of --seconds: a run does a fixed amount of work, so a
# faster program is compared on the same ops, not on more of them.  The
# rates are what a 2-core reference machine sustains at the parent of
# the benchmark's first commit.
UPDATES_PER_SECOND = 1000
SCENARIO_OPS_PER_SECOND = 900
QUESTIONS_PER_SECOND = 100


# -- tracing ------------------------------------------------------------------


class Counters:
    """Counts recorded next to the spans (summed per name)."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value
        self.calls[name] = self.calls.get(name, 0) + 1

    def mean(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.sums[name] / calls if calls else 0.0


def instrument_session(tracer: Tracer, counters: Counters,
                       session: VerificationSession) -> None:
    """Wrap one session's layers: api.session, api.backend,
    core.deltanet, each watched property, query.planner and
    core.speculative."""
    def delta_links(_args, delta) -> None:
        if delta is not None:
            counters.add("core.delta_links",
                         len(delta.added.keys() | delta.removed.keys()))

    def query_name(query) -> str:
        return f"query.planner.{QUERY_KINDS[type(query)]}"

    def query_counts(args, result) -> None:
        if result.atoms is not None:
            counters.add("query.planner.atoms", len(result.atoms))
        if isinstance(args[0], LinkDown) and result.subgraph is not None:
            counters.add("query.planner.subgraph_links",
                         len(result.subgraph))

    def forked(_args, child) -> None:
        # The child is short-lived: wrap it without registering for
        # restore, so the tracer holds no reference to it.
        tracer.wrap(child, "insert", "core.speculative.child_insert",
                    restore=False)
        tracer.wrap(child, "discard", "core.speculative.discard",
                    restore=False)

    tracer.wrap(session, "apply", "api.session.apply")
    tracer.wrap(session, "query", query_name, after=query_counts)
    tracer.wrap(session, "speculate", "core.speculative.fork", after=forked)
    backend = session.backend
    tracer.wrap(backend, "insert", "api.backend.insert")
    tracer.wrap(backend, "remove", "api.backend.remove")
    native = backend.native
    tracer.wrap(native, "insert_rule", "core.deltanet.insert_rule",
                after=delta_links)
    tracer.wrap(native, "remove_rule", "core.deltanet.remove_rule",
                after=delta_links)
    for prop in session.properties:
        tracer.wrap(prop, "check", f"api.properties.{prop.name}.check",
                    consume=True)


class Switch:
    """Turns instrumentation of the current session on and off."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.counters = Counters()
        self.on = False
        self.session: Optional[VerificationSession] = None
        self.probe_s = 0.0

    def set(self, on: bool) -> None:
        if self.tracer is None or on == self.on:
            return
        self.on = on
        if on:
            if self.session is not None:
                instrument_session(self.tracer, self.counters, self.session)
        else:
            self.tracer.unwrap_all()

    def attach(self, session: VerificationSession) -> None:
        on = self.on
        self.set(False)
        self.session = session
        self.set(on)


def run_units(step: Callable[[int], None], count: int, switch: Switch,
              before: Optional[Callable[[int], None]] = None):
    """Call ``step(i)`` for i in ``range(count)``, timing each call;
    ``before(i)``, when given, runs untimed ahead of each step.  The
    speed probe runs every :data:`PROBE_EVERY_S` seconds between units.

    Returns ``(times, norm, traced, wall)``: per-unit seconds, the same
    normalised to the reference speed, whether each unit ran traced,
    and the wall time of the loop.  ``switch.probe_s`` is set to the
    median probe seconds.
    """
    times: List[float] = []
    traced: List[bool] = []
    speed = SpeedTrack()
    tracing = switch.tracer is not None
    on = False
    speed.mark(0)
    start = last_probe = clock()
    for index in range(count):
        if tracing and index % TRACE_BLOCK == 0:
            on = (index // TRACE_BLOCK) % 2 == 1
            switch.set(on)
        if before is not None:
            before(index)
        began = clock()
        step(index)
        ended = clock()
        times.append(ended - began)
        traced.append(on)
        if ended - last_probe >= PROBE_EVERY_S:
            speed.mark(index + 1)
            last_probe = clock()
    wall = clock() - start
    speed.mark(count)
    switch.set(False)
    switch.probe_s = speed.median_s()
    return times, speed.normalise(times), traced, wall


def units_for(seconds: float, per_second: int) -> int:
    """The fixed work of a run: ``seconds`` at the reference rate, and
    never fewer than :data:`MIN_UNITS` units."""
    return max(MIN_UNITS, int(seconds * per_second))


def finish_trace(result: Result, tracer: Tracer, switch: Switch,
                 times: List[float], traced: List[bool]) -> LayerStats:
    """Per-layer numbers common to the in-process workloads."""
    stats = LayerStats(tracer.spans)
    traced_times = [t for t, on in zip(times, traced) if on]
    plain_times = [t for t, on in zip(times, traced) if not on]
    traced_wall = sum(traced_times)
    layers = result.layers
    layers["api.session.self_us"] = stats.mean_us("api.session.apply",
                                                  self_only=True)
    layers["api.backend.self_us"] = stats.mean_us("api.backend.",
                                                  self_only=True)
    layers["core.deltanet.apply_us"] = stats.mean_us("core.deltanet.")
    layers["core.delta_links"] = switch.counters.mean("core.delta_links")
    for name in stats.names("api.properties."):
        prop = name.split(".")[2]
        layers[f"api.properties.{prop}.check_us"] = stats.mean_us(name)
    for kind in ("linkdown", "reachable", "flows_on"):
        layers[f"query.planner.{kind}_us"] = stats.mean_us(
            f"query.planner.{kind}")
    layers["query.planner.atoms"] = switch.counters.mean(
        "query.planner.atoms")
    layers["query.planner.subgraph_links"] = switch.counters.mean(
        "query.planner.subgraph_links")
    for part in ("fork", "child_insert", "discard"):
        layers[f"core.speculative.{part}_us"] = stats.mean_us(
            f"core.speculative.{part}")
    untraced_p50 = statistics.median(plain_times)
    traced_p50 = statistics.median(traced_times)
    layers["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1) * 100
    layers["trace.coverage_pct"] = stats.all_self() / traced_wall * 100
    result.notes["trace"] = (
        f"p50 untraced {untraced_p50 * 1e6:.1f} us over {len(plain_times)} "
        f"units, traced {traced_p50 * 1e6:.1f} us over {len(traced_times)}; "
        f"layer self times cover {layers['trace.coverage_pct']:.1f}% "
        f"of traced wall {traced_wall:.3f} s")
    result.table = ["  self time per layer (traced units):"]
    result.table += stats.table(traced_wall)
    return stats


def count_violations(result: Result, delivered: Dict[str, int]) -> None:
    for name, count in delivered.items():
        result.layers[f"api.properties.{name}.violations"] = count


def timed_setup(build: Callable[[Callable[[], None]], object],
                result: Result):
    """Run ``build(tick)`` :data:`SETUP_REPEATS` times; report the
    median as ``setup_s`` and return the last build.

    ``build`` calls ``tick()`` between the pieces of its work (the
    batches of a load, say): the speed probe runs there, untimed, and
    each piece is normalised by the probes on either side of it, as the
    timed units are.
    """
    seconds, raw = [], []
    for _ in range(SETUP_REPEATS):
        built = None  # free the previous build before timing the next
        gc.collect()
        pieces: List[float] = []
        speed = SpeedTrack()
        speed.mark(0)
        began = [clock()]

        def tick() -> None:
            pieces.append(clock() - began[0])
            speed.mark(len(pieces))
            began[0] = clock()

        built = build(tick)
        tick()
        raw.append(sum(pieces))
        seconds.append(sum(speed.normalise(pieces)))
    result.metrics["setup_s"] = statistics.median(seconds)
    result.notes["setup_runs_s"] = (
        " ".join(f"{s:.4f}" for s in seconds) + " (raw "
        + " ".join(f"{s:.4f}" for s in raw) + ")")
    gc.collect()
    gc.freeze()
    return built


def load_base(batches, watch_loops: bool = True,
              tick: Callable[[], None] = lambda: None
              ) -> VerificationSession:
    """A Delta-net session holding the base, loaded batch by batch;
    ``tick()`` runs after each batch."""
    session = VerificationSession("deltanet", width=inputs.WIDTH)
    for rules, rids in batches:
        session.apply_batch(rules, rids)
        tick()
    if watch_loops:
        session.watch(LoopProperty())
    return session


def steady_base(batches, tick: Callable[[], None] = lambda: None
                ) -> VerificationSession:
    """The base with loops watched as by a verifier that has watched
    since rule zero: every live loop already reported.

    A freshly watched ``LoopProperty`` has reported nothing, and its
    per-update cost grows with every loop it reports (it re-checks the
    reported cycles an update touches); timed from there, the p50 would
    measure how fast random loops happen to form in the seed's stream.
    The property's own state API restores the steady state instead.
    """
    session = load_base(batches, tick=tick)
    prop, = session.properties
    prop.load_state_dict({"reported": [
        [["loop", cycle], list(cycle)]
        for cycle in session.query(Loops()).violations]})
    return session


def check_fingerprint(result: Result, workload: str, seed: int,
                      scale: float) -> None:
    mine = inputs.fingerprint(workload, seed, scale)
    result.notes["input_fingerprint"] = f"{mine['count']} ops crc32 " \
                                        f"{mine['crc32']:08x}"
    if scale != 1.0:
        return
    committed = inputs.committed_fingerprint(workload, seed)
    if committed is None:
        result.notes["input_fingerprint"] += " (seed not in the table)"
        return
    result.check("input-fingerprint", committed == mine,
                 f"committed {committed} got {mine}")


# -- shared oracle checks -----------------------------------------------------


def sweep_loops(native) -> list:
    """Every forwarding loop, by the pre-index exhaustive sweep."""
    from repro.checkers.sweep import sweep_find_forwarding_loops

    return sweep_find_forwarding_loops(native)


def expected_linkdown(native, link, loops):
    """The undirected answer: ``link_failure_impact`` plus the loops of
    the sweep ``loops`` whose atom the failed link carries."""
    from repro.checkers.whatif import link_failure_impact

    impact = link_failure_impact(native, link)
    return impact.affected_intervals(native), {
        canonical_cycle(loop.cycle) for loop in loops
        if loop.atom in impact.affected_atoms}


def linkdown_matches(answer, expected) -> bool:
    spans, loops = expected
    return (list(map(tuple, answer.spans)) == list(map(tuple, spans))
            and set(answer.violations) == loops)


def check_state(result: Result, session: VerificationSession,
                replay: VerificationSession, rebuild: VerificationSession
                ) -> list:
    """Check the session's final state; returns the sweep's loops.

    ``replay`` applied the same ops along the same path (batches, then
    single ops), so its ``state_digest()`` must match: the digest covers
    atom numbering, which depends on the order ops arrive in.
    ``rebuild`` is a fresh batched rebuild: every link must carry the
    same packets, and ``Loops()`` must match the pre-index sweep run on
    it.
    """
    result.check("state-digest",
                 session.state_digest() == replay.state_digest(),
                 f"{session.state_digest()} vs {replay.state_digest()}")
    result.notes["batched_rebuild_digest"] = (
        "equal" if session.state_digest() == rebuild.state_digest()
        else "differs (atom numbering follows op order)")
    every_link = set(session.links()) | set(rebuild.links())
    differ = sum(session.query(FlowsOn(link)).spans
                 != rebuild.query(FlowsOn(link)).spans
                 for link in every_link)
    result.check("flows-vs-batched-rebuild", differ == 0,
                 f"{differ} of {len(every_link)} links differ")
    got = set(session.query(Loops()).violations)
    loops = sweep_loops(rebuild.native)
    want = {canonical_cycle(loop.cycle) for loop in loops}
    result.check("loops-vs-sweep", got == want,
                 f"{len(got)} loops, sweep finds {len(want)}")
    return loops


def check_linkdown(result: Result, answers, rebuild: VerificationSession,
                   loops: list) -> None:
    """``(link, QueryResult)`` pairs against the undirected answer on
    ``rebuild``."""
    bad = sum(not linkdown_matches(answer, expected_linkdown(
        rebuild.native, link, loops)) for link, answer in answers)
    result.check("linkdown-answers", bad == 0,
                 f"{bad} of {len(answers)} differ")


def base_links(rules) -> list:
    from repro.core.rules import Link

    return sorted({Link(rule.source, rule.target) for rule in rules},
                  key=repr)


# -- workloads ----------------------------------------------------------------


def update_50k(seed: int, seconds: float, tracer: Optional[Tracer],
               scale: float) -> Result:
    result = Result("update-50k")
    base, tail = inputs.update_input(seed, scale)
    batches = inputs.net_batches(base)
    session = timed_setup(lambda tick: steady_base(batches, tick), result)
    switch = Switch(tracer)
    switch.attach(session)
    delivered: Dict[str, int] = {}
    failures = [0]

    def step(index: int) -> None:
        try:
            update = session.apply(tail[index])
        except Exception:  # a failed op is counted, not fatal
            failures[0] += 1
            return
        for violation in update.violations:
            name = violation.property_name
            delivered[name] = delivered.get(name, 0) + 1

    gc.collect()
    times, norm, traced, wall = run_units(
        step, min(len(tail), units_for(seconds, UPDATES_PER_SECOND)), switch)
    result.metrics["peak_rss_mb"] = vm_hwm_mb()
    result.latency(norm, wall, raw=times)
    result.notes["probe_ms"] = f"{switch.probe_s * 1e3:.3f} median"
    result.metrics["max_rps"] = result.metrics["ops_per_s"]
    result.attempted += len(times)
    result.failed += failures[0]
    applied = len(times)
    result.notes["rules"] = session.num_rules
    result.notes["violations"] = dict(delivered)
    if tracer is not None:
        finish_trace(result, tracer, switch, times, traced)
        result.layers["core.atoms"] = session.native.num_atoms
        count_violations(result, delivered)
    replay = load_base(batches, watch_loops=False)
    for op in tail[:applied]:
        replay.apply(op)
    rebuild = load_base(inputs.net_batches(base + tail[:applied]),
                        watch_loops=False)
    loops = check_state(result, session, replay, rebuild)
    live = inputs.live_rules(base + tail[:applied]).values()
    links = base_links(live)
    sample = random.Random(seed).sample(links,
                                        min(ORACLE_SAMPLE, len(links)))
    check_linkdown(result, [(link, session.query(LinkDown(link, loops=True)))
                            for link in sample], rebuild, loops)
    check_fingerprint(result, "update-50k", seed, scale)
    return result


def scenario_mix(seed: int, seconds: float, tracer: Optional[Tracer],
                 scale: float) -> Result:
    from repro.scenarios.oracle import SweepOracle

    result = Result("scenario-mix")

    def build(tick):
        scenarios = inputs.scenario_input(seed, scale, tick)
        sessions = [VerificationSession("deltanet", width=sc.width,
                                        properties=sc.make_properties())
                    for sc in scenarios]
        return scenarios, sessions

    # Set-up opens a session per trace; each replay then opens its own.
    scenarios, _sessions = timed_setup(build, result)
    plan = [(trace, index) for trace, sc in enumerate(scenarios)
            for index in range(len(sc.ops))]
    streams: List[List[list]] = [[] for _ in scenarios]
    switch = Switch(tracer)
    current: Dict[str, object] = {}
    delivered: Dict[str, int] = {}
    atoms: List[int] = []
    failures = [0]

    def before(unit: int) -> None:
        trace, index = plan[unit % len(plan)]
        if index == 0:  # each trace replays into a fresh session
            previous = current.get("session")
            if previous is not None:
                atoms.append(previous.native.num_atoms)
                previous.close()
            sc = scenarios[trace]
            current["session"] = VerificationSession(
                "deltanet", width=sc.width, properties=sc.make_properties())
            switch.attach(current["session"])
            streams[trace].append([])

    def step(unit: int) -> None:
        trace, index = plan[unit % len(plan)]
        sc = scenarios[trace]
        try:
            update = current["session"].apply(sc.ops[index])
        except Exception:  # a failed op is counted, not fatal
            failures[0] += 1
            streams[trace][-1].append(None)
            return
        streams[trace][-1].append(frozenset(
            violation.signature for violation in update.violations))
        for violation in update.violations:
            name = violation.property_name
            delivered[name] = delivered.get(name, 0) + 1

    gc.collect()
    # Whole passes, so every trace weighs the same in the percentiles.
    passes = max(1, round(units_for(seconds, SCENARIO_OPS_PER_SECOND)
                          / len(plan)))
    times, norm, traced, wall = run_units(step, passes * len(plan), switch,
                                    before)
    atoms.append(current["session"].native.num_atoms)
    current["session"].close()
    result.metrics["peak_rss_mb"] = vm_hwm_mb()
    # Each part of the run replays other traces, so the percentiles
    # are taken over the whole run (the same ops on every seed).
    result.latency(norm, wall, raw=times, window=len(norm))
    result.notes["probe_ms"] = f"{switch.probe_s * 1e3:.3f} median"
    result.metrics["max_rps"] = result.metrics["ops_per_s"]
    result.attempted += len(times)
    result.failed += failures[0]
    result.notes["passes"] = f"{passes} over {len(scenarios)} traces " \
                             f"({len(plan)} ops)"
    result.notes["violations"] = dict(delivered)
    if tracer is not None:
        finish_trace(result, tracer, switch, times, traced)
        count_violations(result, delivered)
        result.layers["core.atoms"] = statistics.mean(atoms)
    differ: Dict[str, List[int]] = {}
    for trace, sc in enumerate(scenarios):
        oracle = SweepOracle(sc.property_specs, width=sc.width).stream(sc.ops)
        counts = differ.setdefault(sc.family, [0, 0])
        counts[0] += sum(1 for run in streams[trace]
                         for got, want in zip(run, oracle) if got != want)
        counts[1] += sum(map(len, streams[trace]))
    for family, (bad, ops) in sorted(differ.items()):
        result.check(f"oracle:{family}", bad == 0,
                     f"{bad} of {ops} replayed ops differ")
    check_fingerprint(result, "scenario-mix", seed, scale)
    return result


def whatif_50k(seed: int, seconds: float, tracer: Optional[Tracer],
               scale: float) -> Result:
    from repro.checkers.sweep import sweep_reachable_atoms
    from repro.core.atomset import atoms_to_interval_set

    result = Result("whatif-50k")
    base, _tail = inputs.update_input(seed, scale)
    batches = inputs.net_batches(base)
    session = timed_setup(lambda tick: load_base(batches, tick=tick),
                          result)
    links = base_links(inputs.live_rules(base).values())
    nodes = sorted({node for link in links for node in link}, key=repr)
    candidates = inputs.candidates(seed)
    rng = random.Random(seed)
    # Rounds of 4 LinkDown, 4 Reachable and 4 speculated candidates, in
    # a seeded order; the plan is longer than any run gets through.
    plan: List[tuple] = []
    spec_count = 0
    while len(plan) < 20_000:
        kinds = ["linkdown"] * 4 + ["reachable"] * 4 + ["speculate"] * 4
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "linkdown":
                plan.append((kind, links[rng.randrange(len(links))]))
            elif kind == "reachable":
                src, dst = rng.sample(nodes, 2)
                plan.append((kind, (src, dst)))
            else:
                plan.append((kind, spec_count % len(candidates)))
                spec_count += 1
    switch = Switch(tracer)
    switch.attach(session)
    samples: Dict[str, list] = {"linkdown": [], "reachable": []}
    spec_sample: Dict[int, list] = {}
    failures = [0]

    def step(unit: int) -> None:
        kind, arg = plan[unit]
        try:
            if kind == "speculate":
                child = session.speculate()
                try:
                    stream = [frozenset(v.signature for v in
                                        child.insert(rule).violations)
                              for rule in candidates[arg]]
                finally:
                    child.discard()
                # Keep one candidate for the oracle: the first that
                # raised a violation, else the first of all.
                if not spec_sample or (any(stream) and not any(
                        next(iter(spec_sample.values())))):
                    spec_sample.clear()
                    spec_sample[arg] = stream
                return
            query = (LinkDown(arg, loops=True) if kind == "linkdown"
                     else Reachable(*arg))
            answer = session.query(query)
        except Exception:  # a failed question is counted, not fatal
            failures[0] += 1
            return
        if len(samples[kind]) < ORACLE_SAMPLE and unit % 7 == 0:
            samples[kind].append((arg, answer))

    gc.collect()
    times, norm, traced, wall = run_units(
        step, min(len(plan), units_for(seconds, QUESTIONS_PER_SECOND)),
        switch)
    result.metrics["peak_rss_mb"] = vm_hwm_mb()
    result.latency(norm, wall, raw=times)
    result.notes["probe_ms"] = f"{switch.probe_s * 1e3:.3f} median"
    result.metrics["max_rps"] = result.metrics["ops_per_s"]
    result.attempted += len(times)
    result.failed += failures[0]
    if tracer is not None:
        finish_trace(result, tracer, switch, times, traced)
        result.layers["core.atoms"] = session.native.num_atoms
    reference = load_base(batches, watch_loops=False)
    loops = check_state(result, session, reference, reference)
    check_linkdown(result, samples["linkdown"], reference, loops)
    native = reference.native
    bad = sum(list(map(tuple, answer.spans)) != list(map(tuple,
              atoms_to_interval_set(sweep_reachable_atoms(native, src, dst),
                                    native.atoms)))
              for (src, dst), answer in samples["reachable"])
    result.check("reachable-answers", bad == 0,
                 f"{bad} of {len(samples['reachable'])} differ")
    # Last, as it changes the reference: the speculated candidate, applied
    # for real to the same base, must deliver the same violations.
    (index, stream), = spec_sample.items()
    reference.watch(LoopProperty())
    want = [frozenset(v.signature for v in reference.insert(rule).violations)
            for rule in candidates[index]]
    result.check("speculation-vs-fresh", stream == want,
                 f"candidate {index}: {sum(map(len, stream))} violations "
                 f"speculated, {sum(map(len, want))} applied")
    check_fingerprint(result, "whatif-50k", seed, scale)
    return result


WORKLOADS = {"update-50k": update_50k, "scenario-mix": scenario_mix,
             "whatif-50k": whatif_50k}
