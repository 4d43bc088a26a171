"""Workload inputs, made from the run's seed.

The program only ever receives what these functions return.  Each
input also has a fingerprint (op count plus CRC-32 of its canonical
text form); a run whose input drifts from the committed fingerprints
fails.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, Dict, List, Sequence, Tuple

from common import BENCH_DIR, ops_fingerprint

from repro.core.rules import Rule
from repro.datasets.format import Op

WIDTH = 32
SWITCHES = 40
#: The seed of the fixed synthetic data set every run loads.
DATASET_SEED = 2017

#: Rules in the base data plane of update-50k and whatif-50k, and the
#: ops loaded per batch while building it.
BASE_OPS = 50_000
LOAD_BATCH = 5_000
#: Ops generated past the base for the timed closed loop; more than any
#: run can apply in its measured seconds.
TAIL_OPS = 60_000
#: Past the base, update-50k alternates inserting a new rule and
#: removing the oldest rule inserted past the base, once this many are
#: live: the timed ops then leave the network as they found it (same
#: rule count, loops formed by the tail dissolve again), so a run's
#: latency does not drift with how far into the stream it gets.
TAIL_WINDOW = 1_000

#: daemon-open preloads this many ops through the ``batch`` verb.
DAEMON_PRELOAD = 5_000
DAEMON_TAIL = 40_000

SCENARIO_SCALE = 1.0
SCENARIO_SEEDS = 4

#: whatif-50k: each speculated candidate applies this many ops.
CANDIDATE_OPS = 24
CANDIDATES = 64

FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")


def synthetic_stream(base: int, tail: int, seed: int,
                     tail_removals: float = 0.3,
                     tail_window: int = 0) -> List[Op]:
    """The synthetic prefix-pool op stream: ``base`` ops of the fixed
    data set, then ``tail`` ops drawn from ``seed``.

    Prefixes come from a shared pool (so atoms << rules, the shape of
    the paper's datasets), rules land on random switches with unique
    priorities, and ~30% of ops remove a random live rule (a share of
    ``tail_removals`` past the base; with ``tail_window``, the tail
    instead alternates inserts and removals of its own oldest rule once
    ``tail_window`` of its rules are live).  The base comes from
    :data:`DATASET_SEED` whatever the run's seed: like the paper's data
    sets it is one network, so runs differ in the updates and questions
    they time, not in how many loops a random network happens to hold.
    """
    rng = random.Random(DATASET_SEED)
    pool = []
    for _ in range(max(64, (base + tail) // 25)):
        plen = rng.randint(10, 24)
        span = 1 << (WIDTH - plen)
        lo = rng.randrange(1 << WIDTH) & ~(span - 1)
        pool.append((lo, lo + span))
    ops: List[Op] = []
    live: List[int] = []
    window: List[int] = []  # rules inserted past the base, oldest first
    removal = 0.3
    while len(ops) < base + tail:
        if len(ops) == base:
            rng, removal = random.Random(seed), tail_removals
        if len(ops) >= base and tail_window:
            if len(window) >= tail_window and (len(ops) - base) % 2:
                ops.append(Op.remove(window.pop(0)))
                continue
        elif live and rng.random() < removal:
            ops.append(Op.remove(live.pop(rng.randrange(len(live)))))
            continue
        lo, hi = pool[rng.randrange(len(pool))]
        source = rng.randrange(SWITCHES)
        target = (source + rng.randrange(1, SWITCHES)) % SWITCHES
        rid = len(ops)
        ops.append(Op.insert(Rule.forward(
            rid, lo, hi, rid, f"s{source}", f"s{target}")))
        (window if tail_window and len(ops) > base else live).append(rid)
    return ops


def net_batches(ops: Sequence[Op], size: int = LOAD_BATCH
                ) -> List[Tuple[List[Rule], List[int]]]:
    """Cut ``ops`` into ``(inserts, removals)`` batches of ``size`` ops.

    A batch applies its removals first, so an insert and its removal in
    the same batch cancel, and only rules live before the batch are
    removed — applying the batches in order gives the state of applying
    the ops one by one.
    """
    batches = []
    for start in range(0, len(ops), size):
        inserts: Dict[int, Rule] = {}
        removals: List[int] = []
        for op in ops[start:start + size]:
            if op.is_insert:
                inserts[op.rid] = op.rule
            elif inserts.pop(op.rid, None) is None:
                removals.append(op.rid)
        batches.append((list(inserts.values()), removals))
    return batches


def live_rules(ops: Sequence[Op]) -> Dict[int, Rule]:
    """The rules installed after applying ``ops`` in order."""
    live: Dict[int, Rule] = {}
    for op in ops:
        if op.is_insert:
            live[op.rid] = op.rule
        else:
            del live[op.rid]
    return live


def scaled(count: int, scale: float) -> int:
    return max(1, int(count * scale))


# -- per-workload inputs ------------------------------------------------------


def update_input(seed: int, scale: float = 1.0):
    """Base ops and tail ops of update-50k (and the whatif-50k base)."""
    base = scaled(BASE_OPS, scale)
    ops = synthetic_stream(base, scaled(TAIL_OPS, scale), seed,
                           tail_window=scaled(TAIL_WINDOW, scale))
    return ops[:base], ops[base:]


def scenario_input(seed: int, scale: float = 1.0,
                   tick: Callable[[], None] = lambda: None):
    """:data:`SCENARIO_SEEDS` traces of every scenario family, in an
    order drawn from ``seed``.

    The traces are a fixed data set, like the 50k base: one trace of a
    family varies a lot in length and cost from one scenario seed to the
    next, and runs should differ in what they replay when, not in which
    networks they happen to get.  ``tick()`` runs after each trace is
    built.
    """
    from repro.scenarios import build_scenario, scenario_families

    traces = []
    for k in range(SCENARIO_SEEDS):
        for family in scenario_families():
            traces.append(build_scenario(
                family, seed=DATASET_SEED * SCENARIO_SEEDS + k,
                scale=SCENARIO_SCALE * scale))
            tick()
    random.Random(seed).shuffle(traces)
    return traces


def daemon_input(seed: int, scale: float = 1.0):
    """Preload ops and the write stream of daemon-open.

    The writes hold the rule count steady, so every snapshot the daemon
    takes during a run costs about the same.
    """
    preload = scaled(DAEMON_PRELOAD, scale)
    ops = synthetic_stream(preload, DAEMON_TAIL, seed, tail_removals=0.5)
    return ops[:preload], ops[preload:]


def candidates(seed: int, count: int = CANDIDATES) -> List[List[Rule]]:
    """Insert-only what-if candidates with disjoint rule ids."""
    rng = random.Random(seed ^ 0xC0FFEE)
    out = []
    for index in range(count):
        base = 10_000_000 + index * CANDIDATE_OPS
        batch = []
        for n in range(CANDIDATE_OPS):
            lo = rng.randrange(1 << 24) << 8
            source = rng.randrange(SWITCHES)
            target = (source + rng.randrange(1, SWITCHES)) % SWITCHES
            batch.append(Rule.forward(base + n, lo, lo + (1 << 8), base + n,
                                      f"s{source}", f"s{target}"))
        out.append(batch)
    return out


def input_lines(workload: str, seed: int, scale: float = 1.0) -> List[str]:
    """The canonical text of a workload's whole input."""
    if workload in ("update-50k", "whatif-50k"):
        base, tail = update_input(seed, scale)
        lines = [op.to_line() for op in base + tail]
        if workload == "whatif-50k":
            lines += [Op.insert(rule).to_line()
                      for batch in candidates(seed) for rule in batch]
        return lines
    if workload == "scenario-mix":
        lines = []
        for scenario in scenario_input(seed, scale):
            lines.append(f"# {scenario.name} "
                         + " ".join(map(repr, scenario.property_specs)))
            lines += [op.to_line() for op in scenario.ops]
        return lines
    if workload == "daemon-open":
        preload, tail = daemon_input(seed, scale)
        return [op.to_line() for op in preload + tail]
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(workload: str, seed: int, scale: float = 1.0) -> dict:
    return ops_fingerprint(input_lines(workload, seed, scale))


def committed_fingerprint(workload: str, seed: int):
    """The committed fingerprint of ``(workload, seed)`` at full scale,
    or ``None`` when that seed has none."""
    with open(FINGERPRINTS, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed))
