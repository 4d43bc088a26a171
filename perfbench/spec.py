"""The benchmark's declarative table: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --write-spec``) and the smoke test checks
that the two agree, so the contract and the code cannot drift apart.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

#: Seconds one run measures (the driver passes it back as --seconds).
RUN_SECONDS = 10

WORKLOADS = [
    ("update-50k",
     "Paper's per-update check at 50k rules: batched load, then verified "
     "single ops in a closed loop; loops property and core dominate, "
     "serve/persist/query bypassed"),
    ("scenario-mix",
     "All eight scenario families with their own properties: blackholes, "
     "reachability, waypoint and isolation checks run; few atoms, so core "
     "does little"),
    ("daemon-open",
     "Real daemon over loopback TCP from a separate process: writes plus "
     "~10% typed reads, open loop then pipelined; the only workload where "
     "serve and persist work"),
    ("whatif-50k",
     "Closed-loop LinkDown/Reachable questions and 24-op speculate() forks "
     "on the 50k base: the only workload for query.planner and "
     "core.speculative"),
]

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("p50_us", "us", "lower", 0.25),
    ("p99_us", "us", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("max_rps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

PROPERTIES = ("loops", "blackholes", "reachability", "waypoint", "isolation")

# (name, unit, better)
PER_LAYER = [
    ("core.deltanet.apply_us", "us", "lower"),
    ("core.atoms", "count", "lower"),
    ("core.delta_links", "count", "lower"),
    ("api.session.self_us", "us", "lower"),
    ("api.backend.self_us", "us", "lower"),
] + [
    item
    for prop in PROPERTIES
    for item in ((f"api.properties.{prop}.check_us", "us", "lower"),
                 (f"api.properties.{prop}.violations", "count", "higher"))
] + [
    ("query.planner.linkdown_us", "us", "lower"),
    ("query.planner.reachable_us", "us", "lower"),
    ("query.planner.flows_on_us", "us", "lower"),
    ("query.planner.atoms", "count", "lower"),
    ("query.planner.subgraph_links", "count", "lower"),
    ("core.speculative.fork_us", "us", "lower"),
    ("core.speculative.child_insert_us", "us", "lower"),
    ("core.speculative.discard_us", "us", "lower"),
    ("serve.aio.self_us", "us", "lower"),
    ("serve.stream.self_us", "us", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.wait_us", "us", "lower"),
    ("persist.store.record_us", "us", "lower"),
    ("persist.journal_bytes", "B/op", "lower"),
    ("persist.store.checkpoint_ms", "ms", "lower"),
    ("persist.store.checkpoints", "count", "lower"),
    ("persist.snapshot_bytes", "B", "lower"),
    ("client.lateness_us", "us", "lower"),
    ("client.busy_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
]

E2E_UNITS: Dict[str, str] = {name: unit for name, unit, _b, _x in END_TO_END}
LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _b in PER_LAYER}


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` document this table describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def write_benchmark_json(root: str) -> str:
    """Write ``BENCHMARK.json`` under ``root``; returns its path."""
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(benchmark_document(), handle, indent=2)
        handle.write("\n")
    return path


def workload_names() -> List[str]:
    return [name for name, _why in WORKLOADS]
