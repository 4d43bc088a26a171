#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``spec.py`` for why each exists): ``update-50k``,
``scenario-mix``, ``daemon-open`` and ``whatif-50k``.  With ``--trace
0`` the run prints every end-to-end metric; with ``--trace 1`` it
records spans around the calls into each layer, prints the self-time
table and every per-layer metric, and writes the spans under
``perfbench/out/``.  The last line of standard output is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Other entry points:

    python3 perfbench/run.py --write-spec          # BENCHMARK.json
    python3 perfbench/run.py --write-fingerprints  # fingerprints.json

Every process a run starts gets ``PYTHONHASHSEED`` derived from the
seed, so a seed names one input even where the program's own
generators depend on string hashing.  Before measuring, a separate
process rebuilds the input of the canary seed and compares its
fingerprint with the committed one; any drift fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")

sys.path.insert(0, BENCH_DIR)

import spec  # noqa: E402
from common import hash_seed  # noqa: E402

#: The seed whose input is rebuilt and checked on every run.
CANARY_SEED = 0
#: Seeds with committed fingerprints.
FINGERPRINT_SEEDS = range(64)
#: A run is killed (and fails) after this many seconds.
RUN_TIMEOUT = 170


def _env(seed: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    return env


def _call(args, seed: int, timeout: float) -> subprocess.CompletedProcess:
    """Run the worker in its own process group; kill the group on
    timeout so no process outlives the run."""
    proc = subprocess.Popen([sys.executable, WORKER] + args, env=_env(seed),
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print(f"perfbench: worker killed after {timeout} s", file=sys.stderr)
        return subprocess.CompletedProcess(proc.args, -9, out, None)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, None)


def _fingerprints(seed: int, workload=None) -> dict:
    """Input fingerprints of ``seed``, computed in a fresh process."""
    args = ["fingerprint", "--seed", str(seed)]
    if workload is not None:
        args += ["--workload", workload]
    done = _call(args, seed, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"fingerprinting seed {seed} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def write_fingerprints() -> None:
    table = {name: {} for name in spec.workload_names()}
    for seed in FINGERPRINT_SEEDS:
        for name, value in _fingerprints(seed).items():
            table[name][str(seed)] = value
    with open(FINGERPRINTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input (smoke tests only)")
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--write-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.write_fingerprints:
        write_fingerprints()
        print(FINGERPRINTS)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    drift = None
    if args.scale == 1.0:
        with open(FINGERPRINTS, encoding="utf-8") as handle:
            want = json.load(handle)[args.workload][str(CANARY_SEED)]
        got = _fingerprints(CANARY_SEED, args.workload)[args.workload]
        if got != want:
            drift = f"canary seed {CANARY_SEED}: committed {want}, got {got}"
    done = _call(["run", "--workload", args.workload, "--seed",
                  str(args.seed), "--seconds", str(args.seconds), "--trace",
                  str(args.trace), "--scale", str(args.scale)],
                 args.seed, timeout=RUN_TIMEOUT)
    lines = (done.stdout or "").rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write("\n".join(lines) + "\n")
        print(f"perfbench: worker exited {done.returncode} without a result",
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    if drift is not None:
        print(f"  check input-canary: FAILED {drift}")
        result["correct"] = False
        result["attempted"] += 1
        result["failed"] += 1
    print(json.dumps(result))
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
