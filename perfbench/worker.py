"""One benchmark run, in a process whose PYTHONHASHSEED run.py set.

    worker.py run --workload W --seed N --seconds S --trace 0|1 [--scale F]
    worker.py fingerprint [--workload W] --seed N

``run`` prints the report and, as its last line, the JSON result;
``fingerprint`` prints ``{workload: fingerprint}`` for seed ``N`` as
JSON, for ``W`` or for every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import inputs
import spec
from common import OUT_DIR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("run", "fingerprint"))
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.mode == "fingerprint":
        names = ([args.workload] if args.workload
                 else spec.workload_names())
        print(json.dumps({name: inputs.fingerprint(name, args.seed)
                          for name in names}))
        return 0
    if args.workload is None:
        parser.error("run needs --workload")
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    if args.workload == "daemon-open":
        import daemon

        result = daemon.daemon_open(args.seed, args.seconds, tracer,
                                    args.scale, spans_path)
    else:
        import inproc

        result = inproc.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, args.scale)
        if tracer is not None:
            tracer.write(spans_path, meta={"workload": args.workload,
                                           "seed": args.seed})
    if tracer is not None:
        result.notes["spans_file"] = os.path.relpath(spans_path)
    return 0 if result.emit(bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
