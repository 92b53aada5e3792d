"""Decision benchmark of the ElasticFlow scheduler in the simulator.

Runs ``repro.sim.engine.Simulator`` with ``ElasticFlowPolicy`` on one
workload and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the
repository root::

    python3 perfbench/run.py --workload philly --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 35

``--trace 0`` is the timed run and reports the end-to-end metrics;
``--trace 1`` is a separate traced run that reports the per-layer metrics
and writes its spans to ``.perfbench/``.  ``--all`` runs every workload in
turn, each in its own process, and prints every end-to-end metric by
workload.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
#: The keys of ``workloads.WORKLOADS``, spelled out so that arguments parse
#: (and a checkout without the program fails cleanly) before it is imported.
WORKLOAD_NAMES = ("philly", "wide-tight")


def run_all(args) -> int:
    """Every workload in turn, each in its own process (own peak RSS)."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
        output = done.stdout.strip().splitlines()
        print(f"== {name} ==")
        print("\n".join(output[:-1]))
        if done.returncode != 0 or not output:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(output[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import report

    return report.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
