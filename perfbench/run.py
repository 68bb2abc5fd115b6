"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {figures_dry,wet_verified,faults_heavy} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures for about ``S`` seconds and prints the end-to-end
metrics; ``--trace 1`` makes a fixed number of passes and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it holds the host facts, including the calibration loop's time
that lets results from two hosts be compared as ratios, and the raw
host seconds behind the calibrated ``wall_s`` and ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    if args.trace:
        metrics, tally, notes = harness.traced(args.workload, args.seed)
    else:
        metrics, tally, notes = harness.measure(args.workload, args.seed, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>18.6g} {unit}")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({"host": harness.host_facts(), **notes}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
