"""socioplan benchmark: end-to-end latency of plan + render, and a traced run
that splits it by module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports the package from ``src/`` and
writes its generated inputs under ``bench/.work/``, which it removes again.

Workloads (see ``workloads.py``): ``bedroom`` is the shipped scenario with the
replay assessor; ``cluttered_house`` and ``open_hall`` are scenes generated
from ``--seed`` and planned with the rule assessor.

One op is ``socioplan plan`` then ``socioplan render`` through the same
public calls (see ``ops.py``). Every op's outputs are checked outside the
timed region. A single process runs the ops one after another (a closed loop
with one client) until ``--seconds`` have passed.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``:
median plan and render time per op, set-up time and peak memory of fresh
interpreters, and the report size. Times are scaled to a reference host
speed measured between ops (see ``calibrate.py``); the unscaled medians are
printed in the log lines. ``--trace 1`` alternates untraced
and traced ops and reports the ``per_layer`` metrics: per-op self time and
counters of each module, and the tracing overhead on the plan step.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run: sample counts, p90 or p99 where at least ten samples lie
beyond it, unscaled medians, and the Python and numpy versions, git revision,
CPU count and seed. To print every end-to-end metric for all workloads:

    for w in bedroom cluttered_house open_hall; do
        python3 bench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Not visible from outside the program, and left to an in-program trace: A*
expansions and heap pushes, and whether ``iterate_plan`` converged or
stopped at ``max_rounds`` (``planner.rounds`` counts rounds, not why the
loop ended).
"""

import os

# One thread: set before numpy is imported here or in a probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
NEEDED = (
    "BENCHMARK.json",
    "src/socioplan/__init__.py",
    "data/bedroom_scenario.json",
    "data/bedroom_report.json",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="socioplan benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [name for name in NEEDED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: run from a socioplan checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import socioplan

    if Path(socioplan.__file__).resolve().parent != ROOT / "src" / "socioplan":
        print(f"error: imported socioplan from {socioplan.__file__}, not from src/", file=sys.stderr)
        return 2
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
