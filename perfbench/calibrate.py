"""Measure the seed-to-seed scatter the output-check envelopes come from.

For every run seed, runs the workload's operations 0 .. ops-1 and
records the checked statistic of each operation and its median over the
run. For both it prints the observed range with three envelopes: the
mean +- 6 sd (used for the knee, whose values lie on the bisection
grid) and the mean +- 6 and +- 8 sd of the log (used for the
right-skewed engine statistics: 8 for one operation, 6 for a run
median, which is closer to normal). Run from the repository root::

    python3 perfbench/calibrate.py --workload engine-steady --seeds 9700-9739

The envelopes in ``workloads.py`` were set from this output; rerun it
when a deliberate model change moves a simulated output.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def describe(label: str, values) -> str:
    mean = statistics.mean(values)
    sd = statistics.stdev(values)
    logs = [math.log(v) for v in values]
    log_mean = statistics.mean(logs)
    log_sd = statistics.stdev(logs)
    return (
        f"{label}: n={len(values)} range [{min(values):.5g}, "
        f"{max(values):.5g}] mean {mean:.5g} sd {sd:.5g} "
        f"+-6sd [{mean - 6 * sd:.5g}, {mean + 6 * sd:.5g}] "
        f"log mean {log_mean:.5g} log sd {log_sd:.5g} "
        + " ".join(
            f"+-{k} log sd [{math.exp(log_mean - k * log_sd):.5g}, "
            f"{math.exp(log_mean + k * log_sd):.5g}]"
            for k in (6, 8)
        )
    )


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="9700-9739")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    per_op, per_run = [], []
    for seed in parse_seeds(args.seeds):
        values = []
        for index in range(workload.ops):
            scenario = workload.scenario(seed, index)
            values.append(workload.statistic(scenario, workload.run(scenario)))
        per_op.extend(values)
        per_run.append(statistics.median(values))
        print(f"seed {seed}: run median {per_run[-1]:.5g}", flush=True)
    name = workload.statistic.__name__
    print(describe(f"{name} per operation", per_op))
    print(describe(f"{name} run median of {workload.ops}", per_run))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
