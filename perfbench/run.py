"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload engine-steady --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``,
``keys_per_s``, ``peak_rss_mb``, ``setup_s``); ``--trace 1`` prints the
per-layer table from a separate traced run. Each measurement runs in
its own process (``worker.py``), so peak memory is the workload's own
and ``setup_s`` includes importing ``repro``. Every operation's output
is checked; failures are printed and counted. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the
machine reference and the simulated outputs is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from machine import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("engine-steady", "engine-mitigated", "capacity-knee")
#: Set-up is measured this many times per run, each in a fresh process:
#: half before the measuring process, one in it, half after it, so the
#: samples span the run and a slow spell of a shared machine (or a first
#: process compiling the package's bytecode) moves few of them. The
#: median is reported.
SETUP_REPEATS = 5
#: Native thread pools are pinned to one thread: each workload is a
#: single-threaded batch job.
THREADS = "1"
#: A whole run, all its processes included, ends within this many
#: seconds of ``--seconds``; a process still running then is stopped.
SLACK_SECONDS = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "keys_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (not a failed output check)."""


def _environment() -> Dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = THREADS
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: List[str], deadline: float) -> Dict[str, object]:
    """Run one worker process to completion; returns its JSON record."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=_environment(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[0]} timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {args[0]} printed nothing")
    return json.loads(lines[-1])


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no repro package under {ROOT / 'src'}; run from a checkout"
        )


def _print_table(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")


def run(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    _check_checkout()
    common = ["--workload", workload, "--seed", str(seed)]
    deadline = time.monotonic() + seconds + SLACK_SECONDS
    if traced:
        spans_out = OUT / f"spans-{workload}-seed{seed}.npz"
        record = _worker(
            ["trace", *common, "--spans-out", str(spans_out)],
            deadline,
        )
        units = record["units"]
    else:
        def setup() -> float:
            return _worker(["setup", *common], deadline)["setup_s"]

        setups = [setup() for _ in range(SETUP_REPEATS // 2)]
        record = _worker(["measure", *common, "--seconds", str(seconds)], deadline)
        setups.append(record["metrics"]["setup_s"])
        setups += [setup() for _ in range(SETUP_REPEATS // 2)]
        record["setup_samples"] = setups
        record["metrics"]["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(traced))
    OUT.mkdir(exist_ok=True)
    name = f"run-{workload}-seed{seed}-trace{int(traced)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    metrics = {key: record["metrics"][key] for key in units}
    attempted, failed = record["attempted"], record["failed"]
    rounds = f" x {record['rounds']} rounds" if "rounds" in record else ""
    print(
        f"{workload} seed={seed} seconds={seconds:g} trace={int(traced)}: "
        f"{record['ops']} operations{rounds}"
    )
    _print_table("metrics:", metrics, units)
    print(f"  failed_frac     {failed / attempted:.6g} ({failed} of {attempted})")
    for message in record["messages"]:
        print(f"  check failed: {message}")
    if record.get("outputs"):
        _print_table(
            "simulated outputs (median over operations; recorded, not gated):",
            record["outputs"],
            {key: "" for key in record["outputs"]},
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
