#!/usr/bin/env python3
"""speclab's benchmark of record.

    python3 bench/run.py --workload wide-vocab --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each workload runs in its own single-threaded worker process (see
``worker.py``), so ``peak_rss_mb`` is that workload's own peak. Set-up is
timed from process start to the first timed operation, in the worker and in
``SETUP_PROBES`` more processes that stop after set-up; ``setup_s`` is the
median of those times, each scaled to reference speed like every other time
(see ``SpeedProbe`` in ``worker.py``).

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics. Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in turn and prints one such line for each.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("wide-vocab", "long-decode", "oracle-battery")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child(role: str, args, timeout: float) -> tuple[dict, float]:
    """Run one worker process; return its JSON line and when it was started."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.time()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{role} process for {args.workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process for {args.workload} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process for {args.workload} printed nothing")
    return json.loads(lines[-1]), started


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    result, started = child("work", args, deadline - time.monotonic())
    metrics = result["metrics"]
    if not args.trace:
        setups = [(result["ready_at"] - started) * result["setup_factor"]]
        for _ in range(SETUP_PROBES):
            probe, probe_started = child("setup", args, deadline - time.monotonic())
            setups.append((probe["ready_at"] - probe_started) * probe["setup_factor"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    declared = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"decodes {result['decodes']}  cells {result['cells']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print("  raw tok_s " + "  ".join(f"{a} {v:.6g}" for a, v in result["raw_tok_s"].items())
          + f"  (machine at {result['speed']:.3f}x reference time)")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for fault in result["faults"]:
        print(f"  fault: {fault.strip()}")
    print(f"  digest sha256:{result['digest']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "speclab" / "__init__.py").is_file():
        print(f"error: no speclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            summary = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
