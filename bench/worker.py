"""One workload run in its own process: build inputs, run, check, measure.

Started by ``run.py``; not meant to be run by hand. With ``setup`` as the role
it stops once its inputs are built, which is how ``run.py`` repeats set-up in
fresh processes. The last line on stdout is one JSON object.

A pass runs a fixed list of operations one after another (a closed loop with
one caller). An operation is one ``harness.decode`` or one oracle cell, and
each has inputs of its own: decode times vary with their inputs, so the list
is long rather than repeated. The five algos and the cells are interleaved,
so that each is spread over the whole run. A traced run adds a second, traced
pass over the same list. An operation fails if it raises, if a check on its
output fails, or if the traced pass gives a different output.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

ALGOS = ("ar", "sd", "spectr", "gbv", "spectr-gbv")
BLOCK_ALGOS = ALGOS[1:]
K, L = 3, 8
ORDER, CONCENTRATION, SIMILARITY, TEMPERATURE = 1, 1.0, 0.6, 1.0
TOL = 1e-9
# decode counts below are sized for a run of this many seconds
NOMINAL_SECONDS = 30

# the scripts/run_oracle_battery.py grid, two iterations at (2, 2, 2)
GRID = tuple(
    ("exact", V, l, k, 2 if (V, l, k) == (2, 2, 2) else 1)
    for V in (2, 3) for l in (1, 2, 3) for k in (1, 2, 3)
)
LARGER_CELLS = (
    ("exact", 2, 4, 3, 1), ("exact", 3, 4, 2, 1), ("exact", 5, 2, 3, 1), ("exact", 3, 2, 3, 2),
    ("gbv", 3, 3, 1, 1), ("gbv", 3, 5, 1, 1), ("gbv", 5, 4, 1, 1),
)
# single-draft cells, exact to 1e-9, plus the grid's two-iteration cell
CANARY_CELLS = (
    ("exact", 4, 4, 1, 1), ("exact", 5, 4, 1, 1), ("exact", 3, 6, 1, 1), ("exact", 4, 5, 1, 1),
    ("exact", 2, 2, 2, 2), ("gbv", 4, 5, 1, 1), ("gbv", 6, 4, 1, 1),
)


@dataclass(frozen=True)
class Workload:
    vocab: int  # decode vocabulary, EOS = vocab - 1
    cap: int  # max_tokens of every decode
    pairs: int  # EOS-free model pairs the decodes cycle through
    decodes: dict  # algo -> decodes at NOMINAL_SECONDS
    cells: tuple  # oracle cells (kind, V, L, K, iterations)
    cell_pairs: int  # model pairs each cell is enumerated on


WORKLOADS = {
    "wide-vocab": Workload(
        vocab=1024, cap=64, pairs=2, cells=CANARY_CELLS, cell_pairs=5,
        decodes={"ar": 400, "sd": 180, "spectr": 100, "gbv": 200, "spectr-gbv": 150},
    ),
    "long-decode": Workload(
        vocab=16, cap=256, pairs=64, cells=CANARY_CELLS, cell_pairs=3,
        decodes={"ar": 400, "sd": 140, "spectr": 60, "gbv": 60, "spectr-gbv": 56},
    ),
    "oracle-battery": Workload(
        vocab=8, cap=64, pairs=64, cells=GRID + LARGER_CELLS, cell_pairs=4,
        decodes={"ar": 2400, "sd": 960, "spectr": 240, "gbv": 360, "spectr-gbv": 450},
    ),
}


def import_speclab():
    sys.path.insert(0, str(ROOT / "src"))
    import speclab

    if Path(speclab.__file__).resolve().parent != ROOT / "src" / "speclab":
        raise ImportError(f"speclab imported from {speclab.__file__}, not from this checkout")
    from speclab import harness, models, oracle, probability

    return harness, models, oracle, probability


class SpeedProbe:
    """Tracks the host's speed by timing fixed reference loops between operations.

    On a shared host the same Python code runs up to ~1.5x slower for
    seconds at a time, and not every kind of code slows alike. So each
    operation kind has a reference loop that slows in step with it: an
    operation's wall time times REF_S[kind] over its loop's time measured
    around it is the operation's time at reference speed, which is what the
    metrics report. REF_S, each loop's time on an unloaded 2.1 GHz Xeon vCPU,
    only sets the scale.
    """

    REF_S = {"decode": 0.0012, "cell": 0.0009}
    EVERY_S = 0.05

    def __init__(self):
        self._vec = np.linspace(0.0, 1.0, 512)
        self.starts: list[float] = []
        self.durations: dict[str, list[float]] = {kind: [] for kind in self.REF_S}

    def _decode_like(self) -> float:
        # numpy scalars walked in a Python loop, as sample() does, plus integer
        # arithmetic (vector operations and dict work slow more than decodes do)
        acc = 0.0
        for _ in range(8):
            for x in self._vec:
                if x > 0.25:
                    acc += float(x)
        n = 0
        for i in range(12000):
            n += i * i % 7
        return acc + n

    def _cell_like(self) -> float:
        # tuple keys, frozenset unions and dict updates, as the oracle's tree walk does
        rejected: frozenset = frozenset()
        leaves: dict = {}
        for i in range(1000):
            key = (i % 7, i % 11, i % 13)
            rejected = rejected | {key[:2]} if i % 50 else frozenset()
            leaves[key] = leaves.get(key, 0.0) + 1.0
        return len(leaves) + len(rejected)

    def tick(self, force: bool = False) -> None:
        """Time the reference loops if EVERY_S has passed since the last sample."""
        if force or not self.starts or time.perf_counter() - self.starts[-1] >= self.EVERY_S:
            self.starts.append(time.perf_counter())
            for kind, loop in (("decode", self._decode_like), ("cell", self._cell_like)):
                t0 = time.perf_counter()
                loop()
                self.durations[kind].append(time.perf_counter() - t0)

    def factor(self, kind: str, t0: float, t1: float) -> float:
        """REF_S over the mean reference time of the samples bracketing [t0, t1]."""
        lo = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.REF_S[kind] / statistics.fmean(self.durations[kind][lo:hi + 1])


# ---------------------------------------------------------------------------
# inputs


def eos_free(models, pair):
    """The pair with column V-1 zeroed and rows renormalized, revalidated by the program."""

    def strip(m):
        table = m.table.copy()
        table[:, -1] = 0.0
        return models.MarkovModel(m.vocab_size, m.order, table / table.sum(axis=1, keepdims=True))

    return models.ModelPair(strip(pair.draft), strip(pair.target), pair.temperature)


def spread_evenly(streams: list[list]) -> list:
    """Merge the streams so that each one's items are spread evenly over the result."""
    keyed = [((i + 0.5) / len(s), k, i) for k, s in enumerate(streams) for i in range(len(s))]
    return [streams[k][i] for _pos, k, i in sorted(keyed)]


def build_inputs(w: Workload, seed: int, seconds: int, lab) -> list[tuple]:
    """The operation list, every input derived from ``seed``."""
    _harness, models, _oracle, probability = lab
    derive = probability.derive_seed
    pairs = [
        eos_free(models, models.generate_pair(
            w.vocab, ORDER, derive(seed, 0, j), CONCENTRATION, SIMILARITY, TEMPERATURE))
        for j in range(w.pairs)
    ]
    # every algo decodes the same (pair, cell seed) list, as run_experiment pairs configs
    streams = [
        [("decode", algo, pairs[i % w.pairs], derive(seed, 1, i))
         for i in range(max(1, round(w.decodes[algo] * seconds / NOMINAL_SECONDS)))]
        for algo in ALGOS
    ]
    streams.append([
        ("cell", cell, models.generate_pair(cell[1], ORDER, derive(seed, 2, c, k), CONCENTRATION, SIMILARITY))
        for k in range(w.cell_pairs) for c, cell in enumerate(w.cells)
    ])
    return spread_evenly(streams)


# ---------------------------------------------------------------------------
# operations and their checks


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run_decode(lab, w: Workload, algo: str, pair, cell_seed: int) -> dict:
    harness, _models, _oracle, probability = lab
    rng = probability.RandomSource(cell_seed)
    prompt = harness.generate_prompt(pair.vocab_size, rng)
    t0 = time.perf_counter()
    out, m = harness.decode(pair, algo, K, L, prompt, w.cap, rng)
    wall = time.perf_counter() - t0
    fields = {k: v for k, v in dataclasses.asdict(m).items() if k != "wall_ms"}
    faults = []
    eos = pair.vocab_size - 1
    if any(not 0 <= t < eos for t in out):
        faults.append("token out of range or EOS")
    if len(out) < w.cap:
        faults.append(f"{len(out)} tokens, cap {w.cap}")
    if m.decoded_tokens != len(out):
        faults.append("decoded_tokens != len(out)")
    if m.block_efficiency != m.decoded_tokens / m.target_calls:
        faults.append("block_efficiency != decoded_tokens / target_calls")
    return {"wall": wall, "digest": digest_of([algo, out, fields]), "faults": faults,
            "tokens": len(out), "metrics": fields}


def run_cell(lab, w: Workload, cell, pair) -> dict:
    _harness, _models, oracle, _probability = lab
    kind, _V, l, k, iterations = cell
    t0 = time.perf_counter()
    if kind == "gbv":
        r = oracle.gbv_exact_report(pair, l)
    else:
        r = oracle.exact_output_distribution(pair, l, k, iterations=iterations)
    wall = time.perf_counter() - t0
    report = r.to_jsonable()
    del report["runtime_s"]
    two_iter = r.max_marginal_dev_two_iter
    devs = [r.max_marginal_dev, abs(r.expected_tau - r.bound), r.lemma_max_dev]
    if two_iter is not None:
        devs.append(two_iter)
    faults = []
    if k == 1 and max(devs) >= TOL:
        faults.append(f"K=1 exactness miss {max(devs):.3e}")
    if r.marginal_sums_max_err >= TOL or r.max_leafsum_err >= TOL:
        faults.append("marginal sums or leaf sums off by >= 1e-9")
    # K >= 2 gaps are the documented defect: measured, never a failure
    marginal = max(r.max_marginal_dev, two_iter or 0.0)
    return {"wall": wall, "digest": digest_of([list(cell), report]), "faults": faults,
            "k1_dev": max(devs) if k == 1 else 0.0, "multi_dev": marginal if k > 1 else 0.0,
            "leaf_states": r.leaf_states, "tuples": r.tuples}


RUNNERS = {"decode": run_decode, "cell": run_cell}


def run_pass(lab, probe: SpeedProbe, w: Workload, ops, tracer=None) -> tuple[list[dict], list]:
    """Every operation once; with a tracer, also each operation's span range."""
    results, ranges = [], []
    for kind, *args in ops:
        probe.tick()
        a = len(tracer) if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            r = RUNNERS[kind](lab, w, *args)
        except Exception:  # an operation that raises is a failed operation; the run goes on
            r = {"wall": None, "digest": None, "faults": [traceback.format_exc(limit=3)]}
        r["at"] = (t0, time.perf_counter())
        results.append(r)
        ranges.append((a, len(tracer) if tracer is not None else 0))
    return results, ranges


def check(passes: list[list[dict]]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over every pass; a rerun must give the
    first pass's output."""
    attempted = failed = 0
    faults = []
    for results in passes:
        for first, r in zip(passes[0], results):
            attempted += 1
            bad = list(r["faults"])
            if r["digest"] is not None and r["digest"] != first["digest"]:
                bad.append("output differs from the first pass")
            if bad:
                failed += 1
                faults.extend(bad)
    return attempted, failed, faults


# ---------------------------------------------------------------------------
# metrics


def throughput(w: Workload, ops, results, key: str = "ref_wall") -> dict[str, float]:
    """tok_s per algo: sum of min(len, cap) over sum of decode wall time."""
    tokens = {a: 0 for a in ALGOS}
    seconds = {a: 0.0 for a in ALGOS}
    for op, r in zip(ops, results):
        if op[0] == "decode" and r["wall"] is not None:
            tokens[op[1]] += min(r["tokens"], w.cap)
            seconds[op[1]] += r[key]
    return {a: tokens[a] / seconds[a] for a in ALGOS if seconds[a] > 0}


def cells_of(ops, results) -> list[dict]:
    return [r for op, r in zip(ops, results) if op[0] == "cell" and r["wall"] is not None]


def end_to_end(w: Workload, ops, results) -> dict:
    metrics = {f"tok_s.{a}": (v, "tokens/s") for a, v in throughput(w, ops, results).items()}
    metrics["battery_s"] = (sum(c["ref_wall"] for c in cells_of(ops, results)), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def layer_metrics(w: Workload, ops, plain, traced, tracer, span0: int, ranges) -> dict:
    """Per-layer split from the traced pass, whose spans start at index ``span0``."""
    spans = tracer.spans()
    lid = tracer.layer_id
    in_pass = spans["layer"][span0:]
    calls = np.bincount(in_pass, minlength=len(tracer.layers))
    metrics = {}

    def summed_ms(column, layer):
        return float(spans[column][span0:][in_pass == lid[layer]].sum()) / 1e6

    for layer in ("probability.sample", "probability.validate", "probability.normalize",
                  "probability.extend_joint", "models.conditional", "verifiers.draft_rows",
                  "verifiers.score_rows", "verifiers.kseq_rho", "verifiers.accept_eval",
                  "verifiers.block_residual", "verifiers.ModifiedTarget.conditional",
                  "harness.RawChain.conditional", "harness.ModifiedChain.conditional"):
        metrics[f"{layer}.calls"] = (int(calls[lid[layer]]), "count")
        metrics[f"{layer}.self_ms"] = (summed_ms("self", layer), "ms")
    for layer in ("verifiers.verify_sd", "verifiers.verify_kseq", "verifiers.verify_gbv",
                  "verifiers.verify_spectr_gbv", "harness.decode"):
        metrics[f"{layer}.self_ms"] = (summed_ms("self", layer), "ms")
    metrics["verifiers.rho_iters"] = (tracer.counts["verifiers.rho_iters"], "count")
    in_setup = spans["layer"][:span0] == lid["models.generate_pair"]
    metrics["models.generate_pair.ms"] = (float(spans["dur"][:span0][in_setup].sum()) / 1e6, "ms")

    # iterations: each draft_rows call directly under a decode opens one
    iters = {a: [] for a in BLOCK_ALGOS}
    growth = {a: [0.0, 0.0] for a in BLOCK_ALGOS}
    chain_calls = {a: 0 for a in BLOCK_ALGOS}
    chain_ids = (lid["harness.RawChain.conditional"], lid["harness.ModifiedChain.conditional"])
    for op, (a, b) in zip(ops, ranges):
        if op[0] != "decode" or op[1] not in BLOCK_ALGOS or b <= a:
            continue
        algo, layer = op[1], spans["layer"][a:b]
        d = a + int(np.argmax(layer == lid["harness.decode"]))  # the prompt's samples come first
        opens = spans["start"][a:b][(layer == lid["verifiers.draft_rows"]) & (spans["parent"][a:b] == d)]
        ms = np.diff(np.append(opens, spans["end"][d])) / 1e6
        iters[algo].extend(ms.tolist())
        q = max(1, len(ms) // 4)
        growth[algo][0] += float(ms[:q].sum())
        growth[algo][1] += float(ms[-q:].sum())
        chain_calls[algo] += int(np.isin(layer, chain_ids).sum())
    for algo in BLOCK_ALGOS:
        ms = np.array(iters[algo])
        metrics[f"harness.chain_calls_per_iter.{algo}"] = (chain_calls[algo] / len(ms), "count")
        metrics[f"harness.iter_ms_p50.{algo}"] = (float(np.percentile(ms, 50)), "ms")
        metrics[f"harness.iter_ms_p90.{algo}"] = (float(np.percentile(ms, 90)), "ms")
        metrics[f"harness.iter_ms_growth.{algo}"] = (growth[algo][1] / growth[algo][0], "ratio")
    decodes = [(op[1], r) for op, r in zip(ops, plain) if op[0] == "decode" and r["wall"] is not None]
    metrics["harness.overshoot_tokens"] = (sum(max(r["tokens"] - w.cap, 0) for _a, r in decodes), "count")

    # exact counts from RunMetrics: a speed-up must leave them identical
    runs = {a: [r["metrics"] for algo, r in decodes if algo == a] for a in ALGOS}
    metrics["verifiers.vocab_scans"] = (sum(r["metrics"]["vocab_scans"] for _a, r in decodes), "count")
    metrics["verifiers.warnings"] = (sum(r["metrics"]["warnings"] for _a, r in decodes), "count")
    for algo in BLOCK_ALGOS:
        metrics[f"verifiers.accept_rate.{algo}"] = (
            statistics.fmean(m["accept_rate"] for m in runs[algo]), "ratio")
    for algo in ALGOS:
        metrics[f"verifiers.block_efficiency.{algo}"] = (
            sum(m["decoded_tokens"] for m in runs[algo]) / sum(m["target_calls"] for m in runs[algo]),
            "tokens/call")

    cells = cells_of(ops, plain)
    for layer in ("oracle.exact_output_distribution", "oracle.gbv_exact_report"):
        metrics[f"{layer}.calls"] = (int(calls[lid[layer]]), "count")
        metrics[f"{layer}.ms"] = (summed_ms("dur", layer), "ms")
    metrics["oracle.cell_ms_max"] = (max(c["ref_wall"] for c in cells) * 1e3, "ms")
    metrics["oracle.leaf_states"] = (sum(c["leaf_states"] for c in cells), "count")
    metrics["oracle.tuples"] = (sum(c["tuples"] for c in cells), "count")
    metrics["oracle.k1_max_dev"] = (max(c["k1_dev"] for c in cells), "prob")
    metrics["oracle.multi_draft_max_dev"] = (max(c["multi_dev"] for c in cells), "prob")

    untraced_tok_s = throughput(w, ops, plain)
    traced_tok_s = throughput(w, ops, traced)
    for algo in ALGOS:
        metrics[f"trace.overhead_pct.{algo}"] = (
            (untraced_tok_s[algo] / traced_tok_s[algo] - 1.0) * 100.0, "%")
    return metrics


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "work"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    lab = import_speclab()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = build_inputs(w, args.seed, args.seconds, lab)
    ready_at = time.time()
    probe = SpeedProbe()
    for _ in range(3):
        probe.tick(force=True)
    setup_factor = probe.factor("decode", probe.starts[0], probe.starts[-1])
    if args.role == "setup":
        print(json.dumps({"ready_at": ready_at, "setup_factor": setup_factor}))
        return 0

    if tracer is not None:
        tracer.uninstall()
    plain, _ = run_pass(lab, probe, w, ops)
    passes = [plain]
    if tracer is not None:
        span0 = len(tracer)
        tracer.counts.clear()
        tracer.install()
        traced, ranges = run_pass(lab, probe, w, ops, tracer)
        tracer.uninstall()
        passes.append(traced)
    probe.tick(force=True)
    for results in passes:
        for op, r in zip(ops, results):
            if r["wall"] is not None:
                r["ref_wall"] = r["wall"] * probe.factor(op[0], *r["at"])

    attempted, failed, faults = check(passes)
    if tracer is None:
        metrics = end_to_end(w, ops, plain)
    else:
        metrics = layer_metrics(w, ops, plain, traced, tracer, span0, ranges)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    print(json.dumps({
        "ready_at": ready_at,
        "setup_factor": setup_factor,
        "raw_tok_s": throughput(w, ops, plain, key="wall"),
        "speed": statistics.median(probe.durations["decode"]) / probe.REF_S["decode"],
        "attempted": attempted,
        "failed": failed,
        "faults": faults[:5],
        "digest": digest_of([r["digest"] for r in plain]),
        "decodes": sum(op[0] == "decode" for op in ops),
        "cells": sum(op[0] == "cell" for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
