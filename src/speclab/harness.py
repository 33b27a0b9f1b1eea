"""End-to-end decoding driver and experiment runner.

A decode loop drafts K rows of L tokens from the draft model, scores every
row prefix under the current target chain in one batched call, verifies with
the configured algorithm, appends the accepted block plus the extra token,
and (for the block verifiers) installs the modified target for the next
iteration. Serial-call accounting charges one target call per iteration, so
autoregressive decoding has block efficiency exactly 1.

Chains answer a list of contexts in one ``conditionals`` call. Scoring asks
for all K * (L + 1) row prefixes at once, so each ``ModifiedChain`` layer
builds its overrides for an iteration in one block and asks the layer
beneath once; its ``conditional`` answers from the memo or makes that call
with one context. A ``RawChain`` lookup makes no vocabulary pass, so its
batch is the lookup repeated.

Each block-verifier iteration stacks one ``ModifiedChain`` on the last. After
every iteration ``prune_spent`` collapses the layers that can no longer
override into one ``RawChain``, and every chain keeps only the context tail
its Markov model reads, so memory and per-iteration work do not grow with
decode length. The pruning is exact: a spent layer only passes its base's
conditional through, and so does every layer beneath it, which is what the
raw target at that layer's absolute context returns.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .models import MarkovModel, ModelPair, generate_pair, load_model
from .probability import Distribution, RandomSource, derive_seed, sample
from .verifiers import (
    Counters,
    ModifiedTarget,
    draft_rows,
    score_rows,
    verify_gbv,
    verify_kseq,
    verify_sd,
    verify_spectr_gbv,
)

ALGORITHMS = ("ar", "sd", "spectr", "gbv", "spectr-gbv")
SINGLE_DRAFT_ALGOS = ("ar", "sd", "gbv")
PROMPT_LENGTH = 8

CSV_HEADER = [
    "algo", "K", "L", "T", "seed", "prompt_id", "decoded_tokens", "target_calls",
    "draft_calls", "mean_tau", "accept_rate", "block_efficiency", "vocab_scans",
    "wall_ms", "warnings",
]


def _tail(context: tuple[int, ...], order: int) -> tuple[int, ...]:
    """The last ``order`` tokens of ``context``: all an order-``order`` model reads."""
    return tuple(context[-order:]) if order > 0 else ()


class RawChain:
    """Target or draft conditionals from a fixed absolute context, memoized.

    Only the context's last ``model.order`` tokens are kept. A context shorter
    than the order is kept whole, so the model zero-pads it as before.
    """

    def __init__(self, model: MarkovModel, temperature: float, context: tuple[int, ...]):
        self.model = model
        self.temperature = temperature
        self.context = _tail(context, model.order)
        self._memo: dict[tuple[int, ...], Distribution] = {}

    def conditional(self, ctx: tuple[int, ...]) -> Distribution:
        hit = self._memo.get(ctx)
        if hit is None:
            hit = self.model.conditional(self.context + ctx, self.temperature)
            self._memo[ctx] = hit
        return hit

    def conditionals(self, ctxs) -> list[Distribution]:
        return list(map(self.conditional, ctxs))


class ModifiedChain:
    """Target chain for the iteration after a block-verification step.

    Contexts are relative to ``origin``, the absolute context right after the
    verified block; the wrapped record bridges back to the previous
    iteration's coordinates through ``base``.

    A layer overrides only when asked for a context shorter than its record's
    horizon, and any such query walks every parent of that context, so it asks
    its base for contexts from ``len(record.prefix)`` tokens up. Once no
    context that short can reach a layer it is spent: it passes its base's
    conditional through unchanged, as does every layer beneath it, and
    ``prune_spent`` replaces the lot with a ``RawChain`` at its origin.
    """

    def __init__(
        self,
        base,
        draft: RawChain,
        record: ModifiedTarget,
        origin: tuple[int, ...],
        counters: Counters | None = None,
    ):
        self.base = base
        self.draft = draft
        self.record = record
        self.origin = origin
        self.counters = counters
        self._memo: dict[tuple[int, ...], Distribution] = {}

    def conditionals(self, ctxs) -> list[Distribution]:
        memo = self._memo
        misses = [ctx for ctx in ctxs if ctx not in memo]
        if misses:
            misses = list(dict.fromkeys(misses))
            found = self.record.conditional(
                misses, self.base.conditionals, self.draft.conditionals, self.counters
            )
            memo.update(zip(misses, found))
        return [memo[ctx] for ctx in ctxs]

    def conditional(self, ctx: tuple[int, ...]) -> Distribution:
        hit = self._memo.get(ctx)
        return hit if hit is not None else self.conditionals((ctx,))[0]


def prune_spent(chain, target: MarkovModel, temperature: float):
    """Collapse the first spent layer of ``chain`` and all beneath it into a raw chain.

    The walk starts at the top, which the next iteration asks for contexts
    from length 0. A layer asked for contexts from length d is live iff
    d < its horizon, and then asks the layer beneath from d = len(prefix).
    A spent layer is asked for d >= horizon tokens and asks its base for
    d + len(prefix) >= horizon + tau + 1 >= L, past any horizon, so every
    layer beneath it is spent too. A layer stacked on top later only
    lengthens these shortest contexts, so a spent layer stays spent.
    """
    depth, above, layer = 0, None, chain
    while isinstance(layer, ModifiedChain):
        if depth >= layer.record.horizon:
            raw = RawChain(target, temperature, layer.origin)
            if above is None:
                return raw
            above.base = raw
            break
        depth = len(layer.record.prefix)
        above, layer = layer, layer.base
    return chain


@dataclass(frozen=True)
class RunConfig:
    """One experiment cell. K is forced to 1 for the single-draft algorithms."""

    algo: str = "spectr-gbv"
    K: int = 3
    L: int = 8
    temperature: float = 1.0
    vocab_size: int = 8
    order: int = 1
    model_seed: int = 0
    concentration: float = 1.0
    similarity: float = 0.5
    draft_path: str | None = None
    target_path: str | None = None
    prompts: int = 4
    max_tokens: int = 64
    seed: int = 0
    trials: int = 3

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algo {self.algo!r}")
        if self.algo in SINGLE_DRAFT_ALGOS and self.K != 1:
            object.__setattr__(self, "K", 1)
        if self.K < 1 or self.L < 1:
            raise ValueError("K and L must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.prompts < 1 or self.trials < 1 or self.max_tokens < 1:
            raise ValueError("prompts, trials, and max_tokens must be >= 1")

    def build_pair(self) -> ModelPair:
        if self.draft_path and self.target_path:
            return ModelPair(
                load_model(self.draft_path), load_model(self.target_path), self.temperature
            )
        return generate_pair(
            self.vocab_size, self.order, self.model_seed, self.concentration,
            self.similarity, self.temperature,
        )


@dataclass
class RunMetrics:
    decoded_tokens: int = 0
    target_calls: int = 0
    draft_calls: int = 0
    mean_tau: float = 0.0
    accept_rate: float = 0.0
    block_efficiency: float = 0.0
    vocab_scans: int = 0
    wall_ms: float = 0.0
    warnings: int = 0


def block_efficiency(m: RunMetrics) -> float:
    """Decoded tokens per serial target-model call."""
    if m.target_calls < 1:
        raise ValueError("no target calls recorded")
    return m.decoded_tokens / m.target_calls


def generate_prompt(vocab_size: int, rng: RandomSource) -> tuple[int, ...]:
    uniform = Distribution(np.full(vocab_size, 1.0 / vocab_size))
    return tuple(sample(uniform, rng) for _ in range(PROMPT_LENGTH))


def verify(algo: str, drafts, scores, rng: RandomSource, trace=None):
    """One verification step of ``algo``: the outcome and, for the block
    verifiers, the modified target for the next iteration (else None).

    The verifiers are read from this module's globals at each call, so a
    wrapper rebound over one of them, as ``bench/tracer.py`` installs, sees
    every call.
    """
    if algo == "sd":
        return verify_sd(drafts, scores, rng, trace), None
    if algo == "spectr":
        return verify_kseq(drafts, scores, rng, trace), None
    if algo == "gbv":
        return verify_gbv(drafts, scores, rng, trace)
    if algo == "spectr-gbv":
        return verify_spectr_gbv(drafts, scores, rng, trace)
    raise ValueError(f"{algo!r} has no draft verifier")


def decode(
    pair: ModelPair,
    algo: str,
    K: int,
    L: int,
    prompt: tuple[int, ...],
    max_tokens: int,
    rng: RandomSource,
) -> tuple[list[int], RunMetrics]:
    """Run one decode to the end-of-sequence token (index V-1) or the cap.

    Every iteration appends the accepted block plus the extra token, tau + 1
    tokens, except that the last one stops at the first EOS or at
    ``max_tokens``. ``mean_tau`` and ``accept_rate`` are properties of the
    verifier and average the untruncated tau; ``decoded_tokens``, and with it
    ``block_efficiency``, count the tokens emitted.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algo {algo!r}")
    eos = pair.vocab_size - 1
    keep = max(pair.draft.order, pair.target.order)
    history = _tail(prompt, keep)
    out: list[int] = []
    taus: list[int] = []
    totals = Counters()
    t0 = time.perf_counter()

    if algo == "ar":
        while len(out) < max_tokens:
            d = pair.target_conditional(history)
            totals.target_calls += 1
            tok = sample(d, rng)
            out.append(tok)
            history = _tail(history + (tok,), keep)
            if tok == eos:
                break
    else:
        K_eff = 1 if algo in SINGLE_DRAFT_ALGOS else K
        q_chain = RawChain(pair.target, pair.temperature, history)
        while len(out) < max_tokens:
            p_chain = RawChain(pair.draft, pair.temperature, history)
            drafts = draft_rows(p_chain.conditional, K_eff, L, rng)
            totals.draft_calls += K_eff * L
            scores = score_rows(drafts, q_chain.conditionals)
            totals.target_calls += 1
            outcome, mod = verify(algo, drafts, scores, rng)
            totals.add(outcome.counters)
            taus.append(outcome.tau)
            block = outcome.t + (outcome.y,)
            if eos in block:
                block = block[: block.index(eos) + 1]
            out.extend(block[: max_tokens - len(out)])
            if out[-1] == eos or len(out) == max_tokens:
                break
            history = _tail(history + block, keep)
            if mod is not None:
                q_chain = prune_spent(
                    ModifiedChain(q_chain, p_chain, mod, history, totals),
                    pair.target, pair.temperature,
                )
            else:
                q_chain = RawChain(pair.target, pair.temperature, history)

    wall_ms = (time.perf_counter() - t0) * 1e3
    metrics = RunMetrics(
        decoded_tokens=len(out),
        target_calls=totals.target_calls,
        draft_calls=totals.draft_calls,
        mean_tau=float(np.mean(taus)) if taus else 0.0,
        accept_rate=float(np.mean([t / L for t in taus])) if taus else 0.0,
        vocab_scans=totals.vocab_scans,
        wall_ms=wall_ms,
        warnings=totals.warnings,
    )
    metrics.block_efficiency = block_efficiency(metrics)
    return out, metrics


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def run_experiment(
    configs: list[RunConfig], out_path: str, fmt: str = "csv", timings: bool = False
) -> list[dict]:
    """Execute every (config, trial, prompt) cell and write one report row each.

    Cell seeds derive from (master seed, trial, prompt) only, so two configs
    sharing a master seed land on identical seed values row for row and can
    be compared pairwise. wall_ms is reported as 0 unless timings is set,
    keeping the report byte-stable across runs.
    """
    rows = []
    for cfg in configs:
        pair = cfg.build_pair()
        for trial in range(cfg.trials):
            for prompt_id in range(cfg.prompts):
                cell_seed = derive_seed(cfg.seed, trial, prompt_id)
                rng = RandomSource(cell_seed)
                prompt = generate_prompt(pair.vocab_size, rng)
                _, m = decode(pair, cfg.algo, cfg.K, cfg.L, prompt, cfg.max_tokens, rng)
                rows.append({
                    "algo": cfg.algo,
                    "K": cfg.K,
                    "L": cfg.L,
                    "T": cfg.temperature,
                    "seed": cell_seed,
                    "prompt_id": prompt_id,
                    "decoded_tokens": m.decoded_tokens,
                    "target_calls": m.target_calls,
                    "draft_calls": m.draft_calls,
                    "mean_tau": m.mean_tau,
                    "accept_rate": m.accept_rate,
                    "block_efficiency": m.block_efficiency,
                    "vocab_scans": m.vocab_scans,
                    "wall_ms": m.wall_ms if timings else 0.0,
                    "warnings": m.warnings,
                })
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in CSV_HEADER])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return rows


def _mean_ci(diffs: np.ndarray) -> tuple[float, float, float]:
    mean = float(diffs.mean())
    if diffs.size < 2:
        return mean, mean, mean
    half = 1.96 * float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    return mean, mean - half, mean + half


def compare_algorithms(
    base_config: RunConfig,
    seeds: list[int],
    algos: tuple[str, ...] = ("sd", "spectr", "gbv", "spectr-gbv"),
) -> dict:
    """Paired comparison across algorithms on shared (seed, prompt) cells.

    Returns per-algorithm mean tau and block efficiency plus paired 95%
    confidence intervals of the per-seed differences against each baseline,
    and flags any violation of the expected mean-tau partial order.
    """
    per_algo_tau: dict[str, list[float]] = {a: [] for a in algos}
    per_algo_be: dict[str, list[float]] = {a: [] for a in algos}
    pair = base_config.build_pair()
    for algo in algos:
        cfg = replace(base_config, algo=algo)
        for s in seeds:
            taus, bes = [], []
            for prompt_id in range(cfg.prompts):
                rng = RandomSource(derive_seed(s, prompt_id))
                prompt = generate_prompt(pair.vocab_size, rng)
                _, m = decode(pair, algo, cfg.K, cfg.L, prompt, cfg.max_tokens, rng)
                taus.append(m.mean_tau)
                bes.append(m.block_efficiency)
            per_algo_tau[algo].append(float(np.mean(taus)))
            per_algo_be[algo].append(float(np.mean(bes)))

    report: dict = {"algos": {}, "pairwise": {}, "order_violations": []}
    for a in algos:
        arr = np.array(per_algo_tau[a])
        report["algos"][a] = {
            "mean_tau": float(arr.mean()),
            "block_efficiency": float(np.mean(per_algo_be[a])),
        }
    expected_geq = [("spectr-gbv", "spectr"), ("spectr-gbv", "gbv"),
                    ("spectr-gbv", "sd"), ("spectr", "sd"), ("gbv", "sd")]
    for hi, lo in expected_geq:
        if hi not in algos or lo not in algos:
            continue
        d = np.array(per_algo_tau[hi]) - np.array(per_algo_tau[lo])
        mean, lo_ci, hi_ci = _mean_ci(d)
        report["pairwise"][f"{hi}-{lo}"] = {"mean": mean, "ci95": [lo_ci, hi_ci]}
        if mean < 0:
            report["order_violations"].append(f"{hi} < {lo}")
    return report
