"""End-to-end decoding driver and experiment runner.

A decode loop drafts K rows of L tokens from the draft model, verifies them
with the configured algorithm against the current target chain, appends the
accepted block plus the extra token, and (for the block verifiers) installs
the modified target for the next iteration. ``sd`` and ``spectr`` keep each
rejection residual in one dict per decode. ``decode`` derives serial-call
accounting from its iterations: one target call per iteration, the
simulated batched pass, however many prefixes are read, and K * L draft
calls however few drafted tokens the verifier reads, and so draws: the
drafter's cost is simulated. Autoregressive decoding has block efficiency 1.

Chains answer a list of contexts in one ``conditionals`` call, so a
``ModifiedChain`` layer builds an iteration's overrides in one block and
asks the layer beneath once; its ``conditional`` is that call with one
context. Each block-verifier iteration with a positive horizon stacks one
``ModifiedChain`` on the last; one with horizon 0 leaves a ``RawChain`` at
the history.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .models import MarkovModel, ModelPair, generate_pair, load_model
from .probability import Distribution, RandomSource, derive_seed, sample
from .verifiers import (
    Counters,
    ModifiedTarget,
    draft_rows,
    verify_gbv,
    verify_kseq,
    verify_sd,
    verify_spectr_gbv,
)

ALGORITHMS = ("ar", "sd", "spectr", "gbv", "spectr-gbv")
SINGLE_DRAFT_ALGOS = ("ar", "sd", "gbv")
PROMPT_LENGTH = 8


def _tail(context: tuple[int, ...], order: int) -> tuple[int, ...]:
    """The last ``order`` tokens of ``context``: all an order-``order`` model reads."""
    return tuple(context[-order:]) if order > 0 else ()


class RawChain:
    """Target or draft conditionals from a fixed absolute context, at the model's temperature.

    Only the context's last ``model.order`` tokens are kept, so a chain does
    not grow with decode length. A context shorter than the order is kept
    whole, so the model zero-pads it. When ``ctx`` alone is at least ``order``
    long, its tail is the row's key, and a lookup probes ``model.cache`` with
    it directly; a shorter ``ctx`` or a miss goes through
    ``model.conditional``, which pads and fills the cache. A context gets the
    object the model returns for it.
    """

    def __init__(self, model: MarkovModel, context: tuple[int, ...]):
        self.model = model
        self.context = _tail(context, model.order)
        self._order = model.order
        self._rows = model.cache

    def conditional(self, ctx: tuple[int, ...]) -> Distribution:
        n = len(ctx) - self._order
        if n >= 0:
            d = self._rows.get(ctx[n:])
            if d is not None:
                return d
        return self.model.conditional(self.context + ctx)

    def conditionals(self, ctxs) -> list[Distribution]:
        return list(map(self.conditional, ctxs))


class ModifiedChain:
    """Target chain for the iteration after a block-verification step.

    Contexts are relative to the absolute context right after the verified
    block, the base's context plus ``record.prefix``; the wrapped record
    bridges back to the previous iteration's coordinates through ``base``.

    A layer overrides only when asked for a context shorter than its record's
    horizon, and any such query walks every parent of that context, so it asks
    its base for contexts from ``len(record.prefix)`` tokens up. The horizon
    plus the prefix length is L, or the horizon is 0 and the prefix is at
    least L long, so a context at or past the horizon would reach every layer
    beneath with L tokens or more, past any horizon, and come back as the raw
    target after the block: ``raw``, a ``RawChain`` there, answers it, and
    only live contexts go down; no other code tests the horizon. The base is
    asked for nothing shorter than ``len(record.prefix)`` tokens, whatever is
    stacked on this layer later, so one comparison decides it: a base whose
    horizon is at most that is spent, and its ``raw`` replaces it and all
    beneath it here.
    """

    def __init__(self, base, draft: RawChain, record: ModifiedTarget, counters: Counters):
        raw = getattr(base, "raw", base)
        if isinstance(base, ModifiedChain) and base.record.horizon <= len(record.prefix):
            base = raw
        self.base = base
        self.draft = draft
        self.record = record
        self.counters = counters
        self.raw = RawChain(raw.model, raw.context + record.prefix)
        self._memo: dict[tuple[int, ...], Distribution] = {}

    def conditionals(self, ctxs) -> list[Distribution]:
        memo, horizon = self._memo, self.record.horizon
        misses = [ctx for ctx in ctxs if len(ctx) < horizon and ctx not in memo]
        if misses:
            misses = list(dict.fromkeys(misses))
            found = self.record.conditional(
                misses, self.base.conditionals, self.draft.conditionals, self.counters
            )
            memo.update(zip(misses, found))
        raw = self.raw.conditional
        return [memo[ctx] if len(ctx) < horizon else raw(ctx) for ctx in ctxs]

    def conditional(self, ctx: tuple[int, ...]) -> Distribution:
        return self.conditionals((ctx,))[0]


@dataclass(frozen=True)
class RunConfig:
    """One experiment cell. K is forced to 1 for the single-draft algorithms.
    Both model paths are given, or neither and the pair is generated."""

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
        if self.K < 1 or self.L < 1:
            raise ValueError("K and L must be >= 1")
        if self.algo in SINGLE_DRAFT_ALGOS and self.K != 1:
            object.__setattr__(self, "K", 1)
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be finite and > 0")
        if self.prompts < 1 or self.trials < 1 or self.max_tokens < 1:
            raise ValueError("prompts, trials, and max_tokens must be >= 1")
        if bool(self.draft_path) != bool(self.target_path):
            raise ValueError("a draft model path needs a target model path, and the reverse")

    def build_pair(self) -> ModelPair:
        if self.draft_path:
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


# a report row: the cell, then its decode's metrics
CSV_HEADER = ["algo", "K", "L", "T", "seed", "prompt_id", *(f.name for f in fields(RunMetrics))]


def block_efficiency(m: RunMetrics) -> float:
    """Decoded tokens per serial target-model call."""
    if m.target_calls < 1:
        raise ValueError("no target calls recorded")
    return m.decoded_tokens / m.target_calls


def generate_prompt(vocab_size: int, rng: RandomSource) -> tuple[int, ...]:
    uniform = Distribution(np.full(vocab_size, 1.0 / vocab_size))
    return tuple(sample(uniform, rng) for _ in range(PROMPT_LENGTH))


def verify(algo: str, drafts, q_chain, rng: RandomSource, trace=None, residuals=None):
    """One verification step of ``algo`` against the target chain ``q_chain``:
    the outcome and, for the block verifiers, the modified target for the next
    iteration (else None). ``sd`` and ``spectr`` are handed
    ``q_chain.conditional`` and ask it where they reach; ``gbv`` and
    ``spectr-gbv`` are handed ``q_chain.conditionals`` and ask it once.

    The verifiers are read from this module's globals at each call, so a
    wrapper rebound over one of them, as ``bench/tracer.py`` installs, sees
    every call.
    """
    if algo in ("sd", "spectr"):
        kseq = verify_sd if algo == "sd" else verify_kseq
        return kseq(drafts, q_chain.conditional, rng, trace, residuals=residuals), None
    if algo in ("gbv", "spectr-gbv"):
        block = verify_gbv if algo == "gbv" else verify_spectr_gbv
        return block(drafts, q_chain.conditionals, rng, trace)
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
    ``block_efficiency``, count the tokens emitted. An argument below 1 is
    refused before any draw (K and L only where the algo drafts).
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algo {algo!r}")
    for name, value in [("max_tokens", max_tokens)] + ([("K", K), ("L", L)] if algo != "ar" else []):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    eos = pair.vocab_size - 1
    keep = max(pair.draft.order, pair.target.order)
    history = _tail(prompt, keep)
    out: list[int] = []
    taus: list[int] = []
    totals = Counters()
    t0 = time.perf_counter()

    K_eff = 1 if algo in SINGLE_DRAFT_ALGOS else K
    if algo == "ar":
        while len(out) < max_tokens:
            tok = sample(pair.target.conditional(history), rng)
            out.append(tok)
            history = _tail(history + (tok,), keep)
            if tok == eos:
                break
    else:
        q_chain = RawChain(pair.target, history)
        residuals: dict = {}  # the K-SEQ residual memo, for this decode only
        while len(out) < max_tokens:
            p_chain = RawChain(pair.draft, history)
            drafts = draft_rows(p_chain.conditional, K_eff, L, rng)
            outcome, mod = verify(algo, drafts, q_chain, rng, residuals=residuals)
            totals.add(outcome.counters)
            taus.append(outcome.tau)
            block = outcome.t + (outcome.y,)
            if eos in block:
                block = block[: block.index(eos) + 1]
            out.extend(block[: max_tokens - len(out)])
            if out[-1] == eos or len(out) == max_tokens:
                break
            history = _tail(history + block, keep)
            if mod is not None and mod.horizon > 0:
                q_chain = ModifiedChain(q_chain, p_chain, mod, totals)
            else:
                q_chain = RawChain(pair.target, history)

    wall_ms = (time.perf_counter() - t0) * 1e3
    metrics = RunMetrics(
        decoded_tokens=len(out),
        # one simulated batched target pass per iteration
        target_calls=len(out) if algo == "ar" else len(taus),
        draft_calls=K_eff * L * len(taus),
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
                if not timings:
                    m.wall_ms = 0.0
                rows.append({
                    "algo": cfg.algo, "K": cfg.K, "L": cfg.L, "T": cfg.temperature,
                    "seed": cell_seed, "prompt_id": prompt_id, **asdict(m),
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

