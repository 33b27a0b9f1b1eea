"""Acceptance battery.

Each test prints one [PASS]/[FAIL] line (run with -s to see them on success)
and asserts the stated tolerance. The exactness checks compare the exhaustive
event-tree enumeration of the implemented multi-draft block verifier against
the closed forms; where the sequential-scan semantics cannot meet a stated
tolerance the test fails with the measured gap rather than a loosened bound.
"""

import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (
    NuModifiedTarget,
    batched,
    bound_properties,
    gbv_block_sum,
    override,
    reference_gbv,
    subblock_h,
    tv_distance,
)
from speclab.harness import decode
from speclab.models import generate_pair
from speclab.oracle import exact_output_distribution
from speclab.probability import (
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    extend_joint,
    joint_ratio,
    normalize,
)
from speclab.verifiers import (
    ModifiedTarget,
    block_residual,
    draft_rows,
    gbv_accept_prob,
    kseq_rho,
    score_rows,
    verify_sd,
    verify_spectr_gbv,
)

CANONICAL_TAU_K2 = 1.64984375
CANONICAL_TAU_K1 = 1.31

SINGLE_ITER_INSTANCES = [
    (2, 1, 1, 101), (2, 1, 2, 102), (2, 1, 3, 103),
    (2, 2, 1, 104), (2, 2, 2, 105), (2, 2, 3, 106),
    (2, 3, 1, 107), (2, 3, 2, 108), (2, 3, 3, 109),
    (3, 1, 1, 110), (3, 1, 2, 111), (3, 1, 3, 112),
    (3, 2, 1, 113), (3, 2, 2, 114), (3, 2, 3, 115),
    (3, 3, 1, 116), (3, 3, 2, 117), (3, 3, 3, 118),
    (2, 2, 2, 119), (2, 2, 2, 120), (2, 2, 2, 121),
]
TWO_ITER_INSTANCES = [(2, 2, 2, s) for s in (131, 132, 133, 134, 135)]


def criterion(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _pair_for(V, seed):
    return generate_pair(V, 1, seed, 1.0, 0.5)


@dataclass
class Battery:
    reports: list
    two_iter: list
    runtime: float


@pytest.fixture(scope="session")
def battery():
    t0 = time.perf_counter()
    reports = []
    for V, L, K, seed in SINGLE_ITER_INSTANCES:
        pair = _pair_for(V, seed)
        reports.append(((V, L, K, seed), exact_output_distribution(pair, L, K)))
    two_iter = []
    for V, L, K, seed in TWO_ITER_INSTANCES:
        pair = _pair_for(V, seed)
        two_iter.append(((V, L, K, seed), exact_output_distribution(pair, L, K, iterations=2)))
    return Battery(reports, two_iter, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def canonical():
    from speclab.models import MarkovModel, ModelPair

    draft = MarkovModel(2, 0, np.array([[0.5, 0.5]]))
    target = MarkovModel(2, 0, np.array([[0.8, 0.2]]))
    return ModelPair(draft, target)


def test_criterion_01_distribution_preservation(battery):
    worst = max(r.max_marginal_dev for _k, r in battery.reports)
    worst_two = max(r.max_marginal_dev_two_iter for _k, r in battery.two_iter)
    fast = battery.runtime < 300
    ok = worst < 1e-9 and worst_two < 1e-9 and fast
    per_k = {}
    for (V, L, K, _s), r in battery.reports:
        per_k.setdefault(K, []).append(r.max_marginal_dev)
    detail = (
        f"{len(battery.reports)} instances, worst single-iteration dev {worst:.3e}; "
        f"worst by K: " + ", ".join(f"K={k}: {max(v):.3e}" for k, v in sorted(per_k.items())) + "; "
        f"{len(battery.two_iter)} two-iteration instances, worst dev {worst_two:.3e}"
    )
    # the wall time varies from run to run, so it is printed only when it fails
    if not fast:
        detail += f"; runtime {battery.runtime:.1f}s, limit 300s"
    criterion(1, "exact output distribution matches the target chain (<1e-9)", ok, detail)


def test_criterion_02_expected_tau_attains_bound(battery, canonical):
    gaps = {K: [] for K in (1, 2, 3)}
    for (V, L, K, _s), r in battery.reports:
        gaps[K].append(abs(r.expected_tau - r.bound))
    worst = max(max(v) for v in gaps.values() if v)
    canon2 = exact_output_distribution(canonical, 2, 2).expected_tau
    canon1 = exact_output_distribution(canonical, 2, 1).expected_tau
    ok = (
        worst < 1e-9
        and abs(canon2 - CANONICAL_TAU_K2) < 1e-9
        and abs(canon1 - CANONICAL_TAU_K1) < 1e-9
    )
    detail = (
        "worst |E[tau]-bound| by K: "
        + ", ".join(f"K={k}: {max(v):.3e}" for k, v in sorted(gaps.items()) if v)
        + f"; canonical K=2 E[tau]={canon2:.9f} (target {CANONICAL_TAU_K2}), "
        f"K=1 E[tau]={canon1:.9f} (target {CANONICAL_TAU_K1})"
    )
    criterion(2, "event-tree expected acceptance length equals the bound (<1e-9)", ok, detail)


def test_criterion_03_bound_properties(battery, canonical):
    K_list = [1, 2, 4, 8, 16, 32, 64]
    all_strict = True
    all_consistent = True
    for (V, L, K, seed), _r in battery.reports:
        pair = _pair_for(V, seed)
        rep = bound_properties(pair, L, K_list)
        all_strict &= rep["strictly_increasing"] and rep["all_below_L"] and rep["gaps_decreasing"]
        all_consistent &= abs(rep["bounds"][0] - gbv_block_sum(pair, L)) < 1e-12
    canon = bound_properties(canonical, 2, K_list)
    gap64 = canon["final_gap_to_L"]
    ok = all_strict and all_consistent and gap64 < 0.01 and canon["strictly_increasing"]
    detail = f"strict increase on all instances; canonical L - Bound(64) = {gap64:.3e}"
    criterion(3, "bound strictly increasing in K, converging to L, K=1 equals the min-joint sum", ok, detail)


def test_criterion_04_acceptance_mass_identity(battery):
    worst = max(r.lemma_max_dev for _k, r in battery.reports)
    per_k = {}
    for (V, L, K, _s), r in battery.reports:
        per_k.setdefault(K, []).append(r.lemma_max_dev)
    ok = worst < 1e-9
    detail = "worst per-sub-block deviation by K: " + ", ".join(
        f"K={k}: {max(v):.3e}" for k, v in sorted(per_k.items())
    )
    criterion(4, "per-sub-block acceptance mass matches the closed form (<1e-9)", ok, detail)


def test_criterion_05_single_draft_consistency(canonical):
    gen = np.random.Generator(np.random.PCG64(909))
    worst_h = worst_res = worst_mod = 0.0
    checked = 0
    for _ in range(1000):
        p_vec = Distribution(gen.dirichlet(np.ones(3)))
        q_vec = Distribution(gen.dirichlet(np.ones(3)))
        plen = int(gen.integers(0, 3))
        toks = tuple(int(x) for x in gen.integers(0, 3, size=plen))
        j = PrefixJoint()
        for tok in toks:
            j = extend_joint(j, tok, p_vec, q_vec)
        nu = joint_ratio(j.log_q, j.log_p)
        a = subblock_h(j, p_vec, q_vec, 1)
        b = gbv_accept_prob(nu, p_vec, q_vec, at_end=False)
        worst_h = max(worst_h, abs(a - b))
        try:
            res_a = block_residual(j, p_vec, q_vec, 1)
            res_b = normalize(np.maximum(nu * q_vec.mass - p_vec.mass, 0.0))
            worst_res = max(worst_res, float(np.max(np.abs(res_a.mass - res_b.mass))))
        except AllZeroMass:
            pass
        y = int(gen.integers(0, 3))
        jy = extend_joint(j, y, p_vec, q_vec)
        args = (max(4 - plen - 1, 0), 1, toks + (y,), jy)
        power = ModifiedTarget(*args)
        surplus = NuModifiedTarget(*args)
        q_cond = lambda ctx: q_vec
        p_cond = lambda ctx: p_vec
        for ctx in [(), (0,), (2,)]:
            if len(ctx) + 1 > power.horizon:
                continue
            da = override(power, ctx, q_cond, p_cond)
            db = override(surplus, ctx, q_cond, p_cond)
            worst_mod = max(worst_mod, float(np.max(np.abs(da.mass - db.mass))))
        checked += 1

    # paired Monte Carlo: same drafts, independent draw streams
    n = 100_000
    p_cond = canonical.draft.conditional
    q_cond = canonical.target.conditional
    rng_draft = RandomSource(5150)
    rng_a = RandomSource(88)
    rng_b = RandomSource(99)
    diffs = np.empty(n)
    for i in range(n):
        drafts = draft_rows(p_cond, 1, 2, rng_draft)
        scores = score_rows(drafts, batched(q_cond))
        out_a, _ = verify_spectr_gbv(drafts, scores, rng_a)
        out_b, _ = reference_gbv(drafts, scores, rng_b)
        diffs[i] = out_a.tau - out_b.tau
    mean = float(diffs.mean())
    half = 1.96 * float(diffs.std(ddof=1)) / math.sqrt(n)
    ok = worst_h < 1e-12 and worst_res < 1e-12 and worst_mod < 1e-12 and abs(mean) <= half
    detail = (
        f"{checked} random states: |h| dev {worst_h:.2e}, residual dev {worst_res:.2e}, "
        f"modification dev {worst_mod:.2e}; paired MC mean tau diff {mean:+.5f} ci ±{half:.5f}"
    )
    criterion(5, "single-draft reduction matches the block verifier pointwise (1e-12) and in MC", ok, detail)


def test_criterion_06_monte_carlo_fidelity(canonical):
    n = 200_000
    L, K = 2, 2
    p_cond = canonical.draft.conditional
    q_cond = canonical.target.conditional
    rng = RandomSource(2718)
    counts = np.zeros((2,) * L)
    taus = np.empty(n)
    from speclab.probability import sample

    for i in range(n):
        drafts = draft_rows(p_cond, K, L, rng)
        scores = score_rows(drafts, batched(q_cond))
        out, mod = verify_spectr_gbv(drafts, scores, rng)
        taus[i] = out.tau
        seq = out.t + (out.y,)
        while len(seq) < L:
            d = override(mod, seq[len(mod.prefix):], q_cond, p_cond)
            seq = seq + (sample(d, rng),)
        counts[seq[:L]] += 1
    emp = Distribution((counts / n).reshape(-1))
    qjoint = np.array([
        q_cond(()).mass[a] * q_cond((a,)).mass[b] for a in range(2) for b in range(2)
    ])
    tv = tv_distance(emp, Distribution(qjoint))
    mean_tau = float(taus.mean())
    ok = tv < 0.01 and abs(mean_tau - CANONICAL_TAU_K2) < 0.005
    detail = f"TV(empirical, target)={tv:.4f}; mean tau {mean_tau:.4f} vs {CANONICAL_TAU_K2}"
    criterion(6, "canonical-instance Monte Carlo: TV < 0.01 and mean tau within 0.005", ok, detail)


def test_criterion_07_baselines(canonical):
    # token-level acceptance: analytic mass sum_x min(p, q) = 0.7
    rng = RandomSource(31337)
    n = 100_000
    accepted = 0
    p_cond = canonical.draft.conditional
    q_cond = canonical.target.conditional
    for _ in range(n):
        drafts = draft_rows(p_cond, 1, 1, rng)
        accepted += verify_sd(drafts, q_cond, rng).tau
    sd_rate = accepted / n
    sd_ok = abs(sd_rate - 0.7) < 0.01

    gen = np.random.Generator(np.random.PCG64(246))
    worst_fp = 0.0
    for _ in range(1000):
        p = Distribution(gen.dirichlet(np.ones(4)))
        q = Distribution(gen.dirichlet(np.ones(4)))
        K = int(gen.integers(1, 9))
        s = kseq_rho(p, q, K)
        beta = float(np.minimum(p.mass, q.mass / s.rho).sum())
        worst_fp = max(worst_fp, abs(1.0 - (1.0 - beta) ** K - s.rho * beta))
    fp_ok = worst_fp < 1e-9

    rho = kseq_rho(Distribution(np.array([0.5, 0.5])), Distribution(np.array([0.8, 0.2])), 2).rho
    closed_form = (1.5 + math.sqrt(1.45)) / 2.0
    rho_ok = abs(rho - closed_form) < 1e-6

    ok = sd_ok and fp_ok and rho_ok
    detail = (
        f"sd acceptance {sd_rate:.4f} vs 0.7; worst fixed-point residual {worst_fp:.2e}; "
        f"rho {rho:.9f} vs closed form {closed_form:.9f}"
    )
    criterion(7, "token-level baseline and per-position scale solver", ok, detail)


def _sweep_metric(pair, algo, K, L, seeds, prompts, max_tokens, metric):
    from speclab.harness import generate_prompt
    from speclab.probability import derive_seed

    vals = []
    for s in seeds:
        for pid in range(prompts):
            rng = RandomSource(derive_seed(s, pid))
            prompt = generate_prompt(pair.vocab_size, rng)
            _, m = decode(pair, algo, K, L, prompt, max_tokens, rng)
            vals.append(getattr(m, metric))
    return float(np.mean(vals))


def test_criterion_08_trend_reproduction():
    pairs = [generate_pair(8, 1, 500 + i, 1.0, 0.6) for i in range(10)]
    seeds = list(range(24))

    tau = {a: [] for a in ("sd", "spectr", "gbv", "spectr-gbv")}
    diffs_sgbv_sd = []
    for idx, pair in enumerate(pairs):
        per_algo = {}
        for algo in tau:
            K = 1 if algo in ("sd", "gbv") else 3
            per_algo[algo] = [
                _sweep_metric(pair, algo, K, 8, [s], 2, 48, "mean_tau") for s in seeds
            ]
            tau[algo].append(float(np.mean(per_algo[algo])))
        diffs_sgbv_sd.extend(
            np.array(per_algo["spectr-gbv"]) - np.array(per_algo["sd"])
        )
    means = {a: float(np.mean(v)) for a, v in tau.items()}
    d = np.array(diffs_sgbv_sd)
    half = 1.96 * float(d.std(ddof=1)) / math.sqrt(d.size)
    sep = float(d.mean()) - half > 0.0

    order_ok = (
        means["spectr-gbv"] >= means["spectr"] >= means["sd"]
        and means["spectr-gbv"] >= means["gbv"]
    )

    ksweep_pair = pairs[0]
    acc = [
        _sweep_metric(ksweep_pair, "spectr-gbv", K, 8, seeds[:12], 2, 48, "accept_rate")
        for K in (1, 3, 5, 7)
    ]
    acc_ok = all(b >= a - 1e-12 for a, b in zip(acc, acc[1:]))

    be = [
        _sweep_metric(ksweep_pair, "spectr-gbv", 3, L, seeds[:12], 2, 48, "block_efficiency")
        for L in (2, 4, 8)
    ]
    be_ok = all(b >= a - 1e-12 for a, b in zip(be, be[1:]))

    ok = order_ok and sep and acc_ok and be_ok
    detail = (
        f"mean tau: " + ", ".join(f"{a}={means[a]:.3f}" for a in means)
        + f"; sgbv-sd gap {float(d.mean()):.3f} ±{half:.3f}"
        + f"; accept_rate vs K {['%.3f' % a for a in acc]}"
        + f"; BE vs L {['%.3f' % b for b in be]}"
    )
    criterion(8, "multi-draft block verifier dominates baselines; monotone K and L trends", ok, detail)


def test_criterion_09_complexity_counters(canonical):
    scans_per_eval = {}
    for K in (1, 8):
        rng = RandomSource(13)
        drafts = draft_rows(canonical.draft.conditional, K, 3, rng)
        scores = score_rows(drafts, batched(canonical.target.conditional))
        out, _ = verify_spectr_gbv(drafts, scores, rng)
        c = out.counters
        evals = c.h_partial_evals + c.residual_evals
        scans_per_eval[K] = c.vocab_scans / evals if evals else 0.0
    constant_ok = scans_per_eval[1] == scans_per_eval[8] == 1.0

    p = Distribution(np.array([0.5, 0.5]))
    q = Distribution(np.array([0.8, 0.2]))
    coarse = kseq_rho(p, q, 2, tol=1e-4).iterations
    fine = kseq_rho(p, q, 2, tol=1e-12).iterations
    grow_ok = fine > coarse

    ok = constant_ok and grow_ok
    detail = (
        f"scans per acceptance evaluation: K=1 -> {scans_per_eval[1]}, K=8 -> {scans_per_eval[8]}; "
        f"bisection iterations 1e-4 -> {coarse}, 1e-12 -> {fine}"
    )
    criterion(9, "block-verification work per step is constant in K; scale solve grows with tolerance", ok, detail)


def test_criterion_10_run_determinism(tmp_path):
    cfg = tmp_path / "cell.txt"
    cfg.write_text(
        "algo = spectr-gbv\nK = 2\nL = 3\ngen = 5,1,12,1.0,0.6\n"
        "prompts = 2\nmax-tokens = 16\nseed = 7\ntrials = 2\n"
    )
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "speclab", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    criterion(10, "repeated runs from one config file produce byte-identical reports", ok,
              f"{len(outs[0])} bytes each")
