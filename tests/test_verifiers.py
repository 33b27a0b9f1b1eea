import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.models import generate_pair
from speclab.probability import (
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    extend_joint,
)
from speclab.verifiers import (
    GbvChainState,
    IterationRecord,
    block_residual,
    distribution_modification,
    draft_rows,
    full_block_accept_prob,
    gbv_accept_prob,
    gbv_modification,
    kseq_rho,
    score_rows,
    subblock_accept_prob,
    verify_gbv,
    verify_kseq,
    verify_sd,
    verify_spectr_gbv,
)


def dist(*mass):
    return Distribution(np.array(mass, dtype=float))


def order0_setup(pair, K, L, rng):
    p_cond = pair.draft_conditional
    drafts = draft_rows(p_cond, K, L, rng)
    scores = score_rows(drafts, pair.target_conditional)
    return drafts, scores


def joint_of(tokens, p_vec, q_vec):
    j = PrefixJoint.empty()
    for tok in tokens:
        j = extend_joint(j, tok, p_vec, q_vec)
    return j


CANON_P = (Fraction(1, 2), Fraction(1, 2))
CANON_Q = (Fraction(4, 5), Fraction(1, 5))


def frac_joint(tokens, vec):
    out = Fraction(1)
    for t in tokens:
        out *= vec[t]
    return out


def frac_h_partial(blk, K):
    """Independent exact-rational evaluation of the sub-block acceptance rule."""
    pj, qj = frac_joint(blk, CANON_P), frac_joint(blk, CANON_Q)
    S = Fraction(0)
    for x in range(2):
        pe, qe = pj * CANON_P[x], qj * CANON_Q[x]
        if qe > 0:
            S += qe * (1 - min(Fraction(pe, qe), Fraction(1))) ** K
    mi = min(Fraction(pj, qj), Fraction(1))
    num = S - qj * (1 - mi) ** K
    den = 1 - (1 - pj) ** K - qj + S
    return num / den


# ---------------------------------------------------------------------------


class TestVerifySd:
    def test_matched_models_accept_everything(self, matched_pair):
        rng = RandomSource(1)
        for _ in range(50):
            drafts, scores = order0_setup(matched_pair, 1, 4, rng)
            out = verify_sd(drafts, scores, rng)
            assert out.tau == 4 and out.t == drafts.tokens[0]

    def test_disjoint_supports_reject_first_token(self):
        drafts_tokens = ((0,),)
        cond = ((dist(1, 0),),)
        from speclab.verifiers import DraftSet, TargetScores

        drafts = DraftSet(drafts_tokens, cond)
        scores = TargetScores(((dist(0, 1), dist(0.5, 0.5)),))
        rng = RandomSource(0)
        for _ in range(20):
            out = verify_sd(drafts, scores, rng)
            assert out.tau == 0 and out.y == 1

    def test_first_token_acceptance_rate(self, canonical_pair):
        # analytic acceptance mass: sum_x min(p, q) = 0.5 + 0.2 = 0.7
        rng = RandomSource(42)
        n = 20_000
        accepted = 0
        for _ in range(n):
            drafts, scores = order0_setup(canonical_pair, 1, 1, rng)
            out = verify_sd(drafts, scores, rng)
            accepted += out.tau
        assert abs(accepted / n - 0.7) < 0.01

    def test_deterministic_given_seed(self, canonical_pair):
        def run(seed):
            rng = RandomSource(seed)
            drafts, scores = order0_setup(canonical_pair, 1, 3, rng)
            return verify_sd(drafts, scores, rng)

        assert run(5) == run(5)


class TestKseqRho:
    def test_single_draft_scale_is_one(self):
        s = kseq_rho(dist(0.5, 0.5), dist(0.8, 0.2), 1)
        assert s.rho == 1.0 and s.iterations == 0

    def test_matched_distributions(self):
        s = kseq_rho(dist(0.3, 0.7), dist(0.3, 0.7), 4)
        assert abs(s.rho - 1.0) < 1e-9

    def test_canonical_closed_form(self):
        # piecewise-linear beta turns the fixed point into rho^2 - 1.5 rho + 0.2 = 0
        expected = (1.5 + math.sqrt(1.45)) / 2.0
        s = kseq_rho(dist(0.5, 0.5), dist(0.8, 0.2), 2)
        assert abs(s.rho - expected) < 1e-9
        assert s.iterations <= 64

    def test_iterations_grow_with_tolerance(self):
        coarse = kseq_rho(dist(0.5, 0.5), dist(0.8, 0.2), 2, tol=1e-4)
        fine = kseq_rho(dist(0.5, 0.5), dist(0.8, 0.2), 2, tol=1e-12)
        assert fine.iterations > coarse.iterations

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=150)
    def test_fixed_point_residual(self, seed, K):
        gen = np.random.Generator(np.random.PCG64(seed))
        p = Distribution(gen.dirichlet(np.ones(5)))
        q = Distribution(gen.dirichlet(np.ones(5)))
        s = kseq_rho(p, q, K)
        g = 1.0 - (1.0 - s.beta) ** K - s.rho * s.beta
        assert abs(g) < 1e-9
        assert 1.0 <= s.rho <= K


class TestVerifyKseq:
    def test_single_draft_matches_sd_exactly(self, canonical_pair):
        # rho = 1 at K = 1, so acceptance rule, residual, and draw order coincide
        for seed in range(40):
            r1, r2 = RandomSource(seed), RandomSource(seed)
            d1, s1 = order0_setup(canonical_pair, 1, 3, r1)
            d2, s2 = order0_setup(canonical_pair, 1, 3, r2)
            a = verify_sd(d1, s1, r1)
            b = verify_kseq(d2, s2, r2)
            assert (a.tau, a.t, a.y) == (b.tau, b.t, b.y)

    def test_matched_models_accept_everything(self, matched_pair):
        rng = RandomSource(9)
        for _ in range(50):
            drafts, scores = order0_setup(matched_pair, 3, 4, rng)
            out = verify_kseq(drafts, scores, rng)
            assert out.tau == 4

    def test_position_acceptance_rate_canonical(self, canonical_pair):
        # closed form: rho*beta(rho) = 0.5*rho + 0.2 at the canonical instance
        rho = (1.5 + math.sqrt(1.45)) / 2.0
        expected = 0.5 * rho + 0.2
        rng = RandomSource(77)
        n = 20_000
        acc = 0
        for _ in range(n):
            drafts, scores = order0_setup(canonical_pair, 2, 1, rng)
            out = verify_kseq(drafts, scores, rng)
            acc += out.tau
        assert abs(acc / n - expected) < 0.01

    def test_t_matches_winning_row_prefix(self, canonical_pair):
        rng = RandomSource(31)
        for _ in range(200):
            drafts, scores = order0_setup(canonical_pair, 3, 3, rng)
            out = verify_kseq(drafts, scores, rng)
            assert out.t == drafts.tokens[out.f][: out.tau]


class TestGbvAcceptProb:
    def test_matched_models_interior_zero_final_one(self):
        p = q = dist(0.5, 0.5)
        j = joint_of((0,), p, q)
        a = gbv_accept_prob(j, p, q, GbvChainState(1.0, 1), at_end=False)
        assert a == 0.0
        assert gbv_accept_prob(j, None, None, GbvChainState(1.0, 2), at_end=True) == 1.0

    def test_zero_target_mass_kills_full_block(self):
        assert gbv_accept_prob(None, None, None, GbvChainState(0.0, 2), at_end=True) == 0.0

    def test_canonical_full_block_clamps(self):
        # block (0,0): nu = 0.64 / 0.25 = 2.56, clamped to 1
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((0, 0), p, q)
        nu = j.ratio_q_over_p()
        assert abs(nu - 2.56) < 1e-12
        assert gbv_accept_prob(j, None, None, GbvChainState(nu, 2), at_end=True) == 1.0


class TestVerifyGbv:
    def test_matched_models_accept_full_block(self, matched_pair):
        rng = RandomSource(3)
        for _ in range(50):
            drafts, scores = order0_setup(matched_pair, 1, 3, rng)
            out, _ = verify_gbv(drafts, scores, rng)
            assert out.tau == 3

    def test_length_one_matches_sd_exactly(self, canonical_pair):
        for seed in range(40):
            r1, r2 = RandomSource(seed), RandomSource(seed)
            d1, s1 = order0_setup(canonical_pair, 1, 1, r1)
            d2, s2 = order0_setup(canonical_pair, 1, 1, r2)
            a = verify_sd(d1, s1, r1)
            b, _ = verify_gbv(d2, s2, r2)
            assert (a.tau, a.t, a.y) == (b.tau, b.t, b.y)

    def test_expected_tau_canonical(self, canonical_pair):
        # hand sum of min joints: 0.7 at length 1 plus 0.61 at length 2
        rng = RandomSource(8)
        n = 40_000
        total = 0
        for _ in range(n):
            drafts, scores = order0_setup(canonical_pair, 1, 2, rng)
            out, _ = verify_gbv(drafts, scores, rng)
            total += out.tau
        se = math.sqrt(0.7 / n)  # generous bound on the sd of the mean
        assert abs(total / n - 1.31) < 0.015


class TestAcceptanceFormulas:
    def test_subblock_prob_matched_models_zero(self):
        p = q = dist(0.25, 0.75)
        j = joint_of((1,), p, q)
        assert subblock_accept_prob(j, p, q, 3) == 0.0

    def test_subblock_prob_zero_target_mass(self):
        p, q = dist(0.5, 0.5), dist(1.0, 0.0)
        j = joint_of((1,), p, q)  # q-joint = 0
        assert subblock_accept_prob(j, p, q, 2) == 0.0

    def test_subblock_prob_canonical_exact_rational(self):
        expected = frac_h_partial((0,), 2)
        assert expected == Fraction(801, 1201)
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((0,), p, q)
        got = subblock_accept_prob(j, p, q, 2)
        assert abs(got - float(expected)) < 1e-12

    def test_full_block_prob_single_draft_is_likelihood_clamp(self):
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        for blk in [(0,), (1,), (0, 1), (1, 1)]:
            j = joint_of(blk, p, q)
            got = full_block_accept_prob(j, 1)
            assert abs(got - min(1.0, j.ratio_q_over_p())) < 1e-12

    def test_full_block_prob_matched_models(self):
        p = q = dist(0.25, 0.75)
        j = joint_of((1, 1), p, q)
        expected = j.q / (1.0 - (1.0 - j.q) ** 2)
        assert abs(full_block_accept_prob(j, 2) - expected) < 1e-12
        assert full_block_accept_prob(joint_of((1,), p, q), 1) == 1.0

    def test_full_block_prob_single_draft_matched_is_exactly_one(self):
        # 1 - (1 - x)^K loses the cancellation at K = 1; h must be 1.0 exactly
        p = q = dist(0.4, 0.3, 0.2, 0.1)
        for n in range(1, 5):
            for blk in itertools.product(range(4), repeat=n):
                assert full_block_accept_prob(joint_of(blk, p, q), 1) == 1.0, blk

    def test_full_block_prob_canonical(self):
        # q(0,0)=0.64, p(0,0)=0.25: 0.64 * (1 - 0.609375^2) / (1 - 0.75^2)
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((0, 0), p, q)
        expected = 0.40234375 / 0.4375
        assert abs(full_block_accept_prob(j, 2) - expected) < 1e-12

    def test_residual_single_draft_matches_surplus(self):
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((0,), p, q)
        res = block_residual(j, p, q, 1)
        # same normalized vector as max(nu*q - p, 0) with nu = q(0)/p(0)
        nu = j.ratio_q_over_p()
        w = np.maximum(nu * q.mass - p.mass, 0.0)
        assert np.max(np.abs(res.mass - w / w.sum())) < 1e-12

    def test_residual_zero_where_draft_dominates(self):
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        res = block_residual(PrefixJoint.empty(), p, q, 2)
        assert res.mass[1] == 0.0  # p >= q at token 1

    def test_residual_degenerate_prefix_raises(self):
        # prefix (1,): q extensions (0.16, 0.04) vs p extensions (0.25, 0.25),
        # draft dominates everywhere, so the surplus is empty by design
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((1,), p, q)
        with pytest.raises(AllZeroMass):
            block_residual(j, p, q, 1)


class TestVerifySpectrGbv:
    def test_single_draft_reduces_to_gbv_exactly(self, canonical_pair):
        # identical formulas and identical draw order at K = 1
        for seed in range(60):
            r1, r2 = RandomSource(seed), RandomSource(seed)
            d1, s1 = order0_setup(canonical_pair, 1, 3, r1)
            d2, s2 = order0_setup(canonical_pair, 1, 3, r2)
            a, mod_a = verify_gbv(d1, s1, r1)
            b, mod_b = verify_spectr_gbv(d2, s2, r2)
            assert (a.tau, a.t, a.y) == (b.tau, b.t, b.y)
            assert mod_a.horizon == mod_b.horizon and mod_a.prefix == mod_b.prefix

    def test_deterministic_including_counters(self, canonical_pair):
        def run():
            rng = RandomSource(17)
            drafts, scores = order0_setup(canonical_pair, 3, 3, rng)
            return verify_spectr_gbv(drafts, scores, rng)[0]

        a, b = run(), run()
        assert a == b

    def test_accepted_block_is_prefix_of_winning_row(self, canonical_pair):
        rng = RandomSource(23)
        for _ in range(300):
            drafts, scores = order0_setup(canonical_pair, 3, 3, rng)
            out, _ = verify_spectr_gbv(drafts, scores, rng)
            assert out.t == drafts.tokens[out.f][: out.tau]
            assert 0 <= out.tau <= 3

    def test_trace_invariants(self, canonical_pair):
        # rejected contents are never accepted later; tau never decreases
        rng = RandomSource(5)
        for _ in range(200):
            drafts, scores = order0_setup(canonical_pair, 3, 3, rng)
            trace = []
            verify_spectr_gbv(drafts, scores, rng, trace=trace)
            rejected = set()
            tau = 0
            for step in trace:
                kind = step[0]
                if kind == "skip":
                    assert step[2] in rejected
                elif kind in ("subblock", "full"):
                    _, _k, sub, h, accepted = step
                    assert 0.0 <= h <= 1.0
                    assert sub not in rejected
                    if accepted:
                        assert len(sub) > tau
                        tau = len(sub)
                    else:
                        rejected.add(sub)

    def test_scan_count_per_step_independent_of_K(self, canonical_pair):
        for K in (1, 8):
            rng = RandomSource(11)
            drafts, scores = order0_setup(canonical_pair, K, 3, rng)
            out, _ = verify_spectr_gbv(drafts, scores, rng)
            c = out.counters
            assert c.vocab_scans == c.h_partial_evals + c.residual_evals


class TestModification:
    def _record(self, pair, K, L, seed):
        rng = RandomSource(seed)
        p_cond, q_cond = pair.draft_conditional, pair.target_conditional
        drafts = draft_rows(p_cond, K, L, rng)
        scores = score_rows(drafts, q_cond)
        out, mod = verify_spectr_gbv(drafts, scores, rng)
        return out, mod

    def test_positions_past_horizon_fall_through(self, canonical_pair):
        out, mod = self._record(canonical_pair, 2, 2, seed=4)
        q_cond, p_cond = canonical_pair.target_conditional, canonical_pair.draft_conditional
        ctx = tuple(0 for _ in range(mod.horizon))  # position horizon+1
        got = mod.conditional(ctx, q_cond, p_cond)
        raw = q_cond(mod.prefix + ctx)
        assert np.array_equal(got.mass, raw.mass)

    def test_full_acceptance_has_zero_horizon(self, matched_pair):
        rng = RandomSource(2)
        drafts = draft_rows(matched_pair.draft_conditional, 1, 2, rng)
        scores = score_rows(drafts, matched_pair.target_conditional)
        out, mod = verify_gbv(drafts, scores, rng)
        assert out.tau == 2 and mod.horizon == 0

    def test_single_draft_power_rule_matches_surplus_rule(self):
        # the two modified-target formulas agree pointwise at K = 1
        gen = np.random.Generator(np.random.PCG64(0))
        for _ in range(200):
            p_vec = Distribution(gen.dirichlet(np.ones(3)))
            q_vec = Distribution(gen.dirichlet(np.ones(3)))
            tau = int(gen.integers(0, 2))
            L = 3
            t = tuple(int(x) for x in gen.integers(0, 3, size=tau))
            y = int(gen.integers(0, 3))
            j = PrefixJoint.empty()
            for tok in t + (y,):
                j = extend_joint(j, tok, p_vec, q_vec)
            rec = IterationRecord(tau, t, y, j.log_p, j.log_q, 1, L)
            power = distribution_modification(rec)
            surplus = gbv_modification(rec)
            q_cond = lambda ctx: q_vec
            p_cond = lambda ctx: p_vec
            for ctx in [(), (0,), (1,), (2,)]:
                if len(ctx) + 1 > power.horizon:
                    continue
                a = power.conditional(ctx, q_cond, p_cond)
                b = surplus.conditional(ctx, q_cond, p_cond)
                assert np.max(np.abs(a.mass - b.mass)) < 1e-12

    def test_modification_from_real_pipeline(self):
        pair = generate_pair(4, 1, 21, 1.0, 0.5)
        out, mod = self._record(pair, 3, 4, seed=9)
        if mod.horizon == 0:
            return
        got = mod.conditional((), pair.target_conditional, pair.draft_conditional)
        assert abs(got.mass.sum() - 1.0) < 1e-9
        assert np.all(got.mass >= 0)
