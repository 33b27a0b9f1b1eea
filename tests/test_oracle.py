import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import batched, override
from speclab import harness, oracle
from speclab.models import MarkovModel, ModelPair, generate_pair
from speclab.oracle import (
    TooLarge,
    _instance,
    bound_K,
    bound_properties,
    exact_expected_tau,
    exact_output_distribution,
    gbv_block_sum,
)
from speclab.probability import PrefixJoint, RandomSource, extend_joint
from speclab.verifiers import (
    Counters,
    draft_rows,
    gbv_accept_prob,
    score_rows,
    verify_spectr_gbv,
)


def frac_bound(p_row, q_row, L, K):
    """Independent exact-rational evaluation of the acceptance-length bound
    for an order-0 pair."""
    total = Fraction(0)
    V = len(p_row)
    for i in range(1, L + 1):
        for blk in itertools.product(range(V), repeat=i):
            pj = math.prod((p_row[t] for t in blk), start=Fraction(1))
            qj = math.prod((q_row[t] for t in blk), start=Fraction(1))
            if qj == 0:
                continue
            s = min(Fraction(pj, qj), Fraction(1))
            total += qj * (1 - (1 - s) ** K)
    return total



def gbv_reference(pair, L):
    """Leaf law and accepted-prefix table of ``--algo gbv`` by independent draws.

    Each drafted row gets one accept draw per sub-block with the shipped
    nu-form rule ``gbv_accept_prob``, and tau is the longest accepted length,
    as ``verify_gbv`` does. Returns the leaf masses keyed by (tau, block) and,
    per sub-block, (accepted-prefix mass, min of the two joints).
    """
    V = pair.vocab_size
    joints = {(): PrefixJoint.empty()}
    for n in range(1, L + 1):
        for blk in itertools.product(range(V), repeat=n):
            ctx = blk[:-1]
            joints[blk] = extend_joint(
                joints[ctx], blk[-1], pair.draft_conditional(ctx), pair.target_conditional(ctx)
            )
    leaves = {}
    for row in itertools.product(range(V), repeat=L):
        w = joints[row].p
        if w <= 0.0:
            continue
        states = {0: 1.0}
        for i in range(1, L + 1):
            at_end = i == L
            j = joints[row[:i]]
            a = gbv_accept_prob(
                j.ratio_q_over_p(),
                None if at_end else pair.draft_conditional(row[:i]),
                None if at_end else pair.target_conditional(row[:i]),
                at_end,
            )
            new = {}
            for tau, pr in states.items():
                if a > 0.0:
                    new[i] = new.get(i, 0.0) + pr * a
                if a < 1.0:
                    new[tau] = new.get(tau, 0.0) + pr * (1.0 - a)
            states = new
        for tau, pr in states.items():
            key = (tau, row[:tau])
            leaves[key] = leaves.get(key, 0.0) + w * pr
    accepted = {}
    for (tau, t), m in leaves.items():
        for i in range(1, tau + 1):
            accepted[t[:i]] = accepted.get(t[:i], 0.0) + m
    lemma = {
        blk: (accepted.get(blk, 0.0), min(j.p, j.q)) for blk, j in joints.items() if blk
    }
    return leaves, lemma


def walk_tuple(inst, rows):
    """Reference walk of the ``spectr-gbv`` scan for one draft tuple.

    Every uniform draw is a binary branch, taken with the shipped rule's
    probability from ``inst``. Returns leaf masses keyed by (tau, accepted
    block), their total, and the events seen: "skip" (a test skipped because
    its sub-block is in the rejected set), "h0" and "h1" (a test that
    accepts with probability exactly 0 or 1).
    """
    K, L = inst.K, inst.L
    leaves: dict = {}
    total = 0.0
    events = set()
    # state: (row index, next length to test, tau, winning row, rejected set, prob)
    stack = [(0, 1, 0, 0, frozenset(), 1.0)]
    while stack:
        k, i, tau, f, H, pr = stack.pop()
        if k == K:
            key = (tau, rows[f][:tau])
            leaves[key] = leaves.get(key, 0.0) + pr
            total += pr
            continue
        row = rows[k]
        sub = row[:i] if i <= L - 1 else row
        if sub in H:
            events.add("skip")
            if i <= L - 1:
                stack.append((k, i + 1, tau, f, H, pr))
            else:
                stack.append((k + 1, tau + 1, tau, f, H, pr))
            continue
        h = inst.h_partial([sub])[0] if i <= L - 1 else inst.h_fullblock(row)
        if h in (0.0, 1.0):
            events.add(f"h{int(h)}")
        if i <= L - 1:
            if h > 0.0:
                stack.append((k, i + 1, i, k, H, pr * h))
            if h < 1.0:
                stack.append((k, i + 1, tau, f, H | {sub}, pr * (1.0 - h)))
            continue
        if h > 0.0:
            key = (L, row)
            leaves[key] = leaves.get(key, 0.0) + pr * h
            total += pr * h
        if h < 1.0:
            stack.append((k + 1, tau + 1, tau, f, H | {row}, pr * (1.0 - h)))
    return leaves, total, events


def walk_reference(pair, L, K, context):
    """Leaf law of the scan by walking every positive-weight draft tuple."""
    inst = _instance(pair, L, K, context)
    blocks = list(itertools.product(range(pair.vocab_size), repeat=L))
    leaves: dict = {}
    events = set()
    for rows in itertools.product(blocks, repeat=K):
        w = math.prod(inst.joints(r)[0] for r in rows)
        if w <= 0.0:
            continue
        tuple_leaves, total, seen = walk_tuple(inst, rows)
        assert abs(total - 1.0) < 1e-12
        events |= seen
        for key, pr in tuple_leaves.items():
            leaves[key] = leaves.get(key, 0.0) + w * pr
    return leaves, events


class TestBound:
    def test_matched_models_bound_is_L(self, matched_pair):
        for K in (1, 2, 5):
            assert abs(bound_K(matched_pair, 3, K) - 3.0) < 1e-12

    def test_single_draft_bound_is_min_joint_sum(self, canonical_pair):
        assert abs(bound_K(canonical_pair, 3, 1) - gbv_block_sum(canonical_pair, 3)) < 1e-12

    def test_canonical_values(self, canonical_pair):
        p_row = (Fraction(1, 2), Fraction(1, 2))
        q_row = (Fraction(4, 5), Fraction(1, 5))
        assert frac_bound(p_row, q_row, 2, 2) == Fraction("1.64984375")
        assert frac_bound(p_row, q_row, 2, 1) == Fraction("1.31")
        assert abs(bound_K(canonical_pair, 2, 2) - 1.64984375) < 1e-12
        assert abs(bound_K(canonical_pair, 2, 1) - 1.31) < 1e-12

    def test_guard(self):
        pair = generate_pair(8, 1, 0, 1.0, 0.5)
        with pytest.raises(TooLarge):
            bound_K(pair, 8, 2)

    def test_random_instances_match_rational_oracle(self):
        gen = np.random.Generator(np.random.PCG64(44))
        for _ in range(5):
            raw_p = [Fraction(int(x), 100) for x in (30, 30, 40)]
            perm = gen.permutation(3)
            raw_q = [raw_p[i] for i in perm]
            p = MarkovModel(3, 0, np.array([[float(x) for x in raw_p]]))
            q = MarkovModel(3, 0, np.array([[float(x) for x in raw_q]]))
            pair = ModelPair(p, q)
            K = int(gen.integers(1, 4))
            want = float(frac_bound(raw_p, raw_q, 2, K))
            assert abs(bound_K(pair, 2, K) - want) < 1e-12


class TestBoundProperties:
    def test_strictly_increasing_when_models_differ(self, canonical_pair):
        rep = bound_properties(canonical_pair, 2, [1, 2, 4, 8, 16, 32, 64])
        assert rep["strictly_increasing"]
        assert rep["all_below_L"]
        assert rep["gaps_decreasing"]
        assert rep["final_gap_to_L"] < 0.01

    def test_matched_models_saturate(self, matched_pair):
        # degenerate case: the bound sits at L for every K and the strictness
        # flag treats saturation at L as converged rather than a violation
        rep = bound_properties(matched_pair, 2, [1, 2, 4])
        assert all(abs(b - 2.0) < 1e-12 for b in rep["bounds"])
        assert rep["final_gap_to_L"] < 1e-12


class TestEventTree:
    def test_single_draft_expected_tau_equals_bound(self, canonical_pair):
        got = exact_expected_tau(canonical_pair, 2, 1)
        assert abs(got - 1.31) < 1e-12
        for seed in range(4):
            pair = generate_pair(3, 1, seed, 1.0, 0.5)
            assert abs(exact_expected_tau(pair, 2, 1) - bound_K(pair, 2, 1)) < 1e-9

    def test_matched_models_single_draft(self, matched_pair):
        report = exact_output_distribution(matched_pair, 3, 1)
        assert abs(report.expected_tau - 3.0) < 1e-12
        assert report.max_marginal_dev < 1e-12
        assert all(tau == 3 for (tau, _t) in report.leaves)

    def test_single_draft_tree_matches_gbv_tree(self):
        for seed in range(4):
            pair = generate_pair(3, 1, seed + 10, 1.0, 0.4)
            a = exact_output_distribution(pair, 2, 1)
            b_leaves, b_lemma = gbv_reference(pair, 2)
            b_tau = sum(tau * m for (tau, _t), m in b_leaves.items())
            assert abs(a.expected_tau - b_tau) < 1e-12
            keys = set(a.leaves) | set(b_leaves)
            for key in keys:
                assert abs(a.leaves.get(key, 0.0) - b_leaves.get(key, 0.0)) < 1e-12
            for blk, (got, claimed) in a.lemma_masses.items():
                got_b, claimed_b = b_lemma[blk]
                assert abs(got - got_b) < 1e-12
                assert abs(claimed - claimed_b) < 1e-12

    def test_leaf_mass_conserved(self, canonical_pair):
        for K in (1, 2, 3):
            r = exact_output_distribution(canonical_pair, 2, K)
            assert r.max_leafsum_err < 1e-12
            assert abs(sum(r.leaves.values()) - 1.0) < 1e-12
            assert r.marginal_sums_max_err < 1e-9

    def test_single_draft_preserves_target_and_identity(self):
        for seed in range(4):
            pair = generate_pair(2, 1, seed + 3, 1.0, 0.5)
            r = exact_output_distribution(pair, 3, 1)
            assert r.max_marginal_dev < 1e-9
            assert r.lemma_max_dev < 1e-9
            assert abs(r.expected_tau - r.bound) < 1e-9

    def test_two_iteration_single_draft_exact(self):
        for seed in range(3):
            pair = generate_pair(2, 1, seed + 30, 1.0, 0.5)
            for context in ((), (1,)):
                r = exact_output_distribution(pair, 2, 1, iterations=2, context=context)
                assert r.max_marginal_dev_two_iter < 1e-9
                assert r.lemma_max_dev_two_iter < 1e-9

    def test_multi_draft_known_gap(self, canonical_pair):
        # regression pin for the measured multi-draft behavior of the
        # sequential scan: the enumerated tree sits well below the bound
        r = exact_output_distribution(canonical_pair, 2, 2)
        assert abs(r.expected_tau - 1.4113080297674724) < 1e-12
        assert 0.07 < r.max_marginal_dev < 0.08
        assert 0.07 < r.lemma_max_dev < 0.08

    def test_guard(self):
        pair = generate_pair(3, 1, 0, 1.0, 0.5)
        with pytest.raises(TooLarge):
            exact_expected_tau(pair, 5, 3)


class TestRowFold:
    """The row fold against a walk of every draft tuple through its own
    accept/reject branches. V = 2 makes rows share prefixes, so rejected-set
    skips fire; the concentration-0.05 pair has tests that accept with
    probability exactly 0 or 1."""

    PAIRS = (generate_pair(2, 1, 7, 1.0, 0.5), generate_pair(2, 1, 2, 0.05, 0.5))

    def test_fold_matches_tuple_walk(self):
        events = set()
        for pair, context, L, K in itertools.product(self.PAIRS, ((), (1,)), (1, 2, 3), (1, 2, 3, 4)):
            r = exact_output_distribution(pair, L, K, context=context)
            ref, seen = walk_reference(pair, L, K, context)
            events |= seen
            assert r.max_leafsum_err < 1e-12
            for key in set(r.leaves) | set(ref):
                assert abs(r.leaves.get(key, 0.0) - ref.get(key, 0.0)) < 1e-12, (L, K, key)
            ref_tau = sum(tau * m for (tau, _t), m in ref.items())
            assert abs(r.expected_tau - ref_tau) < 1e-12
            accepted: dict = {}
            for (tau, t), m in ref.items():
                for i in range(1, tau + 1):
                    accepted[t[:i]] = accepted.get(t[:i], 0.0) + m
            for blk, (got, _claimed) in r.lemma_masses.items():
                assert abs(got - accepted.get(blk, 0.0)) < 1e-12, (L, K, blk)
        assert events == {"skip", "h0", "h1"}

    def test_tuples_count_positive_weight_draft_tuples(self):
        pair = self.PAIRS[1]
        r = exact_output_distribution(pair, 2, 3)
        inst = _instance(pair, 2, 3)
        positive = sum(inst.joints(b)[0] > 0.0 for b in itertools.product(range(2), repeat=2))
        assert 0 < positive < 4
        assert r.tuples == positive**3


class TestDraftLaw:
    """The second iteration's lemma table reads its draft joint from the
    model at the absolute context, not through the chain the tree drafts
    from, so a draft chain built at the wrong context fails it at K = 1
    (it holds unmutated: ``test_two_iteration_single_draft_exact``). The
    output law equals the target for any draft law, so the two-iteration
    preservation check alone cannot see that."""

    CONTEXT = (1,)

    def report(self, seed):
        pair = generate_pair(2, 1, seed, 1.0, 0.5)
        return exact_output_distribution(pair, 2, 1, iterations=2, context=self.CONTEXT)

    def test_second_iteration_drafted_from_context_alone_fails(self, monkeypatch):
        n = len(self.CONTEXT)
        monkeypatch.setattr(
            oracle, "RawChain", lambda model, T, ctx: harness.RawChain(model, T, ctx[:n])
        )
        assert max(self.report(seed).lemma_max_dev_two_iter for seed in range(30, 33)) > 1e-3

    def test_tail_that_keeps_the_head_fails(self, monkeypatch):
        monkeypatch.setattr(harness, "_tail", lambda context, order: tuple(context[:order]))
        assert max(self.report(seed).lemma_max_dev_two_iter for seed in range(30, 33)) > 1e-3


class TestOracleMatchesVerifier:
    def test_leaf_frequencies_match_monte_carlo(self, canonical_pair):
        """The oracle folds its own closed-form copy of the sequential scan
        over the shipped acceptance rules; the verifier runs the scan itself
        with uniform draws. The two are independent, so their leaf laws must
        agree."""
        report = exact_output_distribution(canonical_pair, 2, 2)
        rng = RandomSource(314)
        n = 50_000
        counts: dict = {}
        for _ in range(n):
            drafts = draft_rows(canonical_pair.draft_conditional, 2, 2, rng)
            scores = score_rows(drafts, batched(canonical_pair.target_conditional))
            out, _ = verify_spectr_gbv(drafts, scores, rng)
            key = (out.tau, out.t)
            counts[key] = counts.get(key, 0) + 1
        for key, mass in report.leaves.items():
            emp = counts.get(key, 0) / n
            se = math.sqrt(max(mass * (1 - mass), 1e-6) / n)
            assert abs(emp - mass) < 5 * se, (key, emp, mass)


def matched_tau0_mass(row, L, K):
    """Exact probability that the block scan stops at tau = 0 on an order-0
    matched pair (p = q = ``row``), as a Fraction.

    With p = q every prefix has r = 1, so every sub-block test has h = 0 and
    the full-block test accepts a block of joint p with probability
    1 / G(p), G(x) = sum_{i<K} (1 - x)^i. A row already rejected is skipped.
    """
    p = [Fraction(x).limit_denominator(1000) for x in row]
    joint = {b: math.prod((p[t] for t in b), start=Fraction(1))
             for b in itertools.product(range(len(p)), repeat=L)}
    total = Fraction(0)
    for rows in itertools.product(joint, repeat=K):
        pr, rejected = Fraction(1), set()
        for b in rows:
            pr *= joint[b]
            if b not in rejected:
                pr *= 1 - 1 / sum((1 - joint[b]) ** i for i in range(K))
                rejected.add(b)
        total += pr
    return total


class TestEmptyResidualFallback:
    """On matched models the surplus q * (1 - min(r p / q, 1))^K is empty at
    every prefix, so a scan that stops at tau = 0 has no residual and falls
    back to the raw target conditional, and so does the next iteration's
    modified target at its first position. At K = 1 the full block always
    accepts and the fallback never happens; at K >= 2 it has positive
    probability."""

    @pytest.mark.parametrize("K, tau0, fallback", [
        (1, 0.0, 0.0), (2, 0.2491, 0.4983), (3, 0.2947, 0.5894),
    ])
    def test_oracle_fallback_mass(self, matched_pair, K, tau0, fallback):
        report = exact_output_distribution(matched_pair, 2, K)
        got = sum(m for (tau, _t), m in report.leaves.items() if tau == 0)
        want = float(matched_tau0_mass((0.4, 0.3, 0.2, 0.1), 2, K))
        assert abs(got - want) < 1e-12
        assert abs(got - tau0) < 5e-5
        # the extra token and the modified target's first position both fall back
        assert abs(report.fallback_mass - 2 * want) < 1e-12
        assert abs(report.fallback_mass - fallback) < 5e-5

    @pytest.mark.parametrize("K", [1, 2])
    def test_verifier_warning_rate_matches_oracle(self, matched_pair, K):
        tau0 = float(matched_tau0_mass((0.4, 0.3, 0.2, 0.1), 2, K))
        q_cond, p_cond = matched_pair.target_conditional, matched_pair.draft_conditional
        rng = RandomSource(2718)
        n, warned = 2000, 0
        for _ in range(n):
            drafts = draft_rows(p_cond, K, 2, rng)
            out, mod = verify_spectr_gbv(drafts, score_rows(drafts, batched(q_cond)), rng)
            assert out.counters.warnings == (out.tau == 0)
            if out.tau == 0:
                warned += 1
                counters = Counters()
                got = override(mod, (), q_cond, p_cond, counters)
                assert got is q_cond(mod.prefix)
                assert counters.warnings == 1 and mod.fallbacks == {()}
        if K == 1:
            assert warned == 0
        else:
            assert abs(warned / n - tau0) < 4 * math.sqrt(tau0 * (1 - tau0) / n)
