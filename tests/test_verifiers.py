import gc
import itertools
import math
import re
import weakref
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FixedUniforms,
    NuModifiedTarget,
    batched,
    beta_table,
    override,
    prefix_table,
    ratio_instances,
    reference_gbv,
    reference_kseq_rho,
    residual_sd,
    subblock_h,
    subblock_rule,
)
from speclab import verifiers
from speclab.harness import ModifiedChain, RawChain, decode
from speclab.models import MarkovModel, ModelPair, generate_pair, random_model
from speclab.probability import (
    LOG_ZERO,
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    extend_joint,
    joint_ratio,
    normalize,
    sample,
)
from speclab.verifiers import (
    DENOM_EPS,
    Counters,
    DraftSet,
    ModifiedTarget,
    _kseq_scale,
    _surplus,
    block_residual,
    draft_rows,
    full_block_accept_prob,
    full_block_accept_probs,
    gbv_accept_prob,
    kseq_rho,
    score_rows,
    subblock_accept_prob,
    verify_gbv,
    verify_kseq,
    verify_sd,
    verify_spectr_gbv,
)


# RuntimeWarnings fail the suite (pyproject.toml), here too. At r = e^700 the
# reference forms' r * p / q overflows to inf on purpose (``ref_power_rule``,
# ``ref_block_residual``, ``one_row_surplus``); a module mark outranks a
# class's, so that warning is let through here rather than on the kernel
# classes
pytestmark = pytest.mark.filterwarnings(
    "error::RuntimeWarning", "ignore:overflow encountered in divide:RuntimeWarning"
)


def dist(*mass):
    return Distribution(np.array(mass, dtype=float))


def order0_kseq(pair, K, L, rng):
    """K drafted rows of length L and the target's prefix -> conditional map."""
    return draft_rows(pair.draft.conditional, K, L, rng), pair.target.conditional


def order0_setup(pair, K, L, rng):
    """K drafted rows of length L and the target's list-in, list-out lookup."""
    drafts, q_cond = order0_kseq(pair, K, L, rng)
    return drafts, batched(q_cond)


def reference_sd(drafts, q_cond, rng):
    """Standard speculative sampling as its own loop over the single row.

    Accept left to right with min(1, q/p); on the first rejection draw from
    norm(max(q - p, 0)), or from q with a warning when that has no mass.
    Returns (tau, t, y, f, vocab_scans, warnings): the residual is the only
    vocabulary scan.
    """
    row = drafts.tokens[0]
    for i in range(drafts.L):
        p_i, q_i = drafts.cond[0][i], q_cond(row[:i])
        if not rng.uniform() < min(1.0, float(q_i.mass[row[i]]) / float(p_i.mass[row[i]])):
            try:
                res, warnings = residual_sd(p_i, q_i), 0
            except AllZeroMass:
                res, warnings = q_i, 1
            return i, row[:i], sample(res, rng), 0, 1, warnings
    return drafts.L, row, sample(q_cond(row), rng), 0, 0, 0


def sd_fields(out):
    return out.tau, out.t, out.y, out.f, out.counters.vocab_scans, out.counters.warnings


def joint_of(tokens, p_vec, q_vec):
    j = PrefixJoint()
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


# Reference forms of the power-form rules, written apart from the one
# in-place kernel the shipped rules share.


def ref_subblock_accept_prob(joint, p_next, q_next, K):
    """The sub-block rule as written, over joints p_j and q_j, in exact
    rational arithmetic on the same float inputs. A float evaluation of this
    form cancels: at r = 1, K = 1, where the exact value is 1, it can read
    1 - 3.3e-11.

    The shipped conventions hold where q_j = 0 (0) and where the
    denominator in units of q_j is below DENOM_EPS (1 if p_j < q_j, else 0).
    """
    pj, qj = Fraction(math.exp(joint.log_p)), Fraction(math.exp(joint.log_q))
    if qj == 0:
        return 0.0
    # q_e (1 - min(p_e / q_e, 1))^K = (q_e - p_e)^K / q_e^(K-1) where p_e < q_e
    terms = []
    for pv, qv in zip(p_next.mass.tolist(), q_next.mass.tolist()):
        qe, pe = qj * Fraction(qv), pj * Fraction(pv)
        if pe < qe:
            terms.append((qe - pe) ** K / qe ** (K - 1))
    while len(terms) > 1:  # pairwise: one running sum would make every addition long
        terms = [sum(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    S = sum(terms, Fraction(0))
    num = S - qj * (1 - min(pj / qj, Fraction(1))) ** K
    den = 1 - (1 - pj) ** K - qj + S
    if abs(den / qj) < DENOM_EPS:
        return 1.0 if pj < qj else 0.0
    return float(min(Fraction(1), max(Fraction(0), num / den)))


def ref_block_residual(joint, p_next, q_next, K):
    r = joint_ratio(joint.log_p, joint.log_q)
    if math.isinf(r):
        raise AllZeroMass("infinite joint ratio")
    qn, pn = q_next.mass, p_next.mass
    m_ext = np.where(qn > 0.0, np.minimum(r * pn / np.where(qn > 0.0, qn, 1.0), 1.0), 1.0)
    return normalize(qn * (1.0 - m_ext) ** K)


def ref_power_rule(lp, lq, p_next, q_next, K):
    qn = q_next
    if lq == LOG_ZERO:
        return qn
    r = 0.0 if lp == LOG_ZERO else math.inf if lp - lq > 700.0 else math.exp(lp - lq)
    if math.isinf(r):
        w = qn.mass * (p_next.mass == 0.0)
    else:
        m_ext = np.where(
            qn.mass > 0.0, np.minimum(r * p_next.mass / np.where(qn.mass > 0.0, qn.mass, 1.0), 1.0), 1.0
        )
        w = qn.mass * (1.0 - m_ext) ** K
    s = float(w.sum())
    if s <= 0.0:
        return qn
    return Distribution(w / s)


def ref_gbv_accept_prob(p_next, q_next, nu):
    """The nu-form interior rule with its two separate passes."""
    num = float(np.maximum(nu * q_next.mass - p_next.mass, 0.0).sum())
    den = float(np.maximum(p_next.mass - nu * q_next.mass, 0.0).sum())
    if den < DENOM_EPS:
        return 1.0 if nu > 1.0 else 0.0
    return min(1.0, max(0.0, num / den))


def kernel_vector(gen, V, kind):
    v = gen.dirichlet(np.full(V, 0.05 if kind == "sparse" else 1.0))
    if kind == "peaked":
        v = (v / v.max()) ** 30
    return v


def kernel_pair(seed, V, p_kind, q_kind):
    """p and q with zeros in p only, in q only and in both (the first three
    zeroed slots, when V allows); the last slot stays positive in both."""
    gen = np.random.Generator(np.random.PCG64(seed))
    p, q = kernel_vector(gen, V, p_kind), kernel_vector(gen, V, q_kind)
    slots = gen.permutation(V)
    n_zero = int(gen.integers(0, V))
    kinds = gen.integers(0, 3, size=n_zero)
    kinds[: min(3, n_zero)] = np.arange(min(3, n_zero))
    for slot, kind in zip(slots[:n_zero], kinds):
        if kind != 1:
            p[slot] = 0.0
        if kind != 0:
            q[slot] = 0.0
    last = slots[-1]
    p[last] = max(p[last], 1e-3)
    q[last] = max(q[last], 1e-3)
    return normalize(p), normalize(q)


TINY = 1e-300
KERNEL_RATIOS = (0.0, TINY, 1.0, math.exp(700.0), math.inf)


def joint_with_ratio(r, a):
    """A prefix joint whose larger probability is exp(a) and whose p/q is r."""
    if r <= 1.0:
        return PrefixJoint(a + math.log(r) if r > 0.0 else LOG_ZERO, a)
    return PrefixJoint(a, a - math.log(r) if math.isfinite(r) else LOG_ZERO)


def assert_override_is_surplus_row(joint, p, q, K):
    """The modified target's override at a context with ``joint`` is the
    normalized surplus row that the sub-block test at the same joint
    returns, bit for bit, or the base row where that row is empty (a
    fallback) or the target joint is zero (no override)."""
    mod = ModifiedTarget(horizon=1, K=K, prefix=(), joint=joint)
    got = override(mod, (), lambda ctx: q, lambda ctx: p)
    if joint.log_q == LOG_ZERO:
        assert got is q and not mod.fallbacks
        return
    w = subblock_rule([joint], [p], [q], K)[1][0]
    s = float(w.sum())
    if s > 0.0:
        assert np.array_equal(got.mass, w / s)
    else:
        assert got is q and mod.fallbacks == {()}


kernel_cases = given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 1024),
    st.sampled_from(("flat", "sparse", "peaked")),
    st.sampled_from(("flat", "sparse", "peaked")),
    st.integers(1, 8),
    st.sampled_from(KERNEL_RATIOS),
    st.floats(-5.0, 0.0),
)


class TestSurplusKernel:
    """The shipped power-form rules against their reference forms, to 1e-12.

    At r = e^700, the reference forms' r * p / q overflows to inf on peaked
    q, and the clamp min(., 1) makes that exact; the kernel takes min(r p, q)
    before dividing, so it forms no such quotient. Ratios between about 1e-9
    and 1e-3 are left out: there the sub-block rule's num and den both cancel
    to rounding residue, in either form, so the two differ by up to a few
    1e-3.
    """

    @kernel_cases
    # joints near 1: rn * G(p_j) - 1 in the denominator loses ~1e-12 unless G's 1 is taken out
    @example(seed=2, V=2, p_kind="flat", q_kind="peaked", K=2, r=1.0, a=-1e-5)
    @example(seed=2, V=2, p_kind="flat", q_kind="peaked", K=2, r=1.0, a=-1e-6)
    # a zero target joint at p_j = 1: the formula's den would read inf * G(1) = inf * 0
    @example(seed=3, V=4, p_kind="sparse", q_kind="flat", K=1, r=math.inf, a=0.0)
    @example(seed=3, V=4, p_kind="sparse", q_kind="flat", K=2, r=math.inf, a=0.0)
    @example(seed=3, V=4, p_kind="sparse", q_kind="flat", K=3, r=math.inf, a=0.0)
    @settings(max_examples=300, deadline=None)
    def test_subblock_accept_prob(self, seed, V, p_kind, q_kind, K, r, a):
        p, q = kernel_pair(seed, V, p_kind, q_kind)
        joint = joint_with_ratio(r, a)
        got = subblock_h(joint, p, q, K)
        assert abs(got - ref_subblock_accept_prob(joint, p, q, K)) <= 1e-12

    @pytest.mark.parametrize("K", (1, 2, 3))
    def test_zero_target_joint_keeps_its_surplus_row_and_scan(self, K):
        # h = 0 is returned apart from the formula, and the row and the scan
        # count stay what every other test gets, so decodes do not move
        p, q = kernel_pair(3, 4, "sparse", "flat")
        counters = Counters()
        h, w = subblock_rule([PrefixJoint(0.0, LOG_ZERO)], [p], [q], K, counters)
        assert h == [0.0]
        assert np.array_equal(w[0], np.where(p.mass == 0.0, q.mass, 0.0))
        assert (counters.vocab_scans, counters.h_partial_evals) == (1, 1)

    @kernel_cases
    @settings(max_examples=300, deadline=None)
    def test_block_residual(self, seed, V, p_kind, q_kind, K, r, a):
        p, q = kernel_pair(seed, V, p_kind, q_kind)
        joint = joint_with_ratio(r, a)
        try:
            want = ref_block_residual(joint, p, q, K)
        except AllZeroMass:
            with pytest.raises(AllZeroMass):
                block_residual(joint, p, q, K)
            return
        got = block_residual(joint, p, q, K)
        assert np.max(np.abs(got.mass - want.mass)) <= 1e-12

    @kernel_cases
    @settings(max_examples=300, deadline=None)
    def test_power_rule(self, seed, V, p_kind, q_kind, K, r, a):
        p, q = kernel_pair(seed, V, p_kind, q_kind)
        joint = joint_with_ratio(r, a)
        mod = ModifiedTarget(horizon=1, K=K, prefix=(), joint=joint)
        got = override(mod, (), lambda ctx: q, lambda ctx: p)
        want = ref_power_rule(joint.log_p, joint.log_q, p, q, K)
        assert np.max(np.abs(got.mass - want.mass)) <= 1e-12

    @pytest.mark.parametrize("r", KERNEL_RATIOS)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 1024),
        st.sampled_from(("flat", "sparse", "peaked")),
        st.sampled_from(("flat", "sparse", "peaked")),
        st.integers(1, 8),
        st.floats(-5.0, 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_override_is_the_subblock_surplus_row(self, r, seed, V, p_kind, q_kind, K, a):
        p, q = kernel_pair(seed, V, p_kind, q_kind)
        assert_override_is_surplus_row(joint_with_ratio(r, a), p, q, K)

    def test_override_past_the_ratio_cap_is_the_subblock_surplus_row(self):
        # log ratio 705 reads as r = inf, so only token 0, where p = 0, keeps
        # its mass; a ratio clamped to e^700 gave (0.33333423, 0.66666577, 0)
        p, q = dist(0.0, 1e-310, 1.0 - 1e-310), dist(0.25, 0.5, 0.25)
        joint = PrefixJoint(-1.0, -706.0)
        assert joint_ratio(joint.log_p, joint.log_q) == math.inf
        assert_override_is_surplus_row(joint, p, q, 2)
        got = override(ModifiedTarget(1, 2, (), joint), (), lambda ctx: q, lambda ctx: p)
        assert got.mass.tolist() == [1.0, 0.0, 0.0]

    def test_no_overflow_at_a_subnormal_target_entry(self):
        # min(r p, q) / q: the quotient r p / q, 0.5 / 1e-313 here, is never
        # formed, and the row is the clamped form's bit for bit
        p, q = dist(0.5, 0.5), dist(1.0 - 1e-313, 1e-313)
        with np.errstate(over="raise", invalid="raise"):
            w = _surplus(p.mass[None], q.mass[None], [1.0], 2)[0]
        assert w.tolist() == [0.25, 0.0]
        assert np.array_equal(w, one_row_surplus(p.mass, q.mass, 1.0, 2))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 1024), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_infinite_ratio_keeps_only_tokens_the_draft_never_emits(self, seed, V, K):
        # with a positive q-joint the rules above reach r = inf only past the
        # log-ratio cap of 700
        p, q = kernel_pair(seed, V, "sparse", "flat")
        w = _surplus(p.mass[None], q.mass[None], [math.inf], K)[0]
        assert np.array_equal(w, np.where(p.mass == 0.0, q.mass, 0.0))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 1024),
        st.sampled_from(("flat", "sparse", "peaked")),
        st.sampled_from(("flat", "sparse", "peaked")),
        st.sampled_from((0.0, TINY, 0.5, 1.0, 2.0, math.exp(700.0))),
    )
    @settings(max_examples=300, deadline=None)
    def test_nu_rule_equals_two_pass_form(self, seed, V, p_kind, q_kind, nu):
        p, q = kernel_pair(seed, V, p_kind, q_kind)
        got = gbv_accept_prob(nu, p, q, at_end=False)
        assert got == ref_gbv_accept_prob(p, q, nu)


def one_row_surplus(p, q, r, K):
    """The surplus kernel as written for one row: the form every batched row
    must reproduce bit for bit."""
    if math.isinf(r):
        return q * (p == 0.0)
    t = r * p
    np.divide(t, q, out=t, where=q > 0.0)
    np.minimum(t, 1.0, out=t)
    np.subtract(1.0, t, out=t)
    w = q * t
    for _ in range(K - 1):
        w *= t
    return w


BATCH_RATIOS = (0.0, 1e-300, 0.3, 1.0, 7.0, math.inf)


class TestBatchedKernel:
    """A block of contexts gives each context exactly its own numbers.

    Every ratio in BATCH_RATIOS appears in each block, on its own (p, q)
    pair, with zeros in p, in q and in both (``kernel_pair``).
    """

    @staticmethod
    def block(V, kinds, seed):
        pairs = [kernel_pair(seed + n, V, *kinds[n % len(kinds)]) for n in range(len(BATCH_RATIOS))]
        order = np.random.Generator(np.random.PCG64(seed)).permutation(len(BATCH_RATIOS)).tolist()
        ratios = [BATCH_RATIOS[n] for n in order]
        return [pairs[n][0] for n in order], [pairs[n][1] for n in order], ratios

    KINDS = [("flat", "flat"), ("sparse", "flat"), ("flat", "sparse"), ("sparse", "sparse"), ("peaked", "flat")]

    @pytest.mark.parametrize("V", [2, 16, 1024])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_surplus_rows_equal_one_row_kernel(self, V, K):
        for seed in range(8):
            ps, qs, ratios = self.block(V, self.KINDS, 100 * seed + V)
            p = np.array([d.mass for d in ps])
            q = np.array([d.mass for d in qs])
            w = _surplus(p, q, ratios, K)
            sums = w.sum(axis=1)
            for n, r in enumerate(ratios):
                want = one_row_surplus(ps[n].mass, qs[n].mass, r, K)
                assert np.array_equal(w[n], want), (n, r)
                assert sums[n] == want.sum()
                assert np.array_equal(_surplus(p[n:n + 1], q[n:n + 1], [r], K)[0], want)

    @pytest.mark.parametrize("V", [2, 16, 1024])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_batched_h_equals_one_at_a_time(self, V, K):
        for seed in range(8):
            ps, qs, ratios = self.block(V, self.KINDS, 100 * seed + V + 7)
            joints = [joint_with_ratio(r, -0.5 * n) for n, r in enumerate(ratios)]
            batch = Counters()
            hs, w = subblock_rule(joints, ps, qs, K, batch)
            single = Counters()
            for n, j in enumerate(joints):
                h, w1 = subblock_rule([j], [ps[n]], [qs[n]], K, single)
                assert hs[n] == h[0]
                assert np.array_equal(w[n], w1[0])
            assert batch == single

    @pytest.mark.parametrize("V", [2, 16, 1024])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_residual_from_the_test_row_equals_a_fresh_pass(self, V, K):
        # the block residual after an accepted sub-block reuses that test's
        # surplus row; where the fresh rule raises, it still makes its pass
        for seed in range(8):
            ps, qs, ratios = self.block(V, self.KINDS, 100 * seed + V + 11)
            joints = [joint_with_ratio(r, -0.5 * n) for n, r in enumerate(ratios)]
            _, w = subblock_rule(joints, ps, qs, K)
            for n, j in enumerate(joints):
                fresh, reused = Counters(), Counters()
                try:
                    want = block_residual(j, ps[n], qs[n], K, fresh)
                except AllZeroMass:
                    with pytest.raises(AllZeroMass):
                        block_residual(j, ps[n], qs[n], K, reused, w[n])
                    assert reused == fresh
                    continue
                got = block_residual(j, ps[n], qs[n], K, reused, w[n])
                assert np.array_equal(got.mass, want.mass)
                assert (fresh.vocab_scans, reused.vocab_scans) == (1, 0)


# ---------------------------------------------------------------------------


class TestFullBlockForms:
    """The full-block rule's elementwise form, which the oracle evaluates a
    trie level at a time, against the scalar rule decoding runs, bit for bit
    (``==`` on the float bits, not approx): log joints of -inf on either
    side, log ratios beyond +-700, r exactly 1, log_p = 0, K = 1 ... 8."""

    LOGS = (LOG_ZERO, -1000.0, -750.0, -700.0, -40.0, -3.0, -0.5, -1e-9, 0.0)

    @staticmethod
    def check(log_p, log_q, K):
        got = full_block_accept_probs(np.array(log_p), np.array(log_q), K).tolist()
        want = [full_block_accept_prob(PrefixJoint(a, b), K) for a, b in zip(log_p, log_q)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("K", range(1, 9))
    def test_edge_joints(self, K):
        log_p, log_q = zip(*itertools.product(self.LOGS, repeat=2))
        finite = {a - b for a, b in zip(log_p, log_q) if LOG_ZERO < min(a, b)}
        assert {-1000.0, -700.0, 0.0, 700.0, 1000.0} <= finite
        self.check(log_p, log_q, K)

    @pytest.mark.parametrize("K", range(1, 9))
    def test_random_joints(self, K):
        rng = np.random.Generator(np.random.PCG64(K))
        log_p = rng.uniform(-30.0, 0.0, 500)
        # half the blocks within a few ulps of r = 1, from either side
        log_q = np.where(np.arange(500) % 2 == 0, rng.uniform(-30.0, 0.0, 500), log_p + rng.normal(0.0, 1e-15, 500))
        self.check(log_p.tolist(), log_q.tolist(), K)


class TestDraftSet:
    @pytest.mark.parametrize("tokens, cond, message", [
        ((), (), "need at least one draft row"),
        (((0, 1), (0,)), ((dist(0.5, 0.5),) * 2, (dist(0.5, 0.5),)), "ragged draft rows"),
        (((0, 1),), ((dist(0.5, 0.5),),), "cond[k] must hold one conditional per position"),
        (((0, 1),), ((dist(0.5, 0.5), dist(1, 0)),), "row 0 token 1 has zero draft probability"),
    ], ids=["no-rows", "ragged", "short-cond", "zero-probability"])
    def test_malformed_rows_are_refused(self, tokens, cond, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DraftSet(tokens, cond)


class TestVerifySd:
    @pytest.mark.parametrize("K", [2, 3])
    def test_more_than_one_row_is_refused_before_any_draw(self, canonical_pair, K):
        drafts, q_cond = order0_kseq(canonical_pair, K, 2, RandomSource(0))
        rng = RandomSource(1)
        with pytest.raises(ValueError, match="^verify_sd is a single-draft verifier$"):
            verify_sd(drafts, q_cond, rng)
        assert rng.uniform() == RandomSource(1).uniform()

    def test_matched_models_accept_everything(self, matched_pair):
        rng = RandomSource(1)
        for _ in range(50):
            drafts, q_cond = order0_kseq(matched_pair, 1, 4, rng)
            out = verify_sd(drafts, q_cond, rng)
            assert out.tau == 4 and out.t == drafts.tokens[0]

    def test_disjoint_supports_reject_first_token(self):
        drafts = DraftSet(((0,),), ((dist(1, 0),),))
        q_cond = prefix_table(drafts, ((dist(0, 1), dist(0.5, 0.5)),))
        rng = RandomSource(0)
        for _ in range(20):
            out = verify_sd(drafts, q_cond, rng)
            assert out.tau == 0 and out.y == 1

    def test_first_token_acceptance_rate(self, canonical_pair):
        # analytic acceptance mass: sum_x min(p, q) = 0.5 + 0.2 = 0.7
        rng = RandomSource(42)
        n = 20_000
        accepted = 0
        for _ in range(n):
            drafts, q_cond = order0_kseq(canonical_pair, 1, 1, rng)
            out = verify_sd(drafts, q_cond, rng)
            accepted += out.tau
        assert abs(accepted / n - 0.7) < 0.01

    def test_deterministic_given_seed(self, canonical_pair):
        def run(seed):
            rng = RandomSource(seed)
            drafts, q_cond = order0_kseq(canonical_pair, 1, 3, rng)
            return verify_sd(drafts, q_cond, rng)

        assert run(5) == run(5)


class TestKseqRho:
    @pytest.mark.parametrize("K", [0, -1])
    def test_K_below_one_is_refused(self, K):
        with pytest.raises(ValueError, match="^K must be >= 1$"):
            kseq_rho(dist(0.5, 0.5), dist(0.8, 0.2), K)

    def test_zero_tolerance_stops_at_the_step_cap(self):
        # beta(rho) = 1/16 + 1/(2 rho) on [1, 2], so the root solves
        # rho^2 - (31/16) rho + 1/2 = 0; with tol = 0 the bracket shrinks to
        # neighbouring doubles whose midpoint never has g = 0 exactly, and the
        # solve returns the bracket's midpoint after the last step
        p, q = dist(1 / 16, 15 / 16), dist(0.5, 0.5)
        s = kseq_rho(p, q, 2, tol=0.0)
        assert s.iterations == 200
        assert abs(s.rho - (31 / 16 + math.sqrt((31 / 16) ** 2 - 2)) / 2) < 1e-12
        assert abs(s.rho - kseq_rho(p, q, 2).rho) < 1e-12
        assert abs(s.beta - (1 / 16 + 0.5 / s.rho)) < 1e-15

    def test_single_draft_scale_is_one(self):
        s = kseq_rho(dist(0.5, 0.5), dist(0.8, 0.2), 1)
        assert s.rho == 1.0 and s.iterations == 0

    def test_matched_distributions(self):
        s = kseq_rho(dist(0.3, 0.7), dist(0.3, 0.7), 4)
        assert abs(s.rho - 1.0) < 1e-9

    def test_no_overflow_at_a_subnormal_draft_entry(self):
        # q/p = 0.5 / 1e-313 lies past every rho in [1, K] and reads as inf
        # without a warning; beta(rho) = 0.5 / rho + 1e-313 turns the fixed
        # point into rho^2 - 2 rho + 0.5 = 0
        with np.errstate(over="raise", invalid="raise"):
            s = kseq_rho(dist(1.0 - 1e-313, 1e-313), dist(0.5, 0.5), 2)
        assert abs(s.rho - (1.0 + math.sqrt(0.5))) < 1e-9

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
        beta = float(np.minimum(p.mass, q.mass / s.rho).sum())
        g = 1.0 - (1.0 - beta) ** K - s.rho * beta
        assert abs(g) < 1e-9
        assert 1.0 <= s.rho <= K

    @pytest.mark.parametrize("V", [2, 5, 16, 1024])
    def test_beta_table_matches_definition(self, V):
        # at every ratio q/p exactly, between neighbouring ratios, and past both ends
        for p, q in ratio_instances(V):
            beta = beta_table(p.mass, q.mass)
            with np.errstate(divide="ignore", invalid="ignore"):
                c = np.unique((q.mass / p.mass)[(p.mass > 0.0) & (q.mass > 0.0)])
            rhos = np.concatenate([c, 0.5 * (c[1:] + c[:-1]), [0.5 * c[0], 2.0 * c[-1], 1.0, 3.0]])
            for rho in rhos.tolist():
                want = float(np.minimum(p.mass, q.mass / rho).sum())
                assert abs(beta(rho) - want) < 1e-12, (rho, beta(rho), want)

    @pytest.mark.parametrize("V", [2, 5, 16, 1024])
    def test_matches_elementwise_bisection(self, V):
        for n, (p, q) in enumerate(ratio_instances(V)):
            K = 2 + n % 7
            want = reference_kseq_rho(p, q, K)
            s = kseq_rho(p, q, K)
            assert abs(s.rho - want.rho) <= 1e-12
            assert s.iterations == want.iterations


class TestKseqMemo:
    """``verify_kseq`` takes rho from a memo keyed by (target row, draft row,
    survivors): a hit is bit for bit the solve it stands for, and an entry
    lives no longer than its rows. A rejection residual is kept under the
    same key in the dict a caller passes: a hit is the miss's own residual,
    charged as the miss was."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(p, q, K):
            calls.append(K)
            return kseq_rho(p, q, K)

        monkeypatch.setattr(verifiers, "kseq_rho", counted)
        return calls

    @pytest.mark.parametrize("V", [2, 5, 16, 1024])
    def test_hit_equals_a_fresh_solve(self, V, solves):
        for p, q in ratio_instances(V):
            for K in range(2, 9):
                # each row also serves in the other role, under its own key
                for d, t in ((p, q), (q, p)):
                    want = kseq_rho(d, t, K).rho
                    assert _kseq_scale(d, t, K) == want
                    n = len(solves)
                    assert _kseq_scale(d, t, K) == want
                    assert len(solves) == n

    def test_a_collected_draft_row_answers_for_no_other(self):
        # each draft row is freed before the next is built, which CPython
        # tends to place at the same address: a key by id() would hit
        q = dist(0.7, 0.2, 0.1)
        for n in range(20):
            p = normalize([1.0 + n, 1.0, 1.0])
            assert _kseq_scale(p, q, 2) == kseq_rho(p, q, 2).rho
            del p

    @staticmethod
    def _decode_and_watch(pairs):
        """Decode ``spectr`` on each pair; weak references to every row the
        decodes looked up, after checking that the memo holds some of them."""
        rows = []
        for pair in pairs:
            decode(pair, "spectr", 3, 4, (0, 1), 48, RandomSource(3))
            rows += [*pair.draft.cache.values(), *pair.target.cache.values()]
        assert any(d in verifiers._RHO for d in rows)
        return [weakref.ref(d) for d in rows]

    @pytest.mark.parametrize("shape", ["pair", "matched", "swapped"])
    def test_entries_go_with_their_rows(self, shape):
        # a matched pair makes one row both the draft and the target row of a
        # key, and swapped pairs make each row the other's draft row: a memo
        # holding its draft rows strongly would keep these rows alive
        a, b = random_model(5, 1, 11, 1.0), random_model(5, 1, 12, 1.0)
        pairs = {
            "pair": [ModelPair(a, b)],
            "matched": [ModelPair(a, a)],
            "swapped": [ModelPair(a, b), ModelPair(b, a)],
        }[shape]
        refs = self._decode_and_watch(pairs)
        del a, b, pairs
        gc.collect()
        assert all(r() is None for r in refs)

    # the instance ``TestVerifyKseq.test_single_draft_matches_sd_exactly``
    # calls dominated: p >= q everywhere within the sum tolerance, so a
    # rejection leaves no residual mass and the target row is drawn from
    @staticmethod
    def _dominated():
        drafts = DraftSet(((0,),), ((dist(0.5 + 4e-10, 0.5),),))
        return drafts, prefix_table(drafts, ((dist(0.5, 0.5),) * 2,))

    @staticmethod
    def _fields(out):
        return out.tau, out.f, out.t, out.y, asdict(out.counters)

    def test_residual_memo_changes_nothing(self, canonical_pair):
        # one dict shared by every call, as a decode shares it, against no
        # memo: the same outcomes and every counter, and the memo was hit
        dominated = self._dominated()
        for pair in (canonical_pair, generate_pair(8, 1, 3, 0.05, 0.3)):
            for K in (1, 3):
                memo, rejections = {}, 0
                for seed in range(200):
                    drafts, q_cond = order0_kseq(pair, K, 4, RandomSource(seed))
                    want = verify_kseq(drafts, q_cond, RandomSource(seed), residuals=None)
                    got = verify_kseq(drafts, q_cond, RandomSource(seed), residuals=memo)
                    assert self._fields(got) == self._fields(want)
                    rejections += got.tau < 4
                assert 0 < len(memo) < rejections
        memo = {}
        for seed in range(200):
            want = verify_kseq(*dominated, RandomSource(seed))
            got = verify_kseq(*dominated, RandomSource(seed), residuals=memo)
            assert self._fields(got) == self._fields(want)

    def test_a_hit_is_the_distribution_the_miss_built(self, canonical_pair, monkeypatch):
        # token 1 has q/p = 0.4: a uniform of 0.9 rejects it, and the residual
        # norm(q - p) is drawn from; the second rejection normalizes nothing
        drawn, normalized = [], []
        monkeypatch.setattr(verifiers, "sample", lambda d, rng: drawn.append(d) or sample(d, rng))
        monkeypatch.setattr(verifiers, "normalize", lambda w: normalized.append(1) or normalize(w))
        p = canonical_pair.draft.conditional(())
        q = canonical_pair.target.conditional(())
        drafts = DraftSet(((1,),), ((p,),))
        q_cond = prefix_table(drafts, ((q, q),))
        memo = {}
        for _ in range(3):
            out = verify_kseq(drafts, q_cond, FixedUniforms([0.9, 0.5]), residuals=memo)
            assert (out.tau, out.y, out.counters.vocab_scans, out.counters.residual_evals) == (0, 0, 1, 1)
        assert list(memo) == [(q, p, 1)]
        assert all(d is memo[q, p, 1] for d in drawn) and len(drawn) == 3
        assert len(normalized) == 1

    def test_each_hit_on_an_empty_residual_counts_a_warning(self):
        drafts, q_cond = self._dominated()
        memo = {}
        for _ in range(3):
            out = verify_kseq(drafts, q_cond, FixedUniforms([0.9999999999, 0.3]), residuals=memo)
            assert (out.tau, out.counters.warnings, out.counters.vocab_scans) == (0, 1, 1)
        [res] = memo.values()
        assert res is q_cond(())

    def test_survivor_count_keys_the_residual(self):
        # one (draft row, target row) pair rejected with two survivors, where
        # rho ~ 1.457 leaves (1, 0, 0), and with one, where rho = 1 leaves
        # (0.75, 0.25, 0): a uniform of 0.9 draws token 0 from the first and
        # token 1 from the second, so a memo that ignored the survivors would
        # answer the second call with the first's residual
        p, q = dist(0.2, 0.3, 0.5), dist(0.5, 0.4, 0.1)
        drafts = DraftSet(((2,), (2,)), ((p,), (p,)))
        two = (drafts, prefix_table(drafts, ((q, q), (q, q))), [0.99, 0.99, 0.9])
        # row 0's token 0 is accepted (q/(rho p) > 1), row 1 drops out, and
        # row 0's token 2 is rejected with one survivor
        drafts = DraftSet(((0, 2), (1, 2)), ((p, p), (p, p)))
        one = (drafts, prefix_table(drafts, ((q,) * 3, (q,) * 3)), [0.5, 0.99, 0.9])
        for calls, want_y in (((two, one), (0, 1)), ((one, two), (1, 0))):
            memo = {}
            for (drafts, q_cond, us), y in zip(calls, want_y):
                want = verify_kseq(drafts, q_cond, FixedUniforms(us))
                got = verify_kseq(drafts, q_cond, FixedUniforms(us), residuals=memo)
                assert want.y == y
                assert self._fields(got) == self._fields(want)
            assert len(memo) == 2


class TestVerifyKseq:
    def test_single_draft_matches_sd_exactly(self, canonical_pair):
        # one surviving row is standard speculative sampling: the same draws,
        # residual, fallback and scan count as the reference loop
        sparse = generate_pair(8, 1, 3, 0.05, 0.3)
        drafts = DraftSet(((0,),), ((dist(1, 0),),))
        disjoint = (drafts, prefix_table(drafts, ((dist(0, 1), dist(0.5, 0.5)),)))
        # p >= q everywhere within the sum tolerance: a rejection leaves no residual mass
        dominated = TestKseqMemo._dominated()
        for verify in (verify_kseq, verify_sd):
            for pair in (canonical_pair, sparse):
                for seed in range(300):
                    drafts, q_cond = order0_kseq(pair, 1, 4, RandomSource(seed))
                    want = reference_sd(drafts, q_cond, RandomSource(seed))
                    assert sd_fields(verify(drafts, q_cond, RandomSource(seed))) == want
            for seed in range(50):
                want = reference_sd(*disjoint, RandomSource(seed))
                assert sd_fields(verify(*disjoint, RandomSource(seed))) == want
            want = reference_sd(*dominated, FixedUniforms([0.9999999999, 0.3]))
            assert want[-1] == 1
            assert sd_fields(verify(*dominated, FixedUniforms([0.9999999999, 0.3]))) == want

    def test_single_row_charges_a_scan_only_on_rejection(self, canonical_pair):
        # rho = 1 needs no beta pass, so the residual is the only scan left
        for seed in range(200):
            rng = RandomSource(seed)
            drafts, q_cond = order0_kseq(canonical_pair, 1, 3, rng)
            out = verify_kseq(drafts, q_cond, rng)
            assert out.counters.vocab_scans == (out.tau < 3)

    def test_matched_models_accept_everything(self, matched_pair):
        rng = RandomSource(9)
        for _ in range(50):
            drafts, q_cond = order0_kseq(matched_pair, 3, 4, rng)
            out = verify_kseq(drafts, q_cond, rng)
            assert out.tau == 4

    def test_position_acceptance_rate_canonical(self, canonical_pair):
        # closed form: rho*beta(rho) = 0.5*rho + 0.2 at the canonical instance
        rho = (1.5 + math.sqrt(1.45)) / 2.0
        expected = 0.5 * rho + 0.2
        rng = RandomSource(77)
        n = 20_000
        acc = 0
        for _ in range(n):
            drafts, q_cond = order0_kseq(canonical_pair, 2, 1, rng)
            out = verify_kseq(drafts, q_cond, rng)
            acc += out.tau
        assert abs(acc / n - expected) < 0.01

    def test_t_matches_winning_row_prefix(self, canonical_pair):
        rng = RandomSource(31)
        for _ in range(200):
            drafts, q_cond = order0_kseq(canonical_pair, 3, 3, rng)
            out = verify_kseq(drafts, q_cond, rng)
            assert out.t == drafts.tokens[out.f][: out.tau]

    @staticmethod
    def _asked(drafts, q_cond, make_rng):
        """The outcome and the prefixes it asked ``q_cond`` for, after checking
        that the outcome is what the eagerly scored table gives."""
        asked = []
        out = verify_kseq(drafts, lambda prefix: asked.append(prefix) or q_cond(prefix), make_rng())
        eager = prefix_table(drafts, score_rows(drafts, batched(q_cond)))
        assert TestKseqMemo._fields(out) == TestKseqMemo._fields(verify_kseq(drafts, eager, make_rng()))
        return out, asked

    def test_reads_the_target_only_where_it_reaches(self, canonical_pair):
        # a rejection at tau asks for the surviving row's prefixes of length
        # 0 .. tau, a full accept for lengths 0 .. L, the last for the bonus
        # token; no other row's prefix is asked for
        p = canonical_pair.draft.conditional(())
        one = DraftSet(((1, 1, 0),), ((p,) * 3,))
        three = DraftSet(((1, 1, 1), (1, 0, 1), (0, 0, 1)), ((p,) * 3,) * 3)
        scripted = [
            (one, [0.9, 0.5], 0, 0),
            (one, [0.1, 0.9, 0.5], 1, 0),
            (one, [0.1, 0.1, 0.5, 0.3], 3, 0),
            (three, [0.9, 0.9, 0.9, 0.5, 0.9, 0.5], 2, 2),
            (three, [0.1, 0.9, 0.9, 0.9, 0.5], 2, 1),
            (three, [0.1, 0.1, 0.1, 0.3], 3, 0),
            (three, [0.9, 0.9, 0.1, 0.1, 0.1, 0.3], 3, 2),
        ]
        for drafts, us, tau, f in scripted:
            out, asked = self._asked(drafts, canonical_pair.target.conditional, lambda: FixedUniforms(us))
            assert (out.tau, out.f) == (tau, f)
            assert asked == [drafts.tokens[f][:i] for i in range(tau + 1)]
        pair = generate_pair(8, 1, 3, 1.0, 0.5)
        for K in (1, 3):
            taus = set()
            for seed in range(100):
                drafts, q_cond = order0_kseq(pair, K, 4, RandomSource(seed))
                out, asked = self._asked(drafts, q_cond, lambda: RandomSource(seed))
                assert asked == [drafts.tokens[out.f][:i] for i in range(out.tau + 1)]
                taus.add(out.tau)
            assert 0 in taus and 4 in taus and len(taus) > 2


class TestGbvAcceptProb:
    def test_matched_models_interior_zero_final_one(self):
        p = q = dist(0.5, 0.5)
        a = gbv_accept_prob(1.0, p, q, at_end=False)
        assert a == 0.0
        assert gbv_accept_prob(1.0, None, None, at_end=True) == 1.0

    def test_zero_target_mass_kills_full_block(self):
        assert gbv_accept_prob(0.0, None, None, at_end=True) == 0.0

    def test_canonical_full_block_clamps(self):
        # block (0,0): nu = 0.64 / 0.25 = 2.56, clamped to 1
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((0, 0), p, q)
        nu = joint_ratio(j.log_q, j.log_p)
        assert abs(nu - 2.56) < 1e-12
        assert gbv_accept_prob(nu, None, None, at_end=True) == 1.0


class TestVerifyGbv:
    @pytest.mark.parametrize("K", [2, 3])
    def test_more_than_one_row_is_refused_before_any_draw(self, canonical_pair, K):
        drafts, q_conds = order0_setup(canonical_pair, K, 2, RandomSource(0))
        rng = RandomSource(1)
        with pytest.raises(ValueError, match="^verify_gbv is a single-draft verifier$"):
            verify_gbv(drafts, q_conds, rng)
        assert rng.uniform() == RandomSource(1).uniform()

    def test_matched_models_accept_full_block(self, matched_pair):
        rng = RandomSource(3)
        for _ in range(50):
            drafts, q_conds = order0_setup(matched_pair, 1, 3, rng)
            out, _ = verify_gbv(drafts, q_conds, rng)
            assert out.tau == 3

    def test_length_one_matches_sd_exactly(self, canonical_pair):
        for seed in range(40):
            r1, r2 = RandomSource(seed), RandomSource(seed)
            d1, q1 = order0_kseq(canonical_pair, 1, 1, r1)
            d2, q2 = order0_setup(canonical_pair, 1, 1, r2)
            a = verify_sd(d1, q1, r1)
            b, _ = verify_gbv(d2, q2, r2)
            assert (a.tau, a.t, a.y) == (b.tau, b.t, b.y)

    def test_expected_tau_canonical(self, canonical_pair):
        # hand sum of min joints: 0.7 at length 1 plus 0.61 at length 2
        rng = RandomSource(8)
        n = 40_000
        total = 0
        for _ in range(n):
            drafts, q_conds = order0_setup(canonical_pair, 1, 2, rng)
            out, _ = verify_gbv(drafts, q_conds, rng)
            total += out.tau
        se = math.sqrt(0.7 / n)  # generous bound on the sd of the mean
        assert abs(total / n - 1.31) < 0.015


class TestAcceptanceFormulas:
    def test_subblock_prob_matched_models_zero(self):
        p = q = dist(0.25, 0.75)
        j = joint_of((1,), p, q)
        assert subblock_h(j, p, q, 3) == 0.0

    def test_subblock_prob_zero_target_mass(self):
        p, q = dist(0.5, 0.5), dist(1.0, 0.0)
        j = joint_of((1,), p, q)  # q-joint = 0
        assert subblock_h(j, p, q, 2) == 0.0

    def test_subblock_prob_canonical_exact_rational(self):
        expected = frac_h_partial((0,), 2)
        assert expected == Fraction(801, 1201)
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((0,), p, q)
        got = subblock_h(j, p, q, 2)
        assert abs(got - float(expected)) < 1e-12

    def test_full_block_prob_single_draft_is_likelihood_clamp(self):
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        for blk in [(0,), (1,), (0, 1), (1, 1)]:
            j = joint_of(blk, p, q)
            got = full_block_accept_prob(j, 1)
            assert abs(got - min(1.0, joint_ratio(j.log_q, j.log_p))) < 1e-12

    def test_full_block_prob_matched_models(self):
        p = q = dist(0.25, 0.75)
        j = joint_of((1, 1), p, q)
        expected = math.exp(j.log_q) / (1.0 - (1.0 - math.exp(j.log_q)) ** 2)
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

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 16),
        st.integers(1, 8),
        st.sampled_from((0.1, 0.5, 1.0, 2.0, 1e5)),
        st.floats(-600.0, -40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rules_exact_at_tiny_joints(self, seed, V, K, r, a):
        # joints far below DENOM_EPS, as blocks at wide vocabularies reach
        p, q = kernel_pair(seed, V, "flat", "flat")
        j = joint_with_ratio(r, a)
        assert abs(subblock_h(j, p, q, K) - ref_subblock_accept_prob(j, p, q, K)) <= 1e-12
        pj, qj = Fraction(math.exp(j.log_p)), Fraction(math.exp(j.log_q))
        want = qj * (1 - (1 - min(pj / qj, Fraction(1))) ** K) / (1 - (1 - pj) ** K)
        assert abs(full_block_accept_prob(j, K) - float(min(want, Fraction(1)))) <= 1e-12

    def test_residual_single_draft_matches_surplus(self):
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        j = joint_of((0,), p, q)
        res = block_residual(j, p, q, 1)
        # same normalized vector as max(nu*q - p, 0) with nu = q(0)/p(0)
        nu = joint_ratio(j.log_q, j.log_p)
        w = np.maximum(nu * q.mass - p.mass, 0.0)
        assert np.max(np.abs(res.mass - w / w.sum())) < 1e-12

    def test_residual_zero_where_draft_dominates(self):
        p, q = dist(0.5, 0.5), dist(0.8, 0.2)
        res = block_residual(PrefixJoint(), p, q, 2)
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
        # verify_gbv runs the power-form rules at K = 1; reference_gbv runs the
        # nu-form rules with the same draw order. At V = 1024 the block joints
        # fall below 1e-15 within the block; at concentration 0.05 the modified
        # target falls back to the base row where its surplus is empty.
        cases = (
            (canonical_pair, 3, False),
            (generate_pair(1024, 1, 7, 1.0, 0.6), 8, False),
            (generate_pair(32, 1, 3, 0.05, 0.0), 8, True),
        )
        for pair, L, fallbacks in cases:
            taus = set()
            mod_warnings = 0
            for seed in range(60):
                r1, r2 = RandomSource(seed), RandomSource(seed)
                d1, q1 = order0_setup(pair, 1, L, r1)
                d2, q2 = order0_setup(pair, 1, L, r2)
                a, mod_a = verify_gbv(d1, q1, r1)
                b, mod_b = reference_gbv(d2, q2, r2)
                assert sd_fields(a) == sd_fields(b)
                assert mod_a.horizon == mod_b.horizon and mod_a.prefix == mod_b.prefix
                taus.add(a.tau)
                # the next iteration's overrides: at the empty context, at
                # every one-token context on small vocabularies, and along a
                # row drafted after the verified block
                nxt = draft_rows(lambda ctx: pair.draft.conditional(mod_a.prefix + ctx), 1, L,
                                 RandomSource(seed + 1000)).tokens[0]
                ctxs = {nxt[:n] for n in range(L)}
                if pair.vocab_size <= 32:
                    ctxs |= {(x,) for x in range(pair.vocab_size)}
                ca, cb = Counters(), Counters()
                for ctx in sorted(ctxs):
                    if len(ctx) + 1 > mod_a.horizon:
                        continue
                    ga = override(mod_a, ctx, pair.target.conditional, pair.draft.conditional, ca)
                    gb = override(mod_b, ctx, pair.target.conditional, pair.draft.conditional, cb)
                    assert np.max(np.abs(ga.mass - gb.mass)) < 1e-12
                assert (ca.vocab_scans, ca.warnings) == (cb.vocab_scans, cb.warnings)
                mod_warnings += ca.warnings
            if fallbacks:
                assert mod_warnings > 0
            else:
                assert {0, L} <= taus

    @pytest.mark.parametrize("shape", ["zero-target", "peaked"])
    def test_joints_equal_chained_extend_joint(self, monkeypatch, shape):
        # every joint the scan reads, held with == to extend_joint chained
        # along its row (the sub-block rule reads a joint as its two log
        # joints); on "zero-target" drafted token 2 has target
        # probability 0, so LOG_ZERO must absorb the rest of the row
        if shape == "zero-target":
            draft = np.array([[0.5, 0.2, 0.3], [0.3, 0.3, 0.4], [0.2, 0.5, 0.3]])
            target = np.array([[0.7, 0.3, 0.0], [0.4, 0.6, 0.0], [0.5, 0.5, 0.0]])
            pair = ModelPair(MarkovModel(3, 1, draft), MarkovModel(3, 1, target))
        else:
            pair = generate_pair(16, 1, 4, 0.05, 0.0)
        seen = {"sub": [], "full": [], "residual": []}
        real_sub, real_full, real_residual = (
            verifiers.subblock_accept_prob, verifiers.full_block_accept_prob,
            verifiers.block_residual,
        )
        monkeypatch.setattr(verifiers, "subblock_accept_prob",
                            lambda lp, lq, *a: seen["sub"].extend(zip(lp, lq)) or real_sub(lp, lq, *a))
        monkeypatch.setattr(verifiers, "full_block_accept_prob",
                            lambda joint, K: seen["full"].append(joint) or real_full(joint, K))
        monkeypatch.setattr(verifiers, "block_residual",
                            lambda joint, *a: seen["residual"].append(joint) or real_residual(joint, *a))
        zero_joints = 0
        for seed in range(40):
            for key in seen:
                seen[key].clear()
            rng = RandomSource(seed)
            drafts, q_conds = order0_setup(pair, 3, 4, rng)
            q_rows = score_rows(drafts, q_conds)
            chained = []
            for k, row in enumerate(drafts.tokens):
                js = [PrefixJoint()]
                for i, tok in enumerate(row):
                    js.append(extend_joint(js[-1], tok, drafts.cond[k][i], q_rows[k][i]))
                chained.append(js)
            trace = []
            out, mod = verify_spectr_gbv(drafts, q_conds, rng, trace)
            assert seen["sub"] == [
                (chained[k][len(sub)].log_p, chained[k][len(sub)].log_q)
                for kind, k, sub, *_ in trace if kind == "subblock"
            ]
            assert seen["full"] == [chained[k][4] for kind, k, *_ in trace if kind == "full"]
            if out.tau < 4:
                assert seen["residual"] == [chained[out.f][out.tau]]
            if mod.horizon:
                f, tau = out.f, out.tau
                j = extend_joint(chained[f][tau], out.y, drafts.cond[f][tau], q_rows[f][tau])
                assert mod.joint == j
            zero_joints += sum(lq == LOG_ZERO for _lp, lq in seen["sub"])
            zero_joints += sum(j.log_q == LOG_ZERO for j in seen["full"])
        if shape == "zero-target":
            assert zero_joints > 0

    @pytest.mark.parametrize("V", [3, 16])
    def test_modified_target_joints_equal_chained_extend_joint(self, V):
        # every joint the modified target builds for a shuffled batch, held
        # with == to extend_joint chained from its prefix's joint; at V = 3
        # token 2 has target probability 0, so LOG_ZERO must absorb
        if V == 3:
            draft = np.array([[0.5, 0.2, 0.3], [0.3, 0.3, 0.4], [0.2, 0.5, 0.3]])
            target = np.array([[0.7, 0.3, 0.0], [0.4, 0.6, 0.0], [0.5, 0.5, 0.0]])
            pair = ModelPair(MarkovModel(3, 1, draft), MarkovModel(3, 1, target))
        else:
            pair = generate_pair(16, 1, 4, 0.05, 0.0)
        q_base, p_base = batched(pair.target.conditional), batched(pair.draft.conditional)
        checked = zero = 0
        for seed in range(40):
            rng = RandomSource(seed)
            _, mod = verify_spectr_gbv(*order0_setup(pair, 3, 4, rng), rng)
            ctxs = [c for n in range(mod.horizon) for c in itertools.product(range(V), repeat=n)]
            np.random.default_rng(seed).shuffle(ctxs)
            mod.conditional(ctxs, q_base, p_base)
            for ctx in ctxs:
                j = mod.joint
                for n, tok in enumerate(ctx):
                    head = mod.prefix + ctx[:n]
                    j = extend_joint(j, tok, pair.draft.conditional(head), pair.target.conditional(head))
                assert mod._joints[ctx] == j
                checked += len(ctx) > 1
                zero += j.log_q == LOG_ZERO
        assert checked > 0
        if V == 3:
            assert zero > 0

    @pytest.mark.parametrize("K", [1, 3])
    def test_reads_the_target_once_at_every_row_prefix(self, K):
        # one call, for every prefix of every row and one past it, however
        # early the scan stops
        pair = generate_pair(8, 1, 3, 1.0, 0.5)
        verify = verify_gbv if K == 1 else verify_spectr_gbv
        taus = set()
        for seed in range(60):
            drafts, q_conds = order0_setup(pair, K, 4, RandomSource(seed))
            asked = []
            out, _ = verify(drafts, lambda ctxs: asked.append(list(ctxs)) or q_conds(ctxs), RandomSource(seed))
            assert asked == [[row[:i] for row in drafts.tokens for i in range(5)]]
            taus.add(out.tau)
        assert 0 in taus and 4 in taus and len(taus) > 2

    def test_deterministic_including_counters(self, canonical_pair):
        def run():
            rng = RandomSource(17)
            drafts, q_conds = order0_setup(canonical_pair, 3, 3, rng)
            return verify_spectr_gbv(drafts, q_conds, rng)[0]

        a, b = run(), run()
        assert a == b

    def test_accepted_block_is_prefix_of_winning_row(self, canonical_pair):
        rng = RandomSource(23)
        for _ in range(300):
            drafts, q_conds = order0_setup(canonical_pair, 3, 3, rng)
            out, _ = verify_spectr_gbv(drafts, q_conds, rng)
            assert out.t == drafts.tokens[out.f][: out.tau]
            assert 0 <= out.tau <= 3

    def test_trace_invariants(self, canonical_pair):
        # rejected contents are never accepted later; tau never decreases
        rng = RandomSource(5)
        for _ in range(200):
            drafts, q_conds = order0_setup(canonical_pair, 3, 3, rng)
            trace = []
            verify_spectr_gbv(drafts, q_conds, rng, trace=trace)
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

    def test_length_one_rows_test_only_their_full_block(self):
        # at L = 1 a row has no sub-block, so its one test is the full block;
        # row 0's rejected (a,) makes row 1's identical row a skip, with no
        # uniform drawn, and row 2's accepted (b,) draws y from the bonus row
        p, q = dist(0.5, 0.3, 0.2), dist(0.2, 0.3, 0.5)
        drafts = DraftSet(((0,), (0,), (2,)), ((p,), (p,), (p,)))
        rng = FixedUniforms([0.999, 0.0, 0.5, 0.7])
        trace = []
        out, _ = verify_spectr_gbv(drafts, batched(lambda ctx: q), rng, trace)
        h = [full_block_accept_prob(extend_joint(PrefixJoint(), tok, p, q), 3) for tok in (0, 2)]
        assert trace == [("full", 0, (0,), h[0], False), ("skip", 1, (0,)), ("full", 2, (2,), h[1], True)]
        assert (out.tau, out.f, out.t, out.y) == (1, 2, (2,), 2)
        assert rng.values == [0.7]

    def test_full_block_accept_ends_the_scan(self):
        # row 0 rejects its sub-block and accepts its full block: no later row
        # gets a trace entry, and exactly one more uniform is drawn, for y
        p, q = dist(0.5, 0.3, 0.2), dist(0.2, 0.3, 0.5)
        drafts = DraftSet(((2, 2), (2, 2), (0, 1)), ((p, p),) * 3)
        rng = FixedUniforms([0.999, 0.0, 0.5, 0.7])
        trace = []
        out, _ = verify_spectr_gbv(drafts, batched(lambda ctx: q), rng, trace)
        j1 = extend_joint(PrefixJoint(), 2, p, q)
        [h_sub], _ = subblock_accept_prob([j1.log_p], [j1.log_q], p.mass[None], q.mass[None], 3)
        h_full = full_block_accept_prob(extend_joint(j1, 2, p, q), 3)
        assert trace == [("subblock", 0, (2,), h_sub, False), ("full", 0, (2, 2), h_full, True)]
        assert (out.tau, out.f, out.t, out.y) == (2, 0, (2, 2), 2)
        assert rng.values == [0.7]

    def test_scan_count_per_step_independent_of_K(self, canonical_pair):
        for K in (1, 8):
            rng = RandomSource(11)
            drafts, q_conds = order0_setup(canonical_pair, K, 3, rng)
            out, _ = verify_spectr_gbv(drafts, q_conds, rng)
            c = out.counters
            assert c.vocab_scans == c.h_partial_evals + c.residual_evals


class TestModification:
    def _record(self, pair, K, L, seed):
        rng = RandomSource(seed)
        p_cond, q_cond = pair.draft.conditional, pair.target.conditional
        drafts = draft_rows(p_cond, K, L, rng)
        out, mod = verify_spectr_gbv(drafts, batched(q_cond), rng)
        return out, mod

    def test_positions_past_horizon_fall_through(self, canonical_pair):
        _, mod = self._record(canonical_pair, 2, 2, seed=4)
        q, p = RawChain(canonical_pair.target, ()), RawChain(canonical_pair.draft, ())
        chain = ModifiedChain(q, p, mod)  # the chain routes past the horizon
        ctx = tuple(0 for _ in range(mod.horizon))  # position horizon+1
        assert chain.conditional(ctx) is canonical_pair.target.conditional(mod.prefix + ctx)

    def test_full_acceptance_has_zero_horizon(self, matched_pair):
        rng = RandomSource(2)
        drafts = draft_rows(matched_pair.draft.conditional, 1, 2, rng)
        out, mod = verify_gbv(drafts, batched(matched_pair.target.conditional), rng)
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
            j = PrefixJoint()
            for tok in t + (y,):
                j = extend_joint(j, tok, p_vec, q_vec)
            args = (max(L - tau - 1, 0), 1, t + (y,), j)
            power = ModifiedTarget(*args)
            surplus = NuModifiedTarget(*args)
            q_cond = lambda ctx: q_vec
            p_cond = lambda ctx: p_vec
            for ctx in [(), (0,), (1,), (2,)]:
                if len(ctx) + 1 > power.horizon:
                    continue
                a = override(power, ctx, q_cond, p_cond)
                b = override(surplus, ctx, q_cond, p_cond)
                assert np.max(np.abs(a.mass - b.mass)) < 1e-12

    def test_zero_target_joint_returns_base_without_warning(self):
        # q gives token 1 no mass, so ctx (1,) has a zero target joint: nothing
        # is overridden there, and nothing has fallen back
        p_vec, q_vec = dist(0.5, 0.5), dist(1.0, 0.0)
        mod = ModifiedTarget(horizon=2, K=2, prefix=(0,), joint=PrefixJoint(math.log(0.5), 0.0))
        counters = Counters()
        got = override(mod, (1,), lambda ctx: q_vec, lambda ctx: p_vec, counters)
        assert got is q_vec
        assert counters.warnings == 0

    @pytest.mark.parametrize("build", [ModifiedTarget, NuModifiedTarget], ids=["power", "nu"])
    def test_vocab_scan_charged_only_where_a_pass_is_made(self, build):
        # ctx (1,) has a zero target joint and returns the base row untouched;
        # ctx (0,) builds the override with one pass over the vocabulary
        p_vec, q_vec = dist(0.5, 0.5), dist(1.0, 0.0)
        mod = build(horizon=2, K=2, prefix=(0,), joint=PrefixJoint(math.log(0.5), 0.0))
        assert (mod.horizon, mod.K, mod.prefix) == (2, 2, (0,))
        counters = Counters()
        override(mod, (1,), lambda ctx: q_vec, lambda ctx: p_vec, counters)
        assert counters.vocab_scans == 0
        override(mod, (0,), lambda ctx: q_vec, lambda ctx: p_vec, counters)
        assert counters.vocab_scans == 1

    def test_modification_from_real_pipeline(self):
        pair = generate_pair(4, 1, 21, 1.0, 0.5)
        out, mod = self._record(pair, 3, 4, seed=9)
        if mod.horizon == 0:
            return
        got = override(mod, (), pair.target.conditional, pair.draft.conditional)
        assert abs(got.mass.sum() - 1.0) < 1e-9
        assert np.all(got.mass >= 0)
