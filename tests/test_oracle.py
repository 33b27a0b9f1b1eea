import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    batched,
    bound_properties,
    gbv_block_sum,
    override,
    reference_extra_token,
    reference_output_law,
    subblock_h,
)
from test_golden_oracle import CELLS

from speclab import harness, oracle
from speclab.cli import main
from speclab.models import MarkovModel, ModelPair, block_index, generate_pair
from speclab.oracle import (
    TooLarge,
    _acceptances,
    _blocks,
    _enumerate_leaves,
    _heads,
    _instance,
    _Instance,
    _model_joint,
    _output_law,
    bound_K,
    exact_expected_tau,
    exact_output_distribution,
)
from speclab.probability import LOG_ZERO, PrefixJoint, RandomSource, extend_joint, joint_ratio
from speclab.verifiers import (
    Counters,
    ModifiedTarget,
    _row_joints,
    draft_rows,
    full_block_accept_prob,
    gbv_accept_prob,
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


def bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, so -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def gbv_reference(pair, L):
    """Leaf law and accepted-prefix table of ``--algo gbv`` by independent draws.

    Each drafted row gets one accept draw per sub-block with the shipped
    nu-form rule ``gbv_accept_prob``, and tau is the longest accepted length,
    as ``verify_gbv`` does. Returns the leaf masses keyed by (tau, block) and,
    per sub-block, (accepted-prefix mass, min of the two joints).
    """
    V = pair.vocab_size
    joints = {(): PrefixJoint()}
    for n in range(1, L + 1):
        for blk in itertools.product(range(V), repeat=n):
            ctx = blk[:-1]
            joints[blk] = extend_joint(
                joints[ctx], blk[-1], pair.draft.conditional(ctx), pair.target.conditional(ctx)
            )
    leaves = {}
    for row in itertools.product(range(V), repeat=L):
        w = math.exp(joints[row].log_p)
        if w <= 0.0:
            continue
        states = {0: 1.0}
        for i in range(1, L + 1):
            at_end = i == L
            j = joints[row[:i]]
            a = gbv_accept_prob(
                joint_ratio(j.log_q, j.log_p),
                None if at_end else pair.draft.conditional(row[:i]),
                None if at_end else pair.target.conditional(row[:i]),
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
        blk: (accepted.get(blk, 0.0), min(math.exp(j.log_p), math.exp(j.log_q)))
        for blk, j in joints.items() if blk
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
        if i <= L - 1:
            h = subblock_h(inst._joint(sub), inst.pchain.conditional(sub), inst.qchain.conditional(sub), K)
        else:
            h = full_block_accept_prob(inst._joint(row), inst.K)
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
    blocks = _blocks(pair.vocab_size, L)
    draft = dict(zip(blocks, inst.p[L].tolist()))
    leaves: dict = {}
    events = set()
    for rows in itertools.product(blocks, repeat=K):
        w = math.prod(draft[r] for r in rows)
        if w <= 0.0:
            continue
        tuple_leaves, total, seen = walk_tuple(inst, rows)
        assert abs(total - 1.0) < 1e-12
        events |= seen
        for key, pr in tuple_leaves.items():
            leaves[key] = leaves.get(key, 0.0) + w * pr
    return leaves, events


class TestLevels:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("context", [(), (1,)])
    def test_joints_equal_the_model_read_directly(self, order, context):
        # each entry is the parent's joint times one conditional, the same
        # float products _model_joint forms walking the block from the model
        pair = generate_pair(3, order, 5, 1.0, 0.5)
        inst = _instance(pair, 3, 2, context)
        assert [len(p) for p in inst.p] == [len(q) for q in inst.q] == [1, 3, 9, 27]
        for i, (p, q) in enumerate(zip(inst.p, inst.q)):
            blocks = _blocks(3, i)
            assert blocks == tuple(itertools.product(range(3), repeat=i))
            for blk, pb, qb in zip(blocks, p.tolist(), q.tolist()):
                assert pb == _model_joint(pair.draft, context, blk)
                assert qb == _model_joint(pair.target, context, blk)

    def test_tables_at_every_depth_agree(self):
        # a two-iteration report builds its first target table at 2(L + 1)
        # and each second-iteration one at a depth between L + 1 and that,
        # for the output law; the draft joints and rows and the log joints
        # stop at level L whatever the depth. Tables built at any two depths
        # agree bit for bit on every entry they share
        pair = generate_pair(3, 1, 5, 1.0, 0.5)
        L = 2
        names = ("p", "p_rows", "log_p", "log_q", "q", "q_rows")
        tables = [_instance(pair, L, 2, depth=depth) for depth in range(L, 2 * (L + 1) + 1)]
        for depth, inst in enumerate(tables, L):
            assert [len(getattr(inst, f)) for f in names] == [L + 1, L, L + 1, L + 1, depth + 1, depth]
            for other in tables:
                for f in names:
                    for a, b in zip(getattr(inst, f), getattr(other, f)):
                        assert bitwise(a, b), (depth, other.depth, f)
        assert tables[-1].q[-1].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("V, L, K", [(2, 2, 2), (3, 2, 3)])
    def test_each_table_is_built_to_its_last_reader(self, monkeypatch, V, L, K):
        # no reader needs a draft joint or row past level L, so every
        # instance of a two-iteration report, the first built to 2(L + 1)
        # and each second one deeper than L, asks its draft chain for a table
        # to level L and its target chain for one to its own depth
        calls, insts = [], []
        joints, post_init = oracle._joints, _Instance.__post_init__

        def recorded_joints(chain, V, depth):
            calls.append((chain, depth))
            return joints(chain, V, depth)

        def recorded_post_init(inst):
            insts.append(inst)
            post_init(inst)

        monkeypatch.setattr(oracle, "_joints", recorded_joints)
        monkeypatch.setattr(_Instance, "__post_init__", recorded_post_init)
        exact_output_distribution(generate_pair(V, 1, 7, 1.0, 0.5), L, K, iterations=2)
        assert len(insts) > 2 and len(calls) == 2 * len(insts)
        assert min(inst.depth for inst in insts) > L
        for inst in insts:
            assert [depth for chain, depth in calls if chain is inst.pchain] == [L]
            assert [depth for chain, depth in calls if chain is inst.qchain] == [inst.depth]

    ZEROS = ModelPair(
        MarkovModel(3, 1, np.array([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8]])),
        MarkovModel(3, 1, np.array([[0.0, 0.6, 0.4], [0.1, 0.9, 0.0], [0.5, 0.5, 0.0]])),
    )

    # V = 12 at order 2 reads 3,456 distinct conditionals: enough that a
    # vectorized np.log, which differs from math.log on about 0.35% of
    # doubles, differs on some of them
    PAIRS = [generate_pair(3, 1, 5, 1.0, 0.5), generate_pair(12, 2, 5, 1.0, 0.5), ZEROS]

    @pytest.mark.parametrize("pair", PAIRS, ids=["order1", "order2", "zeros"])
    @pytest.mark.parametrize("context", [(), (1,)])
    def test_log_joints_equal_the_verifiers(self, pair, context):
        # the rules read the table's log joints; each must be the joint the
        # verifier builds along a drafted row, bit for bit, and on the pair
        # with zero conditionals a -inf joint stays -inf below it
        inst = _instance(pair, 3, 2, context)
        zero = set()
        for i, (log_p, log_q) in enumerate(zip(inst.log_p, inst.log_q)):
            for blk, lp, lq in zip(_blocks(inst.V, i), log_p.tolist(), log_q.tolist()):
                heads = [blk[:j] for j in range(len(blk))]
                want = _row_joints(blk, inst.pchain.conditionals(heads), inst.qchain.conditionals(heads))[-1]
                assert (lp.hex(), lq.hex()) == (want.log_p.hex(), want.log_q.hex()), blk
                if lp == LOG_ZERO and lq == LOG_ZERO:
                    zero.add(blk)
        if pair is self.ZEROS:
            assert any(blk[:-1] in zero for blk in zero)

    @pytest.mark.parametrize("pair", PAIRS, ids=["order1", "order2", "zeros"])
    def test_rows_equal_the_chains(self, pair):
        # the sub-block tests read each kept row as the chain's own
        # conditional after its block, bit for bit, on a raw target chain
        # and on a second iteration's modified one
        first = _instance(pair, 3, 2, (1,))
        context = (1, 2)
        second = _Instance(
            harness.RawChain(pair.draft, context), first.modified((), 2),
            context, pair.vocab_size, 3, 2, 3,
        )
        for inst in (first, second):
            assert len(inst.p_rows) == len(inst.q_rows) == 3
            for i, (p_rows, q_rows) in enumerate(zip(inst.p_rows, inst.q_rows)):
                blocks = _blocks(pair.vocab_size, i)
                assert p_rows.shape == q_rows.shape == (len(blocks), pair.vocab_size)
                for blk, pr, qr in zip(blocks, p_rows, q_rows):
                    assert bitwise(pr, inst.pchain.conditional(blk).mass), blk
                    assert bitwise(qr, inst.qchain.conditional(blk).mass), blk


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

    def test_accept_mass_does_not_overflow_at_a_subnormal_target_joint(self):
        # min(p, q) / q: the quotient p / q, 0.5 / 1e-313 here, is never formed
        p, q = np.array([0.5, 0.5]), np.array([1.0 - 1e-313, 1e-313])
        with np.errstate(over="raise", invalid="raise"):
            got = oracle._accept_mass(p, q, 2)
        assert got.tolist() == [0.75, 1e-313]

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


def top_k(model, k):
    """``model`` with every row cut to its k largest entries and renormalized,
    so that p = 0 or q = 0 holds on whole tokens."""
    keep = np.argsort(model.table, axis=1)[:, -k:]
    table = np.zeros_like(model.table)
    np.put_along_axis(table, keep, np.take_along_axis(model.table, keep, axis=1), axis=1)
    return MarkovModel(model.vocab_size, model.order, table / table.sum(axis=1, keepdims=True))


def top_k_pair(pair, k):
    return ModelPair(top_k(pair.draft, k), top_k(pair.target, k), pair.temperature)


# K = 1 pairs away from generate_pair(V, 1, s, 1.0, 0.5): order 2, T != 1,
# peaked rows and top-k truncated rows
OFF_DEFAULT_PAIRS = {
    "order-2": generate_pair(3, 2, 1, 1.0, 0.5),
    "T=0.5": generate_pair(3, 1, 1, 1.0, 0.5, 0.5),
    "T=2": generate_pair(3, 1, 1, 1.0, 0.5, 2.0),
    "conc-0.05": generate_pair(4, 1, 2, 0.05, 0.5),
    "top-2-of-4": top_k_pair(generate_pair(4, 1, 1, 1.0, 0.5), 2),
    "top-3-of-5-sim-0": top_k_pair(generate_pair(5, 1, 1, 1.0, 0.0), 3),
}


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
        # at V = 4, L = 3 the K = 1 recursion runs over a 64-leaf trie
        cases = [(generate_pair(3, 1, seed + 10, 1.0, 0.4), 2) for seed in range(4)]
        cases += [(generate_pair(4, 1, seed + 20, 1.0, 0.5), 3) for seed in range(2)]
        for pair, L in cases:
            a = exact_output_distribution(pair, L, 1)
            b_leaves, b_lemma = gbv_reference(pair, L)
            b_tau = sum(tau * m for (tau, _t), m in b_leaves.items())
            assert abs(a.expected_tau - b_tau) < 1e-12
            assert {k for k, m in a.leaves.items() if m > 0.0} == {
                k for k, m in b_leaves.items() if m > 0.0
            }
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
            assert r.marginal_sums_max_err < 1e-9

    def test_single_draft_preserves_target_and_identity(self):
        for seed in range(4):
            pair = generate_pair(2, 1, seed + 3, 1.0, 0.5)
            r = exact_output_distribution(pair, 3, 1)
            assert r.max_marginal_dev < 1e-9
            assert r.lemma_max_dev < 1e-9
            assert abs(r.expected_tau - r.bound) < 1e-9

    @pytest.mark.parametrize("name", OFF_DEFAULT_PAIRS)
    @pytest.mark.parametrize("L, iterations", ((3, 1), (2, 2)))
    def test_single_draft_exact_off_the_default_pair(self, name, L, iterations):
        r = exact_output_distribution(OFF_DEFAULT_PAIRS[name], L, 1, iterations=iterations)
        assert [(check, value) for check, value, tol in r.checks() if not value < tol] == []
        assert r.max_marginal_dev < 1e-12
        assert r.fallback_mass == 0.0
        if iterations == 2:
            assert r.max_marginal_dev_two_iter < 1e-12

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
        # the guard counts the recursion's coefficient products, V^L C(K + 3, 4):
        # 256 * 3876 at (4, 4, 16) passes, 256 * 4845 at (4, 4, 17) does not
        for K in range(1, 7):
            assert len(oracle._series(K, 2)[1]) == math.comb(K + 3, 4)
        pair = generate_pair(4, 1, 0, 1.0, 0.5)
        with pytest.raises(TooLarge):
            exact_expected_tau(pair, 4, 17)

    def test_cells_past_the_tuple_count_run(self):
        # V^(K*L) = 2^24 and 4^16: the tuple-count guard refused both
        for V, L, K in ((2, 3, 8), (4, 4, 4)):
            r = exact_output_distribution(generate_pair(V, 1, 1, 1.0, 0.5), L, K)
            assert r.max_leafsum_err < 1e-12
            assert r.marginal_sums_max_err < 1e-9


class TestCoinRecursion:
    """The coin recursion against a walk of every draft tuple through its
    own accept/reject branches, which runs the scan with its rejected set
    rather than assuming one coin per node. V = 2 makes rows share
    prefixes, so rejected-set skips fire; the concentration-0.05 pairs have
    tests that accept with probability exactly 0 or 1. V = 3 gives rows
    that share some prefixes and not others, and (L, K) = (1, 6) and (2, 5)
    take the series past the low degrees."""

    PAIRS = (generate_pair(2, 1, 7, 1.0, 0.5), generate_pair(2, 1, 2, 0.05, 0.5))
    PAIRS_V3 = (generate_pair(3, 1, 7, 1.0, 0.5), generate_pair(3, 1, 2, 0.05, 0.5))

    def test_recursion_matches_tuple_walk(self):
        cells = [(pair, L, K) for pair in self.PAIRS for L in (1, 2, 3) for K in (1, 2, 3, 4)]
        cells += [(pair, L, K) for pair in self.PAIRS for L, K in ((1, 6), (2, 5))]
        cells += [(pair, L, K) for pair in self.PAIRS_V3 for L, K in ((2, 2), (2, 3), (3, 2))]
        events = set()
        for (pair, L, K), context in itertools.product(cells, ((), (1,))):
            r = exact_output_distribution(pair, L, K, context=context)
            ref, seen = walk_reference(pair, L, K, context)
            events |= seen
            assert r.max_leafsum_err < 1e-12
            positive = {key for key, m in ref.items() if m > 0.0}
            assert {key for key, m in r.leaves.items() if m > 0.0} == positive, (L, K)
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
        positive = int((_instance(pair, 2, 3).p[2] > 0.0).sum())
        assert 0 < positive < 4
        assert r.tuples == positive**3


class TestBatchedEnumeration:
    """``_enumerate_leaves`` on a batch of instances against each instance
    enumerated alone. A batch holds raw and modified target chains (the
    second iteration's instances, built through ``_Instance.modified``), the
    concentration-0.05 pairs of ``TestCoinRecursion``, whose tests accept
    with h exactly 0 or 1 and whose zero draft joints leave leaves at mass
    0, at two contexts."""

    PAIRS = TestCoinRecursion.PAIRS + TestCoinRecursion.PAIRS_V3

    def batch(self, V, L, K) -> list:
        insts = []
        for pair in (pair for pair in self.PAIRS if pair.vocab_size == V):
            for context in ((), (1,)):
                first = _instance(pair, L, K, context)
                insts.append(first)
                [(leaves, _rows)] = _enumerate_leaves([_instance(pair, L, K, context)])
                # the first three positive-mass leaves, in level order
                positive = [
                    (tau, _blocks(V, tau)[j]) for tau, level in enumerate(leaves)
                    for j in np.flatnonzero(level > 0.0).tolist()
                ]
                for tau, t in positive[:3]:
                    prefix = t + (V - 1,)
                    draft = harness.RawChain(pair.draft, context + prefix)
                    target = first.modified(t, V - 1)
                    insts.append(_Instance(draft, target, context + prefix, V, L, K, L))
        return insts

    @pytest.mark.parametrize("V, L, K", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 2, 4), (3, 3, 3)])
    def test_batch_matches_one_at_a_time(self, V, L, K):
        batch = self.batch(V, L, K)
        together = [leaves for leaves, _rows in _enumerate_leaves(batch)]
        # the tests the batch makes, one rule call per drafted node
        hs = {
            subblock_h(inst._joint(u), inst.pchain.conditional(u), inst.qchain.conditional(u), K)
            for inst in batch for i in range(1, L)
            for u, w in zip(_blocks(V, i), inst.p[i].tolist()) if w > 0.0
        }
        hs |= {
            full_block_accept_prob(inst._joint(b), K)
            for inst in batch for b, w in zip(_blocks(V, L), inst.p[L].tolist()) if w > 0.0
        }
        assert {0.0, 1.0} <= hs
        assert any(isinstance(inst.qchain, harness.ModifiedChain) for inst in batch)
        assert any((inst.p[L] == 0.0).any() for inst in batch)
        alone = [_enumerate_leaves([inst])[0][0] for inst in self.batch(V, L, K)]
        assert len(together) == len(alone) == len(batch)
        for leaves, want in zip(together, alone):
            assert [level.shape for level in leaves] == [level.shape for level in want] == [
                (V**i,) for i in range(L + 1)
            ]
            for i, (level, w) in enumerate(zip(leaves, want)):
                # whole levels, zero entries included, and the same positive set
                assert (level >= 0.0).all() and (w >= 0.0).all(), i
                assert np.array_equal(level > 0.0, w > 0.0), i
                assert np.abs(level - w).max() <= 1e-12, i


class TestLevelBatchedRules:
    """The h that ``_enumerate_leaves`` reads, every level's rules evaluated
    from the level arrays in two calls, against the shipped rules asked one
    node at a time, bit for bit, on batches of the concentration-0.05 pairs of
    ``TestCoinRecursion`` and ``TestLevels.ZEROS``. ZEROS drafts prefixes of
    target joint 0 (r = inf), where at K = 1 the scalar sub-block rule
    reaches h = 0 through max(0.0, nan) and an array maximum would give NaN."""

    BATCHES = {2: [TestCoinRecursion.PAIRS[1]], 3: [TestCoinRecursion.PAIRS_V3[1], TestLevels.ZEROS]}

    @pytest.mark.parametrize("V", [2, 3])
    @pytest.mark.parametrize("L, K", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 3), (2, 5)])
    def test_batched_h_equals_per_node_rules(self, V, L, K):
        insts = [_instance(pair, L, K, context) for pair in self.BATCHES[V] for context in ((), (1,))]
        h, _rows = _acceptances(insts)
        assert h[0] is None and [len(level) for level in h[1:]] == [len(insts) * V**i for i in range(1, L + 1)]
        want = [[] for _ in range(L + 1)]
        infinite = 0
        for inst in insts:
            for i, p in enumerate(inst.p[1:], 1):
                for u, w in zip(_blocks(V, i), p.tolist()):
                    j = inst._joint(u)
                    if w <= 0.0:
                        want[i].append(0.0)
                    elif i < L:
                        want[i].append(subblock_h(j, inst.pchain.conditional(u), inst.qchain.conditional(u), K))
                        infinite += joint_ratio(j.log_p, j.log_q) == math.inf
                    else:
                        want[i].append(full_block_accept_prob(j, K))
        for got, exp in zip(h[1:], want[1:]):
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in exp]
        if V == 3 and L > 1:
            assert infinite > 0


class TestOutputLawPass:
    """``_output_law``'s forward pass over the trie levels against
    ``reference_output_law``, the walk that builds one modified target chain
    per (leaf, extra token) branch, on every output law a report computes.
    In a two-iteration cell those include each second-iteration instance's:
    its target is a modified chain, and its output reaches levels L and
    deeper, where the rows are the raw target's. Similarity 1.0 empties the
    surpluses, so fallbacks are charged at the extra token and at
    modified-target positions; concentration 0.05 leaves rows with zeros."""

    CELLS = [(3, 3, 3, 1), (2, 4, 3, 1), (4, 3, 1, 1), (2, 2, 2, 2), (3, 2, 3, 2), (2, 2, 3, 2)]

    def laws(self, monkeypatch, V, L, K, iterations):
        """(setting, instance, leaves, rows, depth) of every ``_output_law``
        call of the reports over every setting."""
        calls = []
        for setting in itertools.product((0.5, 1.0), (1.0, 0.05), ((), (1,))):
            similarity, concentration, context = setting
            seen = []

            def recorded(inst, leaves, rows, depth):
                seen.append((setting, inst, leaves, rows, depth))
                return _output_law(inst, leaves, rows, depth)

            with monkeypatch.context() as m:
                m.setattr(oracle, "_output_law", recorded)
                pair = generate_pair(V, 1, 7, concentration, similarity)
                exact_output_distribution(pair, L, K, iterations=iterations, context=context)
            assert (len(seen) > 1) == (iterations == 2)
            assert {depth for *_rest, depth in seen[1:]} <= set(range(L + 1, 2 * L + 2))
            calls += seen
        return calls

    @pytest.mark.parametrize("V, L, K, iterations", CELLS)
    def test_pass_matches_branch_walk(self, monkeypatch, V, L, K, iterations):
        modified_fallback = 0.0
        for setting, inst, leaves, rows, depth in self.laws(monkeypatch, V, L, K, iterations):
            got, got_fb, _rows = _output_law(inst, leaves, rows, depth)
            want, want_fb, extra_fb = reference_output_law(inst, leaves, depth)
            assert got.shape == want.shape == (V**depth,)
            assert np.abs(got - want).max() <= 1e-12, (setting, depth)
            assert abs(got_fb - want_fb) <= 1e-12, (setting, depth)
            # the part of the count not charged at an extra token
            modified_fallback = max(modified_fallback, got_fb - extra_fb)
        # at K >= 2 a matched pair's tau = 0 paths fall back at the modified
        # target's first position too; at K = 1 the full block always accepts
        if K > 1:
            assert modified_fallback > 1e-3

    @pytest.mark.parametrize("V, L, K, iterations", CELLS)
    def test_extra_token_is_the_record_row(self, monkeypatch, V, L, K, iterations):
        """Every row ``_output_law`` returns below level L is the root
        modified target's row at its block bit for bit, and the rows fall
        back at exactly the record's fallbacks: the oracle reads them from
        its tables, so this pins them to the record decoding builds. At
        every leaf (tau, t), tau < L, that row is decoding's block residual,
        empty exactly where the record falls back."""
        fell = 0
        for setting, inst, leaves, pass_rows, depth in self.laws(monkeypatch, V, L, K, iterations):
            _law, _fb, rows = _output_law(inst, leaves, pass_rows, depth)
            record = ModifiedTarget(L, K, (), PrefixJoint())
            heads = list(_heads(V, L))
            _below, mask = pass_rows
            fallbacks = [blk for blk, fallback in zip(heads, mask.tolist()) if fallback]
            found = record.conditional(heads, inst.qchain.conditionals, inst.pchain.conditionals)
            assert len(found) == sum(len(r) for r in rows[:L])
            for blk, d in zip(heads, found):
                assert bitwise(rows[len(blk)][block_index(blk, V)], d.mass), (setting, blk)
            assert len(fallbacks) == len(set(fallbacks)) and set(fallbacks) == record.fallbacks, setting
            for tau, level in enumerate(leaves[:L]):
                blocks = _blocks(V, tau)
                for j in np.flatnonzero(level > 0.0).tolist():
                    row, fell_back = reference_extra_token(inst, tau, blocks[j])
                    assert np.array_equal(row, rows[tau][j]), (setting, blocks[j])
                    assert fell_back == (blocks[j] in record.fallbacks), (setting, blocks[j])
                    fell += fell_back
        assert (fell > 0) == (K > 1)


class TestSurplusPass:
    """``_acceptances`` returns each instance's output-law rows and fallback
    mask from its batch's one ``subblock_accept_prob`` pass; the same
    instance passed alone must get the same rows and mask, bit for bit.
    ZEROS drafts blocks of target joint 0, which the pass tests for the coins
    only, and leaves undrafted blocks of nonzero target joint, which it
    covers for the output law only; it never falls back, and the matched
    pair in its batch falls back at every block, so a mask handed to the
    wrong instance shows."""

    MATCHED = generate_pair(3, 1, 7, 0.05, 1.0)

    @staticmethod
    def same_as_alone(inst, rows):
        below, fallback = rows
        [(alone, alone_fallback)] = _acceptances([inst])[1]
        assert bitwise(below, alone) and bitwise(fallback, alone_fallback)
        assert fallback.dtype == bool and fallback.shape == (len(below),)
        return int(fallback.sum())

    @pytest.mark.parametrize("L, K", [(1, 1), (2, 1), (2, 2), (3, 3), (3, 1)])
    def test_zeros_batch(self, L, K):
        insts = [_instance(TestLevels.ZEROS, L, K, context) for context in ((), (1,), (2,))]
        insts.insert(1, _instance(self.MATCHED, L, K, (1,)))
        _h, rows = _acceptances(insts)
        assert len(rows) == len(insts)
        kinds = set()
        for k, (inst, r) in enumerate(zip(insts, rows)):
            for p, log_q in zip(inst.p[:L], inst.log_q[:L]):
                kinds |= {(w > 0.0, lq != LOG_ZERO) for w, lq in zip(p.tolist(), log_q.tolist())}
            assert self.same_as_alone(inst, r) == (len(r[0]) if k == 1 else 0)
        if L > 1:
            assert {(True, False), (False, True)} <= kinds

    @pytest.mark.parametrize("V, L, K", [(2, 2, 2), (3, 2, 3), (2, 2, 3)])
    def test_second_iteration_batch(self, monkeypatch, V, L, K):
        # every second-iteration output law reads the rows its batch returned
        seen = []

        def recorded(inst, leaves, rows, depth):
            seen.append((inst, rows))
            return _output_law(inst, leaves, rows, depth)

        monkeypatch.setattr(oracle, "_output_law", recorded)
        for similarity in (0.5, 1.0):
            exact_output_distribution(generate_pair(V, 1, 7, 0.05, similarity), L, K, iterations=2, context=(1,))
        seconds = [(inst, rows) for inst, rows in seen if isinstance(inst.qchain, harness.ModifiedChain)]
        assert len(seconds) > 4
        fell = sum(self.same_as_alone(inst, rows) for inst, rows in seconds)
        assert fell > 0


class TestReportTables:
    """``ExactReport.leaves`` and ``lemma_masses``, built on first access
    from the level arrays the report keeps, against the tables built from
    the enumeration directly, and the report's leaf scalars against the sums
    over those tables in their order, bit for bit, on the golden cells."""

    @pytest.mark.parametrize("cell", CELLS, ids=[str(cell) for cell in CELLS])
    def test_tables_and_sums_equal_the_reference(self, cell):
        kind, V, L, K, iterations, seed, similarity = (*cell, 0.5)[:7]
        pair = generate_pair(V, 1, seed, 1.0, similarity)
        if kind == "gbv":
            report = oracle.gbv_exact_report(pair, L)
        else:
            report = exact_output_distribution(pair, L, K, iterations=iterations)
        inst = _instance(pair, L, K)
        [(leaves, _rows)] = _enumerate_leaves([inst])
        blocks = [list(itertools.product(range(V), repeat=i)) for i in range(L + 1)]
        want_leaves = {
            (tau, u): m for tau, level in enumerate(leaves)
            for u, m in zip(blocks[tau], level.tolist()) if m > 0.0
        }
        claimed = [oracle._accept_mass(p, q, K) for p, q in zip(inst.p[1:], inst.q[1:])]
        want_lemma = {
            u: masses for level, got, want in zip(blocks[1:], oracle._accepted(leaves), claimed)
            for u, masses in zip(level, zip(got.tolist(), want.tolist()))
        }
        for got, want in ((report.leaves, want_leaves), (report.lemma_masses, want_lemma)):
            assert [(k, np.array(v).tobytes()) for k, v in got.items()] == [
                (k, np.array(v).tobytes()) for k, v in want.items()
            ]
        assert report.leaves is report.leaves and report.lemma_masses is report.lemma_masses
        assert report.leaf_states == len(want_leaves)
        assert report.expected_tau.hex() == sum(tau * m for (tau, _t), m in want_leaves.items()).hex()
        assert report.max_leafsum_err.hex() == abs(sum(want_leaves.values()) - 1.0).hex()


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
            oracle, "RawChain", lambda model, ctx: harness.RawChain(model, ctx[:n])
        )
        assert max(self.report(seed).lemma_max_dev_two_iter for seed in range(30, 33)) > 1e-3

    def test_tail_that_keeps_the_head_fails(self, monkeypatch):
        monkeypatch.setattr(harness, "_tail", lambda context, order: tuple(context[:order]))
        assert max(self.report(seed).lemma_max_dev_two_iter for seed in range(30, 33)) > 1e-3


class TestOracleMatchesVerifier:
    def test_leaf_frequencies_match_monte_carlo(self, canonical_pair):
        """The oracle sums its own coin form of the sequential scan over the
        shipped acceptance rules; the verifier runs the scan itself with
        uniform draws. The two are independent, so their leaf laws must
        agree."""
        report = exact_output_distribution(canonical_pair, 2, 2)
        rng = RandomSource(314)
        n = 50_000
        counts: dict = {}
        for _ in range(n):
            drafts = draft_rows(canonical_pair.draft.conditional, 2, 2, rng)
            out, _ = verify_spectr_gbv(drafts, batched(canonical_pair.target.conditional), rng)
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

    def test_fallback_mass_counts_each_fallback_draw(self, matched_pair):
        # at L = 3 a tau = 0 path falls back at the extra token and at both
        # positions of the modified target's horizon, so the report counts
        # three draws per such path: an expected count, not a mass
        report = exact_output_distribution(matched_pair, 3, 2)
        got = sum(m for (tau, _t), m in report.leaves.items() if tau == 0)
        want = float(matched_tau0_mass((0.4, 0.3, 0.2, 0.1), 3, 2))
        assert abs(got - want) < 1e-12
        assert abs(got - 0.2499) < 5e-5
        assert abs(report.fallback_mass - 3 * want) < 1e-12
        assert abs(report.fallback_mass - 0.7497) < 5e-5

    @pytest.mark.parametrize("K", [2, 3])
    def test_two_iteration_counts_each_fallback_once(self, matched_pair, K):
        # on a matched pair each iteration stops at tau = 0 with the same
        # probability, and each such stop falls back at its extra token and
        # at its modified target's first position: 2 + 2 draws per unit of
        # tau = 0 mass, the first iteration's extra token counted once
        report = exact_output_distribution(matched_pair, 2, K, iterations=2)
        want = float(matched_tau0_mass((0.4, 0.3, 0.2, 0.1), 2, K))
        assert abs(report.fallback_mass - 4 * want) < 1e-12

    @pytest.mark.parametrize("K", [1, 2])
    def test_verifier_warning_rate_matches_oracle(self, matched_pair, K):
        tau0 = float(matched_tau0_mass((0.4, 0.3, 0.2, 0.1), 2, K))
        q_cond, p_cond = matched_pair.target.conditional, matched_pair.draft.conditional
        rng = RandomSource(2718)
        n, warned = 2000, 0
        for _ in range(n):
            drafts = draft_rows(p_cond, K, 2, rng)
            out, mod = verify_spectr_gbv(drafts, batched(q_cond), rng)
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


class TestExtremeRegimes:
    """Peaked, sparse and sharpened pairs, whose rows hold subnormal entries
    beside entries that round to 1.0. RuntimeWarnings fail the suite
    (pyproject.toml), so an overflowing quotient in a kernel fails here."""

    # (V, L, concentration, T, seed) -> fallback_mass: rows whose large entry
    # rounds to exactly 1.0 lose the surplus max(q - p, 0) the unrounded rows
    # leave on it, so a residual is empty where the exact law's is not
    ROUND_OFF_FALLBACKS = {
        (4, 2, 0.003, 0.05, 0): 3.07e-42,
        (3, 3, 0.003, 1, 2): 5.96e-51,
        (3, 3, 0.003, 0.2, 2): 5.80e-255,
    }

    def test_single_draft_reports_stay_exact(self):
        fallbacks = {}
        for (V, L), conc, T, seed in itertools.product(
            ((3, 3), (4, 2), (5, 2)), (0.003, 0.01, 0.03), (0.05, 0.2, 1), range(6)
        ):
            r = exact_output_distribution(generate_pair(V, 1, seed, conc, 0, T), L, 1)
            assert r.max_marginal_dev < 1e-12
            assert r.lemma_max_dev < 1e-12
            assert abs(r.expected_tau - r.bound) < 1e-12
            if r.fallback_mass > 0.0:
                fallbacks[V, L, conc, T, seed] = r.fallback_mass
        assert fallbacks.keys() == self.ROUND_OFF_FALLBACKS.keys()
        for cell, mass in fallbacks.items():
            assert mass == pytest.approx(self.ROUND_OFF_FALLBACKS[cell], rel=1e-2)

    def test_every_decode_finishes(self):
        for V, T, conc in itertools.product((8, 64), (0.05, 5), (0.01, 1)):
            pair = generate_pair(V, 1, 11, conc, 0, T)
            for algo in harness.ALGORITHMS:
                out, _ = harness.decode(pair, algo, 4, 6, (0,) * 8, 64, RandomSource(0))
                assert out[-1] == V - 1 or len(out) == 64


class TestArgumentGuard:
    """Every entry point builds its instance through ``_instance``, which
    refuses L < 1 or K < 1 by name before any enumeration."""

    PAIR = generate_pair(2, 1, 1, 1.0, 0.5)

    @pytest.mark.parametrize("entry", [bound_K, exact_expected_tau, exact_output_distribution])
    @pytest.mark.parametrize("L, K, name", [(0, 1, "L"), (1, 0, "K"), (2, 0, "K"), (-1, 2, "L")])
    def test_L_or_K_below_one_is_refused(self, entry, L, K, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            entry(self.PAIR, L, K)

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_iterations_other_than_one_or_two_are_refused(self, iterations):
        with pytest.raises(ValueError, match="^iterations must be 1 or 2$"):
            exact_output_distribution(self.PAIR, 2, 1, iterations)

    def test_two_iterations_past_the_guard_are_refused(self):
        # V^(2(L + 1)) = 2^20 leaves past MAX_ENUM, refused before any table is built
        assert 2 ** 20 > oracle.MAX_ENUM
        with pytest.raises(oracle.TooLarge, match="^two-iteration enumeration exceeds the guard$"):
            exact_output_distribution(self.PAIR, 9, 1, iterations=2)

    def test_no_table_past_the_guard_is_built(self, monkeypatch, capsys):
        # V^L = 10^9 blocks at V = 1000, L = 3: refused before any table is
        # built, so a guard that lets one through fails here at once instead
        # of allocating it
        def build(*_args):
            raise AssertionError("a table past the guard was built")

        monkeypatch.setattr(oracle, "_joints", build)
        with pytest.raises(TooLarge):
            exact_output_distribution(generate_pair(1000, 1, 0, 1.0), 3, 1)
        assert main(["oracle-check", "--gen", "1000,1,0,1.0", "--L", "3"]) == 1
        assert "instance too large" in capsys.readouterr().err

    def test_gbv_report_refuses_L_below_one(self):
        with pytest.raises(ValueError, match="L must be >= 1"):
            oracle.gbv_exact_report(self.PAIR, 0)
