import gc
import itertools
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import eos_free
from speclab import harness, verifiers
from speclab.harness import (
    CSV_HEADER,
    ALGORITHMS,
    ModifiedChain,
    RawChain,
    RunConfig,
    RunMetrics,
    block_efficiency,
    decode,
    generate_prompt,
    run_experiment,
    verify,
)
from speclab.models import ModelPair, generate_pair, random_model
from speclab.oracle import exact_output_distribution
from speclab.probability import LOG_ZERO, PrefixJoint, RandomSource, derive_seed
from speclab.verifiers import (
    Counters,
    ModifiedTarget,
    draft_rows,
    verify_gbv,
    verify_spectr_gbv,
)


class TestBlockEfficiency:
    def test_direct_ratio(self):
        assert block_efficiency(RunMetrics(decoded_tokens=100, target_calls=10)) == 10.0

    def test_requires_calls(self):
        with pytest.raises(ValueError):
            block_efficiency(RunMetrics(decoded_tokens=5, target_calls=0))


class TestDecode:
    def test_autoregressive_block_efficiency_is_one(self):
        pair = generate_pair(6, 1, 3, 1.0, 0.5)
        _, m = decode(pair, "ar", 1, 4, (0, 1), 32, RandomSource(5))
        assert m.block_efficiency == 1.0
        assert m.draft_calls == 0
        assert m.decoded_tokens == m.target_calls

    def test_matched_models_single_draft_yield(self, matched_pair):
        # every iteration accepts the whole block plus the extra token; without
        # EOS the decode runs to the cap, a whole number of blocks
        L = 4
        pair = ModelPair(eos_free(matched_pair.draft), eos_free(matched_pair.target))
        _, m = decode(pair, "gbv", 1, L, (0,), 40, RandomSource(2))
        assert m.mean_tau == L
        assert m.accept_rate == 1.0
        assert m.block_efficiency == L + 1

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_output_stops_at_eos_and_cap(self, algo):
        # L = 3 blocks overshoot a cap of 10 or 11 unless the last block fits;
        # V = 3 puts EOS in about a third of the drafted tokens
        pair = generate_pair(3, 1, 9, 1.0, 0.5)
        eos = pair.vocab_size - 1
        cut = 0
        for seed in range(40):
            cap = 10 + seed % 2
            out, m = decode(pair, algo, 2, 3, (1, 0), cap, RandomSource(seed))
            assert m.decoded_tokens == len(out) <= cap
            assert eos not in out[:-1]
            assert out[-1] == eos or len(out) == cap
            iters = m.target_calls
            uncut = iters if algo == "ar" else round(m.mean_tau * iters) + iters
            assert m.decoded_tokens <= uncut
            cut += uncut - m.decoded_tokens
            assert m.block_efficiency == m.decoded_tokens / iters
        assert (cut > 0) == (algo != "ar")

    def test_deterministic(self):
        pair = generate_pair(5, 1, 9, 1.0, 0.5)
        a = decode(pair, "spectr-gbv", 3, 4, (0,), 48, RandomSource(21))
        b = decode(pair, "spectr-gbv", 3, 4, (0,), 48, RandomSource(21))
        assert a[0] == b[0]
        assert a[1].decoded_tokens == b[1].decoded_tokens
        assert a[1].vocab_scans == b[1].vocab_scans

    def test_warm_rho_memo_changes_nothing(self, monkeypatch):
        # the second decode finds every rho in the memo, yet still charges a
        # scan per solve, so tokens and every metric but wall_ms agree
        solves = []
        solve = verifiers.kseq_rho

        def counted(p, q, K):
            solves.append(K)
            return solve(p, q, K)

        monkeypatch.setattr(verifiers, "kseq_rho", counted)
        pair = ModelPair(eos_free(random_model(6, 1, 17, 1.0)), eos_free(random_model(6, 1, 18, 1.0)))
        cold = decode(pair, "spectr", 3, 4, (2, 0), 64, RandomSource(8))
        n = len(solves)
        warm = decode(pair, "spectr", 3, 4, (2, 0), 64, RandomSource(8))
        assert n > 0 and len(solves) == n
        assert warm[0] == cold[0]
        assert replace(warm[1], wall_ms=0.0) == replace(cold[1], wall_ms=0.0)
        assert cold[1].vocab_scans >= n

    @pytest.mark.parametrize("algo", ["sd", "spectr"])
    @pytest.mark.parametrize("shape", ["eos-free", "peaked"])
    def test_residual_memo_changes_nothing(self, algo, shape, monkeypatch):
        # a decode keeps each rejection residual while it runs: against a
        # decode whose verify passes no memo it gives the same tokens and
        # every metric but wall_ms, builds fewer residuals, and keeps none
        # of them once it returns
        if shape == "eos-free":
            pair = ModelPair(eos_free(random_model(6, 1, 17, 1.0)), eos_free(random_model(6, 1, 18, 1.0)))
        else:
            # concentration 0.05: peaked rows, many tokens near zero mass
            peaked = generate_pair(8, 1, 3, 0.05, 0.3)
            pair = ModelPair(eos_free(peaked.draft), eos_free(peaked.target))
        built = []
        normalize = verifiers.normalize

        def watched(w):
            d = normalize(w)
            built.append(weakref.ref(d))
            return d

        monkeypatch.setattr(verifiers, "normalize", watched)
        kept = decode(pair, algo, 3, 4, (2, 0), 128, RandomSource(8))
        n = len(built)
        gc.collect()
        assert n > 0 and all(r() is None for r in built)
        verify = harness.verify
        monkeypatch.setattr(harness, "verify", lambda *args, residuals=None: verify(*args))
        fresh = decode(pair, algo, 3, 4, (2, 0), 128, RandomSource(8))
        assert kept[0] == fresh[0]
        assert replace(kept[1], wall_ms=0.0) == replace(fresh[1], wall_ms=0.0)
        assert n < len(built) - n

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_max_tokens_below_one_is_refused_before_any_draw(self, algo):
        rng = RandomSource(4)
        with pytest.raises(ValueError, match="^max_tokens must be >= 1"):
            decode(generate_pair(4, 0, 7, 1.0, 0.9), algo, 2, 3, (0,), 0, rng)
        assert rng.uniform() == RandomSource(4).uniform()

    @pytest.mark.parametrize("algo", ["sd", "spectr", "gbv", "spectr-gbv"])
    def test_K_below_one_is_refused_before_any_draw(self, algo):
        rng = RandomSource(4)
        with pytest.raises(ValueError, match="^K must be >= 1"):
            decode(generate_pair(4, 0, 7, 1.0, 0.9), algo, 0, 3, (0,), 8, rng)
        assert rng.uniform() == RandomSource(4).uniform()

    @pytest.mark.parametrize("algo", ["sd", "spectr", "gbv", "spectr-gbv"])
    def test_L_below_one_is_refused_before_any_draw(self, algo):
        rng = RandomSource(4)
        with pytest.raises(ValueError, match="^L must be >= 1"):
            decode(generate_pair(4, 0, 7, 1.0, 0.9), algo, 2, 0, (0,), 8, rng)
        assert rng.uniform() == RandomSource(4).uniform()

    def test_autoregressive_decoding_reads_neither_K_nor_L(self):
        pair = generate_pair(4, 0, 7, 1.0, 0.9)
        out, _ = decode(pair, "ar", 0, 0, (0,), 8, RandomSource(4))
        assert out == decode(pair, "ar", 1, 4, (0,), 8, RandomSource(4))[0]

    def test_terminates_on_eos_or_cap(self):
        pair = generate_pair(4, 0, 7, 1.0, 0.9)
        eos = pair.vocab_size - 1
        for algo in ALGORITHMS:
            out, m = decode(pair, algo, 2, 3, (0,), 25, RandomSource(4))
            assert len(out) >= 25 - 3 or eos in out

    def test_unknown_algo_rejected(self, matched_pair):
        with pytest.raises(ValueError):
            decode(matched_pair, "beam", 1, 2, (), 8, RandomSource(0))


class TestVerify:
    @pytest.mark.parametrize("algo", ["ar", "beam"])
    def test_algo_without_a_draft_verifier_is_refused(self, algo):
        # ``ar`` drafts nothing, so no verifier reads its rows
        pair = generate_pair(4, 1, 13, 1.0, 0.5)
        q0, p0 = RawChain(pair.target, (0,)), RawChain(pair.draft, (0,))
        drafts = draft_rows(p0.conditional, 1, 2, RandomSource(0))
        rng = RandomSource(1)
        with pytest.raises(ValueError, match=f"^'{algo}' has no draft verifier$"):
            verify(algo, drafts, q0, rng)
        assert rng.uniform() == RandomSource(1).uniform()


class TestChains:
    def test_modified_chain_bridges_prefixes(self):
        pair = generate_pair(4, 1, 13, 1.0, 0.5)
        rng = RandomSource(3)
        from speclab.verifiers import draft_rows, verify_spectr_gbv

        prompt = (0, 1)
        q0 = RawChain(pair.target, prompt)
        p0 = RawChain(pair.draft, prompt)
        drafts = draft_rows(p0.conditional, 2, 3, rng)
        out, mod = verify_spectr_gbv(drafts, q0.conditionals, rng)
        block = out.t + (out.y,)
        chain = ModifiedChain(q0, p0, mod)
        # past the horizon the chain must agree with the raw model
        deep_ctx = tuple(0 for _ in range(mod.horizon + 1))
        got = chain.conditional(deep_ctx)
        raw = pair.target.conditional(prompt + block + deep_ctx)
        assert np.array_equal(got.mass, raw.mass)

    def test_raw_chain_memoizes(self):
        for T in (1.0, 0.7):
            pair = generate_pair(4, 1, 13, 1.0, 0.5, T)
            model = replace(random_model(4, 2, 3, 1.0), temperature=T)
            chain = RawChain(pair.target, (1,))
            assert chain.conditional((0,)) is chain.conditional((0,))
            # a zero-padded context is the same cache entry as its short form
            assert model.conditional((2,)) is model.conditional((0, 2))
            assert model.conditional(()) is model.conditional((0, 0))
            assert RawChain(model, ()).conditional((2,)) is model.conditional((0, 2))

    def test_raw_chain_keeps_only_the_tail_its_model_reads(self):
        for order, T in itertools.product((0, 1, 2), (1.0, 0.7)):
            model = replace(random_model(4, order, 3, 1.0), temperature=T)
            assert RawChain(model, (1, 2, 3, 0)).context == (1, 2, 3, 0)[4 - order:]
            # a context shorter than the order is kept whole and zero-padded as before
            for context in [(2,), (1, 2, 3, 0)]:
                chain = RawChain(model, context)
                if len(context) < order:
                    assert chain.context == context
                for n in range(order + 2):
                    ctx = (3, 1, 2)[:n]
                    assert chain.conditional(ctx) is model.conditional(context + ctx)


class _Memo:
    """A chain as decode built it before pruning: every layer kept, full contexts."""

    def __init__(self, lookup):
        self.lookup = lookup
        self.memo = {}

    def conditional(self, ctx):
        if ctx not in self.memo:
            self.memo[ctx] = self.lookup(ctx)
        return self.memo[ctx]

    def conditionals(self, ctxs):
        return [self.conditional(ctx) for ctx in ctxs]


def _unpruned_decode(pair, algo, K, L, prompt, max_tokens, rng):
    """Block-verifier decode loop that stacks a layer per iteration and never drops one.

    A layer answers a context at or past its record's horizon with the
    layer beneath's row at the prefixed context, so every such lookup walks
    the whole stack. For EOS-free pairs: the last block is cut at the cap.
    """
    verify = verify_gbv if algo == "gbv" else verify_spectr_gbv
    K = 1 if algo == "gbv" else K
    totals = Counters()

    def raw(model, context):
        return _Memo(lambda ctx: model.conditional(context + ctx))

    def modified(mod, q, p):
        def lookup(ctx):
            if len(ctx) >= mod.horizon:
                return q.conditional(mod.prefix + ctx)
            return mod.conditional([ctx], q.conditionals, p.conditionals, totals)[0]

        return _Memo(lookup)

    out, taus = [], []
    q = raw(pair.target, prompt)
    while len(out) < max_tokens:
        p = raw(pair.draft, prompt + tuple(out))
        drafts = draft_rows(p.conditional, K, L, rng)
        outcome, mod = verify(drafts, q.conditionals, rng)
        totals.add(outcome.counters)
        out.extend((outcome.t + (outcome.y,))[: max_tokens - len(out)])
        taus.append(outcome.tau)
        q = modified(mod, q, p)
    m = RunMetrics(
        decoded_tokens=len(out),
        target_calls=len(taus),
        draft_calls=K * L * len(taus),
        mean_tau=float(np.mean(taus)),
        accept_rate=float(np.mean([t / L for t in taus])),
        vocab_scans=totals.vocab_scans,
        warnings=totals.warnings,
    )
    m.block_efficiency = block_efficiency(m)
    return out, m


def _eos_free_v16():
    pair = generate_pair(16, 1, 5, 1.0, 0.6)
    return ModelPair(eos_free(pair.draft), eos_free(pair.target))


def _three_layer_chain(pair, K, L, seed):
    """The target chain of a decode after the first iteration that leaves three
    or more live ``ModifiedChain`` layers, the top one overriding two
    positions or more; with the draft chain at that point and the counters."""
    algo = "gbv" if K == 1 else "spectr-gbv"
    rng = RandomSource(seed)
    history = (0, 1)
    totals = Counters()
    q_chain = RawChain(pair.target, history)
    for _ in range(500):
        p_chain = RawChain(pair.draft, history)
        drafts = draft_rows(p_chain.conditional, K, L, rng)
        outcome, mod = verify(algo, drafts, q_chain, rng)
        history = history + outcome.t + (outcome.y,)
        if mod.horizon > 0:
            q_chain = ModifiedChain(q_chain, p_chain, mod, totals)
        else:
            q_chain = RawChain(pair.target, history)
        depth, layer = 0, q_chain
        while isinstance(layer, ModifiedChain):
            depth, layer = depth + 1, layer.base
        if depth >= 3 and q_chain.record.horizon >= 2:
            return q_chain, RawChain(pair.draft, history), totals
    raise AssertionError("no three-layer stack")


def _verify_calls(monkeypatch, pair, algo, K, L, prompt, max_tokens, seed):
    """Every (target chain, outcome, record) ``harness.verify`` saw in one decode."""
    calls = []
    shipped = harness.verify

    def spy(algo, drafts, q_chain, rng, trace=None, residuals=None):
        outcome, mod = shipped(algo, drafts, q_chain, rng, trace, residuals)
        calls.append((q_chain, outcome, mod))
        return outcome, mod

    monkeypatch.setattr(harness, "verify", spy)
    decode(pair, algo, K, L, prompt, max_tokens, RandomSource(seed))
    return calls


class TestChainBatch:
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("make_pair", [
        _eos_free_v16, lambda: generate_pair(32, 1, 3, 0.05, 0.0),
    ], ids=["eos-free-v16", "sparse-v32"])
    def test_batched_query_equals_one_at_a_time(self, make_pair, K):
        pair = make_pair()
        V, L = pair.vocab_size, 8
        seen_fallback = seen_zero_joint = False
        for seed in range(4):
            batch, draft, batch_totals = _three_layer_chain(pair, K, L, seed)
            single, _, single_totals = _three_layer_chain(pair, K, L, seed)
            assert batch_totals == single_totals
            before = batch_totals.warnings
            # every one-token context, the prefixes of rows drafted after the
            # verified block, and contexts through the end-of-sequence token
            rows = draft_rows(draft.conditional, 3, L, RandomSource(seed + 100)).tokens
            ctxs = [()] + [(x,) for x in range(V)] + [row[:i] for row in rows for i in range(2, L + 1)]
            ctxs = list(dict.fromkeys(ctxs + [(V - 1, 0), (0, V - 1)]))
            got = batch.conditionals(ctxs)
            want = [single.conditional(ctx) for ctx in ctxs]
            for ctx, a, b in zip(ctxs, got, want):
                assert np.array_equal(a.mass, b.mass), ctx
            assert batch_totals == single_totals
            assert batch.record.fallbacks == single.record.fallbacks
            seen_fallback |= batch_totals.warnings > before
            seen_zero_joint |= batch.record._joints.get((V - 1,), PrefixJoint()).log_q == LOG_ZERO
        if make_pair is _eos_free_v16:
            assert seen_zero_joint
        else:
            assert seen_fallback

    def test_repeated_lookup_is_a_memo_hit(self):
        chain, _, totals = _three_layer_chain(_eos_free_v16(), 3, 8, 0)
        for ctx in [(), (4,), (4, 2)]:
            assert len(ctx) < chain.record.horizon
            before = replace(totals)
            first = chain.conditional(ctx)
            assert totals != before
            after = replace(totals)
            assert chain.conditional(ctx) is first
            assert totals == after


class TestPastHorizon:
    @pytest.mark.parametrize("algo", ["gbv", "spectr-gbv"])
    def test_no_layer_asks_its_base_for_L_tokens(self, algo, monkeypatch):
        # a context of L tokens or more is past every horizon beneath
        L, asked = 8, []
        shipped = ModifiedTarget.conditional

        def spy(self, ctxs, q_base, p_base, counters=None):
            def q(base_ctxs):
                asked.extend(len(c) for c in base_ctxs)
                return q_base(base_ctxs)

            return shipped(self, ctxs, q, p_base, counters)

        monkeypatch.setattr(ModifiedTarget, "conditional", spy)
        decode(_eos_free_v16(), algo, 3, L, (3, 1, 4, 1, 5, 9, 2, 6), 256, RandomSource(1))
        assert asked and max(asked) < L

    @pytest.mark.parametrize("V, L, K", [(2, 2, 2), (3, 2, 3)])
    def test_record_is_asked_for_distinct_live_contexts(self, V, L, K, monkeypatch):
        # the chain alone tests the horizon, and the record relies on it
        calls = []
        shipped = ModifiedTarget.conditional

        def spy(self, ctxs, q_base, p_base, counters=None):
            calls.append((self.horizon, list(ctxs)))
            return shipped(self, ctxs, q_base, p_base, counters)

        monkeypatch.setattr(ModifiedTarget, "conditional", spy)
        pair = generate_pair(V, 1, 1000, 1.0, 0.5)
        for algo, seed in itertools.product(("gbv", "spectr-gbv"), range(8)):
            decode(pair, algo, K, L, (0, 1), 64, RandomSource(seed))
        decoded = len(calls)
        exact_output_distribution(pair, L, K, iterations=2)
        assert 0 < decoded < len(calls)
        for horizon, ctxs in calls:
            assert len(set(ctxs)) == len(ctxs), ctxs
            assert all(len(ctx) < horizon for ctx in ctxs), (horizon, ctxs)

    @pytest.mark.parametrize("K", [1, 3])
    def test_past_horizon_answers_are_the_models_rows(self, K):
        pair, L = _eos_free_v16(), 8
        chain, _, _ = _three_layer_chain(pair, K, L, 0)
        layers = []
        while isinstance(chain, ModifiedChain):
            layers.append(chain)
            chain = chain.base
        # a layer's absolute context is the raw chain's beneath the stack
        # plus every prefix from there up to and including its own
        context = chain.context
        for layer in reversed(layers):
            context += layer.record.prefix
            horizon = layer.record.horizon
            for ctx in [(5,) * horizon, (2, 7) * L, (0,) * (horizon + 1)]:
                want = pair.target.conditional(context + ctx)
                assert layer.conditional(ctx) is want
                assert layer.conditionals([(), ctx])[1] is want


class TestPruning:
    @pytest.mark.parametrize("algo", ["gbv", "spectr-gbv"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_decode_matches_unpruned_stack(self, algo, seed):
        pair = _eos_free_v16()
        prompt = (3, 1, 4, 1, 5, 9, 2, 6)
        got, gm = decode(pair, algo, 3, 8, prompt, 384, RandomSource(seed))
        want, wm = _unpruned_decode(pair, algo, 3, 8, prompt, 384, RandomSource(seed))
        assert got == want
        gm, wm = asdict(gm), asdict(wm)
        del gm["wall_ms"], wm["wall_ms"]
        assert gm == wm

    @pytest.mark.parametrize("algo", ["gbv", "spectr-gbv"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_layer_is_left_spent(self, algo, seed, monkeypatch):
        # after every iteration no layer sits on a base it can no longer
        # reach, so a walk down the stack would find nothing to drop
        calls = _verify_calls(monkeypatch, _eos_free_v16(), algo, 3, 8, (3, 1, 4, 1, 5, 9, 2, 6), 384, seed)
        deepest = 0
        for q_chain, _, _ in calls[1:]:
            if isinstance(q_chain, ModifiedChain):
                assert q_chain.record.horizon > 0
            layers, _ = self._layers(q_chain)
            for layer in layers:
                if isinstance(layer.base, ModifiedChain):
                    assert len(layer.record.prefix) < layer.base.record.horizon
            deepest = max(deepest, len(layers))
        assert deepest >= 3

    def _stack(self, layers):
        """Chain built as decode stacks it; layers are (horizon, prefix length)
        pairs, newest first, layer i from the bottom repeating token i % 3 + 1."""
        pair = generate_pair(4, 1, 13, 1.0, 0.5)
        bottom = RawChain(pair.target, (0,))
        chain = bottom
        for i, (horizon, plen) in enumerate(reversed(layers)):
            record = ModifiedTarget(horizon, 3, (i % 3 + 1,) * plen, PrefixJoint())
            chain = ModifiedChain(chain, RawChain(pair.draft, (0,)), record)
        return pair.target, bottom, chain

    def _layers(self, chain):
        out = []
        while isinstance(chain, ModifiedChain):
            out.append(chain)
            chain = chain.base
        return out, chain

    def test_live_layer_re_reads_from_its_prefix(self):
        # the top layer asks the next for contexts from 6 tokens (< 7), and that
        # one, by walking every parent, asks the third from 1 token (< 7); a rule
        # keeping only the L - 1 newest positions would drop the third
        target, bottom, chain = self._stack([(2, 6), (7, 1), (7, 1)])
        layers, base = self._layers(chain)
        assert len(layers) == 3 and base is bottom
        assert [layer.raw.context for layer in layers] == [(3,), (2,), (1,)]
        # so a run of tau = 0 iterations keeps arbitrarily many layers live
        target, bottom, chain = self._stack([(2, 6)] + [(7, 1)] * 10)
        assert len(self._layers(chain)[0]) == 11

    def test_first_spent_layer_and_below_collapse_to_raw(self):
        target, _, chain = self._stack([(2, 6), (6, 1), (7, 1)])
        layers, base = self._layers(chain)
        assert len(layers) == 1
        # the spent layer's raw chain: (0,) plus the prefixes (1,) and (2,)
        assert type(base) is RawChain and base.model is target and base.context == (2,)

    def test_layer_on_a_zero_horizon_layer_drops_it(self):
        # a fully accepted block leaves horizon 0, spent for any layer above
        target, _, chain = self._stack([(6, 1), (0, 8)])
        layers, base = self._layers(chain)
        assert len(layers) == 1
        assert type(base) is RawChain and base.model is target and base.context == (1,)
        assert chain.raw.context == (2,)

    @pytest.mark.parametrize("algo, K", [("gbv", 1), ("spectr-gbv", 3)])
    def test_decode_takes_a_raw_chain_after_a_zero_horizon_record(self, algo, K, monkeypatch):
        pair, prompt = _eos_free_v16(), (3, 1, 4, 1, 5, 9, 2, 6)
        calls = _verify_calls(monkeypatch, pair, algo, K, 2, prompt, 128, 1)
        history, seen = prompt, 0
        for (_, outcome, mod), (q_chain, _, _) in zip(calls, calls[1:]):
            history += outcome.t + (outcome.y,)
            if mod.horizon == 0:
                seen += 1
                assert type(q_chain) is RawChain and q_chain.model is pair.target
                assert q_chain.context == history[-pair.target.order:]
            else:
                assert type(q_chain) is ModifiedChain and q_chain.record is mod
        assert seen

    def test_4096_token_decode_completes(self):
        out, m = decode(_eos_free_v16(), "spectr-gbv", 3, 8, (0,) * 8, 4096, RandomSource(7))
        assert len(out) >= 4096 and m.decoded_tokens == len(out)


class TestRunConfig:
    def test_single_draft_algos_force_K(self):
        assert RunConfig(algo="sd", K=5).K == 1
        assert RunConfig(algo="gbv", K=3).K == 1
        assert RunConfig(algo="ar", K=7).K == 1
        assert RunConfig(algo="spectr", K=5).K == 5

    @pytest.mark.parametrize("algo", ["ar", "sd", "gbv", "spectr", "spectr-gbv"])
    def test_K_below_one_is_refused_before_forcing(self, algo):
        # a single-draft algo forces K to 1 only after K itself is checked
        for K in (0, -2):
            with pytest.raises(ValueError, match="K and L"):
                RunConfig(algo=algo, K=K)

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            RunConfig(algo="banana")

    @pytest.mark.parametrize("paths", [{"draft_path": "d.json"}, {"target_path": "t.json"}])
    def test_lone_model_path_is_refused(self, paths):
        # the pair comes from both files or is generated, never half from a file
        with pytest.raises(ValueError, match="model path"):
            RunConfig(**paths)
        assert RunConfig(draft_path="d.json", target_path="t.json").draft_path == "d.json"

    @pytest.mark.parametrize("field", ["prompts", "trials", "max_tokens"])
    def test_counts_below_one_are_refused(self, field):
        with pytest.raises(ValueError, match="^prompts, trials, and max_tokens must be >= 1$"):
            RunConfig(**{field: 0})


class TestRunExperiment:
    def _cfg(self, **kw):
        base = dict(
            algo="spectr-gbv", K=2, L=3, vocab_size=5, order=1, model_seed=1,
            concentration=1.0, similarity=0.6, prompts=2, max_tokens=16,
            seed=9, trials=2,
        )
        base.update(kw)
        return RunConfig(**base)

    def test_csv_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment([self._cfg()], str(out1))
        run_experiment([self._cfg()], str(out2))
        text1, text2 = out1.read_bytes(), out2.read_bytes()
        assert text1 == text2
        header = text1.decode().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        assert len(text1.decode().splitlines()) == 1 + 2 * 2

    def test_unknown_format_is_refused_before_writing(self, tmp_path):
        out = tmp_path / "r.xml"
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            run_experiment([self._cfg(prompts=1, trials=1)], str(out), fmt="xml")
        assert not out.exists()

    def test_paired_seed_columns_across_algos(self, tmp_path):
        out = tmp_path / "c.csv"
        rows = run_experiment([self._cfg(algo="sd"), self._cfg(algo="spectr-gbv")], str(out))
        sd_rows = [r for r in rows if r["algo"] == "sd"]
        sg_rows = [r for r in rows if r["algo"] == "spectr-gbv"]
        assert [r["seed"] for r in sd_rows] == [r["seed"] for r in sg_rows]

    def test_rows_do_not_depend_on_config_order(self, tmp_path):
        a, b = self._cfg(algo="spectr", K=2), self._cfg(algo="spectr", K=3)
        ab = run_experiment([a, b], str(tmp_path / "ab.csv"))
        ba = run_experiment([b, a], str(tmp_path / "ba.csv"))
        half = len(ab) // 2
        assert ab == ba[half:] + ba[:half]

    def test_json_format(self, tmp_path):
        import json

        out = tmp_path / "r.json"
        run_experiment([self._cfg(trials=1, prompts=1)], str(out), fmt="json")
        data = json.loads(out.read_text())
        assert isinstance(data, list) and set(data[0]) == set(CSV_HEADER)

    def test_wall_ms_zero_without_timings(self, tmp_path):
        rows = run_experiment([self._cfg(trials=1, prompts=1)], str(tmp_path / "t.csv"))
        assert rows[0]["wall_ms"] == 0.0


class TestPairedDecodes:
    """Decodes of several algorithms on the same (seed, prompt) cells, each
    cell drawing its prompt and then decoding from one shared stream."""

    @staticmethod
    def _decodes(cfg, seeds, algo):
        pair = cfg.build_pair()
        for s in seeds:
            for prompt_id in range(cfg.prompts):
                rng = RandomSource(derive_seed(s, prompt_id))
                prompt = generate_prompt(pair.vocab_size, rng)
                yield decode(pair, algo, cfg.K, cfg.L, prompt, cfg.max_tokens, rng)

    def test_matched_models_tie(self):
        # with p = q the per-position and single-draft block verifiers all
        # accept everything, so mean tau is exactly L for each
        cfg = RunConfig(algo="sd", K=1, L=3, vocab_size=4, order=0, model_seed=5,
                        concentration=1.0, similarity=1.0, prompts=2, max_tokens=12)
        for algo in ("sd", "spectr", "gbv"):
            taus = [m.mean_tau for _, m in self._decodes(cfg, [1, 2, 3], algo)]
            assert abs(np.mean(taus) - 3.0) < 1e-12

    def test_single_draft_block_algos_identical(self):
        # spectr-gbv at K = 1 consumes the same draw stream as gbv, so every
        # cell gives the same tokens and the same metrics but wall_ms
        cfg = RunConfig(algo="gbv", K=1, L=4, vocab_size=5, order=1, model_seed=8,
                        concentration=1.0, similarity=0.5, prompts=2, max_tokens=20)
        gbv = list(self._decodes(cfg, [4, 5, 6], "gbv"))
        sgbv = list(self._decodes(cfg, [4, 5, 6], "spectr-gbv"))
        assert len(gbv) == len(sgbv) == 6
        for (out_a, m_a), (out_b, m_b) in zip(gbv, sgbv):
            assert out_a == out_b
            assert replace(m_a, wall_ms=0.0) == replace(m_b, wall_ms=0.0)
