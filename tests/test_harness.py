from dataclasses import asdict

import numpy as np
import pytest

from conftest import eos_free
from speclab.harness import (
    CSV_HEADER,
    ALGORITHMS,
    ModifiedChain,
    RawChain,
    RunConfig,
    RunMetrics,
    block_efficiency,
    compare_algorithms,
    decode,
    prune_spent,
    run_experiment,
    verify,
)
from speclab.models import ModelPair, generate_pair, random_model
from speclab.probability import LOG_ZERO, RandomSource
from speclab.verifiers import (
    Counters,
    ModifiedTarget,
    draft_rows,
    score_rows,
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

    def test_terminates_on_eos_or_cap(self):
        pair = generate_pair(4, 0, 7, 1.0, 0.9)
        eos = pair.vocab_size - 1
        for algo in ALGORITHMS:
            out, m = decode(pair, algo, 2, 3, (0,), 25, RandomSource(4))
            assert len(out) >= 25 - 3 or eos in out

    def test_unknown_algo_rejected(self, matched_pair):
        with pytest.raises(ValueError):
            decode(matched_pair, "beam", 1, 2, (), 8, RandomSource(0))


class TestChains:
    def test_modified_chain_bridges_prefixes(self):
        pair = generate_pair(4, 1, 13, 1.0, 0.5)
        rng = RandomSource(3)
        from speclab.verifiers import draft_rows, score_rows, verify_spectr_gbv

        prompt = (0, 1)
        q0 = RawChain(pair.target, pair.temperature, prompt)
        p0 = RawChain(pair.draft, pair.temperature, prompt)
        drafts = draft_rows(p0.conditional, 2, 3, rng)
        scores = score_rows(drafts, q0.conditionals)
        out, mod = verify_spectr_gbv(drafts, scores, rng)
        block = out.t + (out.y,)
        chain = ModifiedChain(q0, p0, mod, prompt + block)
        # past the horizon the chain must agree with the raw model
        deep_ctx = tuple(0 for _ in range(mod.horizon + 1))
        got = chain.conditional(deep_ctx)
        raw = pair.target_conditional(prompt + block + deep_ctx)
        assert np.array_equal(got.mass, raw.mass)

    def test_raw_chain_memoizes(self):
        pair = generate_pair(4, 1, 13, 1.0, 0.5)
        chain = RawChain(pair.target, 1.0, (1,))
        assert chain.conditional((0,)) is chain.conditional((0,))

    def test_raw_chain_keeps_only_the_tail_its_model_reads(self):
        model = random_model(4, 2, 3, 1.0)
        assert RawChain(model, 1.0, (1, 2, 3, 0)).context == (3, 0)
        assert RawChain(random_model(4, 0, 3, 1.0), 1.0, (1, 2, 3)).context == ()
        # a context shorter than the order is kept whole and zero-padded as before
        short = RawChain(model, 0.7, (2,))
        assert short.context == (2,)
        for ctx in [(), (1,), (3, 1, 2)]:
            want = model.conditional((2,) + ctx, 0.7)
            assert np.array_equal(short.conditional(ctx).mass, want.mass)


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

    For EOS-free pairs: the last block is cut at the cap.
    """
    verify = verify_gbv if algo == "gbv" else verify_spectr_gbv
    K = 1 if algo == "gbv" else K
    totals = Counters()

    def raw(model, context):
        return _Memo(lambda ctx: model.conditional(context + ctx, pair.temperature))

    def modified(mod, q, p):
        return _Memo(lambda ctx: mod.conditional([ctx], q.conditionals, p.conditionals, totals)[0])

    out, taus = [], []
    q = raw(pair.target, prompt)
    while len(out) < max_tokens:
        p = raw(pair.draft, prompt + tuple(out))
        drafts = draft_rows(p.conditional, K, L, rng)
        totals.draft_calls += K * L
        scores = score_rows(drafts, q.conditionals)
        totals.target_calls += 1
        outcome, mod = verify(drafts, scores, rng)
        totals.add(outcome.counters)
        out.extend((outcome.t + (outcome.y,))[: max_tokens - len(out)])
        taus.append(outcome.tau)
        q = modified(mod, q, p)
    m = RunMetrics(
        decoded_tokens=len(out),
        target_calls=totals.target_calls,
        draft_calls=totals.draft_calls,
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
    q_chain = RawChain(pair.target, pair.temperature, history)
    for _ in range(500):
        p_chain = RawChain(pair.draft, pair.temperature, history)
        drafts = draft_rows(p_chain.conditional, K, L, rng)
        scores = score_rows(drafts, q_chain.conditionals)
        outcome, mod = verify(algo, drafts, scores, rng)
        history = history + outcome.t + (outcome.y,)
        q_chain = prune_spent(
            ModifiedChain(q_chain, p_chain, mod, history, totals), pair.target, pair.temperature
        )
        depth, layer = 0, q_chain
        while isinstance(layer, ModifiedChain):
            depth, layer = depth + 1, layer.base
        if depth >= 3 and q_chain.record.horizon >= 2:
            return q_chain, RawChain(pair.draft, pair.temperature, history), totals
    raise AssertionError("no three-layer stack")


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
            seen_zero_joint |= batch.record._joints.get((V - 1,), (0.0, 0.0))[1] == LOG_ZERO
        if make_pair is _eos_free_v16:
            assert seen_zero_joint
        else:
            assert seen_fallback


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

    def _stack(self, layers):
        """Hand-built chain; layers are (horizon, prefix length) pairs, newest first."""
        pair = generate_pair(4, 1, 13, 1.0, 0.5)
        bottom = RawChain(pair.target, 1.0, (0,))
        chain = bottom
        for i, (horizon, plen) in enumerate(reversed(layers)):
            record = ModifiedTarget(horizon, 3, (1,) * plen, 0.0, 0.0)
            chain = ModifiedChain(chain, RawChain(pair.draft, 1.0, (0,)), record, (i + 1,))
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
        assert prune_spent(chain, target, 1.0) is chain
        layers, base = self._layers(chain)
        assert len(layers) == 3 and base is bottom
        # so a run of tau = 0 iterations keeps arbitrarily many layers live
        target, bottom, chain = self._stack([(2, 6)] + [(7, 1)] * 10)
        assert prune_spent(chain, target, 1.0) is chain
        assert len(self._layers(chain)[0]) == 11

    def test_first_spent_layer_and_below_collapse_to_raw(self):
        target, _, chain = self._stack([(2, 6), (6, 1), (7, 1)])
        assert prune_spent(chain, target, 1.0) is chain
        layers, base = self._layers(chain)
        assert len(layers) == 1
        assert type(base) is RawChain and base.model is target and base.context == (2,)

    def test_spent_top_becomes_raw(self):
        target, _, chain = self._stack([(0, 8), (7, 1)])
        pruned = prune_spent(chain, target, 1.0)
        assert type(pruned) is RawChain and pruned.context == (2,)

    def test_4096_token_decode_completes(self):
        out, m = decode(_eos_free_v16(), "spectr-gbv", 3, 8, (0,) * 8, 4096, RandomSource(7))
        assert len(out) >= 4096 and m.decoded_tokens == len(out)


class TestRunConfig:
    def test_single_draft_algos_force_K(self):
        assert RunConfig(algo="sd", K=5).K == 1
        assert RunConfig(algo="gbv", K=3).K == 1
        assert RunConfig(algo="ar", K=7).K == 1
        assert RunConfig(algo="spectr", K=5).K == 5

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            RunConfig(algo="banana")


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

    def test_paired_seed_columns_across_algos(self, tmp_path):
        out = tmp_path / "c.csv"
        rows = run_experiment([self._cfg(algo="sd"), self._cfg(algo="spectr-gbv")], str(out))
        sd_rows = [r for r in rows if r["algo"] == "sd"]
        sg_rows = [r for r in rows if r["algo"] == "spectr-gbv"]
        assert [r["seed"] for r in sd_rows] == [r["seed"] for r in sg_rows]

    def test_json_format(self, tmp_path):
        import json

        out = tmp_path / "r.json"
        run_experiment([self._cfg(trials=1, prompts=1)], str(out), fmt="json")
        data = json.loads(out.read_text())
        assert isinstance(data, list) and set(data[0]) == set(CSV_HEADER)

    def test_wall_ms_zero_without_timings(self, tmp_path):
        rows = run_experiment([self._cfg(trials=1, prompts=1)], str(tmp_path / "t.csv"))
        assert rows[0]["wall_ms"] == 0.0


class TestCompareAlgorithms:
    def test_matched_models_tie(self):
        # with p = q the per-position and single-draft block verifiers all
        # accept everything, so mean tau is exactly L for each
        report = compare_algorithms(
            RunConfig(algo="sd", K=1, L=3, vocab_size=4, order=0, model_seed=5,
                      concentration=1.0, similarity=1.0, prompts=2, max_tokens=12),
            seeds=[1, 2, 3],
            algos=("sd", "spectr", "gbv"),
        )
        taus = [report["algos"][a]["mean_tau"] for a in ("sd", "spectr", "gbv")]
        assert all(abs(t - 3.0) < 1e-12 for t in taus)

    def test_single_draft_block_algos_identical(self):
        # spectr-gbv at K = 1 consumes the same draw stream as gbv
        report = compare_algorithms(
            RunConfig(algo="gbv", K=1, L=4, vocab_size=5, order=1, model_seed=8,
                      concentration=1.0, similarity=0.5, prompts=2, max_tokens=20),
            seeds=[4, 5, 6],
            algos=("gbv", "spectr-gbv"),
        )
        d = report["pairwise"]["spectr-gbv-gbv"]
        assert abs(d["mean"]) < 1e-12
