"""Ground-truth computations at tiny scale.

The event tree integrates the shipped block-verification code exactly. The
draft rows are i.i.d., and the scan's future depends only on (tau, accepted
prefix, rejected sub-blocks longer than tau), so the enumerator folds one
row at a time over a dict from that state to its mass, equal states merged,
with each row's outcome law in closed form (``_row_law``). Every leaf is
then completed through the modified target chain. The acceptance rules and
the residual (``subblock_accept_prob``, ``full_block_accept_prob``,
``block_residual``) and the chains (``harness.RawChain``,
``harness.ModifiedChain``) are the ones decoding runs. The fold over the
scan and the closed forms the tree is checked against are written here,
apart from the verifiers, so agreement between the two is evidence rather
than tautology.

The reports check three closed forms against the enumerated tree:

* the block-level acceptance-mass identity per sub-block, in each of two
  decoding iterations; the second iteration's claimed masses read the draft
  joint straight from the model at the absolute context,
* the expected-acceptance-length bound (equality claimed for the verifier),
* preservation of the target chain by the full output (block, extra token,
  modified-target completion), over one or two decoding iterations.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .harness import ModifiedChain, RawChain
from .models import ModelPair
from .probability import LOG_ZERO, AllZeroMass, PrefixJoint, extend_joint
from .verifiers import (
    Counters,
    ModifiedTarget,
    block_residual,
    full_block_accept_prob,
    subblock_accept_prob,
)

MAX_ENUM = 1_000_000
CHECK_TOL = 1e-9


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-enumeration guard."""


def _accept_mass(p: float, q: float, K: int) -> float:
    """q * (1 - (1 - min(p/q, 1))^K): the claimed acceptance mass of a block
    with draft joint p and target joint q."""
    if q <= 0.0:
        return 0.0
    s = min(p / q, 1.0)
    return q * (1.0 - (1.0 - s) ** K)


def _model_joint(model, temperature: float, context: tuple[int, ...], blk: tuple[int, ...]) -> float:
    """Joint of ``blk`` after the absolute ``context``, read from the model
    itself rather than through a chain."""
    p = 1.0
    for j, tok in enumerate(blk):
        p *= float(model.conditional(context + blk[:j], temperature).mass[tok])
    return p


def _log_chain_joint(chain, seq: Sequence[int]) -> float:
    lp = 0.0
    ctx: tuple[int, ...] = ()
    for tok in seq:
        v = float(chain.conditional(ctx).mass[tok])
        if v <= 0.0:
            return LOG_ZERO
        lp += math.log(v)
        ctx = ctx + (int(tok),)
    return lp


@dataclass
class _Instance:
    """One (draft chain, target chain, L, K) at an absolute ``context``.

    The linear joint tables feed the closed forms; the acceptance rules run
    on one log-space ``PrefixJoint`` per block, built as the verifier builds
    it.
    """

    pchain: RawChain
    qchain: object
    context: tuple[int, ...]
    V: int
    L: int
    K: int
    pj: dict = field(default_factory=dict)
    qj: dict = field(default_factory=dict)
    prefix_joints: dict = field(default_factory=dict)
    h_part: dict = field(default_factory=dict)
    surplus: dict = field(default_factory=dict)
    h_full: dict = field(default_factory=dict)

    def joints(self, blk: tuple[int, ...]) -> tuple[float, float]:
        if blk in self.pj:
            return self.pj[blk], self.qj[blk]
        if not blk:
            self.pj[blk], self.qj[blk] = 1.0, 1.0
            return 1.0, 1.0
        pp, qp = self.joints(blk[:-1])
        tok = blk[-1]
        p = pp * float(self.pchain.conditional(blk[:-1]).mass[tok])
        q = qp * float(self.qchain.conditional(blk[:-1]).mass[tok])
        self.pj[blk], self.qj[blk] = p, q
        return p, q

    def accept_mass(self, blk: tuple[int, ...]) -> float:
        p, q = self.joints(blk)
        return _accept_mass(p, q, self.K)

    def joint(self, blk: tuple[int, ...]) -> PrefixJoint:
        hit = self.prefix_joints.get(blk)
        if hit is None:
            if blk:
                ctx = blk[:-1]
                hit = extend_joint(
                    self.joint(ctx), blk[-1], self.pchain.conditional(ctx), self.qchain.conditional(ctx)
                )
            else:
                hit = PrefixJoint.empty()
            self.prefix_joints[blk] = hit
        return hit

    def h_partial(self, blks: list[tuple[int, ...]]) -> list[float]:
        """Sub-block acceptance of each block, the unknown ones in one call."""
        todo = [blk for blk in blks if blk not in self.h_part]
        if todo:
            hs, w = subblock_accept_prob(
                [self.joint(blk) for blk in todo], self.pchain.conditionals(todo),
                self.qchain.conditionals(todo), self.K,
            )
            self.h_part.update(zip(todo, hs))
            self.surplus.update(zip(todo, w))
        return [self.h_part[blk] for blk in blks]

    def h_fullblock(self, blk: tuple[int, ...]) -> float:
        h = self.h_full.get(blk)
        if h is None:
            h = full_block_accept_prob(self.joint(blk), self.K)
            self.h_full[blk] = h
        return h

    def extra_token(self, tau: int, t: tuple[int, ...]) -> tuple[np.ndarray, bool]:
        """Law of the token after leaf (tau, t), and whether it is the
        raw-conditional fallback taken when the residual surplus is empty.
        Past tau = 0 the accepted test at t computed the residual's surplus
        row, which decoding reuses too."""
        if tau == self.L:
            return self.qchain.conditional(t).mass, False
        try:
            res = block_residual(
                self.joint(t), self.pchain.conditional(t), self.qchain.conditional(t), self.K,
                surplus=self.surplus.get(t),
            )
        except AllZeroMass:
            return self.qchain.conditional(t).mass, True
        return res.mass, False

    def modified(self, tau: int, t: tuple[int, ...], y: int) -> ModifiedChain:
        """The target chain of the iteration after leaf (tau, t) and extra token y."""
        prefix = t + (y,)
        horizon = max(self.L - tau - 1, 0)
        j = self.joint(prefix) if horizon else PrefixJoint.empty()
        mod = ModifiedTarget(horizon, self.K, prefix, j.log_p, j.log_q)
        return ModifiedChain(self.qchain, self.pchain, mod, self.context + prefix, Counters())


def _row_law(inst: _Instance, tau: int, row: tuple[int, ...], hit: frozenset) -> list:
    """(next tau, rejections longer than it, probability) triples: the law
    of one row's tests from accepted length tau, where ``hit`` holds the
    row's prefixes longer than tau that the rejected set H holds.

    The row tests its sub-blocks longer than tau and not in H. tau becomes
    the longest accepted length i, with probability h_i times the rejection
    of every longer test, or stays if every test rejects. The full-block
    test comes last: next tau is L if it accepts, else the row joins the
    rejections.
    """
    L = inst.L
    # a row in H rejects with certainty, and re-adding it to H changes nothing
    h_full = 0.0 if row in hit else inst.h_fullblock(row)
    law = []

    def outcome(tau2: int, rejected: tuple, pr: float) -> None:
        if pr <= 0.0:
            return
        if h_full > 0.0:
            law.append((L, (), pr * h_full))
        if h_full < 1.0:
            law.append((tau2, rejected, pr * (1.0 - h_full)))

    rejected = (row,)
    miss = 1.0  # probability that every test longer than i rejects
    for i in range(L - 1, tau, -1):
        sub = row[:i]
        if sub in hit:
            continue
        h = inst.h_part[sub]  # computed up front by _enumerate_leaves
        outcome(i, rejected, miss * h)
        rejected += (sub,)
        miss *= 1.0 - h
    outcome(tau, rejected, miss)
    return law


def _enumerate_leaves(inst: _Instance) -> tuple[dict, dict]:
    """Leaf masses of the scan: each i.i.d. draft row folds a dict from the
    state (tau, accepted prefix t, rejected sub-blocks H longer than tau) to
    its mass, and after the last row only (tau, t) is kept. A row's law
    depends on the state only through tau and which of its prefixes H
    holds, so it is computed once per such pair.
    """
    V, L, K = inst.V, inst.L, inst.K
    if V ** (K * L) > MAX_ENUM:
        raise TooLarge(f"V^(K*L) = {V ** (K * L)} exceeds {MAX_ENUM}")
    # the joints read both chains at every context shorter than L, and the
    # first row of the fold tests every proper prefix of every row: each set
    # is asked for in one batch
    heads = [c for i in range(L) for c in itertools.product(range(V), repeat=i)]
    inst.pchain.conditionals(heads)
    inst.qchain.conditionals(heads)
    rows = []  # (row, draft weight, the row's prefixes, its laws by (tau, hit))
    for b in itertools.product(range(V), repeat=L):
        w = inst.joints(b)[0]
        if w > 0.0:
            rows.append((b, w, frozenset(b[:i] for i in range(1, L + 1)), {}))
    inst.h_partial(list(dict.fromkeys(b[:i] for b, *_ in rows for i in range(1, L))))
    max_leafsum_err = 0.0
    leaves: dict[tuple[int, tuple[int, ...]], float] = {}
    states = {(0, (), frozenset()): 1.0}
    for k in range(K):
        last = k == K - 1
        nxt: dict = {}
        for (tau, t, H), mass in states.items():
            for row, w, prefixes, laws in rows:
                hit = H & prefixes
                law = laws.get((tau, hit))
                if law is None:
                    law = laws[(tau, hit)] = _row_law(inst, tau, row, hit)
                    max_leafsum_err = max(max_leafsum_err, abs(sum(pr for _, _, pr in law) - 1.0))
                m = mass * w
                for tau2, rejected, pr in law:
                    t2 = t if tau2 == tau else row[:tau2]
                    if tau2 == L or last:
                        leaves[(tau2, t2)] = leaves.get((tau2, t2), 0.0) + m * pr
                        continue
                    kept = H if tau2 == tau else frozenset(s for s in H if len(s) > tau2)
                    key = (tau2, t2, kept.union(rejected))
                    nxt[key] = nxt.get(key, 0.0) + m * pr
        states = nxt
    diag = {
        "tuples": len(rows) ** K,
        "leaf_states": len(leaves),
        "max_leafsum_err": max_leafsum_err,
    }
    return leaves, diag


def _output_joint(
    inst: _Instance, leaves: dict, depth: int
) -> tuple[dict[tuple[int, ...], float], float]:
    """Exact law of the completed output prefix at ``depth`` tokens.

    Each leaf contributes its block, then the extra token, then tokens from
    the modified target chain. Returns the joint table and the probability
    mass that flowed through raw-conditional fallbacks.
    """
    out: dict[tuple[int, ...], float] = {}
    fallback_mass = 0.0
    for (tau, t), mass in leaves.items():
        if mass <= 0.0:
            continue
        if len(t) >= depth:
            out[t[:depth]] = out.get(t[:depth], 0.0) + mass
            continue
        ydist, fell_back = inst.extra_token(tau, t)
        if fell_back:
            fallback_mass += mass
        need = depth - len(t) - 1
        for y, py in enumerate(ydist):
            if py <= 0.0:
                continue
            m0 = mass * float(py)
            base = t + (int(y),)
            if need <= 0:
                out[base] = out.get(base, 0.0) + m0
                continue
            mod = inst.modified(tau, t, int(y))
            frontier = [((), m0)]
            for _ in range(need):
                nxt = []
                dists = mod.conditionals([ctx for ctx, _m in frontier])
                for (ctx, m), d in zip(frontier, dists):
                    if ctx in mod.record.fallbacks:
                        fallback_mass += m
                    for x, px in enumerate(d.mass):
                        if px > 0.0:
                            nxt.append((ctx + (x,), m * float(px)))
                frontier = nxt
            for ctx, m in frontier:
                key = base + ctx
                out[key] = out.get(key, 0.0) + m
    return out, fallback_mass


@dataclass
class ExactReport:
    """Everything the exact enumeration learned about one instance."""

    vocab_size: int
    L: int
    K: int
    iterations: int
    expected_tau: float
    bound: float
    max_marginal_dev: float
    lemma_max_dev: float
    max_marginal_dev_two_iter: float | None
    lemma_max_dev_two_iter: float | None
    marginal_sums_max_err: float
    leaf_states: int
    tuples: int
    max_leafsum_err: float
    fallback_mass: float
    runtime_s: float
    subblock_marginals: dict = field(repr=False, default_factory=dict)
    lemma_masses: dict = field(repr=False, default_factory=dict)
    lemma_masses_two_iter: dict = field(repr=False, default_factory=dict)
    leaves: dict = field(repr=False, default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "L": self.L,
            "K": self.K,
            "iterations": self.iterations,
            "expected_tau": self.expected_tau,
            "bound": self.bound,
            "max_marginal_dev": self.max_marginal_dev,
            "lemma_max_dev": self.lemma_max_dev,
            "max_marginal_dev_two_iter": self.max_marginal_dev_two_iter,
            "lemma_max_dev_two_iter": self.lemma_max_dev_two_iter,
            "marginal_sums_max_err": self.marginal_sums_max_err,
            "leaf_states": self.leaf_states,
            "tuples": self.tuples,
            "max_leafsum_err": self.max_leafsum_err,
            "fallback_mass": self.fallback_mass,
            "runtime_s": self.runtime_s,
        }

    def checks(self) -> list[tuple[str, float, float]]:
        """(name, value, tolerance) of each exactness check, passed when
        value < tolerance; the two-iteration checks only for a two-iteration
        report."""
        out = [
            ("leaf_mass_conservation", self.max_leafsum_err, 1e-12),
            ("marginal_sums_to_one", self.marginal_sums_max_err, CHECK_TOL),
            ("distribution_preservation", self.max_marginal_dev, CHECK_TOL),
            ("expected_tau_equals_bound", abs(self.expected_tau - self.bound), CHECK_TOL),
            ("subblock_acceptance_identity", self.lemma_max_dev, CHECK_TOL),
        ]
        if self.iterations == 2:
            out += [
                ("two_iteration_preservation", self.max_marginal_dev_two_iter, CHECK_TOL),
                ("two_iteration_subblock_identity", self.lemma_max_dev_two_iter, CHECK_TOL),
            ]
        return out


def _instance(pair: ModelPair, L: int, K: int, context: tuple[int, ...] = ()) -> _Instance:
    context = tuple(context)
    p = RawChain(pair.draft, pair.temperature, context)
    q = RawChain(pair.target, pair.temperature, context)
    return _Instance(p, q, context, pair.vocab_size, L, K)


def bound_K(pair: ModelPair, L: int, K: int) -> float:
    """Sum of claimed acceptance masses over all sub-blocks up to length L."""
    V = pair.vocab_size
    if V**L > MAX_ENUM:
        raise TooLarge(f"V^L = {V ** L} exceeds {MAX_ENUM}")
    return _bound(_instance(pair, L, K))


def _bound(inst: _Instance) -> float:
    total = 0.0
    for i in range(1, inst.L + 1):
        total += sum(inst.accept_mass(blk) for blk in itertools.product(range(inst.V), repeat=i))
    return total


def gbv_block_sum(pair: ModelPair, L: int) -> float:
    """Sum over sub-blocks of min(draft joint, target joint); the K = 1 bound."""
    V = pair.vocab_size
    if V**L > MAX_ENUM:
        raise TooLarge(f"V^L = {V ** L} exceeds {MAX_ENUM}")
    inst = _instance(pair, L, 1)
    total = 0.0
    for i in range(1, L + 1):
        for blk in itertools.product(range(V), repeat=i):
            p, q = inst.joints(blk)
            total += min(p, q)
    return total


def bound_properties(pair: ModelPair, L: int, K_list: Sequence[int]) -> dict:
    """Bound values along K_list with monotonicity and convergence checks."""
    values = [bound_K(pair, L, K) for K in K_list]
    # strict in exact arithmetic whenever the models differ; in float64 the
    # bound saturates at L once the gap drops below machine resolution
    strict = all(b > a or L - a < 1e-12 for a, b in zip(values, values[1:]))
    return {
        "K_list": list(K_list),
        "bounds": values,
        "strictly_increasing": strict,
        "final_gap_to_L": L - values[-1],
        "gaps_decreasing": all(
            (L - b) <= (L - a) + 1e-15 for a, b in zip(values, values[1:])
        ),
        "all_below_L": all(v <= L + 1e-12 for v in values),
    }


def exact_expected_tau(pair: ModelPair, L: int, K: int) -> float:
    """E[tau] integrated exactly over draft tuples and uniform draws."""
    inst = _instance(pair, L, K)
    leaves, _ = _enumerate_leaves(inst)
    return sum(tau * m for (tau, _t), m in leaves.items())


def _lemma_table(inst: _Instance, leaves: dict, claimed_mass) -> tuple[dict, float]:
    """Accepted-prefix masses from the tree against the closed form
    ``claimed_mass(blk)``."""
    acc: dict[tuple[int, ...], float] = {}
    for (tau, t), m in leaves.items():
        for i in range(1, tau + 1):
            acc[t[:i]] = acc.get(t[:i], 0.0) + m
    max_dev = 0.0
    table = {}
    for i in range(1, inst.L + 1):
        for blk in itertools.product(range(inst.V), repeat=i):
            claimed = claimed_mass(blk)
            got = acc.get(blk, 0.0)
            table[blk] = (got, claimed)
            max_dev = max(max_dev, abs(got - claimed))
    return table, max_dev


def _marginal_devs(inst: _Instance, out: dict, depth: int) -> tuple[dict, float, float]:
    """Prefix marginals of the output law against the target chain."""
    marg: dict[tuple[int, ...], float] = {}
    for seq, m in out.items():
        for i in range(1, depth + 1):
            marg[seq[:i]] = marg.get(seq[:i], 0.0) + m
    max_dev = 0.0
    sums_err = 0.0
    for i in range(1, depth + 1):
        level = 0.0
        for blk in itertools.product(range(inst.V), repeat=i):
            qv = math.exp(_log_chain_joint(inst.qchain, blk))
            got = marg.get(blk, 0.0)
            max_dev = max(max_dev, abs(got - qv))
            level += got
        sums_err = max(sums_err, abs(level - 1.0))
    return marg, max_dev, sums_err


def exact_output_distribution(
    pair: ModelPair, L: int, K: int, iterations: int = 1, context: tuple[int, ...] = ()
) -> ExactReport:
    """Full exact report for one instance; iterations=2 also threads the
    modified target through a second drafting/verification round."""
    if iterations not in (1, 2):
        raise ValueError("iterations must be 1 or 2")
    t0 = time.perf_counter()
    inst = _instance(pair, L, K, context)
    leaves, diag = _enumerate_leaves(inst)
    expected_tau = sum(tau * m for (tau, _t), m in leaves.items())
    bound = _bound(inst)
    lemma_masses, lemma_dev = _lemma_table(inst, leaves, inst.accept_mass)
    out, fallback_mass = _output_joint(inst, leaves, L)
    marg, max_dev, sums_err = _marginal_devs(inst, out, L)
    two_iter_dev = lemma_dev2 = None
    lemma_masses2: dict = {}
    if iterations == 2:
        two_iter_dev, fb2, lemma_masses2, lemma_dev2 = _two_iteration_dev(pair, inst, leaves)
        fallback_mass += fb2
    return ExactReport(
        vocab_size=pair.vocab_size,
        L=L,
        K=K,
        iterations=iterations,
        expected_tau=expected_tau,
        bound=bound,
        max_marginal_dev=max_dev,
        lemma_max_dev=lemma_dev,
        max_marginal_dev_two_iter=two_iter_dev,
        lemma_max_dev_two_iter=lemma_dev2,
        marginal_sums_max_err=sums_err,
        leaf_states=diag["leaf_states"],
        tuples=diag["tuples"],
        max_leafsum_err=diag["max_leafsum_err"],
        fallback_mass=fallback_mass,
        runtime_s=time.perf_counter() - t0,
        subblock_marginals=marg,
        lemma_masses=lemma_masses,
        lemma_masses_two_iter=lemma_masses2,
        leaves=leaves,
    )


def _two_iteration_dev(
    pair: ModelPair, inst1: _Instance, leaves1: dict
) -> tuple[float, float, dict, float]:
    """Second decoding iteration after every first-iteration leaf.

    Returns the max deviation of the completed output from the target chain
    at depth 2(L+1), the fallback mass, and the second iteration's lemma
    table with its max deviation. The table is keyed by (first-iteration
    output, block) and holds conditional masses; its claimed masses read the
    draft joint straight from ``pair.draft`` at the absolute context, so a
    draft chain built at the wrong context shows there.
    """
    V, L, K = inst1.V, inst1.L, inst1.K
    depth = 2 * (L + 1)
    if V**depth > MAX_ENUM:
        raise TooLarge("two-iteration enumeration exceeds the guard")
    out: dict[tuple[int, ...], float] = {}
    fallback = 0.0
    lemma_table: dict = {}
    lemma_dev = 0.0
    for (tau1, t1), m1 in leaves1.items():
        if m1 <= 0.0:
            continue
        ydist, fell_back = inst1.extra_token(tau1, t1)
        if fell_back:
            fallback += m1
        for y1, py1 in enumerate(ydist):
            if py1 <= 0.0:
                continue
            prefix1 = t1 + (int(y1),)
            context2 = inst1.context + prefix1
            draft2 = RawChain(pair.draft, pair.temperature, context2)
            inst2 = _Instance(draft2, inst1.modified(tau1, t1, int(y1)), context2, V, L, K)
            leaves2, _ = _enumerate_leaves(inst2)

            def claimed(blk):
                p2 = _model_joint(pair.draft, pair.temperature, context2, blk)
                return _accept_mass(p2, inst2.joints(blk)[1], K)

            table2, dev2 = _lemma_table(inst2, leaves2, claimed)
            lemma_dev = max(lemma_dev, dev2)
            for blk, entry in table2.items():
                lemma_table[(prefix1, blk)] = entry
            out2, fb2 = _output_joint(inst2, leaves2, depth - len(prefix1))
            w = m1 * float(py1)
            fallback += w * fb2
            for seq, m in out2.items():
                key = prefix1 + seq
                out[key] = out.get(key, 0.0) + w * m
    max_dev = 0.0
    for blk in itertools.product(range(V), repeat=depth):
        qv = math.exp(_log_chain_joint(inst1.qchain, blk))
        max_dev = max(max_dev, abs(out.get(blk, 0.0) - qv))
    return max_dev, fallback, lemma_table, lemma_dev


def gbv_exact_report(pair: ModelPair, L: int) -> ExactReport:
    """Exact report for single-draft block verification: the K = 1 tree."""
    return exact_output_distribution(pair, L, 1)
