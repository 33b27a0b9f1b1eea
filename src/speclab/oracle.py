"""Ground-truth computations at tiny scale.

The event tree integrates the shipped block-verification code exactly: it
enumerates every draft tuple, walks the sequential scan over the uniform
draws with closed-form branch probabilities, and completes every leaf
through the modified target chain. The acceptance rules and the residual
(``subblock_accept_prob``, ``full_block_accept_prob``, ``block_residual``)
and the chains (``harness.RawChain``, ``harness.ModifiedChain``) are the
ones decoding runs. The walk over the scan (``_walk_tuple``) and the closed
forms the tree is checked against are written here, apart from the
verifiers, so agreement between the two is evidence rather than tautology.

The reports check three closed forms against the enumerated tree:

* the block-level acceptance-mass identity per sub-block,
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
    IterationRecord,
    block_residual,
    distribution_modification,
    full_block_accept_prob,
    subblock_accept_prob,
)

MAX_ENUM = 1_000_000
PRUNE = 1e-15


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-enumeration guard."""


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
        """q(blk) * (1 - (1 - min(p/q, 1))^K): the claimed acceptance mass."""
        p, q = self.joints(blk)
        if q <= 0.0:
            return 0.0
        s = min(p / q, 1.0)
        return q * (1.0 - (1.0 - s) ** self.K)

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

    def h_partial(self, blk: tuple[int, ...]) -> float:
        h = self.h_part.get(blk)
        if h is None:
            h = subblock_accept_prob(
                self.joint(blk), self.pchain.conditional(blk), self.qchain.conditional(blk), self.K
            )
            self.h_part[blk] = h
        return h

    def h_fullblock(self, blk: tuple[int, ...]) -> float:
        h = self.h_full.get(blk)
        if h is None:
            h = full_block_accept_prob(self.joint(blk), self.K)
            self.h_full[blk] = h
        return h

    def extra_token(self, tau: int, t: tuple[int, ...]) -> tuple[np.ndarray, bool]:
        """Law of the token after leaf (tau, t), and whether it is the
        raw-conditional fallback taken when the residual surplus is empty."""
        if tau == self.L:
            return self.qchain.conditional(t).mass, False
        try:
            res = block_residual(self.joint(t), self.pchain.conditional(t), self.qchain.conditional(t), self.K)
        except AllZeroMass:
            return self.qchain.conditional(t).mass, True
        return res.mass, False

    def modified(self, tau: int, t: tuple[int, ...], y: int) -> ModifiedChain:
        """The target chain of the iteration after leaf (tau, t) and extra token y."""
        if tau == self.L:
            record = IterationRecord(tau, t, y, 0.0, 0.0, self.K, self.L)
        else:
            j = extend_joint(self.joint(t), y, self.pchain.conditional(t), self.qchain.conditional(t))
            record = IterationRecord(tau, t, y, j.log_p, j.log_q, self.K, self.L)
        return ModifiedChain(
            self.qchain, self.pchain, distribution_modification(record),
            self.context + t + (y,), Counters(),
        )


def _walk_tuple(inst: _Instance, rows: tuple[tuple[int, ...], ...]) -> tuple[dict, float, float]:
    """Integrate the verifier's control flow over its uniform draws for one
    draft tuple. Returns leaf masses keyed by (tau, accepted block), the
    pruned probability mass, and the leaf-mass total."""
    K, L = inst.K, inst.L
    leaves: dict[tuple[int, tuple[int, ...]], float] = {}
    dropped = 0.0
    total = 0.0
    # state: (row index, next length to test, tau, winning row, rejected set, prob)
    stack = [(0, 1, 0, 0, frozenset(), 1.0)]
    while stack:
        k, i, tau, f, H, pr = stack.pop()
        if pr < PRUNE:
            dropped += pr
            continue
        if k == K:
            key = (tau, rows[f][:tau])
            leaves[key] = leaves.get(key, 0.0) + pr
            total += pr
            continue
        row = rows[k]
        if i <= L - 1:
            sub = row[:i]
            if sub in H:
                stack.append((k, i + 1, tau, f, H, pr))
                continue
            h = inst.h_partial(sub)
            if h > 0.0:
                stack.append((k, i + 1, i, k, H, pr * h))
            if h < 1.0:
                stack.append((k, i + 1, tau, f, H | {sub}, pr * (1.0 - h)))
            continue
        if row in H:
            stack.append((k + 1, tau + 1, tau, f, H, pr))
            continue
        h = inst.h_fullblock(row)
        if h > 0.0:
            key = (L, row)
            leaves[key] = leaves.get(key, 0.0) + pr * h
            total += pr * h
        if h < 1.0:
            stack.append((k + 1, tau + 1, tau, f, H | {row}, pr * (1.0 - h)))
    return leaves, dropped, total


def _enumerate_leaves(inst: _Instance) -> tuple[dict, dict]:
    """Leaf masses over all draft tuples, weighted by the draft product law."""
    V, L, K = inst.V, inst.L, inst.K
    if V ** (K * L) > MAX_ENUM:
        raise TooLarge(f"V^(K*L) = {V ** (K * L)} exceeds {MAX_ENUM}")
    blocks = list(itertools.product(range(V), repeat=L))
    weights = {}
    for b in blocks:
        weights[b] = inst.joints(b)[0]
    leaves: dict[tuple[int, tuple[int, ...]], float] = {}
    max_leafsum_err = 0.0
    dropped_total = 0.0
    tuples_seen = 0
    for rows in itertools.product(blocks, repeat=K):
        w = 1.0
        for r in rows:
            w *= weights[r]
        if w <= 0.0:
            continue
        tuples_seen += 1
        tuple_leaves, dropped, total = _walk_tuple(inst, rows)
        max_leafsum_err = max(max_leafsum_err, abs(total + dropped - 1.0))
        dropped_total += w * dropped
        for key, pr in tuple_leaves.items():
            leaves[key] = leaves.get(key, 0.0) + w * pr
    diag = {
        "tuples": tuples_seen,
        "leaf_states": len(leaves),
        "max_leafsum_err": max_leafsum_err,
        "dropped_mass": dropped_total,
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
                for ctx, m in frontier:
                    before = mod.counters.warnings
                    c = mod.conditional(ctx).mass
                    if mod.counters.warnings > before:
                        fallback_mass += m
                    for x, px in enumerate(c):
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
    marginal_sums_max_err: float
    leaf_states: int
    tuples: int
    max_leafsum_err: float
    dropped_mass: float
    fallback_mass: float
    runtime_s: float
    subblock_marginals: dict = field(repr=False, default_factory=dict)
    lemma_masses: dict = field(repr=False, default_factory=dict)
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
            "marginal_sums_max_err": self.marginal_sums_max_err,
            "leaf_states": self.leaf_states,
            "tuples": self.tuples,
            "max_leafsum_err": self.max_leafsum_err,
            "dropped_mass": self.dropped_mass,
            "fallback_mass": self.fallback_mass,
            "runtime_s": self.runtime_s,
        }


def _instance(pair: ModelPair, L: int, K: int, context: tuple[int, ...] = ()) -> _Instance:
    context = tuple(context)
    p = RawChain(pair.draft, pair.temperature, context)
    q = RawChain(pair.target, pair.temperature, context)
    return _Instance(p, q, context, pair.vocab_size, L, K)


def bound_K(pair: ModelPair, L: int, K: int, context: tuple[int, ...] = ()) -> float:
    """Sum of claimed acceptance masses over all sub-blocks up to length L."""
    V = pair.vocab_size
    if V**L > MAX_ENUM:
        raise TooLarge(f"V^L = {V ** L} exceeds {MAX_ENUM}")
    inst = _instance(pair, L, K, context)
    total = 0.0
    for i in range(1, L + 1):
        total += sum(inst.accept_mass(blk) for blk in itertools.product(range(V), repeat=i))
    return total


def gbv_block_sum(pair: ModelPair, L: int, context: tuple[int, ...] = ()) -> float:
    """Sum over sub-blocks of min(draft joint, target joint); the K = 1 bound."""
    V = pair.vocab_size
    if V**L > MAX_ENUM:
        raise TooLarge(f"V^L = {V ** L} exceeds {MAX_ENUM}")
    inst = _instance(pair, L, 1, context)
    total = 0.0
    for i in range(1, L + 1):
        for blk in itertools.product(range(V), repeat=i):
            p, q = inst.joints(blk)
            total += min(p, q)
    return total


def bound_properties(pair: ModelPair, L: int, K_list: Sequence[int], context: tuple[int, ...] = ()) -> dict:
    """Bound values along K_list with monotonicity and convergence checks."""
    values = [bound_K(pair, L, K, context) for K in K_list]
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


def exact_expected_tau(pair: ModelPair, L: int, K: int, context: tuple[int, ...] = ()) -> float:
    """E[tau] integrated exactly over draft tuples and uniform draws."""
    inst = _instance(pair, L, K, context)
    leaves, _ = _enumerate_leaves(inst)
    return sum(tau * m for (tau, _t), m in leaves.items())


def _lemma_table(inst: _Instance, leaves: dict) -> tuple[dict, float]:
    """Accepted-prefix masses from the tree against the closed form."""
    acc: dict[tuple[int, ...], float] = {}
    for (tau, t), m in leaves.items():
        for i in range(1, tau + 1):
            acc[t[:i]] = acc.get(t[:i], 0.0) + m
    max_dev = 0.0
    table = {}
    for i in range(1, inst.L + 1):
        for blk in itertools.product(range(inst.V), repeat=i):
            claimed = inst.accept_mass(blk)
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
    bound = bound_K(pair, L, K, context)
    lemma_masses, lemma_dev = _lemma_table(inst, leaves)
    out, fallback_mass = _output_joint(inst, leaves, L)
    marg, max_dev, sums_err = _marginal_devs(inst, out, L)
    two_iter_dev = None
    if iterations == 2:
        two_iter_dev, fb2 = _two_iteration_dev(pair, L, K, context)
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
        marginal_sums_max_err=sums_err,
        leaf_states=diag["leaf_states"],
        tuples=diag["tuples"],
        max_leafsum_err=diag["max_leafsum_err"],
        dropped_mass=diag["dropped_mass"],
        fallback_mass=fallback_mass,
        runtime_s=time.perf_counter() - t0,
        subblock_marginals=marg,
        lemma_masses=lemma_masses,
        leaves=leaves,
    )


def _two_iteration_dev(
    pair: ModelPair, L: int, K: int, context: tuple[int, ...]
) -> tuple[float, float]:
    """Max deviation of the two-iteration completed output from the target
    chain at depth 2(L+1)."""
    depth = 2 * (L + 1)
    V = pair.vocab_size
    if V**depth > MAX_ENUM or V ** (K * L) > MAX_ENUM:
        raise TooLarge("two-iteration enumeration exceeds the guard")
    inst1 = _instance(pair, L, K, context)
    leaves1, _ = _enumerate_leaves(inst1)
    out: dict[tuple[int, ...], float] = {}
    fallback = 0.0
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
            draft2 = RawChain(pair.draft, pair.temperature, inst1.context + prefix1)
            inst2 = _Instance(draft2, inst1.modified(tau1, t1, int(y1)), inst1.context + prefix1, V, L, K)
            leaves2, _ = _enumerate_leaves(inst2)
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
    return max_dev, fallback


def gbv_exact_report(pair: ModelPair, L: int, context: tuple[int, ...] = ()) -> ExactReport:
    """Exact report for single-draft block verification: the K = 1 tree."""
    return exact_output_distribution(pair, L, 1, context=context)
