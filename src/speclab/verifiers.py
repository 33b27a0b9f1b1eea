"""Draft-verification algorithms over explicit token-probability models.

Two verifier cores share the same inputs: a ``DraftSet`` holding K drafted
rows with the conditionals used at drafting time, and ``TargetScores``
holding the target conditionals for every row prefix (one extra conditional
past the draft length). All randomness flows through a single
``RandomSource`` so outcomes are bit-reproducible. ``Counters.vocab_scans``
counts the vocabulary-sized passes the verifiers make themselves: block
acceptance evaluations, rho solves (one sorted ratio table each, however
many bisection steps read it), residual passes and modification passes.
Draws by ``sample`` and model lookups are not counted.

verify_kseq       per-position multi-draft acceptance with the rho scale; the
                  one token-level verifier
verify_sd         verify_kseq with one row: standard speculative sampling
verify_spectr_gbv multi-draft block acceptance over sub-blocks with a shared
                  rejected-content set; the one block verifier
verify_gbv        verify_spectr_gbv with one row: greedy block verification

The block verifier also emits the lazily evaluated modified target used by
the next decoding iteration.

The power-form rules of ``verify_spectr_gbv`` share one kernel, ``_surplus``:
the per-token surplus w(x) = q(x) * (1 - min(r * p(x) / q(x), 1))^K at a
prefix with joint ratio r = p/q. Its sum over the vocabulary gives the
sub-block acceptance, its normalization the block residual, and with r read
from the running joints it is the next iteration's modified target. At
K = 1 they are the single-draft rules of greedy block verification;
``gbv_accept_prob`` writes that acceptance apart, over the likelihood ratio
nu = q/p, as a reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .probability import (
    LOG_ZERO,
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    extend_joint,
    normalize,
    sample,
)

DENOM_EPS = 1e-15


class NoRoot(ValueError):
    """The scale equation has no sign change on [1, K]; malformed instance."""


@dataclass
class Counters:
    """Work and event counters carried through a verification call."""

    target_calls: int = 0
    draft_calls: int = 0
    vocab_scans: int = 0
    h_partial_evals: int = 0
    residual_evals: int = 0
    warnings: int = 0

    def add(self, other: "Counters") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(frozen=True)
class VerifyOutcome:
    tau: int
    f: int
    t: tuple[int, ...]
    y: int
    counters: Counters


@dataclass(frozen=True)
class KseqScale:
    rho: float
    beta: float
    iterations: int


@dataclass(frozen=True)
class GbvChainState:
    """Running likelihood ratio nu_i = prod q/p over the accepted prefix."""

    nu: float
    position: int


@dataclass(frozen=True)
class DraftSet:
    """K drafted rows of length L plus the draft conditionals used to sample them.

    cond[k][i] is the draft conditional given the first i tokens of row k,
    for i = 0..L-1.
    """

    tokens: tuple[tuple[int, ...], ...]
    cond: tuple[tuple[Distribution, ...], ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("need at least one draft row")
        L = len(self.tokens[0])
        for k, row in enumerate(self.tokens):
            if len(row) != L:
                raise ValueError("ragged draft rows")
            if len(self.cond[k]) != L:
                raise ValueError("cond[k] must hold one conditional per position")
            for i, tok in enumerate(row):
                if self.cond[k][i].mass[tok] <= 0.0:
                    raise ValueError(f"row {k} token {i} has zero draft probability")

    @property
    def K(self) -> int:
        return len(self.tokens)

    @property
    def L(self) -> int:
        return len(self.tokens[0])


@dataclass(frozen=True)
class TargetScores:
    """Target conditionals per row prefix: cond[k][i] = q(.|first i tokens), i = 0..L."""

    cond: tuple[tuple[Distribution, ...], ...]

    def __post_init__(self):
        if len(self.cond) == 0 or len(self.cond[0]) < 2:
            raise ValueError("need one conditional per prefix plus the bonus position")
        width = len(self.cond[0])
        if any(len(row) != width for row in self.cond):
            raise ValueError("ragged score rows")


def draft_rows(p_cond, K: int, L: int, rng: RandomSource) -> DraftSet:
    """Sample K i.i.d. rows of length L from a conditional provider.

    p_cond maps a token prefix (tuple) to the draft Distribution at that
    context.
    """
    tokens = []
    conds = []
    for _ in range(K):
        row: tuple[int, ...] = ()
        row_cond = []
        for _ in range(L):
            d = p_cond(row)
            row_cond.append(d)
            row = row + (sample(d, rng),)
        tokens.append(row)
        conds.append(tuple(row_cond))
    return DraftSet(tuple(tokens), tuple(conds))


def score_rows(drafts: DraftSet, q_cond) -> TargetScores:
    """Target conditionals for every prefix of every row, plus the bonus position."""
    out = []
    for k in range(drafts.K):
        row = drafts.tokens[k]
        out.append(tuple(q_cond(row[:i]) for i in range(drafts.L + 1)))
    return TargetScores(tuple(out))


# ---------------------------------------------------------------------------
# K-SEQ (per-position multi-draft acceptance)


def _beta_table(p: np.ndarray, q: np.ndarray):
    """beta(rho) = sum_x min(p(x), q(x)/rho) as a lookup into one sorted pass.

    Token x gives p(x) while rho <= c(x) = q(x)/p(x) and q(x)/rho above it,
    with c = inf where p = 0. With the ratios sorted, the tokens below rho
    form a prefix, so beta(rho) = Q/rho + P from the q-mass of that prefix
    and the p-mass of the rest. Building the table is the one vocabulary
    scan; each evaluation is a bisect over the ratios.
    """
    c = np.divide(q, p, out=np.full_like(p, np.inf), where=p > 0.0)
    order = np.argsort(c)
    ratios = c[order].tolist()
    below_q = [0.0] + np.cumsum(q[order]).tolist()
    above_p = np.cumsum(p[order[::-1]])[::-1].tolist() + [0.0]

    def beta(rho: float) -> float:
        i = bisect_left(ratios, rho)
        return below_q[i] / rho + above_p[i]

    return beta


def kseq_rho(p: Distribution, q: Distribution, K: int, tol: float = 1e-12) -> KseqScale:
    """Solve 1 - (1 - beta(rho))^K = rho * beta(rho) on [1, K] by bisection.

    beta(rho) = sum_x min(p(x), q(x)/rho) is read from a table built in one
    vocabulary scan (``_beta_table``), so each bisection step is O(log V)
    scalar work; the iteration count is recorded so callers can expose the
    log(1/tol) cost profile.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    beta = _beta_table(p.mass, q.mass)

    def g(rho: float) -> tuple[float, float]:
        b = beta(rho)
        return 1.0 - (1.0 - b) ** K - rho * b, b

    lo, hi = 1.0, float(K)
    glo, blo = g(lo)
    if abs(glo) <= tol:
        return KseqScale(lo, blo, 0)
    ghi, bhi = g(hi)
    if abs(ghi) <= tol:
        return KseqScale(hi, bhi, 0)
    if (glo > 0) == (ghi > 0):
        raise NoRoot(f"no sign change on [1, {K}]: g(1)={glo}, g(K)={ghi}")
    iterations = 0
    while hi - lo > tol and iterations < 200:
        mid = 0.5 * (lo + hi)
        gm, bmid = g(mid)
        iterations += 1
        if abs(gm) <= tol:
            return KseqScale(mid, bmid, iterations)
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return KseqScale(mid, beta(mid), iterations)


def verify_kseq(drafts: DraftSet, scores: TargetScores, rng: RandomSource, trace=None) -> VerifyOutcome:
    """Position-by-position acceptance over the surviving draft rows.

    At each position the scale rho is solved for the number of rows still
    alive; surviving rows are those whose tokens match every accepted token
    so far, so their conditionals at the position coincide. Where one row
    survives rho = 1 and no scan is made: the position is a step of standard
    speculative sampling, accepting with min(1, q/p) and on rejection drawing
    from norm(max(q - p, 0)).
    """
    counters = Counters()
    L = drafts.L
    survivors = list(range(drafts.K))
    for i in range(L):
        s0 = survivors[0]
        p_i = drafts.cond[s0][i]
        q_i = scores.cond[s0][i]
        rho = 1.0
        if len(survivors) > 1:
            rho = kseq_rho(p_i, q_i, len(survivors)).rho
            counters.vocab_scans += 1
        accepted = None
        for k in survivors:
            tok = drafts.tokens[k][i]
            a = min(1.0, float(q_i.mass[tok]) / (rho * float(p_i.mass[tok])))
            ok = rng.uniform() < a
            if trace is not None:
                trace.append(("candidate", i + 1, k, tok, a, ok))
            if ok:
                accepted = tok
                break
        if accepted is None:
            counters.vocab_scans += 1
            counters.residual_evals += 1
            # q - min(rho p, q) >= 0 exactly, is q - p where positive at rho = 1,
            # and sums to 1 - rho * beta(rho), the rejection probability
            w = rho * p_i.mass
            np.minimum(w, q_i.mass, out=w)
            np.subtract(q_i.mass, w, out=w)
            try:
                res = normalize(w)
            except AllZeroMass:
                res = q_i
                counters.warnings += 1
            y = sample(res, rng)
            return VerifyOutcome(tau=i, f=s0, t=drafts.tokens[s0][:i], y=y, counters=counters)
        if len(survivors) > 1:
            survivors = [k for k in survivors if drafts.tokens[k][i] == accepted]
    f = survivors[0]
    y = sample(scores.cond[f][L], rng)
    return VerifyOutcome(tau=L, f=f, t=drafts.tokens[f], y=y, counters=counters)


def verify_sd(drafts: DraftSet, scores: TargetScores, rng: RandomSource, trace=None) -> VerifyOutcome:
    """Standard speculative sampling: ``verify_kseq`` over a single row."""
    if drafts.K != 1:
        raise ValueError("verify_sd is a single-draft verifier")
    return verify_kseq(drafts, scores, rng, trace)


# ---------------------------------------------------------------------------
# single-draft block acceptance in its nu form: an independent reference


def gbv_accept_prob(
    joint: PrefixJoint,
    p_next: Distribution | None,
    q_next: Distribution | None,
    chain: GbvChainState,
    at_end: bool,
    counters: Counters | None = None,
) -> float:
    """Single-draft acceptance probability for the sub-block behind ``chain``.

    For interior sub-blocks this is the ratio of surplus target mass to
    surplus draft mass at the next position; for the full block it is the
    likelihood ratio nu_L clamped to a probability. No verifier calls it:
    ``verify_gbv`` runs the power-form rules at K = 1. It is kept, with
    ``GbvChainState``, as the nu-form reference written apart from
    ``_surplus``: the test suite's ``gbv_reference`` oracle walk and the
    single-draft consistency criterion hold the power-form rules to it, and
    ``bench/tracer.py`` wraps it by name.
    """
    if at_end:
        return min(1.0, chain.nu)
    if counters is not None:
        counters.vocab_scans += 1
    # p - nu*q is -(nu*q - p) exactly, so one difference serves both sums
    d = chain.nu * q_next.mass
    d -= p_next.mass
    num = float(np.maximum(d, 0.0).sum())
    den = float(np.maximum(np.negative(d, out=d), 0.0, out=d).sum())
    if den < DENOM_EPS:
        # rejection here has probability ~0; accept iff target mass is in surplus
        return 1.0 if chain.nu > 1.0 else 0.0
    return min(1.0, max(0.0, num / den))


# ---------------------------------------------------------------------------
# multi-draft block verification


def _surplus(p: np.ndarray, q: np.ndarray, r: float, K: int) -> np.ndarray:
    """Per-token surplus w = q * (1 - min(r * p / q, 1))^K, with w = 0 where q = 0.

    r = 0 gives w = q. r = inf gives q where p = 0 and 0 elsewhere, without
    forming inf * 0. Two arrays are allocated and every other pass writes in
    place; the K-th power is taken by repeated multiplication.
    """
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


def subblock_accept_prob(
    joint: PrefixJoint,
    p_next: Distribution,
    q_next: Distribution,
    K: int,
    counters: Counters | None = None,
) -> float:
    """Acceptance probability for a proper sub-block under K drafts.

    The rule's numerator and denominator are divided through by the prefix's
    target joint q_j, so both depend on the joints only through r = p_j / q_j
    and sum_{i<K} (1 - p_j)^i, and keep their scale however small the joints
    get. One vocabulary scan; the scan count does not depend on K. The
    denominator vanishes only on conditioning events of probability zero,
    where any return value is distributionally irrelevant; 1 is returned
    when r < 1, the single-draft ratio rule's convention, so the K = 1
    reduction is pointwise exact. A zero target joint (r = inf) gives 0.
    """
    if counters is not None:
        counters.vocab_scans += 1
        counters.h_partial_evals += 1
    r = joint.ratio_p_over_q()
    S = float(_surplus(p_next.mass, q_next.mass, r, K).sum())
    num = S - (1.0 - min(r, 1.0)) ** K
    den = r * _geometric(joint.p, K) - 1.0 + S
    if abs(den) < DENOM_EPS:
        return 1.0 if r < 1.0 else 0.0
    return min(1.0, max(0.0, num / den))


def _geometric(x: float, K: int) -> float:
    """G(x) = sum_{i<K} (1 - x)^i, so that 1 - (1 - x)^K = x * G(x); G = 1 at K = 1."""
    s = 1.0
    for _ in range(K - 1):
        s = 1.0 + (1.0 - x) * s
    return s


def full_block_accept_prob(joint: PrefixJoint, K: int) -> float:
    """Acceptance probability for an entire drafted block under K drafts.

    The rule q_j (1 - (1 - s)^K) / (1 - (1 - p_j)^K), s = min(r, 1) and
    r = p_j / q_j, with each 1 - (1 - x)^K written as x * G(x), where
    G(x) = sum_{i<K} (1 - x)^i >= 1, and p_j cancelled: G(r) / G(p_j) for
    r <= 1 and (q_j / p_j) / G(p_j) above. No joint is compared with a
    threshold, and K = 1 gives min(1, q_j / p_j) exactly.
    """
    r = joint.ratio_p_over_q()
    a = _geometric(r, K) if r <= 1.0 else joint.ratio_q_over_p()
    return min(1.0, a / _geometric(joint.p, K))


def block_residual(
    joint: PrefixJoint,
    p_next: Distribution,
    q_next: Distribution,
    K: int,
    counters: Counters | None = None,
) -> Distribution:
    """Replacement-token distribution after a block stops at the given prefix.

    Weight on x is proportional to q(prefix, x) * (1 - min(p/q over the
    extended prefix, 1))^K. Raises AllZeroMass when no extension carries
    surplus target mass; callers fall back to the raw target conditional and
    record a warning, since that state is reached with probability zero.
    """
    if counters is not None:
        counters.vocab_scans += 1
        counters.residual_evals += 1
    r = joint.ratio_p_over_q()
    if math.isinf(r):
        raise AllZeroMass("prefix has zero target mass")
    return normalize(_surplus(p_next.mass, q_next.mass, r, K))


def verify_spectr_gbv(
    drafts: DraftSet, scores: TargetScores, rng: RandomSource, trace=None
) -> tuple[VerifyOutcome, "ModifiedTarget"]:
    """Multi-draft block verification with a shared rejected-content set.

    Rows are scanned in index order. Row k is examined from sub-block length
    tau+1 upward; a sub-block already in the rejected set H is skipped with
    no uniform drawn, otherwise it is accepted with the sub-block probability
    (advancing tau and the winning index) or inserted into H. Each row ends
    with its full-block test, whose acceptance finishes the call. If no full
    block is accepted, the extra token comes from the block residual at the
    final accepted prefix.
    """
    counters = Counters()
    K, L = drafts.K, drafts.L
    joints: list[list[PrefixJoint]] = [[PrefixJoint.empty()] for _ in range(K)]

    def joint(k: int, i: int) -> PrefixJoint:
        cache = joints[k]
        while len(cache) <= i:
            n = len(cache) - 1
            cache.append(
                extend_joint(cache[n], drafts.tokens[k][n], drafts.cond[k][n], scores.cond[k][n])
            )
        return cache[i]

    tau, f = 0, 0
    H: set[tuple[int, ...]] = set()
    y = None
    full_accept = False
    for k in range(K):
        row = drafts.tokens[k]
        i = tau + 1
        while i <= L - 1:
            sub = row[:i]
            if sub in H:
                if trace is not None:
                    trace.append(("skip", k, sub))
            else:
                h = subblock_accept_prob(joint(k, i), drafts.cond[k][i], scores.cond[k][i], K, counters)
                accepted = rng.uniform() < h
                if trace is not None:
                    trace.append(("subblock", k, sub, h, accepted))
                if accepted:
                    tau, f = i, k
                else:
                    H.add(sub)
            i += 1
        if row in H:
            if trace is not None:
                trace.append(("skip", k, row))
            continue
        h = full_block_accept_prob(joint(k, L), K)
        accepted = rng.uniform() < h
        if trace is not None:
            trace.append(("full", k, row, h, accepted))
        if accepted:
            tau, f = L, k
            y = sample(scores.cond[k][L], rng)
            full_accept = True
            break
        H.add(row)
    if not full_accept:
        try:
            res = block_residual(joint(f, tau), drafts.cond[f][tau], scores.cond[f][tau], K, counters)
        except AllZeroMass:
            res = scores.cond[f][tau]
            counters.warnings += 1
        y = sample(res, rng)
    t = drafts.tokens[f][:tau]
    if tau == L:
        record = IterationRecord(tau, t, y, 0.0, 0.0, K, L)
    else:
        j = extend_joint(joint(f, tau), y, drafts.cond[f][tau], scores.cond[f][tau])
        record = IterationRecord(tau, t, y, j.log_p, j.log_q, K, L)
    outcome = VerifyOutcome(tau=tau, f=f, t=t, y=y, counters=counters)
    return outcome, distribution_modification(record)


def verify_gbv(
    drafts: DraftSet, scores: TargetScores, rng: RandomSource, trace=None
) -> tuple[VerifyOutcome, "ModifiedTarget"]:
    """Greedy block verification: ``verify_spectr_gbv`` over a single row."""
    if drafts.K != 1:
        raise ValueError("verify_gbv is a single-draft verifier")
    return verify_spectr_gbv(drafts, scores, rng, trace)


# ---------------------------------------------------------------------------
# distribution modification between iterations


@dataclass(frozen=True)
class IterationRecord:
    """What the next iteration needs to know about the last verification."""

    tau: int
    t: tuple[int, ...]
    y: int
    log_p_ty: float
    log_q_ty: float
    K: int
    L: int


@dataclass
class ModifiedTarget:
    """Per-position target overrides for the first ``horizon`` positions of
    the next iteration, represented lazily.

    Conditionals are computed on demand from the running joint probabilities
    of (accepted block, extra token, new context) under both models relative
    to the previous iteration's prefix. Positions past the horizon fall
    through to the base target conditional unchanged.
    """

    horizon: int
    K: int
    prefix: tuple[int, ...]
    log_p_prefix: float
    log_q_prefix: float
    _joints: dict = field(default_factory=dict, repr=False, compare=False)

    def _joint(self, ctx: tuple[int, ...], q_base, p_base) -> tuple[float, float]:
        if ctx in self._joints:
            return self._joints[ctx]
        if not ctx:
            val = (self.log_p_prefix, self.log_q_prefix)
        else:
            parent = ctx[:-1]
            lp, lq = self._joint(parent, q_base, p_base)
            tok = ctx[-1]
            pn = p_base(self.prefix + parent)
            qn = q_base(self.prefix + parent)
            pv = float(pn.mass[tok])
            qv = float(qn.mass[tok])
            lp = lp + math.log(pv) if lp != LOG_ZERO and pv > 0.0 else LOG_ZERO
            lq = lq + math.log(qv) if lq != LOG_ZERO and qv > 0.0 else LOG_ZERO
            val = (lp, lq)
        self._joints[ctx] = val
        return val

    def conditional(
        self, ctx: tuple[int, ...], q_base, p_base, counters: Counters | None = None
    ) -> Distribution:
        """Override conditional at the (len(ctx)+1)-th position of the new window."""
        position = len(ctx) + 1
        qn = q_base(self.prefix + ctx)
        if position > self.horizon:
            return qn
        lp, lq = self._joint(ctx, q_base, p_base)
        if lq == LOG_ZERO:
            # a zero target joint has no override: the base conditional is the answer
            return qn
        if counters is not None:
            counters.vocab_scans += 1
        pn = p_base(self.prefix + ctx)
        r = 0.0 if lp == LOG_ZERO else math.exp(min(lp - lq, 700.0))
        w = _surplus(pn.mass, qn.mass, r, self.K)
        s = float(w.sum())
        if s <= 0.0:
            if counters is not None:
                counters.warnings += 1
            return qn
        return Distribution(w / s)


def distribution_modification(record: IterationRecord) -> ModifiedTarget:
    """Build the lazy modified target for the iteration after ``record``."""
    horizon = max(record.L - record.tau - 1, 0)
    return ModifiedTarget(
        horizon=horizon,
        K=record.K,
        prefix=record.t + (record.y,),
        log_p_prefix=record.log_p_ty,
        log_q_prefix=record.log_q_ty,
    )
