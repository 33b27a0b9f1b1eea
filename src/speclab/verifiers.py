"""Draft-verification algorithms over explicit token-probability models.

Four verifiers share the same inputs: a ``DraftSet`` holding K drafted rows
with the conditionals used at drafting time, and ``TargetScores`` holding the
target conditionals for every row prefix (one extra conditional past the
draft length). All randomness flows through a single ``RandomSource`` so
outcomes are bit-reproducible. ``Counters.vocab_scans`` counts the
vocabulary-sized passes the verifiers make themselves: block acceptance
evaluations, rho bisection steps, residual passes and modification passes.
Draws by ``sample`` and model lookups are not counted.

verify_sd        token-level rejection sampling, single draft
verify_kseq      per-position multi-draft acceptance with the rho scale
verify_gbv       single-draft whole-block acceptance via the nu likelihood chain
verify_spectr_gbv multi-draft block acceptance over sub-blocks with a shared
                 rejected-content set

The block verifiers also emit the lazily evaluated modified target used by
the next decoding iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .probability import (
    LOG_ZERO,
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    extend_joint,
    normalize,
    residual_sd,
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
    eta_draws: int = 0
    h_partial_evals: int = 0
    h_full_evals: int = 0
    residual_evals: int = 0
    modification_evals: int = 0
    rho_iters: int = 0
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
    beta_evals: int


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
# standard speculative decoding (single draft, token-level)


def verify_sd(drafts: DraftSet, scores: TargetScores, rng: RandomSource, trace=None) -> VerifyOutcome:
    """Accept tokens left to right with probability min(1, q/p); on the first
    rejection sample the replacement from norm(max(q - p, 0))."""
    if drafts.K != 1:
        raise ValueError("verify_sd is a single-draft verifier")
    counters = Counters()
    row = drafts.tokens[0]
    L = drafts.L
    for i in range(L):
        p_i = drafts.cond[0][i]
        q_i = scores.cond[0][i]
        tok = row[i]
        a = min(1.0, float(q_i.mass[tok]) / float(p_i.mass[tok]))
        counters.eta_draws += 1
        accepted = rng.uniform() < a
        if trace is not None:
            trace.append(("token", i + 1, tok, a, accepted))
        if not accepted:
            counters.vocab_scans += 1
            counters.residual_evals += 1
            try:
                res = residual_sd(p_i, q_i)
            except AllZeroMass:
                res = q_i
                counters.warnings += 1
            y = sample(res, rng)
            return VerifyOutcome(tau=i, f=0, t=row[:i], y=y, counters=counters)
    y = sample(scores.cond[0][L], rng)
    return VerifyOutcome(tau=L, f=0, t=row, y=y, counters=counters)


# ---------------------------------------------------------------------------
# K-SEQ (per-position multi-draft acceptance)


def kseq_rho(p: Distribution, q: Distribution, K: int, tol: float = 1e-12) -> KseqScale:
    """Solve 1 - (1 - beta(rho))^K = rho * beta(rho) on [1, K] by bisection.

    beta(rho) = sum_x min(p(x), q(x)/rho). Every beta evaluation is one
    vocabulary scan; the iteration count is recorded so callers can expose
    the log(1/tol) cost profile.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    pm, qm = p.mass, q.mass

    def beta(rho: float) -> float:
        return float(np.minimum(pm, qm / rho).sum())

    if K == 1:
        return KseqScale(1.0, beta(1.0), 0, 1)

    def g(rho: float) -> tuple[float, float]:
        b = beta(rho)
        return 1.0 - (1.0 - b) ** K - rho * b, b

    evals = 0
    lo, hi = 1.0, float(K)
    glo, blo = g(lo)
    evals += 1
    if abs(glo) <= tol:
        return KseqScale(lo, blo, 0, evals)
    ghi, bhi = g(hi)
    evals += 1
    if abs(ghi) <= tol:
        return KseqScale(hi, bhi, 0, evals)
    if (glo > 0) == (ghi > 0):
        raise NoRoot(f"no sign change on [1, {K}]: g(1)={glo}, g(K)={ghi}")
    iterations = 0
    mid, bmid = lo, blo
    while hi - lo > tol and iterations < 200:
        mid = 0.5 * (lo + hi)
        gm, bmid = g(mid)
        evals += 1
        iterations += 1
        if abs(gm) <= tol:
            return KseqScale(mid, bmid, iterations, evals)
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return KseqScale(mid, beta(mid), iterations, evals + 1)


def verify_kseq(drafts: DraftSet, scores: TargetScores, rng: RandomSource, trace=None) -> VerifyOutcome:
    """Position-by-position acceptance over the surviving draft rows.

    At each position the scale rho is solved for the number of rows still
    alive; surviving rows are those whose tokens match every accepted token
    so far, so their conditionals at the position coincide.
    """
    counters = Counters()
    L = drafts.L
    survivors = list(range(drafts.K))
    prefix: tuple[int, ...] = ()
    for i in range(L):
        s0 = survivors[0]
        p_i = drafts.cond[s0][i]
        q_i = scores.cond[s0][i]
        scale = kseq_rho(p_i, q_i, len(survivors))
        counters.rho_iters += scale.iterations
        counters.vocab_scans += scale.beta_evals
        accepted = None
        for k in survivors:
            tok = drafts.tokens[k][i]
            a = min(1.0, float(q_i.mass[tok]) / (scale.rho * float(p_i.mass[tok])))
            counters.eta_draws += 1
            ok = rng.uniform() < a
            if trace is not None:
                trace.append(("candidate", i + 1, k, tok, a, ok))
            if ok:
                accepted = tok
                break
        if accepted is None:
            counters.vocab_scans += 1
            counters.residual_evals += 1
            denom = 1.0 - scale.rho * scale.beta
            if denom < 1e-12:
                res = q_i
                counters.warnings += 1
            else:
                w = np.maximum(q_i.mass - scale.rho * np.minimum(p_i.mass, q_i.mass / scale.rho), 0.0)
                try:
                    res = normalize(w)
                except AllZeroMass:
                    res = q_i
                    counters.warnings += 1
            y = sample(res, rng)
            f = survivors[0] if i > 0 else 0
            return VerifyOutcome(tau=i, f=f, t=prefix, y=y, counters=counters)
        prefix = prefix + (accepted,)
        survivors = [k for k in survivors if drafts.tokens[k][i] == accepted]
    f = survivors[0]
    y = sample(scores.cond[f][L], rng)
    return VerifyOutcome(tau=L, f=f, t=prefix, y=y, counters=counters)


# ---------------------------------------------------------------------------
# single-draft greedy block verification


def gbv_accept_prob(
    joint: PrefixJoint,
    p_next: Distribution | None,
    q_next: Distribution | None,
    chain: GbvChainState,
    at_end: bool,
    counters: Counters | None = None,
) -> float:
    """Whole-block acceptance probability for the sub-block behind ``chain``.

    For interior sub-blocks this is the ratio of surplus target mass to
    surplus draft mass at the next position; for the full block it is the
    likelihood ratio nu_L clamped to a probability.
    """
    if at_end:
        return min(1.0, chain.nu)
    if counters is not None:
        counters.vocab_scans += 1
    num = float(np.maximum(chain.nu * q_next.mass - p_next.mass, 0.0).sum())
    den = float(np.maximum(p_next.mass - chain.nu * q_next.mass, 0.0).sum())
    if den < DENOM_EPS:
        # rejection here has probability ~0; accept iff target mass is in surplus
        return 1.0 if chain.nu > 1.0 else 0.0
    return min(1.0, max(0.0, num / den))


def verify_gbv(
    drafts: DraftSet, scores: TargetScores, rng: RandomSource, trace=None
) -> tuple[VerifyOutcome, "ModifiedTarget"]:
    """Accept every sub-block of the single row independently and keep the longest.

    Returns the outcome together with the modified target for the next
    iteration (the nu-weighted surplus form).
    """
    if drafts.K != 1:
        raise ValueError("verify_gbv is a single-draft verifier")
    counters = Counters()
    row = drafts.tokens[0]
    L = drafts.L
    joints = [PrefixJoint.empty()]
    for i in range(L):
        joints.append(extend_joint(joints[i], row[i], drafts.cond[0][i], scores.cond[0][i]))
    tau = 0
    for i in range(1, L + 1):
        at_end = i == L
        nu = joints[i].ratio_q_over_p()
        a = gbv_accept_prob(
            joints[i],
            None if at_end else drafts.cond[0][i],
            None if at_end else scores.cond[0][i],
            GbvChainState(nu, i),
            at_end,
            counters,
        )
        counters.eta_draws += 1
        accepted = rng.uniform() < a
        if trace is not None:
            trace.append(("subblock", i, row[:i], a, accepted))
        if accepted:
            tau = i
    t = row[:tau]
    if tau == L:
        y = sample(scores.cond[0][L], rng)
        record = IterationRecord(tau, t, y, 0.0, 0.0, 1, L, rule="nu")
    else:
        counters.vocab_scans += 1
        counters.residual_evals += 1
        nu_tau = joints[tau].ratio_q_over_p()
        w = np.maximum(nu_tau * scores.cond[0][tau].mass - drafts.cond[0][tau].mass, 0.0)
        try:
            res = normalize(w)
        except AllZeroMass:
            res = scores.cond[0][tau]
            counters.warnings += 1
        y = sample(res, rng)
        j = extend_joint(joints[tau], y, drafts.cond[0][tau], scores.cond[0][tau])
        record = IterationRecord(tau, t, y, j.log_p, j.log_q, 1, L, rule="nu")
    outcome = VerifyOutcome(tau=tau, f=0, t=t, y=y, counters=counters)
    return outcome, distribution_modification(record)


# ---------------------------------------------------------------------------
# multi-draft block verification


def subblock_accept_prob(
    joint: PrefixJoint,
    p_next: Distribution,
    q_next: Distribution,
    K: int,
    counters: Counters | None = None,
) -> float:
    """Acceptance probability for a proper sub-block under K drafts.

    One vocabulary scan; the scan count does not depend on K. The
    denominator vanishes only on conditioning events of probability zero,
    where any return value is distributionally irrelevant; 1 is returned.
    """
    if counters is not None:
        counters.vocab_scans += 1
        counters.h_partial_evals += 1
    pj, qj = joint.p, joint.q
    pe = pj * p_next.mass
    qe = qj * q_next.mass
    m_ext = np.where(qe > 0.0, np.minimum(pe / np.where(qe > 0.0, qe, 1.0), 1.0), 1.0)
    S = float((qe * (1.0 - m_ext) ** K).sum())
    mi = min(joint.ratio_p_over_q(), 1.0)
    num = S - qj * (1.0 - mi) ** K
    den = 1.0 - (1.0 - pj) ** K - qj + S
    if abs(den) < DENOM_EPS:
        # conditioning event has probability ~0; same convention as the
        # single-draft ratio rule so the K = 1 reduction is pointwise exact
        return 1.0 if qj > pj else 0.0
    return min(1.0, max(0.0, num / den))


def _at_least_once(x: float, K: int) -> float:
    """1 - (1 - x)^K as x * sum_{i<K} (1 - x)^i, so that K = 1 gives x exactly."""
    s = 1.0
    for _ in range(K - 1):
        s = 1.0 + (1.0 - x) * s
    return x * s


def full_block_accept_prob(joint: PrefixJoint, K: int, counters: Counters | None = None) -> float:
    """Acceptance probability for an entire drafted block under K drafts."""
    if counters is not None:
        counters.h_full_evals += 1
    pj, qj = joint.p, joint.q
    den = _at_least_once(pj, K)
    if den < DENOM_EPS or qj <= 0.0:
        return 0.0
    s = min(joint.ratio_p_over_q(), 1.0)
    return min(1.0, qj * _at_least_once(s, K) / den)


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
    qn = q_next.mass
    pn = p_next.mass
    m_ext = np.where(qn > 0.0, np.minimum(r * pn / np.where(qn > 0.0, qn, 1.0), 1.0), 1.0)
    w = qn * (1.0 - m_ext) ** K
    return normalize(w)


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
                counters.eta_draws += 1
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
        h = full_block_accept_prob(joint(k, L), K, counters)
        counters.eta_draws += 1
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
        record = IterationRecord(tau, t, y, 0.0, 0.0, K, L, rule="power")
    else:
        j = extend_joint(joint(f, tau), y, drafts.cond[f][tau], scores.cond[f][tau])
        record = IterationRecord(tau, t, y, j.log_p, j.log_q, K, L, rule="power")
    outcome = VerifyOutcome(tau=tau, f=f, t=t, y=y, counters=counters)
    return outcome, distribution_modification(record)


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
    rule: str = "power"


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
    rule: str = "power"
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
        if counters is not None:
            counters.vocab_scans += 1
            counters.modification_evals += 1
        lp, lq = self._joint(ctx, q_base, p_base)
        pn = p_base(self.prefix + ctx)
        if lq == LOG_ZERO:
            if counters is not None:
                counters.warnings += 1
            return qn
        if self.rule == "nu":
            if lp == LOG_ZERO:
                w = np.where(qn.mass > 0.0, qn.mass, 0.0)
            else:
                nu = math.exp(lq - lp) if lq - lp < 700.0 else float("inf")
                if math.isinf(nu):
                    w = np.where(qn.mass > 0.0, qn.mass, 0.0)
                else:
                    w = np.maximum(nu * qn.mass - pn.mass, 0.0)
        else:
            r = 0.0 if lp == LOG_ZERO else math.exp(min(lp - lq, 700.0))
            m_ext = np.where(
                qn.mass > 0.0, np.minimum(r * pn.mass / np.where(qn.mass > 0.0, qn.mass, 1.0), 1.0), 1.0
            )
            w = qn.mass * (1.0 - m_ext) ** self.K
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
        rule=record.rule,
    )


def gbv_modification(record: IterationRecord) -> ModifiedTarget:
    """The single-draft modified target in its nu-weighted surplus form."""
    return distribution_modification(replace(record, rule="nu"))
