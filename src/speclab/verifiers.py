"""Draft-verification algorithms over explicit token-probability models.

Both verifier cores take a ``DraftSet``, K drafted rows with their drafting
conditionals, drawn when first read, and read the target chain themselves.
The block verifier reads every row and asks ``q_conds``, prefixes ->
conditionals, once for every row prefix and one past the row
(``score_rows``); the token-level one reads its surviving rows' tokens and
asks ``q_cond``, prefix -> conditional, only where it reaches. All
randomness flows through one ``RandomSource`` so outcomes are
bit-reproducible. ``Counters.vocab_scans`` counts the vocabulary passes the
verifiers make themselves: block acceptance evaluations (one per sub-block
test, decided by its band or computed), rho solves (one sorted ratio table
each, however many bisection steps read it, charged wherever rows compete
whether or not rho is read), residual and modification passes. Draws by
``sample`` and model lookups are not counted, nor are serial target and
draft calls: ``harness.decode`` derives those from its iterations.

verify_kseq       per-position multi-draft acceptance with the rho scale; the
                  one token-level verifier
verify_sd         verify_kseq with one row: standard speculative sampling
verify_spectr_gbv multi-draft block acceptance over sub-blocks with a shared
                  rejected-content set; the one block verifier
verify_gbv        verify_spectr_gbv with one row: greedy block verification

The power-form rules of ``verify_spectr_gbv`` share one kernel, ``_surplus``:
the per-token surplus w(x) = q(x) * (1 - min(r * p(x) / q(x), 1))^K at a
prefix with joint ratio r = p/q, which every rule reads from the log joints
by ``probability.joint_ratio``. Its sum with ``subblock_terms``' scalars
gives the sub-block acceptance, its normalization the block residual, and
with r read from the running joints it is the next iteration's modified
target. At K = 1 they are the single-draft rules of greedy block
verification; ``gbv_accept_prob`` writes that acceptance apart, over the
likelihood ratio nu = q/p, as a reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .probability import (
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

DENOM_EPS = 1e-15


class NoRoot(ValueError):
    """The scale equation has no sign change on [1, K]; malformed instance."""


@dataclass
class Counters:
    """What a verification call counts of its own work: vocabulary passes,
    sub-block evaluations, residual passes and fallbacks (``warnings``)."""

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


class DraftSet:
    """K drafted rows of length L plus the draft conditionals used to sample them.

    cond[k][i] is the draft conditional given the first i tokens of row k,
    for i = 0..L-1. A set that ``draft_rows`` makes holds each row's L
    reserved uniforms and draws the row's tokens in order, one ``sample``
    each, when something first reads them: ``draw(k, i)`` draws row k
    through position i, and ``tokens`` and ``cond`` draw every row. A set
    built from given tokens and conditionals is checked when it is built.
    Drawn or given, every token has positive probability under its
    conditional.
    """

    def __init__(self, tokens, cond):
        if len(tokens) == 0:
            raise ValueError("need at least one draft row")
        if len(cond) != len(tokens):
            raise ValueError("cond must hold one row of conditionals per draft row")
        self.K, self.L = len(tokens), len(tokens[0])
        if self.L < 1:
            raise ValueError("need at least one token per draft row")
        for k, row in enumerate(tokens):
            if len(row) != self.L:
                raise ValueError("ragged draft rows")
            if len(cond[k]) != self.L:
                raise ValueError("cond[k] must hold one conditional per position")
            for i, tok in enumerate(row):
                if cond[k][i].mass.item(tok) <= 0.0:
                    raise ValueError(f"row {k} token {i} has zero draft probability")
        self._rows, self._conds = [tuple(row) for row in tokens], [tuple(c) for c in cond]

    @cached_property
    def tokens(self) -> tuple[tuple[int, ...], ...]:
        """Every row, drawn on the first read of this or ``cond``; it stores
        ``cond`` too, so a full read takes one ``cached_property`` lock."""
        for k in range(self.K):
            self.draw(k, self.L - 1)
        self.cond = tuple(self._conds)
        return tuple(self._rows)

    @cached_property
    def cond(self) -> tuple[tuple[Distribution, ...], ...]:
        """Every row's conditionals, stored by the read of ``tokens`` this makes."""
        self.tokens
        return vars(self)["cond"]

    def draw(self, k: int, i: int) -> tuple[int, Distribution]:
        """Row k's token at position i and its conditional, drawn through i first."""
        row, conds = self._rows[k], self._conds[k]
        if i >= len(row):
            source, p_cond = self._sources[k], self._p_cond
            for n in range(len(row), i + 1):
                d = p_cond(row)
                tok = sample(d, source)
                if d.mass.item(tok) <= 0.0:
                    raise ValueError(f"row {k} token {n} has zero draft probability")
                conds += (d,)
                row += (tok,)
            self._rows[k], self._conds[k] = row, conds
        return row[i], conds[i]


def draft_rows(p_cond, K: int, L: int, rng: RandomSource) -> DraftSet:
    """K i.i.d. rows of length L from a conditional provider, drawn when read.

    p_cond maps a token prefix (tuple) to the draft Distribution at that
    context. Each row's L uniforms are reserved here, row after row, so
    every token is the one a row-by-row loop of ``sample`` calls gives, in
    whatever order the rows are read, and ``rng`` goes on from where K * L
    such draws leave it.
    """
    if K < 1:
        raise ValueError("need at least one draft row")
    if L < 1:
        raise ValueError("need at least one token per draft row")
    drafts = DraftSet.__new__(DraftSet)
    drafts.K, drafts.L, drafts._p_cond = K, L, p_cond
    drafts._rows, drafts._conds = [()] * K, [()] * K
    drafts._sources = [rng.reserve(L) for _ in range(K)]
    return drafts


def score_rows(drafts: DraftSet, q_conds) -> tuple[tuple[Distribution, ...], ...]:
    """The block verifier's one target read: rows[k][i] = q(.|first i tokens
    of row k) for i = 0..L, ``drafts.cond[k][i]``'s shape plus the bonus
    position. q_conds maps a list of token prefixes to their target
    Distributions; the K * (L + 1) prefixes are asked for in one call.
    """
    width = drafts.L + 1
    flat = iter(q_conds([row[:i] for row in drafts.tokens for i in range(width)]))
    # one iterator zipped with itself width times yields its items width at a time
    return tuple(zip(*[flat] * width))


# ---------------------------------------------------------------------------
# K-SEQ (per-position multi-draft acceptance)


def _beta_table(p: np.ndarray, q: np.ndarray):
    """The sorted table that beta(rho) = sum_x min(p(x), q(x)/rho) is read from.

    Token x gives p(x) while rho <= c(x) = q(x)/p(x) and q(x)/rho above it,
    with c = inf where p = 0. With the ratios sorted, the tokens below rho
    form a prefix, so beta(rho) = below_q[i] / rho + above_p[i] at
    i = bisect_left(ratios, rho): below_q[i] is the q-mass of the first i
    tokens, summed in sorted order, and above_p[i] the p-mass of the rest,
    summed from the last token down. Building the table is the one
    vocabulary scan; the columns are memoryviews, so no entry is converted
    to a Python float until it is read.
    """
    with np.errstate(over="ignore"):  # q/p past every rho in [1, K] reads as inf, as intended
        c = np.divide(q, p, out=np.full_like(p, np.inf), where=p > 0.0)
    order = np.argsort(c)
    # row 0: 0, q in sorted order; row 1: 0, p in reverse sorted order;
    # each row summed left to right
    sums = np.zeros((2, len(c) + 1))
    np.take(q, order, out=sums[0, 1:])
    np.take(p, order[::-1], out=sums[1, 1:])
    np.cumsum(sums, axis=1, out=sums)
    return memoryview(c[order]), memoryview(sums[0]), memoryview(sums[1, ::-1])


def kseq_rho(p: Distribution, q: Distribution, K: int, tol: float = 1e-12) -> KseqScale:
    """Solve 1 - (1 - beta(rho))^K = rho * beta(rho) on [1, K] by bisection.

    beta(rho) = sum_x min(p(x), q(x)/rho) is read from a table built in one
    vocabulary scan (``_beta_table``). A step's point lies in the bracket
    [lo, hi], so its table index lies between ilo = #(ratios < lo) and
    ihi = #(ratios < hi); both are carried from step to step, and a step
    bisects only the ratios in [ilo, ihi), none once that is empty. The
    index is the one a bisect over the whole table gives and the sums are
    the whole table's, so every beta, step and rho are bit for bit those of
    a full lookup. The iteration count is recorded so callers can expose
    the log(1/tol) cost profile.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ratios, below_q, above_p = _beta_table(p.mass, q.mass)
    lo, hi = 1.0, float(K)
    ilo, ihi = bisect_left(ratios, lo), bisect_left(ratios, hi)
    blo = below_q[ilo] / lo + above_p[ilo]
    glo = 1.0 - (1.0 - blo) ** K - lo * blo
    if abs(glo) <= tol:
        return KseqScale(lo, blo, 0)
    bhi = below_q[ihi] / hi + above_p[ihi]
    ghi = 1.0 - (1.0 - bhi) ** K - hi * bhi
    if abs(ghi) <= tol:
        return KseqScale(hi, bhi, 0)
    if (glo > 0) == (ghi > 0):
        raise NoRoot(f"no sign change on [1, {K}]: g(1)={glo}, g(K)={ghi}")
    iterations = 0
    while hi - lo > tol and iterations < 200:
        mid = 0.5 * (lo + hi)
        i = bisect_left(ratios, mid, ilo, ihi)
        b = below_q[i] / mid + above_p[i]
        gm = 1.0 - (1.0 - b) ** K - mid * b
        iterations += 1
        if abs(gm) <= tol:
            return KseqScale(mid, b, iterations)
        if (gm > 0) == (glo > 0):
            lo, glo, ilo = mid, gm, i
        else:
            hi, ihi = mid, i
    mid = 0.5 * (lo + hi)
    i = bisect_left(ratios, mid, ilo, ihi)
    return KseqScale(mid, below_q[i] / mid + above_p[i], iterations)


def _kseq_scale(p: Distribution, q: Distribution, K: int) -> float:
    """``kseq_rho(p, q, K).rho``, solved once and kept in the target row's ``memo``.

    The one solve path: ``verify_kseq`` calls it where its rule needs a rho
    that the memo lacks. A miss calls ``kseq_rho`` through this module's
    global, so a wrapper rebound over it counts real solves.
    """
    memo = q.memo
    rho = memo.get((p, K))
    if rho is None:
        rho = memo[p, K] = kseq_rho(p, q, K).rho
    return rho


def verify_kseq(
    drafts: DraftSet, q_cond, rng: RandomSource, trace=None, residuals=None
) -> VerifyOutcome:
    """Position-by-position acceptance over the surviving draft rows.

    Surviving rows are those whose tokens match every accepted token so
    far, so they share the prefix, and ``q_cond`` (prefix -> target
    conditional) is asked for it alone, and for the bonus row after a full
    accept. With m rows alive, a row's token x is accepted when its uniform
    u < a = min(1, q(x) / (rho p(x))), that is u < q(x) / (rho p(x)), rho
    the scale for m. One row gives rho = 1, a step of standard speculative
    sampling with residual norm(max(q - p, 0)). With more, rho is read from
    the target row's memo if it is there; if not, the bracket decides:
    ``kseq_rho`` returns rho in [1, m], and rounded products and quotients
    are monotone, so the test at rho = m gives the same answer unless u
    lies between the ratio's values at rho = m and at rho = 1. Only then,
    or for the residual once every survivor rejects, does ``_kseq_scale``
    solve rho, so ``NoRoot`` is raised only by a solve the rule needs. A
    ``trace`` list gets ("candidate", position, row, token, a, accepted)
    per candidate, a float where rho is known, else the pair of a's values
    at rho = m and rho = 1 that u was compared with (one float if equal).
    One scan is charged at every position where more than one row survives,
    solved or not, so a decode's counters do not depend on what ran before
    it. A rejection's residual is kept in ``residuals``, if given, under the
    (target row, draft row, survivors) triple: a hit is the miss's very
    ``Distribution`` (the target row if empty), charged the miss's pass and
    warning. ``harness.decode`` keeps that dict for one decode, since a memo
    on the rows would hold thousands of row-sized residuals at V = 1024.
    Both memos key on row identity: a ``harness.RawChain`` returns one
    cached row per prefix. It reads only the survivors' tokens, through
    ``drafts.draw``, so no row is drawn past the position where it drops
    out, and it keeps the accepted prefix itself.
    """
    counters = Counters()
    L = drafts.L
    survivors = list(range(drafts.K))
    prefix: tuple[int, ...] = ()
    x = rho = 1.0  # rho, and the multiplier u is tested with, where one row survives
    for i in range(L):
        s0, m = survivors[0], len(survivors)
        p_i = drafts.draw(s0, i)[1]
        q_i = q_cond(prefix)
        if m > 1:
            rho = q_i.memo.get((p_i, m))
            x = m if rho is None else rho
            counters.vocab_scans += 1
        accepted = None
        for k in survivors:
            tok = drafts.draw(k, i)[0]
            q, p = q_i.mass.item(tok), p_i.mass.item(tok)
            u = rng.uniform()
            if rho is None and q / (m * p) <= u < q / p:  # inside the bracket: the rule reads rho
                x = rho = _kseq_scale(p_i, q_i, m)
            ok = u < q / (x * p)
            if trace is not None:
                a, a1 = min(1.0, q / (x * p)), min(1.0, q / p)
                trace.append(("candidate", i + 1, k, tok, a if rho is not None or a == a1 else (a, a1), ok))
            if ok:
                accepted = tok
                break
        if accepted is None:
            if rho is None:
                rho = _kseq_scale(p_i, q_i, m)
            counters.vocab_scans += 1
            counters.residual_evals += 1
            memo = {} if residuals is None else residuals
            key = (q_i, p_i, m)
            res = memo.get(key)
            if res is None:
                # q - min(rho p, q) >= 0 exactly, is q - p where positive at rho = 1,
                # and sums to 1 - rho * beta(rho), the rejection probability
                w = rho * p_i.mass
                np.minimum(w, q_i.mass, out=w)
                np.subtract(q_i.mass, w, out=w)
                try:
                    res = memo[key] = normalize(w)
                except AllZeroMass:
                    res = memo[key] = q_i
            counters.warnings += res is q_i
            y = sample(res, rng)
            return VerifyOutcome(tau=i, f=s0, t=prefix, y=y, counters=counters)
        if m > 1:
            survivors = [k for k in survivors if drafts.draw(k, i)[0] == accepted]
            x = rho = 1.0  # for a lone survivor; more set their own at the next position
        prefix += (accepted,)
    y = sample(q_cond(prefix), rng)
    return VerifyOutcome(tau=L, f=survivors[0], t=prefix, y=y, counters=counters)


def verify_sd(
    drafts: DraftSet, q_cond, rng: RandomSource, trace=None, residuals=None
) -> VerifyOutcome:
    """Standard speculative sampling: ``verify_kseq`` over a single row."""
    if drafts.K != 1:
        raise ValueError("verify_sd is a single-draft verifier")
    return verify_kseq(drafts, q_cond, rng, trace, residuals)


# ---------------------------------------------------------------------------
# single-draft block acceptance in its nu form: an independent reference


def gbv_accept_prob(
    nu: float,
    p_next: Distribution | None,
    q_next: Distribution | None,
    at_end: bool,
    counters: Counters | None = None,
) -> float:
    """Single-draft acceptance probability of a sub-block whose prefix has
    likelihood ratio ``nu`` = q/p over its joints.

    For interior sub-blocks this is the ratio of surplus target mass to
    surplus draft mass at the next position; for the full block it is nu
    clamped to a probability. No verifier calls it: ``verify_gbv`` runs the
    power-form rules at K = 1. It is kept as the nu-form reference written
    apart from ``_surplus``: ``tests/conftest.py::reference_gbv`` and the
    single-draft consistency criterion hold the power-form rules to it, and
    ``bench/tracer.py`` wraps it by name.
    """
    if at_end:
        return min(1.0, nu)
    if counters is not None:
        counters.vocab_scans += 1
    # p - nu*q is -(nu*q - p) exactly, so one difference serves both sums
    d = nu * q_next.mass
    d -= p_next.mass
    num = float(np.maximum(d, 0.0).sum())
    den = float(np.maximum(np.negative(d, out=d), 0.0, out=d).sum())
    if den < DENOM_EPS:
        # rejection here has probability ~0; accept iff target mass is in surplus
        return 1.0 if nu > 1.0 else 0.0
    return min(1.0, max(0.0, num / den))


# ---------------------------------------------------------------------------
# multi-draft block verification


def _surplus(p: np.ndarray, q: np.ndarray, r, K: int) -> np.ndarray:
    """Per-token surplus w = q * (1 - min(r * p / q, 1))^K, with w = 0 where q = 0.

    p and q are (n, V) blocks and r holds one ratio per row; a single
    context is the block of one row. r = 0 gives w = q. r = inf gives q
    where p = 0 and 0 elsewhere, without forming inf * 0. Two (n, V) arrays
    are allocated and every other pass writes in place; the K-th power is
    taken by repeated multiplication. Every entry is computed as for its row
    alone, so a row of the block equals that row's own surplus bit for bit.
    """
    inf = [n for n, x in enumerate(r) if x == math.inf]
    t = np.array(r, dtype=np.float64)[:, None]
    if inf:
        t[inf] = 0.0
    t = t * p
    # min(r p, q) / q is min(r p / q, 1) bit for bit, and cannot overflow
    np.minimum(t, q, out=t)
    np.divide(t, q, out=t, where=q > 0.0)
    np.subtract(1.0, t, out=t)
    w = q * t
    for _ in range(K - 1):
        w *= t
    if inf:
        w[inf] = q[inf] * (p[inf] == 0.0)
    return w


def subblock_terms(log_p: float, log_q: float, K: int) -> tuple[float, float, float]:
    """The sub-block rule's scalars (r, a, b) at log joints (log_p, log_q):
    r = p_j / q_j (``joint_ratio``), a = (1 - min(r, 1))^K and
    b = r G(p_j) - 1, G's 1 cancelled so p_j = exp(log_p) near 1 keeps
    precision. A zero target joint or a log ratio above 700 gives
    (inf, 0, inf): b = inf makes the rule's h and the band's hi 0."""
    r = joint_ratio(log_p, log_q)
    if r == math.inf:
        return r, 0.0, r
    return r, (1.0 - min(r, 1.0)) ** K, (r - 1.0) + r * _geometric_tail(math.exp(log_p) if K > 1 else None, K)


def subblock_accept_prob(
    terms: list[tuple[float, float, float]],
    p_next: np.ndarray,
    q_next: np.ndarray,
    K: int,
) -> tuple[list[float], np.ndarray]:
    """Acceptance probabilities for n proper sub-blocks under K drafts.

    Sub-block n has the scalars terms[n] = (r, a, b) of ``subblock_terms``
    and next-position conditionals p_next[n] and q_next[n], rows of two
    (n, V) blocks: h = (S - a) / (S + b), clamped, S the sum of the surplus
    row at ratio r. The rule's numerator and denominator are divided through
    by the prefix's target joint q_j, so both depend on the joints only
    through r and sum_{i<K} (1 - p_j)^i, and keep their scale however small
    the joints get. One vocabulary scan per sub-block, made for all n in one
    surplus block; the scan count does not depend on K. The denominator
    vanishes only on conditioning events of probability zero, where any
    return value is distributionally irrelevant; 1 is returned when r < 1,
    the single-draft ratio rule's convention, so the K = 1 reduction is
    pointwise exact. Taking scalars and row blocks, it serves the exact
    oracle a whole trie level in one call.

    Returns the n probabilities and the (n, V) surplus block: row n,
    normalized, is the block residual at sub-block n.
    """
    w = _surplus(p_next, q_next, [r for r, _, _ in terms], K)
    h = []
    for (r, a, b), S in zip(terms, w.sum(axis=1).tolist()):
        num, den = S - a, b + S
        if abs(den) < DENOM_EPS:
            h.append(1.0 if r < 1.0 else 0.0)
        else:
            h.append(min(1.0, max(0.0, num / den)))
    return h, w


def subblock_band(terms: tuple[float, float, float], K: int) -> tuple[float, float]:
    """[lo, hi] holding the h that ``subblock_accept_prob`` returns for these
    scalars (r, a, b), whatever the next-position rows; (0, 1) where none is
    known.

    K = 1 with r < 1 gives (1, 1), as b = fl(r - 1) = -fl(1 - r) = -a makes
    num and den one float. Elsewhere: each surplus entry q t^K, t in [0, 1],
    rounds to at most q, so S < S_max = 1 + 1e-8 (1 + SUM_TOL plus V ulps).
    Jensen gives S >= a up to O(K SUM_TOL), and a + b = r (G(p_j) - G(r)) >= 0
    for r <= 1 (p_j <= r) and (1 - (1 - p_j)^K - q_j) / q_j >= 0 above. So
    where the floats give a + b >= 1e-6, S + b is far above DENOM_EPS, h
    rises with S (slope (a + b) / (S + b)^2), and hi = (S_max - a) /
    (S_max + b) sits at least 8e-15 relative above h, ten times the
    quotients' rounding; r = inf has b = inf, so hi = 0, the rule's 0.
    Below 1e-6 (r near 0, p_j near r at K >= 2, and r = 1 at K = 1, where S
    can round to 0 and the DENOM_EPS branch gives 0) there is no band.
    """
    r, a, b = terms
    if K == 1 and r < 1.0:
        return 1.0, 1.0
    if not a + b >= 1e-6:
        return 0.0, 1.0
    return 0.0, (1.0 + 1e-8 - a) / (1.0 + 1e-8 + b)


def _geometric_tail(x: float, K: int) -> float:
    """G(x) - 1, where G(x) = sum_{i<K} (1 - x)^i, so that 1 - (1 - x)^K = x * G(x).

    Built without G's leading 1, so it keeps its precision as x nears 1; it
    is 0 at K = 1 and reads no x there (the rules pass None, forming no exp),
    and 1 + G(x) - 1 is bit for bit the recurrence for G. x may be an array:
    each entry gets the scalar's operations, in its order."""
    t = 0.0
    for _ in range(K - 1):
        t = (1.0 - x) * (1.0 + t)
    return t


def full_block_accept_prob(joint: PrefixJoint, K: int) -> float:
    """Acceptance probability for an entire drafted block under K drafts.

    The rule q_j (1 - (1 - s)^K) / (1 - (1 - p_j)^K), s = min(r, 1) and
    r = p_j / q_j, with each 1 - (1 - x)^K written as x * G(x), where
    G(x) = sum_{i<K} (1 - x)^i >= 1, and p_j cancelled: G(r) / G(p_j) for
    r <= 1 and (q_j / p_j) / G(p_j) above. No joint is compared with a
    threshold, and K = 1 gives min(1, q_j / p_j) exactly.
    """
    r = joint_ratio(joint.log_p, joint.log_q)
    a = 1.0 + _geometric_tail(r, K) if r <= 1.0 else joint_ratio(joint.log_q, joint.log_p)
    return min(1.0, a / (1.0 + _geometric_tail(math.exp(joint.log_p) if K > 1 else None, K)))


def full_block_accept_probs(log_p: np.ndarray, log_q: np.ndarray, K: int) -> np.ndarray:
    """``full_block_accept_prob`` of every block with log joints
    (log_p[n], log_q[n]), bit for bit: the ratios come from ``joint_ratio``
    and the draft joint from ``math.exp``, as the scalar rule's do, and
    numpy does only the rule's +, -, *, / and min, which round as Python's
    do. G is read at min(r, 1), so no overflow is formed at the blocks with
    r > 1, which take q_j / p_j instead, and q_j / p_j is formed at those
    blocks only. The oracle calls it once per batch of trie levels, and the
    block verifier the scalar form as a row's last test: each is the faster
    for its caller, since on one joint numpy's fixed cost per call outweighs
    the rule, and over a level a Python loop costs more than numpy does."""
    lp, lq = log_p.tolist(), log_q.tolist()
    r = np.array(list(map(joint_ratio, lp, lq)))
    a = np.full(len(r), 1.0 + _geometric_tail(np.minimum(r, 1.0), K))  # the tail is a scalar at K = 1
    over = np.flatnonzero(r > 1.0).tolist()
    a[over] = [joint_ratio(lq[n], lp[n]) for n in over]
    p = np.array([math.exp(x) for x in lp]) if K > 1 else None  # the tail reads no p at K = 1
    return np.minimum(1.0, a / (1.0 + _geometric_tail(p, K)))


def block_residual(
    joint: PrefixJoint,
    p_next: Distribution,
    q_next: Distribution,
    K: int,
    counters: Counters | None = None,
    surplus: np.ndarray | None = None,
) -> Distribution:
    """Replacement-token distribution after a block stops at the given prefix.

    Weight on x is proportional to q(prefix, x) * (1 - min(p/q over the
    extended prefix, 1))^K. Raises AllZeroMass at an infinite joint ratio,
    which decoding never reaches (h = 0 there), and when no extension
    carries surplus target mass; callers fall back to the raw target
    conditional and record a warning. At K = 1 that has probability zero.
    At K >= 2 it does not: the full-block test can reject every row at a
    prefix where the draft covers the target, and on matched models the
    scan stops at tau = 0 with an empty residual about a quarter of the
    time at L = 2, K = 2.

    ``surplus`` is the row that the sub-block test at this prefix computed,
    when the block stopped after accepting that test. With positive mass
    and a finite ratio it is normalized as it is, bit for bit the fresh
    result, and no pass is charged; otherwise the pass is made.
    """
    r = joint_ratio(joint.log_p, joint.log_q)
    if surplus is not None and not math.isinf(r):
        s = float(surplus.sum())
        if s > 0.0:
            return Distribution(surplus / s)
    if counters is not None:
        counters.vocab_scans += 1
        counters.residual_evals += 1
    if math.isinf(r):
        raise AllZeroMass("infinite joint ratio")
    return normalize(_surplus(p_next.mass[None], q_next.mass[None], [r], K)[0])


def _row_joints(tokens, p_conds, q_conds) -> list[PrefixJoint]:
    """Joints of every prefix of a drafted row, lengths 0 .. L: ``extend_joint``
    chained from the empty prefix's ``PrefixJoint()``."""
    out = [PrefixJoint()]
    for tok, p, q in zip(tokens, p_conds, q_conds):
        out.append(extend_joint(out[-1], tok, p, q))
    return out


def verify_spectr_gbv(
    drafts: DraftSet, q_conds, rng: RandomSource, trace=None
) -> tuple[VerifyOutcome, "ModifiedTarget"]:
    """Multi-draft block verification with a shared rejected-content set.

    Before any draw, ``q_conds`` (prefixes -> target conditionals) is asked
    once, by ``score_rows``, for every prefix of every row and one past it.
    Rows are then scanned in index order, and row k tests its prefixes in
    one ascending loop over lengths tau+1 .. L, the full block last. A
    prefix already in the rejected set H is skipped with no uniform drawn;
    otherwise it is accepted with its probability, the sub-block rule below
    L and the full-block rule at L, advancing tau and the winning index, or
    inserted into H. An accepted full block finishes the call, with the
    extra token drawn from the target row past it. If no full block is
    accepted, the extra token comes from the block residual at the final
    accepted prefix. A row's sub-block tests are known when it starts and
    each draws the next uniform, so their uniforms are drawn first. Each
    test's scalars are formed once, by ``subblock_terms``: a uniform outside
    their ``subblock_band`` decides the test with no surplus row, and the
    rest hand the same scalars to one batched ``subblock_accept_prob`` call.
    Each test is charged one scan and one evaluation, decided or computed.
    At tau >= 1 the residual is the normalized surplus row of the test that
    accepted (f, tau), built then if the band decided it, so it costs no
    second pass. A ``trace`` list gets ("skip", k, prefix) or ("subblock" |
    "full", k, prefix, h, accepted) per prefix: h a float where computed or
    pinned by the band (lo == hi), else the (lo, min(hi, 1)) u was tested on.
    """
    q_rows = score_rows(drafts, q_conds)
    counters = Counters()
    K, L, tokens, cond = drafts.K, drafts.L, drafts.tokens, drafts.cond
    # joints[k][i]: the joint of row k's first i tokens, built when row k starts
    joints: list[list[PrefixJoint]] = []
    tau, f, kept = 0, 0, None
    H: set[tuple[int, ...]] = set()
    for k in range(K):
        row = tokens[k]
        joints.append(_row_joints(row, cond[k], q_rows[k]))
        # its sub-block tests, lengths tau+1 .. L-1 not in H, are fixed when it starts;
        # tests[i] = (u, lo, hi, surplus row), the band or lo = hi = h: u < hi decides
        tested = [i for i in range(tau + 1, L) if row[:i] not in H]
        counters.vocab_scans += len(tested)
        counters.h_partial_evals += len(tested)
        tests, need, terms = {}, [], []
        for i in tested:
            u, t = rng.uniform(), subblock_terms(*joints[k][i], K)
            lo, hi = subblock_band(t, K)
            tests[i] = (u, lo, hi, None)
            if lo <= u < hi:
                need.append(i)
                terms.append(t)
        if need:
            for i, h, surplus in zip(need, *subblock_accept_prob(
                terms, np.array([cond[k][i].mass for i in need]), np.array([q_rows[k][i].mass for i in need]), K,
            )):
                tests[i] = (tests[i][0], h, h, surplus)
        for i in range(tau + 1, L + 1):
            sub = row[:i]
            if sub in H:
                if trace is not None:
                    trace.append(("skip", k, sub))
                continue
            u, lo, hi, surplus = tests[i] if i < L else (
                rng.uniform(), h := full_block_accept_prob(joints[k][L], K), h, None)
            accepted = u < hi
            if trace is not None:
                trace.append(("subblock" if i < L else "full", k, sub, hi if lo == hi else (lo, min(1.0, hi)), accepted))
            if accepted:
                tau, f, kept = i, k, surplus
            else:
                H.add(sub)
        if tau == L:
            y = sample(q_rows[f][L], rng)
            break
    else:
        if tau and kept is None:  # (f, tau) was accepted by its band, without its surplus row
            kept = _surplus(cond[f][tau].mass[None], q_rows[f][tau].mass[None], [joint_ratio(*joints[f][tau])], K)[0]
        try:
            res = block_residual(
                joints[f][tau], cond[f][tau], q_rows[f][tau], K, counters, kept
            )
        except AllZeroMass:
            res = q_rows[f][tau]
            counters.warnings += 1
        y = sample(res, rng)
    t = tokens[f][:tau]
    horizon = max(L - tau - 1, 0)
    j = PrefixJoint()
    if horizon:
        j = extend_joint(joints[f][tau], y, cond[f][tau], q_rows[f][tau])
    outcome = VerifyOutcome(tau=tau, f=f, t=t, y=y, counters=counters)
    return outcome, ModifiedTarget(horizon, K, t + (y,), j)


def verify_gbv(
    drafts: DraftSet, q_conds, rng: RandomSource, trace=None
) -> tuple[VerifyOutcome, "ModifiedTarget"]:
    """Greedy block verification: ``verify_spectr_gbv`` over a single row."""
    if drafts.K != 1:
        raise ValueError("verify_gbv is a single-draft verifier")
    return verify_spectr_gbv(drafts, q_conds, rng, trace)


# ---------------------------------------------------------------------------
# the modified target between iterations


@dataclass
class ModifiedTarget:
    """Per-position target overrides for the first ``horizon`` positions of
    the next iteration, represented lazily.

    After a block step that accepted t (tau tokens of L) and drew y, the
    horizon is max(L - tau - 1, 0), ``prefix`` is t + (y,) and ``joint`` its
    ``PrefixJoint``, read only inside a positive horizon. Conditionals are
    computed on demand from the running joints of (prefix, new context)
    under both models relative to the previous iteration's context.
    ``harness.ModifiedChain`` routes the positions past the horizon.
    ``fallbacks`` holds the contexts whose surplus was empty, where the
    base conditional is returned and a warning counted.
    """

    horizon: int
    K: int
    prefix: tuple[int, ...]
    joint: PrefixJoint
    _joints: dict = field(default_factory=dict, repr=False, compare=False)
    fallbacks: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        self._joints[()] = self.joint

    def conditional(self, ctxs: list[tuple[int, ...]], q_base, p_base, counters: Counters) -> list[Distribution]:
        """Override conditionals at the (len(ctx)+1)-th position of the new
        window, for ``ctxs``: distinct contexts, each shorter than the horizon.

        q_base and p_base map a list of absolute contexts to their base
        target and draft conditionals. Each is asked once, for the same
        list: every context and the parents whose joints are not yet
        known. The overrides are one surplus block, normalized and validated
        as one block. A zero target joint has no override, so the base
        conditional is the answer and no pass is charged.
        """
        # every head of a context whose joint is not yet known
        joints, missing = self._joints, {}
        for ctx in ctxs:
            n = len(ctx)
            while ctx[:n] not in joints and ctx[:n] not in missing:
                missing[ctx[:n]] = None
                n -= 1
        keys = list(dict.fromkeys([*ctxs, *(ctx[:-1] for ctx in missing)]))
        q_rows = dict(zip(keys, q_base([self.prefix + c for c in keys])))
        p_rows = dict(zip(keys, p_base([self.prefix + c for c in keys])))
        # shortest first, so each joint extends a known one
        for ctx in sorted(missing, key=len):
            head = ctx[:-1]
            joints[ctx] = extend_joint(joints[head], ctx[-1], p_rows[head], q_rows[head])
        out = [q_rows[ctx] for ctx in ctxs]
        scan = [n for n, ctx in enumerate(ctxs) if joints[ctx].log_q != LOG_ZERO]
        if not scan:
            return out
        counters.vocab_scans += len(scan)
        w = _surplus(
            np.array([p_rows[ctxs[n]].mass for n in scan]), np.array([out[n].mass for n in scan]),
            [joint_ratio(*joints[ctxs[n]]) for n in scan], self.K,
        )
        s = w.sum(axis=1)
        if min(s.tolist()) <= 0.0:
            full = s > 0.0
            for n, keep in zip(scan, full.tolist()):
                if not keep:
                    self.fallbacks.add(ctxs[n])
                    counters.warnings += 1
            scan = [n for n, keep in zip(scan, full.tolist()) if keep]
            w, s = w[full], s[full]
        w /= s[:, None]
        for n, d in zip(scan, Distribution.rows(w) if scan else ()):
            out[n] = d
        return out

