import math

import numpy as np
import pytest

from speclab.models import MarkovModel, ModelPair
from speclab.probability import (
    LOG_ZERO,
    AllZeroMass,
    Distribution,
    PrefixJoint,
    extend_joint,
    normalize,
    sample,
)
from speclab.verifiers import (
    Counters,
    GbvChainState,
    IterationRecord,
    KseqScale,
    ModifiedTarget,
    NoRoot,
    VerifyOutcome,
    distribution_modification,
    gbv_accept_prob,
)


@pytest.fixture
def canonical_pair():
    """Order-0 pair p=(0.5, 0.5), q=(0.8, 0.2): the worked instance used
    throughout the suite."""
    draft = MarkovModel(2, 0, np.array([[0.5, 0.5]]))
    target = MarkovModel(2, 0, np.array([[0.8, 0.2]]))
    return ModelPair(draft, target)


@pytest.fixture
def matched_pair():
    """p = q on a 4-token vocabulary."""
    m = MarkovModel(4, 0, np.array([[0.4, 0.3, 0.2, 0.1]]))
    return ModelPair(m, m)


def eos_free(model: MarkovModel) -> MarkovModel:
    """The same model with the end-of-sequence column zeroed and rows renormalized,
    so decodes run to their cap."""
    table = model.table.copy()
    table[:, -1] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    return MarkovModel(model.vocab_size, model.order, table)


def residual_sd(p: Distribution, q: Distribution) -> Distribution:
    """Single-draft rejection residual norm(max(q - p, 0)): the reference the
    token-level verifier's residual is checked against.

    AllZeroMass can only occur when p >= q pointwise, in which case the
    rejection event that needs this residual has probability zero.
    """
    return normalize(np.maximum(q.mass - p.mass, 0.0))


def reference_kseq_rho(p: Distribution, q: Distribution, K: int, tol: float = 1e-12) -> KseqScale:
    """The K-SEQ scale by the same bisection as ``kseq_rho``, with every
    beta(rho) = sum_x min(p(x), q(x)/rho) summed elementwise over the
    vocabulary: the reference the sorted-table solve is checked against."""
    pm, qm = p.mass, q.mass

    def g(rho):
        b = float(np.minimum(pm, qm / rho).sum())
        return 1.0 - (1.0 - b) ** K - rho * b, b

    lo, hi = 1.0, float(K)
    glo, blo = g(lo)
    if abs(glo) <= tol:
        return KseqScale(lo, blo, 0)
    ghi, bhi = g(hi)
    if abs(ghi) <= tol:
        return KseqScale(hi, bhi, 0)
    if (glo > 0) == (ghi > 0):
        raise NoRoot(f"no sign change on [1, {K}]")
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
    return KseqScale(mid, g(mid)[1], iterations)


class _NuModifiedTarget(ModifiedTarget):
    """The single-draft modified target in its nu-weighted surplus form:
    norm(max(nu * q - p, 0)) with nu = q/p over the running joints."""

    def conditional(self, ctx, q_base, p_base, counters=None):
        qn = q_base(self.prefix + ctx)
        if len(ctx) + 1 > self.horizon:
            return qn
        lp, lq = self._joint(ctx, q_base, p_base)
        if lq == LOG_ZERO:
            return qn
        if counters is not None:
            counters.vocab_scans += 1
        pn = p_base(self.prefix + ctx)
        if lp == LOG_ZERO or lq - lp >= 700.0:
            w = qn.mass  # nu = inf
        else:
            w = np.maximum(math.exp(lq - lp) * qn.mass - pn.mass, 0.0)
        s = float(w.sum())
        if s <= 0.0:
            if counters is not None:
                counters.warnings += 1
            return qn
        return Distribution(w / s)


def reference_gbv_modification(record: IterationRecord) -> ModifiedTarget:
    """The next iteration's target after a single-draft block step, in the nu
    form: the reference the power-form modified target is checked against at
    K = 1."""
    base = distribution_modification(record)
    return _NuModifiedTarget(
        horizon=base.horizon, K=base.K, prefix=base.prefix,
        log_p_prefix=base.log_p_prefix, log_q_prefix=base.log_q_prefix,
    )


def reference_gbv(drafts, scores, rng):
    """Greedy block verification as its own loop over the single row.

    Every sub-block gets one accept draw with the nu-form rule
    ``gbv_accept_prob`` and tau is the longest accepted length; the extra
    token comes from norm(max(nu_tau * q - p, 0)), or from q with a warning
    when that has no mass. Returns the outcome and the nu-form modified
    target, as ``verify_gbv`` returns its own.
    """
    counters = Counters()
    row = drafts.tokens[0]
    L = drafts.L
    joints = [PrefixJoint.empty()]
    for i in range(L):
        joints.append(extend_joint(joints[i], row[i], drafts.cond[0][i], scores.cond[0][i]))
    tau = 0
    for i in range(1, L + 1):
        at_end = i == L
        a = gbv_accept_prob(
            joints[i],
            None if at_end else drafts.cond[0][i],
            None if at_end else scores.cond[0][i],
            GbvChainState(joints[i].ratio_q_over_p(), i),
            at_end,
            counters,
        )
        if rng.uniform() < a:
            tau = i
    t = row[:tau]
    if tau == L:
        y = sample(scores.cond[0][L], rng)
        record = IterationRecord(tau, t, y, 0.0, 0.0, 1, L)
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
        record = IterationRecord(tau, t, y, j.log_p, j.log_q, 1, L)
    outcome = VerifyOutcome(tau=tau, f=0, t=t, y=y, counters=counters)
    return outcome, reference_gbv_modification(record)


class FixedUniforms:
    """Stand-in random source replaying a scripted list of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)


def dist(*mass):
    return Distribution(np.array(mass, dtype=float))


@pytest.fixture
def d():
    return dist
