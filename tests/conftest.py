import math
from bisect import bisect_left

import numpy as np
import pytest

from speclab import oracle
from speclab.models import MarkovModel, ModelPair, block_index
from speclab.probability import (
    LOG_ZERO,
    AllZeroMass,
    Distribution,
    PrefixJoint,
    extend_joint,
    joint_ratio,
    normalize,
    sample,
)
from speclab.verifiers import (
    Counters,
    KseqScale,
    ModifiedTarget,
    NoRoot,
    VerifyOutcome,
    _beta_table,
    block_residual,
    gbv_accept_prob,
    score_rows,
    subblock_accept_prob,
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


def tv_distance(a: Distribution, b: Distribution) -> float:
    return 0.5 * float(np.abs(a.mass - b.mass).sum())


def gbv_block_sum(pair: ModelPair, L: int) -> float:
    """Sum over sub-blocks of min(draft joint, target joint); the K = 1 bound."""
    inst = oracle._instance(pair, L, 1)
    return sum(float(np.minimum(p, q).sum()) for p, q in zip(inst.p[1:], inst.q[1:]))


def bound_properties(pair: ModelPair, L: int, K_list) -> dict:
    """Bound values along K_list with monotonicity and convergence checks."""
    values = [oracle.bound_K(pair, L, K) for K in K_list]
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


def reference_extra_token(inst, tau, t):
    """Law of the token after leaf (tau, t), and whether it fell back to the
    target row, by ``verify_spectr_gbv``'s path: past tau = 0,
    ``block_residual`` normalizes the surplus row that the accepted test at
    t formed (``subblock_accept_prob``), at tau = 0 it makes a fresh pass,
    and an empty residual gives the target row. A full block's extra token
    is the target row. The oracle reads the root modified target's row
    instead; this is what it is checked against."""
    q = inst.qchain.conditional(t)
    if tau == inst.L:
        return q.mass, False
    joint, p = inst._joint(t), inst.pchain.conditional(t)
    surplus = subblock_rule([joint], [p], [q], inst.K)[1][0] if tau else None
    try:
        return block_residual(joint, p, q, inst.K, surplus=surplus).mass, False
    except AllZeroMass:
        return q.mass, True


def reference_output_law(inst, leaves, depth):
    """The output law and fallback count of ``oracle._output_law`` by a walk
    over every (leaf, extra token) branch: each extra token is
    ``reference_extra_token``'s, and each branch builds its own modified
    target chain with ``inst.modified`` and completes its output with
    ``oracle._joints``, one chain call per branch. A fallback is charged the
    branch's mass times the joint of its context under the branch's chain.
    Returns the law, the count and the part of the count charged at extra
    tokens. The reference the oracle's forward pass is checked against."""
    V = inst.V
    out = np.zeros(V**depth)
    fallback_mass = extra_fallback = 0.0
    for tau, level in enumerate(leaves):
        if tau == depth:
            out += level
            continue
        need = depth - tau - 1
        for j in np.flatnonzero(level > 0.0).tolist():
            mass, t = float(level[j]), oracle._blocks(V, tau)[j]
            ydist, fell_back = reference_extra_token(inst, tau, t)
            extra_fallback += mass if fell_back else 0.0
            if need == 0:
                out[j * V:(j + 1) * V] += mass * ydist
                continue
            for y, py in enumerate(ydist.tolist()):
                if py <= 0.0:
                    continue
                m0 = mass * py
                mod = inst.modified(t, y)
                joints, _rows = oracle._joints(mod, V, need)
                start = (j * V + y) * V**need
                out[start:start + V**need] += m0 * joints[need]
                fallback_mass += m0 * sum(joints[len(ctx)].item(block_index(ctx, V)) for ctx in mod.record.fallbacks)
    return out, fallback_mass + extra_fallback, extra_fallback


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


def beta_table(p: np.ndarray, q: np.ndarray):
    """beta(rho) = sum_x min(p(x), q(x)/rho) for any rho > 0, by a bisect over
    the whole of ``verifiers._beta_table``'s sorted ratios: the lookup
    ``kseq_rho`` makes, without its bracket on [1, K]."""
    ratios, below_q, above_p = _beta_table(p, q)

    def beta(rho: float) -> float:
        i = bisect_left(ratios, rho)
        return below_q[i] / rho + above_p[i]

    return beta


def ratio_instances(V: int, count: int = 40):
    """Random (p, q) pairs at vocabulary V cycling through no zeros, a zero in
    p, a zero in q, a zero in both at one index, all three at once (V >= 4),
    and p = q, where every ratio is 1."""
    gen = np.random.Generator(np.random.PCG64(V))
    modes = ("none", "p", "q", "both", "all", "equal")
    out = []
    for n in range(count):
        mode = modes[n % len(modes)]
        if mode == "all" and V < 4:
            continue
        conc = (0.1, 1.0)[n // len(modes) % 2]
        p, q = gen.dirichlet(np.full(V, conc)), gen.dirichlet(np.full(V, conc))
        i, j, k = gen.permutation(V)[:3] if V >= 3 else (0, 1, 1)
        if mode in ("p", "all"):
            p[i] = 0.0
        if mode in ("q", "all"):
            q[j] = 0.0
        if mode in ("both", "all"):
            p[k] = q[k] = 0.0
        if mode == "equal":
            q = p
        out.append((Distribution(p / p.sum()), Distribution(q / q.sum())))
    return out


def batched(cond):
    """A one-context lookup as the list-in, list-out query that chains answer."""
    return lambda ctxs: [cond(ctx) for ctx in ctxs]


def prefix_table(drafts, cond):
    """A hand-built target table as the prefix -> conditional map that
    ``verify_kseq`` asks: cond[k][i] answers row k's first i tokens. A prefix
    given two different rows is refused, since the verifier asks each prefix
    once and its memos key on the row it gets."""
    table = {}
    for row, conds in zip(drafts.tokens, cond):
        for i, d in enumerate(conds):
            if table.setdefault(row[:i], d) is not d:
                raise ValueError(f"prefix {row[:i]} is given two different rows")
    return table.__getitem__


def override(mod, ctx, q_cond, p_cond, counters=None):
    """``mod``'s conditional at one context, asked as a batch of one."""
    return mod.conditional([ctx], batched(q_cond), batched(p_cond), counters)[0]


def subblock_rule(joints, p_next, q_next, K, counters=None):
    """``subblock_accept_prob`` of sub-blocks given as ``PrefixJoint``s and
    next-position ``Distribution``s, the inputs ``verify_spectr_gbv`` turns
    into log joints and row blocks."""
    return subblock_accept_prob(
        [j.log_p for j in joints], [j.log_q for j in joints],
        np.array([d.mass for d in p_next]), np.array([d.mass for d in q_next]), K, counters,
    )


def subblock_h(joint, p_next, q_next, K, counters=None):
    """The sub-block acceptance probability of one sub-block, asked as a batch of one."""
    return subblock_rule([joint], [p_next], [q_next], K, counters)[0][0]


class NuModifiedTarget(ModifiedTarget):
    """The next iteration's target after a single-draft block step, in its
    nu-weighted surplus form: norm(max(nu * q - p, 0)) with nu = q/p over the
    running joints, one context at a time, each joint chained with
    ``extend_joint`` from the prefix's. The reference the power-form
    modified target is checked against at K = 1."""

    def conditional(self, ctxs, q_base, p_base, counters=None):
        return [self._nu_override(ctx, q_base, p_base, counters) for ctx in ctxs]

    def _nu_override(self, ctx, q_base, p_base, counters):
        heads = [ctx[:n] for n in range(len(ctx) + 1)]
        q_rows = dict(zip(heads, q_base([self.prefix + c for c in heads])))
        p_rows = dict(zip(heads, p_base([self.prefix + c for c in heads])))
        qn = q_rows[ctx]
        if len(ctx) + 1 > self.horizon:
            return qn
        j = self.joint
        for n, tok in enumerate(ctx):
            j = extend_joint(j, tok, p_rows[ctx[:n]], q_rows[ctx[:n]])
        lp, lq = j.log_p, j.log_q
        if lq == LOG_ZERO:
            return qn
        if counters is not None:
            counters.vocab_scans += 1
        pn = p_rows[ctx]
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


def reference_gbv(drafts, q_conds, rng):
    """Greedy block verification as its own loop over the single row.

    Every sub-block gets one accept draw with the nu-form rule
    ``gbv_accept_prob`` and tau is the longest accepted length; the extra
    token comes from norm(max(nu_tau * q - p, 0)), or from q with a warning
    when that has no mass. Past tau = 0 a residual with mass is charged no
    scan, since the test at tau made its pass. Returns the outcome and the
    nu-form modified target, as ``verify_gbv`` returns its own. The target
    rows come from one ``score_rows`` read of ``q_conds``, as the verifier's do.
    """
    counters = Counters()
    row = drafts.tokens[0]
    q_row = score_rows(drafts, q_conds)[0]
    L = drafts.L
    joints = [PrefixJoint()]
    for i in range(L):
        joints.append(extend_joint(joints[i], row[i], drafts.cond[0][i], q_row[i]))
    tau = 0
    for i in range(1, L + 1):
        at_end = i == L
        a = gbv_accept_prob(
            joint_ratio(joints[i].log_q, joints[i].log_p),
            None if at_end else drafts.cond[0][i],
            None if at_end else q_row[i],
            at_end,
            counters,
        )
        if rng.uniform() < a:
            tau = i
    t = row[:tau]
    if tau == L:
        y = sample(q_row[L], rng)
    else:
        nu_tau = joint_ratio(joints[tau].log_q, joints[tau].log_p)
        w = np.maximum(nu_tau * q_row[tau].mass - drafts.cond[0][tau].mass, 0.0)
        try:
            res = normalize(w)
            # at tau >= 1, w is the positive part of the d = nu * q - p that
            # the accepted test at tau already formed: no pass of its own
            fresh = tau == 0
        except AllZeroMass:
            res = q_row[tau]
            counters.warnings += 1
            fresh = True
        if fresh:
            counters.vocab_scans += 1
            counters.residual_evals += 1
        y = sample(res, rng)
    horizon = max(L - tau - 1, 0)
    j = PrefixJoint()
    if horizon:
        j = extend_joint(joints[tau], y, drafts.cond[0][tau], q_row[tau])
    outcome = VerifyOutcome(tau=tau, f=0, t=t, y=y, counters=counters)
    return outcome, NuModifiedTarget(horizon, 1, t + (y,), j)


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
