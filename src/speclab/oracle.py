"""Ground-truth computations at tiny scale.

The event tree integrates the shipped block-verification code exactly. A
row's tests are fixed when it starts, each test's acceptance depends only
on its own sub-block, and the rejected set H only grows, so each trie node
is tested at most once: a rejected node is skipped after that, and an
accepted one lifts tau past its level. The scan's law is therefore that of
one frozen coin per node, C_u ~ Bernoulli(h(u)), drawn independently of
the i.i.d. draft rows: tau is the deepest level holding a drafted node with
C = 1 (0 if none), and t is that node, from the earliest row reaching it.
A duplicated row reads the same coins again. ``_enumerate_leaves`` sums
this law over the row counts through each node, bottom up the trie, in
exponential generating functions, for a batch of instances of equal
(V, L, K) at once: a second iteration enumerates every (first-iteration
leaf, extra token) instance in one call. The coins' h are read from the
level arrays (``_acceptances``): one ``subblock_accept_prob`` call per batch
covers every block below level L that a sub-block test or the output law
reads, and one ``full_block_accept_probs`` call, the elementwise form of
``full_block_accept_prob``, every drafted full block. The output law then
completes every leaf in one forward pass over the trie levels
(``_output_law``). In block verification the residual after a block is the
next iteration's modified target (Sun et al. 2024, arXiv 2403.10444), so
every extra-token and modified-target row below level L is the normalized
surplus at its block's joint ratio, normalized from the rows that same call
returns with the h. Each instance's tables are built once, each only as
deep as its last reader: the draft's to level L, the target's to the depth
of the output law that reads it. The whole law lives in one layout: a list
of one array per trie level, its blocks in lexicographic order, so block
u's children are the V entries from V * index(u) on and its n-token
extensions are one run of V^n. The joints (linear and log-space), the
conditional rows after each block, the leaf masses, the output law and the
masses it is checked against are all such arrays, and every check is a
reshape and a sum; a report builds its block-keyed tables from them on
first access. The log joints are the verifier's bit for bit and the
elementwise full-block form is the scalar rule's, so each h is the one
decoding computes. The acceptance rules and the chains
(``harness.RawChain``, ``harness.ModifiedChain``) are the ones decoding
runs; the output law's rows come from the same surplus kernel as
``ModifiedTarget``'s, and ``test_extra_token_is_the_record_row`` pins each
row and fallback to that record bit for bit. The recursion over the scan
and the closed forms the tree is checked against are written here, apart
from the verifiers, so agreement between the two is evidence rather than
tautology.

The reports check three closed forms against the enumerated tree:

* the block-level acceptance-mass identity per sub-block, in each of two
  decoding iterations; the second iteration's claimed masses read the draft
  joint straight from the model at the absolute context,
* the expected-acceptance-length bound (equality claimed for the verifier),
* preservation of the target chain by the full output (block, extra token,
  modified-target completion), over one or two decoding iterations.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .harness import ModifiedChain, RawChain
from .models import ModelPair, block_index
from .probability import LOG_ZERO, PrefixJoint
from .verifiers import ModifiedTarget, full_block_accept_probs, subblock_accept_prob

MAX_ENUM = 1_000_000
CHECK_TOL = 1e-9

# the battery grid, (V, L, K, iterations): cell i runs on
# generate_pair(V, 1, BATTERY_SEED + i, 1.0, BATTERY_SIMILARITY)
BATTERY_CELLS = tuple(
    (V, L, K, 2 if (V, L, K) == (2, 2, 2) else 1) for V in (2, 3) for L in (1, 2, 3) for K in (1, 2, 3)
)
BATTERY_SEED = 1000
BATTERY_SIMILARITY = 0.5


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-enumeration guard."""


def _accept_mass(p: np.ndarray, q: np.ndarray, K: int) -> np.ndarray:
    """q * (1 - (1 - min(p/q, 1))^K): the claimed acceptance masses of blocks
    with draft joints p and target joints q, 0 where q is."""
    s = np.divide(np.minimum(p, q), q, out=np.ones_like(q), where=q > 0.0)
    return np.where(q > 0.0, q * (1.0 - (1.0 - s) ** K), 0.0)


def _model_joint(model, context: tuple[int, ...], blk: tuple[int, ...]) -> float:
    """Joint of ``blk`` after the absolute ``context``, read from the model
    itself rather than through a chain."""
    p = 1.0
    for j, tok in enumerate(blk):
        p *= model.conditional(context + blk[:j]).mass.item(tok)
    return p


@dataclass
class _Instance:
    """One (draft chain, target chain, L, K) at an absolute ``context``,
    with its target table built to ``depth`` >= L.

    Its tables are lists of one array per trie level i, in the order of
    ``_blocks(V, i)``: the joints ``p`` at levels 0 ... L and ``q`` at
    0 ... depth feed the recursion, the closed forms and the target
    marginals; the log joints ``log_p``, ``log_q`` at 0 ... L and the
    conditional rows after each block, ``p_rows`` at 0 ... L - 1 and
    ``q_rows`` at 0 ... depth - 1, feed the acceptance rules and the output
    law. The joints and rows are ``_joints``'. A level's log joints are its
    parent level repeated V times plus the ``math.log`` of each factor, -inf
    absorbing: ``extend_joint``'s additions, so each equals the verifier's
    bit for bit.
    """

    pchain: RawChain
    qchain: object
    context: tuple[int, ...]
    V: int
    L: int
    K: int
    depth: int

    def __post_init__(self):
        V, L = self.V, self.L
        self.p, self.p_rows = _joints(self.pchain, V, L)
        self.q, self.q_rows = _joints(self.qchain, V, self.depth)
        self.log_p, self.log_q = [np.zeros(1)], [np.zeros(1)]
        for logs, rows in ((self.log_p, self.p_rows), (self.log_q, self.q_rows[:L])):
            for r in rows:
                factors = np.array([math.log(x) if x > 0.0 else LOG_ZERO for x in r.ravel().tolist()])
                logs.append(np.repeat(logs[-1], V) + factors)

    def _joint(self, blk: tuple[int, ...]) -> PrefixJoint:
        """The log joints of ``blk``, read from its level's table."""
        i, n = len(blk), block_index(blk, self.V)
        return PrefixJoint(self.log_p[i].item(n), self.log_q[i].item(n))

    def modified(self, t: tuple[int, ...], y: int) -> ModifiedChain:
        """The target chain of the iteration after leaf (len(t), t) and extra token y."""
        prefix = t + (y,)
        horizon = max(self.L - len(t) - 1, 0)
        mod = ModifiedTarget(horizon, self.K, prefix, self._joint(prefix) if horizon else PrefixJoint())
        return ModifiedChain(self.qchain, self.pchain, mod)


@functools.cache
def _blocks(V: int, i: int) -> tuple:
    """Every block of length i, in lexicographic order."""
    return tuple(itertools.product(range(V), repeat=i))


@functools.cache
def _heads(V: int, depth: int) -> tuple:
    """Every block shorter than ``depth``, level by level, each level in
    lexicographic order."""
    return tuple(u for i in range(depth) for u in _blocks(V, i))


def _joints(chain, V: int, depth: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Joints under ``chain`` of every block at levels 0 ... depth, and its
    conditional rows at each level 0 ... depth - 1, in lexicographic order.
    A joint is its parent's times the chain's conditional; the chain answers
    every context shorter than ``depth`` in one call."""
    rows = np.array([d.mass for d in chain.conditionals(_heads(V, depth))]).reshape(-1, V)
    joints, level_rows, start = [np.ones(1)], [], 0
    for _ in range(depth):
        level_rows.append(rows[start:start + len(joints[-1])])
        start += len(joints[-1])
        joints.append((joints[-1][:, None] * level_rows[-1]).ravel())
    return joints, level_rows


def _acceptances(insts: list[_Instance]) -> tuple[list[np.ndarray | None], list[tuple]]:
    """h at every node of a batch of instances of equal (V, L, K), and each
    instance's output-law rows below level L with their fallback mask.

    h is one array per level 1 ... L, the instances' nodes end to end (None
    at the root, which is never tested), 0 at undrafted nodes: one
    ``subblock_accept_prob`` call covers every block below level L that a
    drafted proper prefix's test (p > 0) or the output law (log q > -inf)
    reads, and one ``full_block_accept_probs`` call every drafted full block.
    A row, in level-array order, is the surplus q (1 - min(r p / q, 1))^K at
    the block's joint ratio r, normalized as ``ModifiedTarget.conditional``
    does, or the target row where the target joint is 0 or the surplus is
    empty; the mask marks the latter, the fallbacks. Every row is computed
    as for its block alone (``_surplus``), so batching moves no bit."""
    V, L, K = insts[0].V, insts[0].L, insts[0].K
    p, lp, lq, p_rows, rows = (
        np.concatenate([a for inst in insts for a in getattr(inst, f)[:L]])
        for f in ("p", "log_p", "log_q", "p_rows", "q_rows")
    )
    drafted, scan = p > 0.0, lq != LOG_ZERO
    tested = np.flatnonzero(drafted | scan)
    hs, w = subblock_accept_prob(lp[tested].tolist(), lq[tested].tolist(), p_rows[tested], rows[tested], K)
    h = np.zeros(len(p))
    h[tested] = hs
    s = w.sum(axis=1)
    full = scan[tested] & (s > 0.0)
    rows[tested[full]] = w[full] / s[full, None]
    fallback = scan  # the nonzero-joint blocks left with the target row
    fallback[tested[full]] = False
    h = np.split(np.where(drafted, h, 0.0).reshape(len(insts), -1), np.cumsum([V**i for i in range(L - 1)]), axis=1)
    p, lp, lq = (np.concatenate([getattr(inst, f)[L] for inst in insts]) for f in ("p", "log_p", "log_q"))
    h = [None] + [level.ravel() for level in h[1:]] + [np.where(p > 0.0, full_block_accept_probs(lp, lq, K), 0.0)]
    return h, list(zip(np.split(rows, len(insts)), np.split(fallback, len(insts))))


@functools.cache
def _series(n: int, dims: int) -> tuple:
    """Power series in ``dims`` variables cut at total degree n - 1, as
    vectors of coefficients over the exponent tuples in lexicographic order,
    the constant term first. Returns the exponents, one row per variable,
    and the index arrays i, j and runs of the product: coefficient r of the
    product of x and y is the sum of x[i[k]] y[j[k]] over the run of k that
    starts at runs[r]."""
    exps = [e for e in itertools.product(range(n), repeat=dims) if sum(e) < n]
    index = {e: r for r, e in enumerate(exps)}
    r, i, j = np.array(sorted(
        (index[tuple(map(sum, zip(s, t)))], i, j)
        for i, s in enumerate(exps) for j, t in enumerate(exps) if sum(s) + sum(t) < n
    )).T
    tables = np.array(exps).T, i, j, np.flatnonzero(np.diff(r, prepend=-1))
    for t in tables:
        t.setflags(write=False)  # shared by every caller through the cache
    return tables


def _mul(x: np.ndarray, y: np.ndarray, series: tuple) -> np.ndarray:
    """Products of two batches of series, one per entry of the leading axes."""
    _exps, i, j, runs = series
    return np.add.reduceat(x[..., i] * y[..., j], runs, axis=-1)


def _others(x: np.ndarray, series: tuple) -> np.ndarray:
    """Entry (n, u) is the product of every x[n, v] but v = u: an exclusive
    prefix scan times an exclusive suffix scan along axis 1, each by
    doubling, so that nothing is divided out."""

    def prefix(x):
        x = x.copy()
        d = 1
        while d < x.shape[1]:
            x[:, d:] = _mul(x[:, :-d], x[:, d:], series)
            d *= 2
        one = np.zeros_like(x[:, :1])
        one[:, 0, 0] = 1.0
        return np.concatenate([one, x[:, :-1]], axis=1)

    return _mul(prefix(x), prefix(x[:, ::-1])[:, ::-1], series)


def _enumerate_leaves(insts: list[_Instance]) -> list[tuple[list[np.ndarray], tuple]]:
    """Leaf masses of the scan, from its frozen coins (module docstring), for
    each of a batch of instances of equal (V, L, K): one array per level
    0 ... L in lexicographic order, entry u of level i the mass of leaf (i, u),
    paired with the instance's output-law rows from ``_acceptances``.

    Write p for the draft joint of a node, h for its test's acceptance and
    g_u(m) = p(u)^m G_u(m) / m!, where G_u(m) is the probability that every
    drafted node below u has coin 0 given that m of the K rows pass through
    u. The rows through u split over its children multinomially, so bottom
    up, with g_b(m) = p(b)^m / m! at level L,

        g_u = prod_x f_{ux},  f_v(m) = (1 - h(v))^[m >= 1] g_v(m),

    as power series cut at degree K, and the stay leaf (0, ()) has mass
    K! g_root(K). Leaf (i, u) splits the rows into the A rows before the
    winner, whose level-i nodes have coin 0, the winner, through u with
    C_u = 1, and the C = K - 1 - A rows after it:

        Phi_v(y, z) = sum_{a, c} (a + c)! / (a! c!) (1 - h(v))^[a >= 1] g_v(a + c) y^a z^c
        W_u(z) = sum_c (1 + c) g_u(1 + c) z^c
        mass(i, u) = h(u) sum_{A + C = K - 1} A! C! [y^A z^C] (prod_{v != u} Phi_v) W_u

    over the level-i nodes v, in lexicographic order. Only sums of products
    are formed, so a leaf that a zero factor removes has mass exactly 0.

    The instances' level arrays are concatenated; each instance's V^i rows
    are contiguous, so grouping rows by V still groups children by parent.
    Every series is formed row by row, so each instance gets its leaves alone.
    """
    V, L, K = insts[0].V, insts[0].L, insts[0].K
    # each level multiplies up to V^L bivariate series cut at total degree
    # K - 1, each product over C(K + 3, 4) pairs of coefficients
    work = V**L * math.comb(K + 3, 4)
    if work > MAX_ENUM:
        raise TooLarge(f"V^L * C(K + 3, 4) = {work} exceeds {MAX_ENUM}")
    n = len(insts)
    h, rows = _acceptances(insts)
    p_leaf = np.concatenate([inst.p[L] for inst in insts])
    fact = np.array([math.factorial(m) for m in range(K + 1)], float)
    one_var = _series(K + 1, 1)
    m = np.arange(K + 1)
    g = [None] * L + [p_leaf[:, None] ** m / fact]
    for i in range(L, 0, -1):
        f = (np.where(m > 0, 1.0 - h[i][:, None], 1.0) * g[i]).reshape(-1, V, K + 1)
        g[i - 1] = f[:, 0]
        for x in range(1, V):
            g[i - 1] = _mul(g[i - 1], f[:, x], one_var)
    masses = [fact[K] * g[0][:, K:]]
    two_var = _series(K, 2)
    a, c = two_var[0]
    deg, lead = a + c, a == 0
    binom = fact[deg] / (fact[a] * fact[c])
    ends = np.where(deg == K - 1, fact[a] * fact[c], 0.0)
    for i in range(1, L + 1):
        phi = (np.where(lead, 1.0, 1.0 - h[i][:, None]) * (binom * g[i][:, deg])).reshape(n, V**i, -1)
        win = np.where(lead, (c + 1) * g[i][:, c + 1], 0.0).reshape(n, V**i, -1)
        masses.append(h[i].reshape(n, -1) * (_mul(_others(phi, two_var), win, two_var) @ ends))
    return [(list(levels), r) for levels, r in zip(zip(*masses), rows)]


def _output_law(inst: _Instance, leaves: list[np.ndarray], rows: tuple, depth: int) -> tuple[np.ndarray, float, list]:
    """Exact law of the completed output prefix at ``depth`` >= L tokens, in
    lexicographic order, by one forward pass over the trie levels.

    Leaf (tau, t) is followed by its extra token, then by its branch's
    modified target chain. Every such row below level L is a row of one
    ``ModifiedTarget`` at the root (horizon L, ``PrefixJoint()``): a
    branch's override at block b is live iff len(b) < L and is built from
    b's joints, and the residual after a leaf at t normalizes the same
    surplus at t's ratio, falling back exactly where the record does; a
    full block's extra token is the target row. ``rows`` are the rows below
    level L and their fallback mask, as ``_acceptances`` returns them, and
    the table's target rows follow from level L on. So each leaf joins the
    flow at its level, F_i += leaves_i for i <= L, then
    F_{i+1} = F_i * rows_i ravelled, and the law is F_depth.

    Returns the law, the expected number of raw-conditional fallback draws
    per output and the rows, one (V^i, V) array per level the table holds
    rows for. The count is not a mass: a block b whose row falls back is
    charged F(b), once per path through b, be its draw a leaf's extra token
    or a completion.
    """
    V, L = inst.V, inst.L
    below, fallback = rows
    rows = np.split(below, np.cumsum([V**i for i in range(L - 1)])) + inst.q_rows[L:]
    flow = [leaves[0]]
    for i in range(depth):
        flow.append((flow[i][:, None] * rows[i]).ravel() + (leaves[i + 1] if i < L else 0.0))
    fallback_mass = sum(np.concatenate(flow[:L])[fallback].tolist(), 0.0)
    return flow[depth], fallback_mass, rows


@dataclass
class ExactReport:
    """Everything the exact enumeration learned about one instance.

    ``fallback_mass`` is the expected number of draws per output that fell
    back to the raw target conditional, each counted once (an extra token
    and each modified-target position count apart), not the probability of
    a fallback. The first iteration's level arrays are kept (leaf masses at
    levels 0 ... L, accepted and claimed masses at 1 ... L), and the tables
    keyed by block, ``leaves`` and ``lemma_masses``, built on first access.
    """

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
    leaf_levels: list = field(repr=False, compare=False)
    accepted: list = field(repr=False, compare=False)
    claimed: list = field(repr=False, compare=False)

    @functools.cached_property
    def leaves(self) -> dict:
        """Leaf (tau, t) to its mass, positive ones only, in level-array order."""
        return {
            (tau, u): m for tau, level in enumerate(self.leaf_levels)
            for u, m in zip(_blocks(self.vocab_size, tau), level.tolist()) if m > 0.0
        }

    @functools.cached_property
    def lemma_masses(self) -> dict:
        """Sub-block u to its (accepted, claimed) acceptance masses."""
        return {
            u: masses for i, (got, want) in enumerate(zip(self.accepted, self.claimed), 1)
            for u, masses in zip(_blocks(self.vocab_size, i), zip(got.tolist(), want.tolist()))
        }

    def to_jsonable(self) -> dict:
        """The scalar fields, in declaration order; the tables are left out."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}

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


def _instance(pair: ModelPair, L: int, K: int, context: tuple[int, ...] = (), depth: int | None = None) -> _Instance:
    """The instance at ``context`` with its table built to ``depth`` (L by
    default), refused before any table is built when its deepest level
    would hold more than ``MAX_ENUM`` blocks."""
    for name, value in (("L", L), ("K", K)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    depth = L if depth is None else depth
    if pair.vocab_size**depth > MAX_ENUM:
        raise TooLarge(f"V^{depth} = {pair.vocab_size ** depth} exceeds {MAX_ENUM}")
    context = tuple(context)
    return _Instance(
        RawChain(pair.draft, context), RawChain(pair.target, context), context, pair.vocab_size, L, K, depth
    )


def bound_K(pair: ModelPair, L: int, K: int) -> float:
    """Sum of claimed acceptance masses over all sub-blocks up to length L."""
    inst = _instance(pair, L, K)
    return sum(float(_accept_mass(p, q, K).sum()) for p, q in zip(inst.p[1:], inst.q[1:]))


def exact_expected_tau(pair: ModelPair, L: int, K: int) -> float:
    """E[tau] integrated exactly over draft tuples and uniform draws."""
    [(leaves, _rows)] = _enumerate_leaves([_instance(pair, L, K)])
    return sum(tau * float(level.sum()) for tau, level in enumerate(leaves))


def _accepted(leaves: list[np.ndarray]) -> list[np.ndarray]:
    """Accepted-prefix masses from the tree, one array per level 1 ... L: a
    block's is its leaf's plus its children's, bottom up."""
    acc = [leaves[-1]]
    for level in leaves[-2:0:-1]:
        acc.insert(0, level + acc[0].reshape(len(level), -1).sum(1))
    return acc


def _max_dev(got: list[np.ndarray], want: list[np.ndarray]) -> float:
    return max(float(np.abs(a - b).max()) for a, b in zip(got, want))


def _marginal_devs(inst: _Instance, out: np.ndarray, depth: int) -> tuple[float, float]:
    """Prefix marginals of the output law against the target chain: the max
    deviation and the max error of a level's total."""
    targets = inst.q[1:depth + 1]
    marg = [out.reshape(len(q), -1).sum(1) for q in targets]
    return _max_dev(marg, targets), max(abs(float(m.sum()) - 1.0) for m in marg)


def exact_output_distribution(
    pair: ModelPair, L: int, K: int, iterations: int = 1, context: tuple[int, ...] = ()
) -> ExactReport:
    """Full exact report for one instance; iterations=2 also threads the
    modified target through a second drafting/verification round."""
    if iterations not in (1, 2):
        raise ValueError("iterations must be 1 or 2")
    t0 = time.perf_counter()
    # the second iteration's check reads depth 2(L + 1)
    depth = 2 * (L + 1) if iterations == 2 else L
    if iterations == 2 and pair.vocab_size**depth > MAX_ENUM:
        raise TooLarge("two-iteration enumeration exceeds the guard")
    inst = _instance(pair, L, K, context, depth)
    [(leaves, rows)] = _enumerate_leaves([inst])
    claimed = [_accept_mass(p, q, K) for p, q in zip(inst.p[1:], inst.q[1:L + 1])]
    accepted = _accepted(leaves)
    out, fallback_mass, rows = _output_law(inst, leaves, rows, L)
    max_dev, sums_err = _marginal_devs(inst, out, L)
    two_iter_dev = lemma_dev2 = None
    if iterations == 2:
        two_iter_dev, fb2, lemma_dev2 = _two_iteration_dev(pair, inst, leaves, rows)
        fallback_mass += fb2
    # the positive leaf masses in the order of the report's ``leaves`` table
    positive = [level[level > 0.0].tolist() for level in leaves]
    return ExactReport(
        vocab_size=pair.vocab_size, L=L, K=K, iterations=iterations,
        expected_tau=sum(tau * m for tau, masses in enumerate(positive) for m in masses),
        bound=sum(float(c.sum()) for c in claimed),
        max_marginal_dev=max_dev, lemma_max_dev=_max_dev(accepted, claimed),
        max_marginal_dev_two_iter=two_iter_dev, lemma_max_dev_two_iter=lemma_dev2,
        marginal_sums_max_err=sums_err,
        leaf_states=sum(map(len, positive)),
        tuples=int((inst.p[L] > 0.0).sum()) ** K,
        max_leafsum_err=abs(sum(itertools.chain.from_iterable(positive)) - 1.0),
        fallback_mass=fallback_mass,
        runtime_s=time.perf_counter() - t0,
        leaf_levels=leaves, accepted=accepted, claimed=claimed,
    )


def _two_iteration_dev(pair: ModelPair, inst1: _Instance, leaves1: list, rows1: list) -> tuple[float, float, float]:
    """Second decoding iteration after every first-iteration leaf.

    Returns the max deviation of the completed output from the target chain
    at depth 2(L+1), the fallback mass, and the max deviation of the second
    iteration's conditional lemma tables. Their claimed masses read the
    draft joint straight from ``pair.draft`` at the absolute context, so a
    draft chain built at the wrong context shows there.
    """
    V, L, K = inst1.V, inst1.L, inst1.K
    depth = 2 * (L + 1)
    # every (leaf, extra token) instance is built first, then all are
    # enumerated in one call; the first iteration's own pass counted its fallbacks
    seconds = []
    for tau1, level in enumerate(leaves1):
        for j in np.flatnonzero(level > 0.0).tolist():
            m1, t1 = float(level[j]), _blocks(V, tau1)[j]
            for y1, py1 in enumerate(rows1[tau1][j].tolist()):
                if py1 > 0.0:
                    context2 = inst1.context + t1 + (y1,)
                    # one table per instance, at its output law's depth
                    inst2 = _Instance(
                        RawChain(pair.draft, context2), inst1.modified(t1, y1), context2, V, L, K, depth - tau1 - 1
                    )
                    seconds.append((j * V + y1, m1 * py1, inst2))
    out = np.zeros(V**depth)
    fallback = lemma_dev = 0.0
    for (index1, w, inst2), (leaves2, rows2) in zip(seconds, _enumerate_leaves([s[-1] for s in seconds])):
        claimed = []
        for i in range(1, L + 1):
            p2 = [_model_joint(pair.draft, inst2.context, blk) for blk in _blocks(V, i)]
            claimed.append(_accept_mass(np.array(p2), inst2.q[i], K))
        lemma_dev = max(lemma_dev, _max_dev(_accepted(leaves2), claimed))
        out2, fb2, _rows2 = _output_law(inst2, leaves2, rows2, inst2.depth)
        fallback += w * fb2
        out[index1 * len(out2):(index1 + 1) * len(out2)] += w * out2
    max_dev = float(np.abs(out - inst1.q[depth]).max())
    return max_dev, fallback, lemma_dev


def gbv_exact_report(pair: ModelPair, L: int) -> ExactReport:
    """Exact report for single-draft block verification: the K = 1 tree."""
    return exact_output_distribution(pair, L, 1)
