import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FixedUniforms, residual_sd, tv_distance
from speclab.probability import (
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    derive_seed,
    extend_joint,
    joint_ratio,
    normalize,
    sample,
)


def dist(*mass):
    return Distribution(np.array(mass, dtype=float))


mass_vectors = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=2, max_size=6
).filter(lambda v: sum(v) > 1e-6)


def _searchsorted_sample(d, rng):
    """The draw as numpy's binary search over the cached CDF gives it, with the
    last-positive fallback past the last step."""
    u = rng.uniform()
    i = int(d.cdf.searchsorted(u, side="right"))
    return i if i < d.cdf.size else int(np.flatnonzero(d.mass)[-1])


def _sample_row(V, seed, kind):
    """A dirichlet, sparse or peaked row with zero-mass runs at both ends."""
    gen = np.random.Generator(np.random.PCG64(seed))
    if kind == "peaked":
        raw = gen.random(V) * 1e-12
        raw[gen.integers(V)] = 1.0
    else:
        raw = gen.dirichlet(np.full(V, 0.05 if kind == "sparse" else 1.0))
        # zero a random share of entries, a random head and a random tail
        raw[gen.random(V) < gen.random()] = 0.0
        raw[:int(gen.integers(V))] = 0.0
        raw[V - int(gen.integers(V)):] = 0.0
        if not raw.any():
            raw[gen.integers(V)] = 1.0
    return normalize(raw)


def _probe_uniforms(d):
    """0, the largest uniform, every CDF step and the doubles either side of
    it, as the Python floats a RandomSource yields; the double above the last
    step lies in the dust past it."""
    us = [0.0, math.nextafter(1.0, 0.0)]
    for step in d.cdf.tolist():
        us += [math.nextafter(step, 0.0), step, math.nextafter(step, 2.0)]
    return us


def _reference_sample(d, rng):
    """The original inverse-CDF draw: a linear scan accumulating positive mass."""
    u = rng.uniform()
    acc = 0.0
    last_positive = -1
    for i, w in enumerate(d.mass):
        if w > 0.0:
            last_positive = i
            acc += float(w)
            if u < acc:
                return i
    return last_positive


class TestDistribution:
    @pytest.mark.parametrize("mass", [np.array([]), np.array(1.0), np.array([[0.5, 0.5]])], ids=["empty", "0-d", "2-d"])
    def test_mass_must_be_a_non_empty_vector(self, mass):
        with pytest.raises(ValueError, match="^mass must be a non-empty 1-d vector$"):
            Distribution(mass)

    @pytest.mark.parametrize("mass", [[math.nan, math.nan], [math.inf, 0.0]])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(ValueError):
            Distribution(np.array(mass))

    def test_mass_is_read_only(self):
        for d in (Distribution(np.array([0.25, 0.75])), normalize([1.0, 3.0])):
            with pytest.raises(ValueError):
                d.mass[0] = 1.0

    @pytest.mark.parametrize("V", [2, 9, 1024])
    def test_cdf_is_the_cached_sequential_running_sum(self, V):
        d = Distribution(np.random.Generator(np.random.PCG64(V)).dirichlet(np.ones(V)))
        acc, want = 0.0, []
        for w in d.mass.tolist():
            acc += w
            want.append(acc)
        cdf = d.cdf
        assert np.array_equal(cdf, np.cumsum(d.mass)) and cdf.tolist() == want
        assert d.cdf is cdf
        with pytest.raises(ValueError):
            cdf[0] = 0.0


class TestDistributionIdentity:
    """Distributions compare and hash by identity, so model rows can key a memo."""

    def test_equal_mass_is_not_equality(self):
        d = dist(0.25, 0.75)
        twin = Distribution(d.mass.copy())
        assert d == d and hash(d) == hash(d)
        assert np.array_equal(d.mass, twin.mass) and d != twin
        assert len({d, twin, d}) == 2

    def test_rows_and_normalize_results_are_hashable(self):
        rows = Distribution.rows(np.array([[0.5, 0.5], [0.5, 0.5]]))
        made = normalize([1.0, 1.0])
        assert len({*rows, made}) == 3
        assert rows[0] == rows[0] and rows[0] != rows[1] and made != rows[0]


class TestDistributionRows:
    """The block validator rejects what ``Distribution`` rejects, row by row."""

    GOOD = [0.25, 0.25, 0.5]

    @pytest.mark.parametrize("bad", [
        [0.5, -1e-12, 0.5 + 1e-12],
        [math.nan, 0.5, 0.5],
        [math.inf, 0.0, 0.0],
        [-math.inf, 0.5, 0.5],
        [0.25, 0.25, 0.5 + 2e-9],
        [0.25, 0.25, 0.5 - 2e-9],
    ])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_a_bad_row(self, bad, at):
        with pytest.raises(ValueError):
            Distribution(np.array(bad))
        block = np.array([self.GOOD] * 3)
        block[at] = bad
        with pytest.raises(ValueError):
            Distribution.rows(block)

    def test_accepts_what_distribution_accepts(self):
        near = [0.25, 0.25, 0.5 + 5e-10]
        Distribution(np.array(near))
        assert len(Distribution.rows(np.array([self.GOOD, near]))) == 2

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1), (0, 3), (2, 0)])
    def test_rejects_a_wrong_shape(self, shape):
        with pytest.raises(ValueError):
            Distribution.rows(np.ones(shape) / (shape[-1] or 1))

    @pytest.mark.parametrize("V", [2, 9, 1024])
    def test_rows_are_read_only_distributions(self, V):
        block = np.random.Generator(np.random.PCG64(V)).dirichlet(np.ones(V), size=5)
        want = block.copy()
        rows = Distribution.rows(block)
        assert len(rows) == 5
        for n, d in enumerate(rows):
            assert isinstance(d, Distribution)
            assert np.array_equal(d.mass, want[n])
            assert np.array_equal(d.cdf, np.cumsum(want[n]))
            assert np.array_equal(d.cdf, Distribution(want[n].copy()).cdf)
            with pytest.raises(ValueError):
                d.mass[0] = 1.0
            with pytest.raises(ValueError):
                d.cdf[0] = 1.0
        # each row draws through a view of its own CDF, not of a shared block
        views = []
        for d in rows:
            sample(d, FixedUniforms([0.5]))
            views.append(d._cdf_view)
            assert views[-1].readonly and np.shares_memory(np.asarray(views[-1]), d.cdf)
        assert len({id(v) for v in views}) == len(rows)
        assert [v.tolist() for v in views] == [np.cumsum(row).tolist() for row in want]


class TestRandomSource:
    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 1])
    def test_block_draws_are_the_single_draw_stream(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        want = [float(gen.random()) for _ in range(1000)]
        rng = RandomSource(seed)
        got = [rng.uniform() for _ in range(1000)]
        assert got == want
        assert all(type(u) is float for u in got)


class TestNormalize:
    def test_already_normalized(self):
        out = normalize([0.25, 0.75])
        assert np.allclose(out.mass, [0.25, 0.75])

    def test_symmetric(self):
        out = normalize([2.0, 2.0])
        assert np.allclose(out.mass, [0.5, 0.5])

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroMass):
            normalize([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize([-0.1, 1.1])

    @given(mass_vectors)
    @settings(max_examples=100)
    def test_idempotent(self, raw):
        once = normalize(raw)
        twice = normalize(once.mass)
        assert np.max(np.abs(once.mass - twice.mass)) < 1e-12


class TestResidual:
    """The reference residual that ``tests/test_verifiers.py`` holds the
    single-row verifier to."""

    def test_disjoint_supports(self):
        out = residual_sd(dist(1, 0), dist(0, 1))
        assert np.allclose(out.mass, [0, 1])

    def test_partial_overlap(self):
        out = residual_sd(dist(0.5, 0.5), dist(0.9, 0.1))
        assert np.allclose(out.mass, [1, 0])

    def test_identical_raises(self):
        with pytest.raises(AllZeroMass):
            residual_sd(dist(0.5, 0.5), dist(0.5, 0.5))

    @given(mass_vectors, mass_vectors)
    @settings(max_examples=100)
    def test_zero_mass_where_draft_dominates(self, a, b):
        n = min(len(a), len(b))
        # truncation can leave an all-zero prefix, which is not a distribution
        assume(sum(a[:n]) > 1e-6 and sum(b[:n]) > 1e-6)
        p = normalize(a[:n])
        q = normalize(b[:n])
        try:
            res = residual_sd(p, q)
        except AllZeroMass:
            assert np.all(p.mass >= q.mass - 1e-15)
            return
        dominated = p.mass >= q.mass
        assert np.all(res.mass[dominated] == 0.0)


class TestPrefixJoint:
    def test_single_step_product(self):
        j = extend_joint(PrefixJoint(), 0, dist(0.5, 0.5), dist(0.8, 0.2))
        assert math.isclose(math.exp(j.log_p), 0.5)
        assert math.isclose(math.exp(j.log_q), 0.8)

    def test_product_rule(self):
        j = PrefixJoint()
        for _ in range(2):
            j = extend_joint(j, 0, dist(0.5, 0.5), dist(0.8, 0.2))
        assert math.isclose(math.exp(j.log_p), 0.25)
        assert math.isclose(math.exp(j.log_q), 0.64, rel_tol=1e-12)

    def test_absorbing_zero(self):
        j = extend_joint(PrefixJoint(), 0, dist(0.5, 0.5), dist(0.0, 1.0))
        assert math.exp(j.log_q) == 0.0
        j2 = extend_joint(j, 1, dist(0.5, 0.5), dist(0.3, 0.7))
        assert math.exp(j2.log_q) == 0.0 and math.exp(j2.log_p) == 0.25
        assert joint_ratio(j2.log_p, j2.log_q) == float("inf")

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=8), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_log_chain_matches_direct_product(self, tokens, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        conds = [Distribution(gen.dirichlet(np.ones(3))) for _ in tokens]
        j = PrefixJoint()
        direct_p = direct_q = 1.0
        for tok, c in zip(tokens, conds):
            j = extend_joint(j, tok, c, c)
            direct_p *= float(c.mass[tok])
            direct_q *= float(c.mass[tok])
        assert math.isclose(math.exp(j.log_p), direct_p, rel_tol=1e-12)
        assert math.isclose(math.exp(j.log_q), direct_q, rel_tol=1e-12)


class TestSample:
    def test_point_mass(self):
        for u in (0.0, 0.3, 0.999):
            assert sample(dist(1, 0), FixedUniforms([u])) == 0

    def test_inverse_cdf_boundaries(self):
        assert sample(dist(0.5, 0.5), FixedUniforms([0.25])) == 0
        assert sample(dist(0.5, 0.5), FixedUniforms([0.75])) == 1

    def test_skips_zero_mass(self):
        assert sample(dist(0.0, 1.0), FixedUniforms([0.0])) == 1

    def test_past_last_step_returns_last_positive(self):
        # ten 0.1s accumulate to 1 - 2**-53, so no cumulative step exceeds that uniform
        d = normalize([0.1] * 10 + [0.0])
        assert sample(d, FixedUniforms([np.nextafter(1.0, 0.0)])) == 9

    @given(
        st.integers(2, 1024),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["dirichlet", "sparse", "peaked"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_loop(self, V, seed, kind):
        d = _sample_row(V, seed, kind)
        for u in _probe_uniforms(d):
            assert sample(d, FixedUniforms([u])) == _reference_sample(d, FixedUniforms([u]))

    @given(
        st.integers(2, 1024),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["dirichlet", "sparse", "peaked"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_searchsorted_draw_for_draw(self, V, seed, kind):
        d = _sample_row(V, seed, kind)
        for u in _probe_uniforms(d):
            assert sample(d, FixedUniforms([u])) == _searchsorted_sample(d, FixedUniforms([u]))
        a, b = RandomSource(seed), RandomSource(seed)
        assert [sample(d, a) for _ in range(64)] == [_searchsorted_sample(d, b) for _ in range(64)]

    def test_cdf_view_is_built_once_and_read_only(self):
        d = dist(0.25, 0.0, 0.75)
        assert "cdf" not in vars(d) and "_cdf_view" not in vars(d)
        assert sample(d, FixedUniforms([0.5])) == 2
        view = d._cdf_view
        assert sample(d, FixedUniforms([0.1])) == 0
        assert d._cdf_view is view and view.readonly
        assert view.tolist() == d.cdf.tolist()
        assert np.shares_memory(np.asarray(view), d.cdf)
        with pytest.raises(TypeError):
            view[0] = 1.0

    def test_monte_carlo_frequency(self):
        # binomial check: sd of the frequency at n=1e5 is ~0.00126, so 0.005 is ~4 sigma
        rng = RandomSource(2024)
        d = dist(0.2, 0.8)
        n = 100_000
        ones = sum(sample(d, rng) for _ in range(n))
        assert abs(ones / n - 0.8) < 0.005

    def test_bit_reproducible(self):
        a = [sample(dist(0.3, 0.3, 0.4), RandomSource(99)) for _ in range(50)]
        b = [sample(dist(0.3, 0.3, 0.4), RandomSource(99)) for _ in range(50)]
        # fresh sources with one draw each, then one source across draws
        r1, r2 = RandomSource(5), RandomSource(5)
        seq1 = [sample(dist(0.1, 0.9), r1) for _ in range(200)]
        seq2 = [sample(dist(0.1, 0.9), r2) for _ in range(200)]
        assert a == b and seq1 == seq2


class TestTvDistance:
    def test_identical(self):
        assert tv_distance(dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0

    def test_disjoint(self):
        assert tv_distance(dist(1, 0), dist(0, 1)) == 1.0

    def test_half(self):
        assert tv_distance(dist(0.5, 0.5), dist(1, 0)) == 0.5

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_symmetry_and_triangle(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        a, b, c = (Distribution(gen.dirichlet(np.ones(4))) for _ in range(3))
        assert math.isclose(tv_distance(a, b), tv_distance(b, a))
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, i) for i in range(100)}
    assert len(seen) == 100
