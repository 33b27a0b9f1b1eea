import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FixedUniforms, residual_sd
from speclab.probability import (
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    derive_seed,
    extend_joint,
    normalize,
    sample,
    tv_distance,
)


def dist(*mass):
    return Distribution(np.array(mass, dtype=float))


mass_vectors = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=2, max_size=6
).filter(lambda v: sum(v) > 1e-6)


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
        j = extend_joint(PrefixJoint.empty(), 0, dist(0.5, 0.5), dist(0.8, 0.2))
        assert math.isclose(j.p, 0.5)
        assert math.isclose(j.q, 0.8)

    def test_product_rule(self):
        j = PrefixJoint.empty()
        for _ in range(2):
            j = extend_joint(j, 0, dist(0.5, 0.5), dist(0.8, 0.2))
        assert math.isclose(j.p, 0.25)
        assert math.isclose(j.q, 0.64, rel_tol=1e-12)

    def test_absorbing_zero(self):
        j = extend_joint(PrefixJoint.empty(), 0, dist(0.5, 0.5), dist(0.0, 1.0))
        assert j.q == 0.0
        j2 = extend_joint(j, 1, dist(0.5, 0.5), dist(0.3, 0.7))
        assert j2.q == 0.0 and j2.p == 0.25
        assert j2.ratio_p_over_q() == float("inf")

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=8), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_log_chain_matches_direct_product(self, tokens, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        conds = [Distribution(gen.dirichlet(np.ones(3))) for _ in tokens]
        j = PrefixJoint.empty()
        direct_p = direct_q = 1.0
        for tok, c in zip(tokens, conds):
            j = extend_joint(j, tok, c, c)
            direct_p *= float(c.mass[tok])
            direct_q *= float(c.mass[tok])
        assert math.isclose(j.p, direct_p, rel_tol=1e-12)
        assert math.isclose(j.q, direct_q, rel_tol=1e-12)


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
        gen = np.random.Generator(np.random.PCG64(seed))
        if kind == "peaked":
            raw = gen.random(V) * 1e-12
            raw[gen.integers(V)] = 1.0
        else:
            raw = gen.dirichlet(np.full(V, 0.05 if kind == "sparse" else 1.0))
            # zero a random share of entries and a random tail, keeping one positive
            raw[gen.random(V) < gen.random()] = 0.0
            raw[V - int(gen.integers(V)):] = 0.0
            if not raw.any():
                raw[gen.integers(V)] = 1.0
        d = normalize(raw)
        steps = np.cumsum(d.mass)
        uniforms = [0.0, np.nextafter(steps[-1], 2.0)]
        for step in steps:
            uniforms += [step, np.nextafter(step, 0.0)]
        for u in uniforms:
            assert sample(d, FixedUniforms([u])) == _reference_sample(d, FixedUniforms([u]))

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
