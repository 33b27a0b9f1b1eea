"""Probability primitives shared by every verifier and oracle in the lab.

Mass vectors are plain numpy float64 arrays wrapped in a ``Distribution``,
which validates them once, when it is built, and makes them read-only;
``Distribution.rows`` validates a whole block of them at once. Its
cumulative mass is built on the first draw and kept, with a read-only
``memoryview`` that ``sample`` bisects, so a model row sampled many times
pays for one vocabulary pass and each later draw is one binary search.
``RandomSource`` serves its doubles from one iterator over blocks drawn
from the generator, the same stream as one call per double, and ``reserve``
takes the next n off it for a draw made later. Token-prefix joints are
``PrefixJoint`` pairs of logs, -inf marking an exact zero, since products
of conditionals over a block underflow in linear space for peaked models;
``joint_ratio`` is the one rule that reads a ratio off two of them.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

SUM_TOL = 1e-9
LOG_ZERO = float("-inf")
# doubles drawn from the generator at a time for a RandomSource's stream
UNIFORM_BLOCK = 256


class AllZeroMass(ValueError):
    """Raised when a vector that must be normalized has no positive mass."""


def derive_seed(master: int, *indices: int) -> int:
    """Stable 63-bit seed for a (master seed, index...) cell.

    Used to hand each (config, trial, prompt) cell its own stream so that
    result aggregation is order independent.
    """
    blob = ":".join(str(x) for x in (master, *indices)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


class RandomSource:
    """Seeded uniform stream. Identical seed, identical draw sequence.

    One endless iterator serves every double: it chains blocks of
    UNIFORM_BLOCK drawn with ``Generator.random(n)``, which yields the same
    PCG64 doubles as n single ``random()`` calls. ``reserve(n)`` takes the
    next n for a source of their own, which serves them as n ``uniform()``
    calls here would have and raises StopIteration past them. One source type
    keeps ``sample``'s call of ``uniform`` monomorphic, so no draw slows.
    """

    def __init__(self, seed: int):
        gen = np.random.Generator(np.random.PCG64(int(seed)))
        self._stream = chain.from_iterable(iter(lambda: gen.random(UNIFORM_BLOCK).tolist(), None))

    def uniform(self) -> float:
        return next(self._stream)

    def reserve(self, n: int) -> "RandomSource":
        source = RandomSource.__new__(RandomSource)
        source._stream = iter(list(islice(self._stream, n)))
        return source


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over the vocabulary: entries >= 0, sum within 1e-9 of 1.

    A NaN or infinite entry makes the sum non-finite and is rejected. The
    mass array is made read-only here, so callers pass an array of their
    own, and the cached ``cdf`` can never disagree with it. Distributions
    compare and hash by identity, so a model's cached row can key a memo
    (a target row's ``memo`` of K-SEQ scales); two rows of equal mass are unequal.
    """

    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "mass", m)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("mass must be a non-empty 1-d vector")
        if m.min() < 0:
            raise ValueError("negative probability mass")
        s = float(m.sum())
        # written so that a NaN sum fails the test too
        if not abs(s - 1.0) <= SUM_TOL:
            raise ValueError(f"mass sums to {s!r}, not 1")
        m.setflags(write=False)

    @classmethod
    def rows(cls, block) -> list["Distribution"]:
        """One Distribution per row of a 2-d block, validated once for the block.

        The checks are ``__post_init__``'s, made row by row in one pass each:
        no negative entry, and every row sum within SUM_TOL of 1, so a NaN or
        infinite entry fails its row. The block is made read-only and each
        row is a view of it. Row sums of a C-contiguous block equal the sums
        of the rows taken one at a time, bit for bit.
        """
        b = np.ascontiguousarray(block, dtype=np.float64)
        if b.ndim != 2 or b.size == 0:
            raise ValueError("block must be a non-empty 2-d array")
        if b.min() < 0:
            raise ValueError("negative probability mass")
        for n, s in enumerate(b.sum(axis=1).tolist()):
            # written so that a NaN sum fails the test too
            if not abs(s - 1.0) <= SUM_TOL:
                raise ValueError(f"row {n} mass sums to {s!r}, not 1")
        b.setflags(write=False)
        out = []
        for row in b:
            d = object.__new__(cls)
            object.__setattr__(d, "mass", row)
            out.append(d)
        return out

    @cached_property
    def cdf(self) -> np.ndarray:
        """Sequential float64 cumulative mass, built on first use and read-only."""
        c = np.cumsum(self.mass)
        c.setflags(write=False)
        return c

    @cached_property
    def _cdf_view(self) -> memoryview:
        """Read-only view of ``cdf`` that ``bisect`` indexes as Python floats."""
        return memoryview(self.cdf)

    @cached_property
    def memo(self) -> dict:
        """The K-SEQ scales solved with this as the target row, by (draft row, K)."""
        return {}


def normalize(raw) -> Distribution:
    """Scale a nonnegative vector to total mass 1.

    Raises AllZeroMass when every entry is zero; callers on defensive
    residual branches decide their own fallback.
    """
    v = np.asarray(raw, dtype=np.float64)
    if v.size and v.min() < 0:
        raise ValueError("normalize requires nonnegative entries")
    s = float(v.sum())
    if s <= 0.0:
        raise AllZeroMass("no positive mass to normalize")
    return Distribution(v / s)


def sample(d: Distribution, rng: RandomSource) -> int:
    """Inverse-CDF draw with a single uniform.

    Returns the first index whose sequential float64 cumulative mass
    (``d.cdf``, built on the distribution's first draw) exceeds the uniform,
    as ``cdf.searchsorted(u, side="right")`` would, found by ``bisect`` over
    a cached view of those doubles without numpy's per-call dispatch.
    Zero-mass entries add nothing to the running sum, so they are never
    chosen. A uniform in the float dust past the last cumulative step
    returns the last positive-mass index.
    """
    u = rng.uniform()
    view = d._cdf_view
    i = bisect.bisect_right(view, u)
    if i < len(view):
        return i
    return int(np.flatnonzero(d.mass)[-1])


class PrefixJoint(NamedTuple):
    """Natural-log joints of a token prefix under the draft (p) and target (q)
    chains, the empty prefix's by default; -inf, an exact zero, absorbs. Rules
    read p/q or q/p through ``joint_ratio`` and a linear joint by ``math.exp``."""

    log_p: float = 0.0
    log_q: float = 0.0


def joint_ratio(log_num: float, log_den: float) -> float:
    """exp(log_num - log_den), the one ratio rule every block rule reads: a
    zero denominator gives inf, a zero numerator 0 (exp(-inf)), and a log
    ratio above 700 inf, since exp would overflow a little past it."""
    if log_den == LOG_ZERO:
        return math.inf
    d = log_num - log_den
    return math.inf if d > 700.0 else math.exp(d)


def extend_joint(j: PrefixJoint, next_token: int, p_cond: Distribution, q_cond: Distribution) -> PrefixJoint:
    """Multiply one more conditional into both chains: one ``math.log`` per
    factor, and -inf absorbs (-inf + log x is -inf)."""
    x, z = p_cond.mass.item(next_token), q_cond.mass.item(next_token)
    return PrefixJoint(
        j.log_p + math.log(x) if x > 0.0 else LOG_ZERO,
        j.log_q + math.log(z) if z > 0.0 else LOG_ZERO,
    )
