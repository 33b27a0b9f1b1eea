"""Synthetic autoregressive token models.

Order-m Markov tables stand in for draft and target LLMs: every conditional
is an O(1) row lookup, which keeps exact joint probabilities enumerable for
the oracles. Contexts shorter than the order are left-padded with token 0.
A model reads its rows at its own temperature, which ``ModelPair`` sets.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .probability import Distribution

ROW_SUM_TOL = 1e-6


class ParseError(ValueError):
    """Model file is structurally unusable."""


class InvalidRow(ValueError):
    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"row {index}: {reason}")


def _validate_table(vocab_size: int, order: int, table: np.ndarray) -> np.ndarray:
    expected_rows = vocab_size**order
    if table.shape != (expected_rows, vocab_size):
        raise ParseError(
            f"table shape {table.shape} does not match V={vocab_size}, order={order}"
        )
    # C order, so a row's sum over axis 1 is bit for bit that row's own sum
    rows = np.array(table, dtype=np.float64, order="C")
    negative = (rows < 0).any(axis=1)
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    bad = negative | ~(off <= ROW_SUM_TOL)  # a NaN sum is bad too
    if bad.any():
        i = int(bad.argmax())
        raise InvalidRow(i, "negative entry" if negative[i] else f"row sums to {float(sums[i])!r}")
    # rescale only when needed so clean tables round-trip bit-exactly
    scale = off > 1e-12
    rows[scale] /= sums[scale, None]
    # read-only because the cached row Distributions are views of this table
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class MarkovModel:
    """Conditional next-token table over V^order contexts.

    Row index: context read as a base-V number, most recent token least
    significant. ``cache`` maps a row's tail, the context's last ``order``
    tokens left-padded with 0, to its conditional at ``temperature``, so a
    context and its zero-padded form share one entry, and the cache holds one
    entry per distinct row. A lookup slices the context and probes the cache;
    ``block_index`` runs and the row is validated only on a miss, and the
    same read-only ``Distribution`` is returned after that. At T = 1 it is a
    view of the table, which is read-only too.
    """

    vocab_size: int
    order: int
    table: np.ndarray
    temperature: float = 1.0
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be finite and > 0")
        object.__setattr__(
            self, "table", _validate_table(self.vocab_size, self.order, np.asarray(self.table))
        )

    def conditional(self, context: Sequence[int]) -> Distribution:
        n = len(context) - self.order
        tail = tuple(context[n:]) if n >= 0 else (0,) * -n + tuple(context)
        d = self.cache.get(tail)
        if d is None:
            d = self.cache[tail] = temperature_scale(
                Distribution(self.table[block_index(tail, self.vocab_size)]), self.temperature
            )
        return d


def block_index(tokens: Sequence[int], vocab_size: int) -> int:
    """A context tail's row in a Markov table, a block's place in its trie level."""
    return functools.reduce(lambda n, x: n * vocab_size + x, tokens, 0)


def temperature_scale(d: Distribution, temperature: float) -> Distribution:
    """Rescale mass as d^(1/T), renormalized. T=1 returns d unchanged.

    Computed as (d / max d)^(1/T): the largest entry stays exactly 1 before
    renormalizing, so no row underflows to 0/0 at a low temperature.
    """
    if not 0 < temperature < np.inf:
        raise ValueError("temperature must be finite and > 0")
    if temperature == 1.0:
        return d
    powered = np.power(d.mass / d.mass.max(), 1.0 / temperature)
    return Distribution(powered / powered.sum())


def random_model(vocab_size: int, order: int, seed: int, concentration: float) -> MarkovModel:
    """Rows drawn independently from a symmetric Dirichlet, deterministically in the seed."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if order < 0:
        raise ValueError("order must be >= 0")
    if not 0 < concentration < np.inf:
        raise ValueError("concentration must be finite and > 0")
    gen = np.random.Generator(np.random.PCG64(seed))
    alpha = np.full(vocab_size, float(concentration))
    # one draw of all rows: the same doubles as one draw per row, in row order
    return MarkovModel(vocab_size, order, gen.dirichlet(alpha, size=vocab_size**order))


def blend_model(base: MarkovModel, other: MarkovModel, weight: float) -> MarkovModel:
    """Rows weight*base + (1-weight)*other; weight 1 reproduces base."""
    if base.vocab_size != other.vocab_size or base.order != other.order:
        raise ValueError("blend requires models of identical shape")
    # addition commutes in IEEE arithmetic, so adding in place is bit-identical
    rows = (1.0 - weight) * other.table
    rows += weight * base.table
    return MarkovModel(base.vocab_size, base.order, rows)


@dataclass(frozen=True)
class ModelPair:
    """Draft/target pair at one temperature. A model at another temperature
    is replaced by a copy at the pair's, so no row is tempered twice."""

    draft: MarkovModel
    target: MarkovModel
    temperature: float = 1.0

    def __post_init__(self):
        if self.draft.vocab_size != self.target.vocab_size:
            raise ValueError("draft and target must share a vocabulary")
        for name in ("draft", "target"):
            model = getattr(self, name)
            if model.temperature != self.temperature:
                object.__setattr__(self, name, replace(model, temperature=self.temperature))

    @property
    def vocab_size(self) -> int:
        return self.draft.vocab_size


def generate_pair(
    vocab_size: int,
    order: int,
    seed: int,
    concentration: float,
    similarity: float = 0.5,
    temperature: float = 1.0,
) -> ModelPair:
    """Seeded draft plus a target blended toward it.

    similarity is the blend weight on the draft's rows: 0 gives an
    independent target, 1 a matched pair. Acceptance rates rise with it.
    """
    if not 0.0 <= similarity <= 1.0:
        raise ValueError("similarity must lie in [0, 1]")
    draft = random_model(vocab_size, order, seed, concentration)
    fresh = random_model(vocab_size, order, seed + 1, concentration)
    target = blend_model(draft, fresh, similarity)
    return ModelPair(draft, target, temperature)


def save_model(model: MarkovModel, path: str | os.PathLike) -> None:
    """Write the UTF-8 JSON model format with 17-significant-digit floats."""
    rows = []
    for row in model.table:
        rows.append("[" + ", ".join(format(float(x), ".17g") for x in row) + "]")
    body = (
        "{\n"
        f'  "vocab_size": {model.vocab_size},\n'
        f'  "order": {model.order},\n'
        '  "table": [\n    ' + ",\n    ".join(rows) + "\n  ]\n"
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)


def load_model(path: str | os.PathLike) -> MarkovModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    try:
        vocab_size, order, table = obj["vocab_size"], obj["order"], obj["table"]
    except KeyError as e:
        raise ParseError(f"{path}: missing field {e}") from e
    for name, value, least in (("vocab_size", vocab_size, 2), ("order", order, 0)):
        # a JSON integer; bool is a subclass of int, so it is excluded by type
        if type(value) is not int or value < least:
            raise ParseError(f"{path}: {name} must be an integer >= {least}, not {value!r}")
    if not isinstance(table, list):
        raise ParseError(f"{path}: table must be an array")
    try:
        arr = np.array(table, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: ragged or non-numeric table ({e})") from e
    if arr.ndim != 2:
        raise ParseError(f"{path}: table must be two-dimensional")
    # numpy reads a bool, a numeric string or null as a float; a JSON number
    # is an int or a float, and a bool, an int subclass, is excluded by type
    bad = [x for row in table for x in row if type(x) not in (int, float)]
    if bad:
        raise ParseError(f"{path}: table entry {bad[0]!r} is not a number")
    return MarkovModel(vocab_size, order, arr)
