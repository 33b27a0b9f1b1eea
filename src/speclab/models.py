"""Synthetic autoregressive token models.

Order-m Markov tables stand in for draft and target LLMs: every conditional
is an O(1) row lookup, which keeps exact joint probabilities enumerable for
the oracles. Contexts shorter than the order are left-padded with token 0.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
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
    rows = np.array(table, dtype=np.float64)
    for i, row in enumerate(rows):
        if np.any(row < 0):
            raise InvalidRow(i, "negative entry")
        s = float(row.sum())
        if not abs(s - 1.0) <= ROW_SUM_TOL:  # also rejects a NaN sum
            raise InvalidRow(i, f"row sums to {s!r}")
        # rescale only when needed so clean tables round-trip bit-exactly
        if abs(s - 1.0) > 1e-12:
            rows[i] = row / s
    # read-only because the cached row Distributions are views of this table
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class MarkovModel:
    """Conditional next-token table over V^order contexts.

    Row index: context read as a base-V number, most recent token least
    significant. Each (row, temperature) conditional is validated once, on
    first lookup, and the same read-only ``Distribution`` is returned after
    that; at T = 1 it is a view of the table, which is read-only too.
    """

    vocab_size: int
    order: int
    table: np.ndarray
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        object.__setattr__(
            self, "table", _validate_table(self.vocab_size, self.order, np.asarray(self.table))
        )

    def row_index(self, context: Sequence[int]) -> int:
        idx = 0
        V = self.vocab_size
        for j in range(self.order):
            tok = context[-1 - j] if j < len(context) else 0
            idx += int(tok) * V**j
        return idx

    def conditional(self, context: Sequence[int], temperature: float = 1.0) -> Distribution:
        key = (self.row_index(context), temperature)
        d = self._rows.get(key)
        if d is None:
            d = temperature_scale(Distribution(self.table[key[0]]), temperature)
            d.mass.setflags(write=False)
            self._rows[key] = d
        return d


def temperature_scale(d: Distribution, temperature: float) -> Distribution:
    """Rescale mass as d^(1/T), renormalized. T=1 returns d unchanged.

    Computed as (d / max d)^(1/T): the largest entry stays exactly 1 before
    renormalizing, so no row underflows to 0/0 at a low temperature.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if temperature == 1.0:
        return d
    powered = np.power(d.mass / d.mass.max(), 1.0 / temperature)
    return Distribution(powered / powered.sum())


def random_model(vocab_size: int, order: int, seed: int, concentration: float) -> MarkovModel:
    """Rows drawn independently from a symmetric Dirichlet, deterministically in the seed."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if concentration <= 0:
        raise ValueError("concentration must be > 0")
    gen = np.random.Generator(np.random.PCG64(seed))
    alpha = np.full(vocab_size, float(concentration))
    rows = np.stack([gen.dirichlet(alpha) for _ in range(vocab_size**order)])
    return MarkovModel(vocab_size, order, rows)


def blend_model(base: MarkovModel, other: MarkovModel, weight: float) -> MarkovModel:
    """Rows weight*base + (1-weight)*other; weight 1 reproduces base."""
    if base.vocab_size != other.vocab_size or base.order != other.order:
        raise ValueError("blend requires models of identical shape")
    rows = weight * base.table + (1.0 - weight) * other.table
    return MarkovModel(base.vocab_size, base.order, rows)


@dataclass(frozen=True)
class ModelPair:
    """Draft/target pair with one sampling temperature applied to both at query time."""

    draft: MarkovModel
    target: MarkovModel
    temperature: float = 1.0

    def __post_init__(self):
        if self.draft.vocab_size != self.target.vocab_size:
            raise ValueError("draft and target must share a vocabulary")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")

    @property
    def vocab_size(self) -> int:
        return self.draft.vocab_size

    def draft_conditional(self, context: Sequence[int]) -> Distribution:
        return self.draft.conditional(context, self.temperature)

    def target_conditional(self, context: Sequence[int]) -> Distribution:
        return self.target.conditional(context, self.temperature)


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
        vocab_size = int(obj["vocab_size"])
        order = int(obj["order"])
        table = obj["table"]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: missing or malformed field ({e})") from e
    if not isinstance(table, list):
        raise ParseError(f"{path}: table must be an array")
    try:
        arr = np.array(table, dtype=np.float64)
    except ValueError as e:
        raise ParseError(f"{path}: ragged or non-numeric table ({e})") from e
    if arr.ndim != 2:
        raise ParseError(f"{path}: table must be two-dimensional")
    return MarkovModel(vocab_size, order, arr)
