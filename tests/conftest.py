import numpy as np
import pytest

from speclab.models import MarkovModel, ModelPair
from speclab.probability import Distribution, normalize


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
