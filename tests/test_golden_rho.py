"""The K-SEQ scale against a committed fixture, bit for bit.

``kseq_rho`` must give the same rho, beta and iteration count however it
reads beta(rho), so every solve is pinned exactly: ``float.hex`` of rho and
beta, and the bisection's iteration count. The solves are
``ratio_instances(V)``, which cycles through all six zero and tie modes, at
V in {2, 5, 16, 1024} and K in {2, 3, 4, 8}, plus edge cases: a ratio at
exactly 2.0, K = 3's first midpoint; ratios at exactly 1 and exactly K; and
one coarse solve at tol = 1e-4. Regenerate the fixture only for a deliberate
behaviour change:

    PYTHONPATH=src python tests/test_golden_rho.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from conftest import dist, ratio_instances
from speclab.verifiers import kseq_rho

GOLDEN = Path(__file__).parent / "data" / "golden_rho.json"
VOCABS = (2, 5, 16, 1024)
KS = (2, 3, 4, 8)


# name -> (p, q, K, tol)
EDGES = {
    # ratios 2 and 0: K = 3 bisects at 2.0 first, a tie with a ratio
    "ratio at the first midpoint": (dist(0.5, 0.5), dist(1.0, 0.0), 3, 1e-12),
    # ratios 1, 3 and 0: the ends of [1, K] are ratios
    "ratios at 1 and K": (dist(0.25, 0.25, 0.5), dist(0.25, 0.75, 0.0), 3, 1e-12),
    "coarse tolerance": (dist(0.5, 0.3, 0.2), dist(0.2, 0.3, 0.5), 4, 1e-4),
}


def solves(V: int):
    """(name, p, q, K, tol) for every pinned solve at vocabulary V."""
    for n, (p, q) in enumerate(ratio_instances(V)):
        for K in KS:
            yield f"V={V} n={n} K={K}", p, q, K, 1e-12


def pin(p, q, K, tol) -> list:
    s = kseq_rho(p, q, K, tol)
    return [s.rho.hex(), s.beta.hex(), s.iterations]


def render() -> dict:
    out = {name: pin(*case) for V in VOCABS for name, *case in solves(V)}
    out.update((name, pin(*case)) for name, case in EDGES.items())
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("V", VOCABS)
def test_ratio_instances_match_golden(V, golden):
    for name, *case in solves(V):
        assert pin(*case) == golden[name], name


@pytest.mark.parametrize("name", EDGES)
def test_edge_case_matches_golden(name, golden):
    assert pin(*EDGES[name]) == golden[name]


if __name__ == "__main__":
    lines = (f"{json.dumps(name)}: {json.dumps(value)}" for name, value in render().items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
