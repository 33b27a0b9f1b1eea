"""Exact-oracle reports against a committed fixture, float by float at 1e-12.

A change that only reorders the oracle's sums moves its floats in the last
bits; a change of behaviour moves them by far more. So each scalar of
``ExactReport.to_jsonable()`` but ``runtime_s`` is compared at 1e-12, not
hashed. The cells are the two two-iteration cells of the benchmark, one
K >= 2 single-iteration cell, one ``gbv_exact_report`` cell and one
two-iteration cell whose outputs fall back to the raw target conditional
(``fallback_mass`` > 0), each on one fixed ``generate_pair`` seed. Regenerate the fixture only for a deliberate
behaviour change:

    PYTHONPATH=src python tests/test_golden_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from speclab.models import generate_pair
from speclab.oracle import exact_output_distribution, gbv_exact_report

GOLDEN = Path(__file__).parent / "data" / "golden_oracle.json"
TOL = 1e-12

# (kind, V, L, K, iterations, pair seed[, similarity]), similarity 0.5 if left out
CELLS = (
    ("exact", 2, 2, 2, 2, 1),
    ("exact", 3, 2, 3, 2, 2),
    ("exact", 3, 3, 3, 1, 3),
    ("gbv", 3, 3, 1, 1, 4),
    ("exact", 2, 2, 2, 2, 5, 1.0),
)


def report(cell) -> dict:
    kind, V, L, K, iterations, seed, similarity = (*cell, 0.5)[:7]
    pair = generate_pair(V, 1, seed, 1.0, similarity)
    if kind == "gbv":
        r = gbv_exact_report(pair, L)
    else:
        r = exact_output_distribution(pair, L, K, iterations=iterations)
    out = r.to_jsonable()
    del out["runtime_s"]
    return out


def render() -> list[dict]:
    return [{"cell": list(cell), "report": report(cell)} for cell in CELLS]


@pytest.mark.parametrize("n", range(len(CELLS)), ids=[str(cell) for cell in CELLS])
def test_report_matches_golden(n):
    entry = json.loads(GOLDEN.read_text(encoding="utf-8"))[n]
    assert tuple(entry["cell"]) == CELLS[n]
    got, want = report(CELLS[n]), entry["report"]
    assert got.keys() == want.keys()
    for name, w in want.items():
        if isinstance(w, float):
            assert abs(got[name] - w) <= TOL, (name, got[name], w)
        else:
            assert got[name] == w, (name, got[name], w)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(render(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
