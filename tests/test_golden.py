"""Byte-for-byte regression of ``speclab run`` reports against a committed fixture.

The fixture pins every decode-loop output column for all five algorithms:
the CLI defaults, EOS-free V = 16 model files whose block-verifier decodes
run to a 256-token cap and so stack many modified-target iterations, an
order-2 pair at T = 0.7, an order-0 pair, and a draft and target of
different orders. Regenerate it only for a deliberate behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from conftest import eos_free
from speclab.cli import main
from speclab.harness import ALGORITHMS
from speclab.models import generate_pair, random_model, save_model

GOLDEN = Path(__file__).parent / "data" / "golden_run.csv"


def _run_args(tmp: Path) -> list[list[str]]:
    pair = generate_pair(16, 1, 5, 1.0, 0.6)
    save_model(eos_free(pair.draft), tmp / "draft16.json")
    save_model(eos_free(pair.target), tmp / "target16.json")
    save_model(random_model(6, 2, 7, 1.0), tmp / "draft_o2.json")
    save_model(random_model(6, 1, 8, 1.0), tmp / "target_o1.json")
    eos_free_cell = [
        "--draft-model", str(tmp / "draft16.json"), "--target-model", str(tmp / "target16.json"),
        "--K", "3", "--L", "8", "--max-tokens", "256", "--prompts", "3", "--trials", "1",
        "--seed", "11",
    ]
    mixed_orders = [
        "--draft-model", str(tmp / "draft_o2.json"), "--target-model", str(tmp / "target_o1.json"),
        "--K", "2", "--L", "4", "--prompts", "2", "--trials", "1", "--seed", "5",
    ]
    return (
        [[]]  # every flag at its default
        + [["--algo", algo, *eos_free_cell] for algo in ALGORITHMS]
        + [
            ["--algo", "gbv", "--gen", "6,2,3,1.0,0.6", "--temperature", "0.7", "--L", "5",
             "--prompts", "2", "--trials", "2", "--seed", "3"],
            ["--algo", "spectr-gbv", "--gen", "5,0,4,0.5,0.4", "--K", "4", "--L", "6",
             "--prompts", "2", "--trials", "2", "--seed", "8"],
            ["--algo", "ar", *mixed_orders],
            ["--algo", "spectr-gbv", *mixed_orders],
        ]
    )


def render(tmp: Path) -> str:
    """One CSV header, then the rows of every run in order."""
    lines: list[str] = []
    for i, args in enumerate(_run_args(tmp)):
        out = tmp / f"run{i}.csv"
        assert main(["run", *args, "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.extend(rows if i == 0 else rows[1:])
    return "".join(lines)


def test_run_matches_golden_csv(tmp_path):
    assert render(tmp_path).encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_bytes(render(Path(tmp)).encode("utf-8"))
    print(f"wrote {GOLDEN}", file=sys.stderr)
