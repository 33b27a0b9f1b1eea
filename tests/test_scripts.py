"""Smoke tests for the scripts under ``scripts/``, run as their own processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_battery_writes_its_grid(tmp_path):
    out = tmp_path / "battery.json"
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_oracle_battery.py"), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    # the K >= 2 cells miss their exactness checks, so the battery exits 2
    assert res.returncode == 2, res.stderr
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert len(rows) == 18
    assert all(row["passed"] for row in rows if row["K"] == 1)
    [two_iter] = [row for row in rows if (row["V"], row["L"], row["K"]) == (2, 2, 2)]
    assert two_iter["iterations"] == 2
