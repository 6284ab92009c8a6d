"""The scripts under ``scripts/``, run as a user would, in a subprocess."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from safepomcp import ShieldMode

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return done.stdout


def test_factored_gap_demo():
    out = _run("factored_gap_demo.py")
    assert "  q00: ['g15']\n" in out
    assert "centralized region: yes" in out
    assert "factored union:     no" in out


def test_run_desk_benchmarks_quick(tmp_path):
    out = _run("run_desk_benchmarks.py", "--sizes", "4", "--episodes", "1",
               "--quick", "--out-dir", str(tmp_path))
    rows = {
        fields[2]: fields for fields in map(str.split, out.splitlines())
        if fields[:2] == ["obstacle", "n=4"]
    }
    assert set(rows) == {mode.value for mode in ShieldMode}
    for mode in ShieldMode:
        if mode.shielded:
            assert rows[mode.value][6] == "0.00"  # the unsafe column
    csv_path = tmp_path / "obstacle_desk.csv"
    assert f"wrote {csv_path}" in out
    with csv_path.open() as fh:
        assert len(list(csv.DictReader(fh))) == 5
