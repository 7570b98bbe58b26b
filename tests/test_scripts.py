"""Smoke runs of the experiment scripts, so an API change cannot break them
unnoticed.  Each script runs in a child process on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_density_sweep_writes_both_files_per_family(tmp_path):
    proc = run_script("density_sweep.py", "--n-max", "3", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    families = sorted({Path(name).stem for name in written})
    assert families
    assert written == sorted(
        f"{family}.{ext}" for family in families for ext in ("json", "tsv")
    )


@pytest.mark.parametrize(
    "name,argv",
    [
        ("jump_scan.py", ("--denominator", "12", "--certify-strong", "1")),
        ("closed_form_report.py", ()),
    ],
)
def test_script_exits_cleanly(name, argv):
    proc = run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
