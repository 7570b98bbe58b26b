"""Smoke runs of the experiment scripts, so an API change cannot break them
unnoticed.  Each script runs in a child process on a small input."""

import hashlib
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


def test_density_sweep_json_is_pinned(tmp_path):
    # the extremal graphs' labeling, end to end: any change to the canonical
    # form or to the frontier's order shows in these bytes
    proc = run_script(
        "density_sweep.py", "--n-max", "5", "--family", "mixed_pair",
        "--family", "triangle", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    digests = {
        name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
        for name in ("mixed_pair", "triangle")
    }
    assert digests == {
        "mixed_pair": "2fae8074556c936f5033c29516ca1619ae5a711cb7045064d22b97dfdf0ecc9f",
        "triangle": "3e9fff32100ae7a75e9d255049cd2afe9cf5dbaeadb33ac2d3cefe6b54a8f448",
    }


def test_jump_scan_output_is_pinned():
    # every verdict, matched form, k and note on the grid i/240 as printed
    proc = run_script("jump_scan.py", "--denominator", "240")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "3144272ebc02afb6833f48a8771cbdae50c1d9f227d7df9ed9d75cf1b8bc854d"
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


@pytest.mark.parametrize(
    "argv,text",
    [
        (("--denominator", "0"), "denominator must be positive"),
        (("--denominator", "24", "--certify-strong", "-1"),
         "certify-strong count must not be negative"),
    ],
)
def test_jump_scan_refuses_bad_counts(argv, text):
    proc = run_script("jump_scan.py", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.rstrip().endswith(f"error: {text}")
