"""Each demo script runs in a fresh interpreter and prints its known bytes.

The digests were taken from the output of the per-pair image report, so a
change to how the library computes a result must leave every demo's stdout
as it was.  Demos 03 and 05 read ``ImageReport``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jointdigits

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "01_leading_digits.py": "b468ce62d22dfb9cd01001388009b4f9891681870eebbe63f1d815b5c041eb55",
    "02_multiplicative_dependence.py":
        "a6a7c94808fbf39e074d33ea94cb016b82dab5a4a9509079d0be2e81d7fb6ac9",
    "03_joint_digit_table.py": "69a5061b81cb6b0d44345284f7de068dece64ef9b2dd7a9c81aead1df0abb332",
    "04_witness_search.py": "aa2b8f758779911d9a76905810df585a5c8f22c6e21119e66f156c7dcd9d2163",
    "05_torus_coverage.py": "f3143f38eecca4e0b5f2498d15ade3ad784688cc4bba3ca6644d58baac24a2eb",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout(name):
    src = str(Path(jointdigits.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env,
        cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[name]
