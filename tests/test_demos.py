"""The five demos run to completion and print exactly what they printed before.

Each demo runs in its own interpreter with ``src`` on the path; its
stdout is pinned by SHA-256, so a kernel change that moves any printed
number, witness or verdict fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "demo_01_groups_and_deficits.py":
        "9dbe60c3c3beb7f9af5e8d989c51ed55ca87ef0050ea11ce27e2250976a061e8",
    "demo_02_quotient_transfer.py":
        "7acb46a9fb33c90d79558c040310e6c56a68ee8334735789816dfad19732c529",
    "demo_03_pseudometric_walkthrough.py":
        "1331e9d70458ab77cd07c7c3386ec5564b00dadfff228519852a77d54817d6c1",
    "demo_04_character_recovery.py":
        "a3e6d86d9a608e7aeb5c3ac31a120a71bb15ecaf65b36c29a7ae40a3866d49f4",
    "demo_05_inverse_oracles_and_probes.py":
        "61743a7b7a4f50dd4e63454469c0029057015fa4a011d227af77357bb82fb095",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("demo_*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]
