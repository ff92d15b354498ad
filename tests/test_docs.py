"""Every fenced python block of README.md and PAPER.md runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "PAPER.md")
BLOCKS = [
    (doc, n, code)
    for doc in DOCS
    for n, code in enumerate(re.findall(r"^```python\n(.*?)^```", (ROOT / doc).read_text(), re.M | re.S))
]


def test_every_document_has_a_python_block():
    assert sorted({doc for doc, _, _ in BLOCKS}) == sorted(DOCS)


@pytest.mark.parametrize("doc, n, code", BLOCKS, ids=[f"{doc}-{n}" for doc, n, _ in BLOCKS])
def test_python_block_runs(doc, n, code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, f"{doc} block {n}:\n{run.stderr}"
