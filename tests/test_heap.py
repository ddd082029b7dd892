"""``cli.main`` keeps freed memory in the process (glibc only).

Each check runs in a fresh interpreter, since the allocator settings are
process-wide and the pytest process has already run ``main``.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("resource")  # getrusage, used by the subprocess

if not hasattr(ctypes.CDLL(None), "mallopt"):
    pytest.skip("libc has no mallopt", allow_module_level=True)

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one cheap command through main, then counts the minor page faults of
# 50 cycles that each make a 4 MB array and the 4 MB result of one
# elementwise op on it, then free both: a training op in miniature.  With
# "stub", ctypes finds no mallopt, as on a libc without it.
_SCRIPT = """
import ctypes, json, resource, sys
if sys.argv[1] == "stub":
    ctypes.CDLL = lambda name: object()
import numpy as np
from consem.cli import main

status = main(["prepare", "--nli", sys.argv[2], "--out", sys.argv[3]])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    a = np.ones(1 << 20, dtype=np.float32)
    b = a * 2
    del a, b
print(json.dumps({"status": status, "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before}))
"""


def _run(mode, tmp_path):
    nli = tmp_path / "nli.jsonl"
    rows = [
        {"premise": "the river is wide", "hypothesis": "the river is broad", "label": "entailment"},
        {"premise": "the river is wide", "hypothesis": "the river is narrow", "label": "contradiction"},
    ]
    nli.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, mode, str(nli), str(tmp_path / mode)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_main_keeps_freed_memory(tmp_path):
    kept, stubbed = _run("mallopt", tmp_path), _run("stub", tmp_path)
    assert kept["status"] == 0
    assert kept["faults"] * 4 < stubbed["faults"], (kept, stubbed)


def test_main_runs_without_mallopt(tmp_path):
    result = _run("stub", tmp_path)
    assert result["status"] == 0
    assert (tmp_path / "stub" / "triples.jsonl").exists()
