"""The benchmark under perfbench/ still runs against this library.

Its tracer wraps library functions by name and skips a name it cannot find,
so a renamed function would silently zero that layer's metrics; these tests
fail instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_selftest_passes():
    done = run("perfbench/selftest.py")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_traced_run_finds_every_span():
    done = run("perfbench/run.py", "--workload", "selftest_kink_csc_l4", "--seed", "1",
               "--seconds", "0.5", "--trace", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    missing = [line for line in lines if line.startswith("{") and "missing_spans" in json.loads(line)]
    assert not missing, missing
    assert json.loads(lines[-1])["correct"]
