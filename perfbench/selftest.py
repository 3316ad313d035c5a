"""Self-test of the benchmark, on a tiny workload (kink, CSC to level 4).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that:

1. run.py's last line has exactly the keys correct, attempted, failed and
   metrics, and carries every metric BENCHMARK.json declares, with its unit:
   the end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`;
2. a deliberately wrong reference count makes operations count as failed;
3. run.py exits nonzero, printing no result, in a directory that holds only
   BENCHMARK.json and the benchmark's own files.

Exits with status 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = "selftest_kink_csc_l4"


def _run_py(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", TINY, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run_py(run.ROOT, trace)
        if done.returncode != 0:
            failures.append(f"--trace {trace}: exit {done.returncode}: {done.stderr[-500:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"--trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            failures.append(f"--trace {trace}: tiny workload not correct: {result}")
        declared = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != declared:
            failures.append(f"--trace {trace}: metrics differ from BENCHMARK.json {section}: "
                            f"missing {sorted(set(declared) - set(emitted))}, "
                            f"extra {sorted(set(emitted) - set(declared))}, units "
                            f"{sorted(k for k in declared if emitted.get(k, declared[k]) != declared[k])}")
        for name, metric in result["metrics"].items():
            if not isinstance(metric["value"], (int, float)):
                failures.append(f"--trace {trace}: {name} is not a number: {metric['value']!r}")


def check_wrong_reference(failures: list[str]) -> None:
    import workloads
    tiny = workloads.WORKLOADS[TINY]
    wrong = dataclasses.replace(
        tiny, reference={**tiny.reference, "nodes": tiny.reference["nodes"] + 1})
    result = workloads.run_workload(wrong, 5, 0.2, run.OUT / "selftest")["result"]
    failed_frac = result["failed"] / result["attempted"]
    if result["correct"] or not failed_frac > 0:
        failures.append(f"a wrong reference count left failed_frac at {failed_frac}")


def check_bare_directory(failures: list[str]) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = _run_py(bare, 0)
    if done.returncode == 0 or done.stdout.strip():
        failures.append(f"without library source: exit {done.returncode}, "
                        f"stdout {done.stdout.strip()[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.prepare()
    failures: list[str] = []
    check_metric_names(failures)
    check_wrong_reference(failures)
    check_bare_directory(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
