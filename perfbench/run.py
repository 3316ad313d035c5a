"""sgsurrogate benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload csc_line_l12 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Lines before it record the environment and the run's details.
Spans of a traced run go to `perfbench/out/spans-<workload>.csv`.

Without the library source beside the benchmark the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One caller, one process: pin the BLAS pool to a single thread, so the whole
# load is one thread and a run does not compete with itself for the cores.
# Must be set before numpy is imported.
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin BLAS threads and put the checkout's `src/` first on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "sgsurrogate" / "__init__.py").is_file():
        _fail(f"no library source at {SRC / 'sgsurrogate'}")
    sys.path.insert(0, str(SRC))
    import sgsurrogate
    if Path(sgsurrogate.__file__).resolve().parent != SRC / "sgsurrogate":
        _fail(f"imported sgsurrogate from {sgsurrogate.__file__}, not {SRC}")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sgsurrogate").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    prepare()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    print(json.dumps({"environment": environment()}), flush=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None and tracer.missing:
        print(json.dumps({"missing_spans": tracer.missing}), flush=True)
    run = workloads.run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                 args.seconds, OUT / args.workload, tracer)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv")
    print(json.dumps({"details": run["details"]}), flush=True)
    print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
