"""Print one fingerprint line per build of a fixed identity set.

Run it on two trees and compare the outputs:

    PYTHONPATH=src python tests/fingerprints.py > fp.txt
    diff fp_before.txt fp_after.txt

A change that is meant to keep every output bit for bit must leave the
output unchanged.  Each build line holds the saved file's SHA-256 (w and v
included), a digest of every LevelRecord field except the phase timings,
the stop reason, the analytic moments as float.hex, and a digest of
the w and v surrogates at 3,000 seeded uniform points.  The study of
the benchmark's easgc_line_study operation also prints its CSV without
wall_time and its sidecar without level_build_s, line by line.

The identity set: the benchmark's three operations, the golden build
configs of test_golden.py, truss2 and truss3 with each method, and the
100-D Poisson EASGC build.  pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from sgsurrogate import (
    METHODS, AdaptiveConfig, build, get_benchmark, load_surrogate, moments, run_csc,
    run_study, save_surrogate,
)
from test_golden import CASES, DIGESTS

N_POINTS = 3000

# the benchmark's easgc_line_study operation
STUDY_CONFIG = AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=20, init_level=2)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_fields(model, regions, tmp: Path) -> list[str]:
    """File SHA-256, moment bits and query digest of a model."""
    path = tmp / "model.surrogate"
    save_surrogate(path, model, regions)
    est = moments(model)
    x = np.random.default_rng(2024).random((N_POINTS, model.dimension))
    queries = (model.interpolate_many(x).tobytes()
               + (model._evaluate_sum(x, (1,))[0, 0] + 0.0).tobytes())
    return [f"file={sha(path.read_bytes())}",
            "moments=" + ",".join(float.hex(getattr(est, field.name))
                                  for field in dataclasses.fields(est)),
            f"query={sha(queries)}"]


def build_line(name: str, result, tmp: Path) -> str:
    records = [{k: v for k, v in dataclasses.asdict(r).items() if k != "phase_s"}
               for r in result.records]
    fields = [name, f"nodes={len(result.model)}", f"stop={result.stopped_by}",
              f"records={sha(json.dumps(records, sort_keys=True).encode())}",
              *model_fields(result.model, result.region_db, tmp)]
    return " ".join(fields)


def builds():
    """(name, thunk) per build of the identity set."""
    line = get_benchmark("line_singularity")[0]
    yield "bench csc_line_l12", lambda: run_csc(line, 2, 12)
    poisson10 = AdaptiveConfig(dimension=10, epsilon=1e-6, max_level=4, init_level=2,
                               min_line_points=7)
    yield "bench poisson_easgc_10d", lambda: build(
        get_benchmark("poisson", {"n_random": 10})[0], poisson10, "EASGC")
    yield "bench easgc_line_study build", lambda: build(
        get_benchmark("line_singularity")[0], STUDY_CONFIG, "EASGC")
    for name, method in sorted(DIGESTS):
        benchmark, params, csc_level, cfg = CASES[name]
        f = get_benchmark(benchmark, params)[0]
        yield (f"golden {name} {method}",
               (lambda f=f, level=csc_level: run_csc(f, f.dimension, level)) if method == "CSC"
               else (lambda f=f, cfg=cfg, method=method: build(f, cfg, method)))
    truss = {"truss2": AdaptiveConfig(dimension=2, epsilon=10.0, max_level=5, init_level=2),
             "truss3": AdaptiveConfig(dimension=3, epsilon=10.0, max_level=5, init_level=2)}
    for name, cfg in truss.items():
        for method in METHODS:
            yield (f"{name} {method}",
                   lambda name=name, cfg=cfg, method=method: build(
                       get_benchmark(name)[0], cfg, method))


def study_lines(tmp: Path) -> list[str]:
    run_study("EASGC", "line_singularity", STUDY_CONFIG, seed=11, n_test_points=10_000,
              output_dir=tmp, stem="study", persist_surrogate=True)
    model, regions = load_surrogate(tmp / "study.surrogate")
    lines = ["bench easgc_line_study " + " ".join(model_fields(model, regions, tmp))]
    rows = [row.split(",") for row in (tmp / "study.csv").read_text().splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if name != "wall_time"]
    lines += ["study csv " + ",".join(row[k] for k in keep) for row in rows]
    meta = json.loads((tmp / "study.json").read_text())
    del meta["level_build_s"]
    lines.append("study sidecar " + json.dumps(meta, sort_keys=True))
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, thunk in builds():
            print(build_line(name, thunk(), tmp), flush=True)
        for line in study_lines(tmp):
            print(line)


if __name__ == "__main__":
    main()
