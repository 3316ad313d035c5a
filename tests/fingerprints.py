"""Print one fingerprint line per build of a fixed identity set.

The lines are pinned in fingerprints.txt, and test_fingerprints.py compares
them with the ones a tree prints; so does

    PYTHONPATH=src python tests/fingerprints.py | diff tests/fingerprints.txt -

A change that is meant to keep every output bit for bit must leave the
lines unchanged; one that moves an output edits fingerprints.txt and says
why.  Each build line holds the saved file's SHA-256 (w and v
included), a digest of every LevelRecord field except the phase timings,
the stop reason, the analytic moments as float.hex, and a digest of
the w and v surrogates at 3,000 seeded uniform points.  The study of
the benchmark's easgc_line_study operation also prints its CSV without
wall_time and its sidecar without level_build_s, line by line.

The identity set: the benchmark's three operations, the golden builds of
test_golden.py (built through its golden_build, so a pytest session builds
each once), truss2 and truss3 with each method, and the 100-D Poisson EASGC
build.  pytest does not collect this file.
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
from test_golden import GOLDEN, golden_build

N_POINTS = 3000

PINNED = Path(__file__).with_name("fingerprints.txt")

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
    # the benchmark's poisson_easgc_10d build is the golden poisson_10d one
    yield "bench poisson_easgc_10d", lambda: golden_build("poisson_10d", "EASGC")
    yield "bench easgc_line_study build", lambda: build(
        get_benchmark("line_singularity")[0], STUDY_CONFIG, "EASGC")
    for name, method in GOLDEN:
        yield f"golden {name} {method}", lambda name=name, method=method: golden_build(name, method)
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


def fingerprint_lines(tmp: Path):
    """The identity set's fingerprint lines, in order; `tmp` takes the files."""
    for name, thunk in builds():
        yield build_line(name, thunk(), tmp)
    yield from study_lines(tmp)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for line in fingerprint_lines(Path(tmp)):
            print(line, flush=True)


if __name__ == "__main__":
    main()
