"""Golden-output regression: the golden builds' files round-trip, and the
study reports keep their digests.

The golden builds' outputs are pinned in fingerprints.txt, one line per
build: the saved file's SHA-256 (w and v included), its records, moments
and queries (see fingerprints.py, which builds them through golden_build).
Here each saved file must load back to the same codes, outputs, w, v,
spline flags and region count, and save again to the same bytes.
Each study digest pair covers a study's CSV and JSON sidecar, without the
timings and the library version.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from sgsurrogate import (
    AdaptiveConfig, build, get_benchmark, load_surrogate, run_csc, run_study, save_surrogate,
)

# the test_01 acceptance configs, a small Poisson build whose digest pins the
# solver's outputs, two Poisson builds that pin refinement at 10 and 100
# dimensions (the first the benchmark's poisson_easgc_10d build), and a
# deeper 100-D build whose splines do real work (40,196 nodes, 1,624 of them
# spline values, 599 regions):
# case -> (benchmark, benchmark params, CSC level, adaptive config)
CASES = {
    "kink": ("kink", None, 5,
             AdaptiveConfig(dimension=1, epsilon=1e-4, max_level=8, init_level=2)),
    "line_singularity": ("line_singularity", None, 5,
                         AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=8, init_level=2)),
    "poisson": ("poisson", {"n_random": 4, "n_cells": 64}, None,
                AdaptiveConfig(dimension=4, epsilon=1e-6, max_level=5, init_level=2,
                               min_line_points=7)),
    "poisson_10d": ("poisson", {"n_random": 10}, None,
                    AdaptiveConfig(dimension=10, epsilon=1e-6, max_level=4, init_level=2,
                                   min_line_points=7)),
    "poisson_100d": ("poisson", {"n_random": 100, "n_cells": 64}, None,
                     AdaptiveConfig(dimension=100, epsilon=1e-4, max_level=4, init_level=1,
                                    min_line_points=7)),
    "poisson_100d_splines": ("poisson", {"n_random": 100, "n_cells": 64}, None,
                             AdaptiveConfig(dimension=100, epsilon=1e-5, max_level=8,
                                            init_level=1, min_line_points=7)),
}

# the golden builds: (case, method)
GOLDEN = [
    ("kink", "ASGC"), ("kink", "CSC"), ("kink", "EASGC"),
    ("line_singularity", "ASGC"), ("line_singularity", "CSC"), ("line_singularity", "EASGC"),
    ("poisson", "EASGC"), ("poisson_100d", "EASGC"), ("poisson_100d_splines", "EASGC"),
    ("poisson_10d", "EASGC"),
]


@functools.cache
def golden_build(name: str, method: str):
    """The BuildResult of a golden build, built once per process: this test
    and fingerprints.py share it."""
    benchmark, params, csc_level, cfg = CASES[name]
    f, _ = get_benchmark(benchmark, params)
    if method == "CSC":
        return run_csc(f, f.dimension, csc_level)
    return build(f, cfg, method)


@pytest.mark.parametrize("name, method", GOLDEN)
def test_outputs_match_golden_digest(name, method, tmp_path):
    # the file's digest is pinned in its line of fingerprints.txt
    result = golden_build(name, method)
    path = tmp_path / "model.surrogate"
    save_surrogate(path, result.model, result.region_db)
    # the file loads back to the same model, which saves to the same bytes
    loaded, regions = load_surrogate(path)
    for field in ("codes", "outputs", "w", "v", "spline"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(result.model, field))
    assert len(regions or ()) == len(result.region_db or ())
    again = tmp_path / "again.surrogate"
    save_surrogate(again, loaded, regions)
    assert again.read_bytes() == path.read_bytes()


# study reports: CSC, ASGC and EASGC on four benchmarks, digested so that
# timings and last-digit changes of another BLAS's summation order do not
# move them:
# case -> (benchmark, benchmark params, config)
STUDIES = {
    "kink": ("kink", None, AdaptiveConfig(dimension=1, epsilon=1e-4, max_level=8,
                                          init_level=2)),
    "line_singularity": ("line_singularity", None,
                         AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=8, init_level=2)),
    "truss2": ("truss2", None, AdaptiveConfig(dimension=2, epsilon=10.0, max_level=5,
                                              init_level=2)),
    "poisson": ("poisson", {"n_random": 4, "n_cells": 64},
                AdaptiveConfig(dimension=4, epsilon=1e-6, max_level=5, init_level=2,
                               min_line_points=7)),
}

STUDY_DIGESTS = {  # (CSV digest, sidecar digest)
    ("kink", "CSC"): (
        "1a345a533afe2ab443fb09829f3b9de08e28770ad2cddcb34ff043ccf581a31d",
        "f5faf17432fc0bc7b498f06244d5f180a3d51a88d377faef0c4a7ef48dc8bd2a",
    ),
    ("kink", "ASGC"): (
        "e5d1541bee725164f356ff860cc4614a7eb338788a0eb91b9a59dace6d345658",
        "e5a556502757d85ebbec8725bbba775a713df290e23793f6bcc412066d7e0e43",
    ),
    ("kink", "EASGC"): (
        "6783675471da4202da2cd5e135dc591e4d33cf2f66a69a388c1a59231e17a14a",
        "96cdf08a971f4c41812f43b84379b37d0df0a02c4ba01347a4025362de0f8b56",
    ),
    ("line_singularity", "CSC"): (
        "68736fec8f6f10a9d94217420eeffef7e0d5464af0fe1e242945efca8cf1e783",
        "985ec55f26094d3dbccc010d0f8d5f6580e6ac19f7bdbd53119991c01f25cf43",
    ),
    ("line_singularity", "ASGC"): (
        "9fca98446c745c0f8899483c28c73718f03fc459a985c4efd373a6693a590e4f",
        "e1b3a006c38c7a49b27aaf3e2c86e9043efd37c535d4e00f280548440ab3b206",
    ),
    ("line_singularity", "EASGC"): (
        "69f8ca10109105a0b53c21c564e2e7beeeee483c3602f13d7a1b62c61f5787f9",
        "67e06d735094d08a62e431f30ecd3c2afadceb77a8146b5e8ba05a4034068b4b",
    ),
    ("truss2", "CSC"): (
        "52569cb7469a5149c7c97acd8067935243b77c8f2debe7c377815240d0a5c7c0",
        "9a6e16b69bbddf99d99479b4a7b53c49f1fafe591444988553aba147eac7819a",
    ),
    ("truss2", "ASGC"): (
        "4e2f8ccc0043e70132a8ef097a19dbc2eb6cc9c1754aff7a0e8b702011231136",
        "16b7156e37b5c835ac9346481c04f647aa552180229853cc6c8281791683bbbc",
    ),
    ("truss2", "EASGC"): (
        "1d623144a74822918ff8921bc604a5878f2a1c6fcc345d4522babec463c9c710",
        "3204a784aa204e958029174766afcaacfc6e73c24a631a54ccca8395ba8ef532",
    ),
    ("poisson", "CSC"): (
        "5470d5859022af8291cca5ef5bbe399f7368f4ed48b4ec7838da1dba4d447319",
        "1a5fd6816e625d2cb92c4d8b907b33277eb439606a0242fb5238feb014146532",
    ),
    ("poisson", "ASGC"): (
        "8ae42aec9061a225a623c43986354428bbfa9c1520d1850f03b282b182e29719",
        "62055d369227522e5251edd664a18089eaa74bccd25df2afaedca0eb2ba824b7",
    ),
    ("poisson", "EASGC"): (
        "e2e80f4ef70a0a86b621b39938193377a00a2825d791c6fa7c75075201f567b3",
        "d00c91b717c689d93c5829bc37a55c0b528a17fc2c426d39fdca33457738bcb1",
    ),
}


def study_digests(csv_text: str, sidecar_text: str) -> tuple[str, str]:
    """SHA-256 of the CSV without wall_time, every cell read as a float and
    written to 12 significant digits, and of the sidecar without
    level_build_s and version, dumped with sorted keys."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if name != "wall_time"]
    cells = [[rows[0][k] for k in keep]]
    cells += [[format(float(row[k]), ".12g") for k in keep] for row in rows[1:]]
    csv_digest = hashlib.sha256("\n".join(map(",".join, cells)).encode()).hexdigest()
    meta = json.loads(sidecar_text)
    del meta["level_build_s"], meta["version"]
    meta_digest = hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()
    return csv_digest, meta_digest


@pytest.mark.parametrize("name, method", sorted(STUDY_DIGESTS))
def test_study_report_matches_golden_digest(name, method, tmp_path):
    benchmark, params, cfg = STUDIES[name]
    run_study(method, benchmark, cfg, benchmark_params=params, seed=5, n_test_points=500,
              output_dir=tmp_path, stem="study")
    got = study_digests((tmp_path / "study.csv").read_text(),
                        (tmp_path / "study.json").read_text())
    assert got == STUDY_DIGESTS[name, method]
