"""Golden-output regression: the node set, node order, outputs and regions,
and the study reports.

Each build digest is the SHA-256 of a saved surrogate's node lines reduced to
"level:index token, output, provenance" in file order, followed by its region
lines verbatim; the w and v fields are left out, so a kernel change that
moves surpluses only in their last bits keeps the digests, while any change
to which nodes are built, their order, their outputs or the regions fails.
Each study digest pair covers a study's CSV and JSON sidecar, without the
timings and the library version.
"""

import hashlib
import json

import pytest

from sgsurrogate import (
    AdaptiveConfig, build, get_benchmark, run_csc, run_study, save_surrogate,
)

# the test_01 acceptance configs, a small Poisson build whose digest pins the
# solver's outputs, and two Poisson builds that pin refinement at 10 and 100
# dimensions (the first the benchmark's poisson_easgc_10d build):
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
}

DIGESTS = {
    ("kink", "CSC"): "c826011a66c5d787b6f9c503a01e0371c60a9561eeb7bafbcb8cfb5d6009fe84",
    ("kink", "ASGC"): "4f2e26be62a2b1f72e9d879db466d61014722ee0b1d5f6f43f27b6704dd93a98",
    ("kink", "EASGC"): "be0dc057cf6681258a8bc2b90d6aea33a3efefabb78433d5665b5712f59f0dd4",
    ("line_singularity", "CSC"): "e573fab9c752d3c061b84c25a9c988035c66d7bca25ac75fbafdefcfe9b7f3cd",
    ("line_singularity", "ASGC"): "bb5f22633c41c8514bd273a49ce8c20cf5f0530a7b377ada2a10a79612670ffc",
    ("line_singularity", "EASGC"): "955257a77864d169ad0000bb5ec39ac4d67bd1f9498254d1a9f40b60dcd4a44d",
    ("poisson", "EASGC"): "6d1b655803bc23e160e89b53fc55ddecaa17cec83aa14c931e21aac2d06696d6",
    ("poisson_10d", "EASGC"): "0e1387d0f75ef7e82d90f5e193a1155d0125b91aa84d0f63b4a978425f37358e",
    ("poisson_100d", "EASGC"): "d6a5b6b94e22bfe0e4344ee9720774bd8af21315b6f8a7fae04cf2170efaaa05",
}


def output_digest(text: str) -> str:
    h = hashlib.sha256()
    for line in text.splitlines()[1:]:  # the header is left out
        fields = line.split()
        if len(fields) == 5:  # node: token output w v provenance
            token, output, _w, _v, flag = fields
            h.update(f"{token} {output} {flag}\n".encode())
        elif fields[0] != "regions":
            h.update((line + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, method", sorted(DIGESTS))
def test_outputs_match_golden_digest(name, method, tmp_path):
    benchmark, params, csc_level, cfg = CASES[name]
    f, _ = get_benchmark(benchmark, params)
    if method == "CSC":
        result = run_csc(f, f.dimension, csc_level)
    else:
        result = build(f, cfg, method)
    path = tmp_path / "model.surrogate"
    save_surrogate(path, result.model, result.region_db)
    assert output_digest(path.read_text()) == DIGESTS[name, method]


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
        "3f4a67c0bdb98b04c1f4929f4b550d8515c9f7275ad16c0356506e0866e0aa77",
        "1a5fd6816e625d2cb92c4d8b907b33277eb439606a0242fb5238feb014146532",
    ),
    ("poisson", "ASGC"): (
        "570d924383e04c59403908550e9e3d77973b2d304b7addf522e7854a4a1045bc",
        "62055d369227522e5251edd664a18089eaa74bccd25df2afaedca0eb2ba824b7",
    ),
    ("poisson", "EASGC"): (
        "248286c524e3b0e37e9df4c8b446f8eede8d454a8c48bac6e57b1825904bf854",
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
