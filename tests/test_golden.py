"""Golden-output regression: the node set, node order, outputs and regions.

Each digest is the SHA-256 of a saved surrogate's node lines reduced to
"level:index token, output, provenance" in file order, followed by its region
lines verbatim; the w and v fields are left out, so a kernel change that
moves surpluses only in their last bits keeps the digests, while any change
to which nodes are built, their order, their outputs or the regions fails.
"""

import hashlib

import pytest

from sgsurrogate import AdaptiveConfig, build, get_benchmark, run_csc, save_surrogate

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
