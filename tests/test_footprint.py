"""What the package loads: never SciPy.

On a 2-core x86-64 host, importing SciPy's linear algebra costs a process
about 27 MB of resident memory and 0.3 s, more than a whole small build.  The
Poisson benchmark solves its systems in closed form and the smooth layer its
spline systems in NumPy, so only the tests use SciPy.  The check runs in a
fresh interpreter whose import system refuses every `scipy` module, so an
import anywhere on these paths fails the build it sits in.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import sys

    refused = []

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                refused.append(name)
                raise ImportError(f"scipy import refused: {name}")
            return None

    sys.meta_path.insert(0, NoScipy())

    import sgsurrogate
    from sgsurrogate import (
        AdaptiveConfig, get_benchmark, load_surrogate, run_asgc, run_csc, run_easgc, run_study,
    )
    from sgsurrogate.cli import main

    out = sys.argv[1]
    for name, level in (("line_singularity", 5), ("kink", 6)):
        f, _ = get_benchmark(name)
        cfg = AdaptiveConfig(dimension=f.dimension, epsilon=1e-3, max_level=level,
                             min_line_points=5)
        run_csc(f, f.dimension, level)
        run_asgc(f, cfg)
        assert run_easgc(f, cfg).model.spline_interpolations > 0, name
    cfg = AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=6, min_line_points=5)
    run_study("easgc", "line_singularity", cfg, n_test_points=200, output_dir=out,
              persist_surrogate=True)
    model, db = load_surrogate(f"{out}/line_singularity_easgc.surrogate")
    assert len(db) > 0
    assert main(["build", "--method", "easgc", "--benchmark", "line_singularity",
                 "--output-dir", f"{out}/cli"]) == 0
    f, _ = get_benchmark("poisson", {"n_random": 2, "n_cells": 16})
    cfg = AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=4, min_line_points=5)
    assert run_easgc(f, cfg).model.full_evaluations > 0

    assert not refused, refused
    assert not [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
    print("ok")
""")


def test_builds_studies_and_files_load_no_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
