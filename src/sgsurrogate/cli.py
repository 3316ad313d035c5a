"""Command line interface: build, moments, query, study.

Exit code 0 on success; on failure a single machine-readable JSON line goes
to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .adapt import _check_integer
from .errors import SparseGridError
from .harness import _CONFIG_KEYS, METHODS, build, config_from_mapping, parse_config, run_study
from .io import load_surrogate, save_surrogate
from .models import benchmark_names, get_benchmark
from .moments import moments

_METHOD_CHOICES = [m.lower() for m in METHODS]


# the flat keys a settings file may hold, besides the benchmark's dotted group
_SETTINGS_KEYS = {*_CONFIG_KEYS, "dimension", "seed", "n_test_points"}


def _benchmark_and_config(settings: dict, benchmark: str):
    """The benchmark model, its parameter echo and the config for its dimension.

    Refuses a key that nothing reads: one of neither _SETTINGS_KEYS nor the
    `<benchmark>.<parameter>` group of the chosen benchmark.  `build` takes
    `seed` and `n_test_points` too, so one file serves both commands, and
    refuses a `dimension` or `seed` that is no integer, as `study` does.
    """
    unknown = sorted(key for key in settings if key not in _SETTINGS_KEYS
                     and not (key == benchmark and isinstance(settings[key], dict)))
    if unknown:
        raise SparseGridError(f"unknown config keys {unknown}; expected some of "
                              f"{sorted(_SETTINGS_KEYS)} or {benchmark}.<parameter>")
    _check_integer("seed", settings.get("seed", 0), 0)
    f, echo = get_benchmark(benchmark, settings.get(benchmark))
    stated = settings.get("dimension", f.dimension)
    _check_integer("dimension", stated, 1)
    if stated != f.dimension:
        raise SparseGridError(
            f"config dimension {stated} != benchmark dimension {f.dimension}"
        )
    return f, echo, config_from_mapping(settings, f.dimension)


def _cmd_build(args) -> int:
    method = args.method.upper()
    settings = parse_config(args.config) if args.config else {}
    f, echo, cfg = _benchmark_and_config(settings, args.benchmark)
    result = build(f, cfg, method)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.benchmark}_{args.method}.surrogate"
    save_surrogate(path, result.model, result.region_db)
    meta = {
        "method": method,
        "benchmark": args.benchmark,
        "benchmark_params": echo,
        "nodes": len(result.model),
        "full_evaluations": result.model.full_evaluations,
        "spline_interpolations": result.model.spline_interpolations,
        "stopped_by": result.stopped_by,
        "surrogate": path.name,
    }
    (out_dir / f"{args.benchmark}_{args.method}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(meta))
    return 0


def _cmd_moments(args) -> int:
    model, _ = load_surrogate(args.surrogate)
    est = moments(model)
    print(json.dumps({
        "mean": est.mean,
        "mean_square": est.mean_square,
        "variance": est.variance,
    }))
    return 0


def _cmd_query(args) -> int:
    model, _ = load_surrogate(args.surrogate)
    point = np.array([float(part) for part in args.point.split(",")])
    if point.shape != (model.dimension,):
        raise SparseGridError(
            f"point has {point.size} coordinates, surrogate expects {model.dimension}"
        )
    print(json.dumps({"point": point.tolist(), "value": model.interpolate(point)}))
    return 0


def _cmd_study(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in _METHOD_CHOICES]
    if unknown:
        raise SparseGridError(f"unknown methods {unknown}; expected a subset of {_METHOD_CHOICES}")
    settings = parse_config(args.config) if args.config else {}
    _, _, cfg = _benchmark_and_config(settings, args.benchmark)
    written = []
    for method in methods:
        report = run_study(
            method, args.benchmark, cfg, benchmark_params=settings.get(args.benchmark),
            seed=settings.get("seed", 0), n_test_points=settings.get("n_test_points", 10_000),
            output_dir=args.output_dir,
            persist_surrogate=args.persist,
        )
        written.append(f"{args.benchmark}_{method}.csv")
        last = report.rows[-1]
        print(json.dumps({
            "method": report.method,
            "levels": len(report.rows),
            "full_evals": last.full_evals,
            "spline_evals": last.spline_evals,
            "max_abs_error": last.max_abs_error,
            "rmse": last.rmse,
        }))
    print(json.dumps({"output_dir": str(args.output_dir), "files": written}))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgsurrogate",
        description="Sparse grid collocation surrogates: build, inspect and compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build_cmd = sub.add_parser("build", help="build one surrogate and persist it")
    build_cmd.add_argument("--method", choices=_METHOD_CHOICES, required=True)
    build_cmd.add_argument("--benchmark", choices=benchmark_names(), required=True)
    build_cmd.add_argument("--config", help="flat key=value config file")
    build_cmd.add_argument("--output-dir", required=True)
    build_cmd.set_defaults(func=_cmd_build)

    mom = sub.add_parser("moments", help="analytic mean/variance of a surrogate file")
    mom.add_argument("surrogate")
    mom.set_defaults(func=_cmd_moments)

    query = sub.add_parser("query", help="evaluate a surrogate file at a point")
    query.add_argument("surrogate")
    query.add_argument("--point", required=True, help="comma-separated coordinates in [0,1]")
    query.set_defaults(func=_cmd_query)

    study = sub.add_parser("study", help="comparative per-level study, one CSV per method")
    study.add_argument("--benchmark", choices=benchmark_names(), required=True)
    study.add_argument("--config", help="flat key=value config file")
    study.add_argument("--output-dir", required=True)
    study.add_argument("--methods", default="csc,asgc,easgc",
                       help=f"comma-separated subset of {','.join(_METHOD_CHOICES)}")
    study.add_argument("--persist", action="store_true",
                       help="also persist each method's surrogate")
    study.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparseGridError, ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
