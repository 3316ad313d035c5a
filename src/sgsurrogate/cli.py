"""Command line interface: build, moments, query, study.

The commands read their settings from a flat `key = value` file: the keys
of _KEYS, plus the chosen benchmark's parameters as dotted keys such as
`poisson.n_cells = 256`.  Exit code 0 on success; on failure a single
machine-readable JSON line goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .adapt import AdaptiveConfig, _check_integer
from .errors import SparseGridError
from .harness import METHODS, _build_record, build, run_study
from .io import load_surrogate, save_surrogate
from .models import benchmark_names, get_benchmark
from .moments import moments

_METHOD_CHOICES = [m.lower() for m in METHODS]

# the counts the commands read themselves, each with its least value
_COUNTS = {"dimension": 1, "seed": 0, "n_test_points": 1}

# the flat settings keys: each names the AdaptiveConfig field it sets, or
# None for one of _COUNTS
_KEYS = {"epsilon": "epsilon", "i_max": "max_level", "i1": "init_level",
         "m_min": "min_line_points", "phi": "slope_tol", **dict.fromkeys(_COUNTS)}


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.lower() in ("inf", "+inf"):
        return math.inf
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    return raw


def _parse_config(path) -> dict:
    """Read a settings file; dotted keys nest one level deep.

    Blank lines and `#` comments are ignored.  Only the syntax is checked
    here, and a key set twice, flat or dotted, is refused.
    """
    out: dict = {}
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SparseGridError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in seen:
            raise SparseGridError(f"{path}:{lineno}: key {key!r} repeated, "
                                  f"first set on line {seen[key]}")
        seen[key] = lineno
        value = _parse_value(raw)
        if "." in key:
            group, sub = key.split(".", 1)
            out.setdefault(group, {})
            if not isinstance(out[group], dict):
                raise SparseGridError(f"{path}:{lineno}: key {group!r} used both flat and dotted")
            out[group][sub] = value
        elif key in out:  # not set before, so the name of a dotted group
            raise SparseGridError(f"{path}:{lineno}: key {key!r} used both flat and dotted")
        else:
            out[key] = value
    return out


def _benchmark_and_config(settings: dict, benchmark: str):
    """The benchmark model, its parameter echo and the config for its dimension.

    Refuses a key that nothing reads: one of neither _KEYS nor the
    `<benchmark>.<parameter>` group of the chosen benchmark.  `build` takes
    `seed` and `n_test_points` too, so one file serves both commands, and
    refuses any of _COUNTS that `study` refuses: one that is no integer or
    lies below its least value.
    """
    unknown = sorted(key for key in settings if key not in _KEYS
                     and not (key == benchmark and isinstance(settings[key], dict)))
    if unknown:
        raise SparseGridError(f"unknown config keys {unknown}; expected some of "
                              f"{sorted(_KEYS)} or {benchmark}.<parameter>")
    for key, low in _COUNTS.items():
        if key in settings:
            _check_integer(key, settings[key], low)
    f, echo = get_benchmark(benchmark, settings.get(benchmark))
    stated = settings.get("dimension", f.dimension)
    if stated != f.dimension:
        raise SparseGridError(
            f"config dimension {stated} != benchmark dimension {f.dimension}"
        )
    fields = {_KEYS[key]: value for key, value in settings.items() if _KEYS.get(key)}
    return f, echo, AdaptiveConfig(dimension=f.dimension, **fields)


def _cmd_build(args) -> int:
    method = args.method.upper()
    settings = _parse_config(args.config) if args.config else {}
    f, echo, cfg = _benchmark_and_config(settings, args.benchmark)
    result = build(f, cfg, method)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.benchmark}_{args.method}.surrogate"
    save_surrogate(path, result.model, result.region_db)
    meta = {**_build_record(method, args.benchmark, echo, result), "surrogate": path.name}
    (out_dir / f"{args.benchmark}_{args.method}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(meta))
    return 0


def _cmd_moments(args) -> int:
    model, _ = load_surrogate(args.surrogate)
    print(json.dumps(dataclasses.asdict(moments(model))))
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
    settings = _parse_config(args.config) if args.config else {}
    _, _, cfg = _benchmark_and_config(settings, args.benchmark)
    # the counts checked there; run_study's defaults stand for those left out
    counts = {key: settings[key] for key in ("seed", "n_test_points") if key in settings}
    written = []
    for method in methods:
        report = run_study(
            method, args.benchmark, cfg, benchmark_params=settings.get(args.benchmark),
            output_dir=args.output_dir, persist_surrogate=args.persist, **counts,
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
