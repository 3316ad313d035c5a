"""Outside-in tracing of the sgsurrogate layers.

The library is not edited.  While a traced operation runs, every binding of
the functions and methods listed in SPANS is replaced by a wrapper defined
here; afterwards the originals are put back, so untraced operations run the
library exactly as shipped.  A wrapper records one span per call: name,
start, end, the span that was open when it started (its parent) and the id
of the operation it belongs to.  Spans stay in memory and are written out
when the run ends; self time is derived from them afterwards.

A boundary that no longer exists in the library (a renamed or deleted
function) is skipped and listed under `missing`, so a later refactor leaves
the metrics of that boundary at zero instead of breaking the run.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import sgsurrogate  # noqa: F401  (loads every submodule named below)

clock = time.perf_counter


def _points(args, result):
    return {"points": len(args[1])}


def _surplus(args, result):
    model, points = args[0], args[1]
    # pairs are computed, not measured: queries times prefix nodes
    return {"points": len(points), "pairs": len(points) * len(model)}


def _one_point(args, result):
    return {"points": 1}


def _levels(args, result):
    return {"levels": len(result.records)}


def _length(key):
    return lambda args, result: {key: len(result)}


def _regions(args, result):
    return {"regions": len(result.region_db or ())}


def _loaded_regions(args, result):
    return {"regions": len(result[1] or ())}


def _hit(args, result):
    return {"hits": int(result is not None)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, module, attribute path, counter extractor or None)
SPANS = (
    ("core.surplus", "sgsurrogate.core", "SurrogateModel.surpluses_against_prefix", _surplus),
    ("core.interp", "sgsurrogate.core", "SurrogateModel.interpolate_many", _points),
    ("core.interp", "sgsurrogate.core", "SurrogateModel.interpolate", _one_point),
    ("core.add_node", "sgsurrogate.core", "SurrogateModel.add_node", None),
    ("adapt.drive", "sgsurrogate.adapt", "_drive", _levels),
    ("adapt.refine", "sgsurrogate.adapt", "refine_candidates", _length("candidates")),
    ("models.eval", "sgsurrogate.adapt", "ModelFunction.__call__", None),
    ("smooth.easgc", "sgsurrogate.smooth", "run_easgc", _regions),
    ("smooth.scan", "sgsurrogate.smooth", "_scan_and_store", None),
    ("smooth.group_lines", "sgsurrogate.smooth", "group_lines", _length("lines")),
    ("smooth.derivative_scan", "sgsurrogate.smooth", "derivative_scan", _length("runs")),
    ("smooth.store", "sgsurrogate.smooth", "RegionDatabase.store", None),
    ("smooth.lookup", "sgsurrogate.smooth", "RegionDatabase.lookup", _hit),
    ("smooth.spline", "sgsurrogate.smooth", "spline_value", None),
    ("moments.moments", "sgsurrogate.moments", "moments", None),
    ("harness.study", "sgsurrogate.harness", "run_study", None),
    ("harness.metric", "sgsurrogate.harness", "max_abs_error", None),
    ("harness.metric", "sgsurrogate.harness", "rmse", None),
    ("io.save", "sgsurrogate.io", "save_surrogate", _file_bytes),
    ("io.load", "sgsurrogate.io", "load_surrogate", _loaded_regions),
)

# per-layer metrics in output order: (name, unit)
LAYER_METRICS = (
    ("core.surplus_s", "s"), ("core.surplus_calls", "count"),
    ("core.surplus_points", "count"), ("core.surplus_pairs", "count"),
    ("core.interp_s", "s"), ("core.interp_calls", "count"), ("core.interp_points", "count"),
    ("core.add_node_s", "s"), ("core.add_node_calls", "count"),
    ("adapt.refine_s", "s"), ("adapt.candidates", "count"), ("adapt.levels", "count"),
    ("adapt.self_s", "s"),
    ("models.evals", "count"), ("models.eval_s", "s"), ("models.eval_us", "us"),
    ("smooth.scan_s", "s"), ("smooth.lines_scanned", "count"), ("smooth.runs_found", "count"),
    ("smooth.store_s", "s"), ("smooth.stores", "count"), ("smooth.regions", "count"),
    ("smooth.lookup_s", "s"), ("smooth.lookups", "count"), ("smooth.hits", "count"),
    ("smooth.hit_ratio", "ratio"), ("smooth.spline_s", "s"),
    ("moments.s", "s"), ("moments.calls", "count"),
    ("harness.metric_s", "s"), ("harness.metric_calls", "count"),
    ("harness.truth_s", "s"), ("harness.build_s", "s"),
    ("io.save_s", "s"), ("io.load_s", "s"), ("io.file_bytes", "bytes"),
    ("io.load_MBps", "MB/s"),
    ("trace.overhead_frac", "ratio"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _bindings(fn) -> list:
    """Every (module, name) in the sgsurrogate package bound to `fn`.

    Functions imported by name (`from .adapt import _drive`) have one binding
    per importing module; all of them must be swapped for calls through any
    of them to be traced.
    """
    out = []
    for name, module in list(sys.modules.items()):
        if name == "sgsurrogate" or name.startswith("sgsurrogate."):
            for attr, value in vars(module).items():
                if value is fn:
                    out.append((module, attr))
    return out


class Tracer:
    """Span recorder plus the table of bindings it swaps in and out."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, run id, counts)
        self.run = None
        self._stack: list[int] = []
        self._swaps: list = []  # (owner, attribute, original, wrapper)
        self.missing: list[str] = []
        for name, module, path, count in SPANS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, count)
            if isinstance(owner, type):
                self._swaps.append((owner, attr, original, wrapper))
            else:
                for mod, bound in _bindings(original):
                    self._swaps.append((mod, bound, original, wrapper))

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.run, None)
            if count is not None:
                try:
                    counts = count(args, result)
                except Exception:  # a counter must never fail the call it observes
                    counts = None
                spans[sid] = (name, start, end, parent, tracer.run, counts)
            return result

        return traced

    def start(self, run) -> None:
        """Swap the wrappers in; spans recorded until stop() carry `run`."""
        self.run = run
        for owner, attr, _original, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def stop(self) -> None:
        for owner, attr, original, _wrapper in self._swaps:
            setattr(owner, attr, original)
        self.run = None

    def write(self, path: Path) -> None:
        """All spans as CSV: id, name, start, end, parent, run, counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["id,name,start_s,end_s,parent,run,counts"]
        for sid, (name, start, end, parent, run, counts) in enumerate(self.spans):
            extra = ";".join(f"{k}={v}" for k, v in (counts or {}).items())
            lines.append(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},{run},{extra}")
        path.write_text("\n".join(lines) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, op_runs, overhead_frac: float) -> dict:
        """Per-layer metrics: medians over the traced operations `op_runs`.

        The io metrics are medians per save or load call over every traced
        call, including those of a probe run outside the operations.
        """
        spans = self.spans
        children = defaultdict(float)  # span index -> time covered by its children
        for name, start, end, parent, run, counts in spans:
            if parent >= 0:
                children[parent] += end - start
        per_run = {run: defaultdict(float) for run in op_runs}
        saves, loads, sizes = [], [], []
        for sid, (name, start, end, parent, run, counts) in enumerate(spans):
            dur = end - start
            if name == "io.save":
                saves.append(dur)
                if counts:
                    sizes.append(counts["bytes"])
            elif name == "io.load":
                loads.append(dur)
            acc = per_run.get(run)
            if acc is None:
                continue
            acc[name + ".s"] += dur
            acc[name + ".calls"] += 1
            acc[name + ".self"] += dur - children[sid]
            for key, value in (counts or {}).items():
                acc[f"{name}.{key}"] += value
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "models.eval" and parent_name == "harness.study":
                acc["truth"] += dur
            # the study's build: its driver minus the per-level harness work
            if name == "adapt.drive" and self._within(sid, "harness.study"):
                acc["study_build"] += dur
            if name in ("harness.metric", "moments.moments") and parent_name == "adapt.drive" \
                    and self._within(parent, "harness.study"):
                acc["study_build"] -= dur
        rows = [_layer_row(acc) for acc in per_run.values()]
        out = {}
        for name, unit in LAYER_METRICS:
            values = [row[name] for row in rows if name in row]
            out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        load_s = statistics.median(loads) if loads else 0.0
        file_bytes = statistics.median(sizes) if sizes else 0
        out["io.save_s"]["value"] = statistics.median(saves) if saves else 0.0
        out["io.load_s"]["value"] = load_s
        out["io.file_bytes"]["value"] = file_bytes
        out["io.load_MBps"]["value"] = file_bytes / load_s / 1e6 if load_s > 0 else 0.0
        out["trace.overhead_frac"]["value"] = overhead_frac
        for metric in out.values():
            if metric["unit"] in ("count", "bytes") and float(metric["value"]).is_integer():
                metric["value"] = int(metric["value"])
        return out

    def _within(self, sid: int, name: str) -> bool:
        """Whether span `sid` has an ancestor called `name`."""
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _layer_row(acc) -> dict:
    """Metric values of one traced operation from its accumulated spans."""
    evals = acc["models.eval.calls"]
    lookups = acc["smooth.lookup.calls"]
    return {
        "core.surplus_s": acc["core.surplus.s"],
        "core.surplus_calls": acc["core.surplus.calls"],
        "core.surplus_points": acc["core.surplus.points"],
        "core.surplus_pairs": acc["core.surplus.pairs"],
        "core.interp_s": acc["core.interp.s"],
        "core.interp_calls": acc["core.interp.calls"],
        "core.interp_points": acc["core.interp.points"],
        "core.add_node_s": acc["core.add_node.s"],
        "core.add_node_calls": acc["core.add_node.calls"],
        "adapt.refine_s": acc["adapt.refine.s"],
        "adapt.candidates": acc["adapt.refine.candidates"],
        "adapt.levels": acc["adapt.drive.levels"],
        "adapt.self_s": acc["adapt.drive.self"],
        "models.evals": evals,
        "models.eval_s": acc["models.eval.s"],
        "models.eval_us": acc["models.eval.s"] / evals * 1e6 if evals else 0.0,
        "smooth.scan_s": acc["smooth.scan.s"],
        "smooth.lines_scanned": acc["smooth.group_lines.lines"],
        "smooth.runs_found": acc["smooth.derivative_scan.runs"],
        "smooth.store_s": acc["smooth.store.s"],
        "smooth.stores": acc["smooth.store.calls"],
        "smooth.regions": acc["smooth.easgc.regions"] + acc["io.load.regions"],
        "smooth.lookup_s": acc["smooth.lookup.s"],
        "smooth.lookups": lookups,
        "smooth.hits": acc["smooth.lookup.hits"],
        "smooth.hit_ratio": acc["smooth.lookup.hits"] / lookups if lookups else 0.0,
        "smooth.spline_s": acc["smooth.spline.s"],
        "moments.s": acc["moments.moments.s"],
        "moments.calls": acc["moments.moments.calls"],
        "harness.metric_s": acc["harness.metric.s"],
        "harness.metric_calls": acc["harness.metric.calls"],
        "harness.truth_s": acc["truth"],
        "harness.build_s": acc["study_build"],
    }
