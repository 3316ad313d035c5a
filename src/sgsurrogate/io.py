"""Line-oriented text persistence for surrogates and their region databases.

Layout: a header line (dimension, depth, evaluation counts), one node per
line (per-dimension level:index pairs, output, surplus, squared-output
surplus, provenance flag F for a full evaluation or S for a spline value),
then an optional region section (dimension, anchor, knots, outputs,
midpoint, half-length; one region per line).  The library holds a region's
anchor as the codes of its line's other d - 1 dimensions; the file holds
each as the exact dyadic coordinate num:exp of its node (value num / 2**exp,
the canonical pair of core.dyadic_codes), read back by core's vectorised
inverse, which refuses a pair that is no node's canonical coordinate.  The
integer fields round-trip exactly; reals use 17 significant digits, which
round-trips doubles exactly.  Writing is deterministic for a given model,
byte for byte, and atomic: the file is written beside its target and
renamed over it.  Reading checks the header's depth and counts against what
the node lines hold.
"""

from __future__ import annotations

import itertools
import os
import uuid
from pathlib import Path

import numpy as np

from .core import SurrogateModel, _codes_of_dyadic, dyadic_codes, join_codes, split_codes
from .errors import PersistenceError, SparseGridError
from .smooth import RegionDatabase, SmoothRegion

__all__ = ["save_surrogate", "load_surrogate"]

_MAGIC = "surrogate"

# provenance flags of node lines: a full model evaluation, a spline value
_FLAGS = {"F": False, "S": True}


# reals: 17 significant digits, the same digits as format(x, ".17g"), inf,
# nan and -0 included; one %-template formats a whole line
_REAL = "%.17g"


def _region_lines(db: RegionDatabase):
    # creation order, so reloaded databases resolve lookup ties identically
    regions = sorted(db.regions(), key=lambda r: r.created_at)
    num, exp = dyadic_codes(np.array([c for r in regions for c in r.anchor], dtype=np.int64))
    pairs = (f"{n}:{e}" for n, e in zip(num.tolist(), exp.tolist()))
    for region in regions:
        anchor = ",".join(itertools.islice(pairs, len(region.anchor))) or "-"
        reals = ",".join([_REAL] * len(region.knots))
        yield f"%d %s {reals} {reals} {_REAL} {_REAL}" % (
            region.dim, anchor, *region.knots.tolist(), *region.outputs.tolist(),
            region.midpoint, region.half_length,
        )


def save_surrogate(path, model: SurrogateModel, region_db: RegionDatabase | None = None) -> None:
    """Write a surrogate (and its smooth regions, if any) to a text file.

    An existing file at `path` is replaced whole, or left as it was if the
    write fails.  A region whose anchor does not hold d - 1 codes lies on no
    line of the model and raises PersistenceError before anything is written.
    """
    # a database holds regions of one node dimension: its first region speaks for all
    region = next(region_db.regions(), None) if region_db is not None else None
    if region is not None and len(region.anchor) != model.dimension - 1:
        raise PersistenceError(
            f"{path}: region along dim {region.dim} has an anchor of "
            f"{len(region.anchor)} codes, not d - 1 = {model.dimension - 1}")
    lines = [
        f"{_MAGIC} d={model.dimension} depth={model.depth} "
        f"full={model.full_evaluations} spline={model.spline_interpolations}"
    ]
    levels, indices = split_codes(model.codes)
    pairs = np.stack([levels, indices], axis=2).reshape(len(model), -1)
    template = ",".join(["%d:%d"] * model.dimension) + f" {_REAL} {_REAL} {_REAL} %s"
    lines.extend(template % (*pair, output, w, v, flag) for pair, output, w, v, flag in zip(
        pairs.tolist(), model.outputs.tolist(), model.w.tolist(), model.v.tolist(),
        np.where(model.spline, "S", "F").tolist(),
    ))
    if region_db is not None and len(region_db) > 0:
        lines.append(f"regions {len(region_db)}")
        lines.extend(_region_lines(region_db))
    _replace_file(Path(path), "\n".join(lines) + "\n")


def _replace_file(path: Path, text: str) -> None:
    """Write `text` to a new file beside `path`, then rename it over `path`.

    A reader sees the old file or the whole new one, never a part; when the
    write fails the old file stays as it was and the new one is removed.
    The file is created as open() would create it, under the umask.
    """
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_surrogate(path) -> tuple[SurrogateModel, RegionDatabase | None]:
    """Read a surrogate file back; the inverse of save_surrogate.

    Parsing is strict: any line that is not a well-formed node or region
    line, including a blank one, raises PersistenceError, and so do a node
    line whose output, w or v is not finite; a header whose items are not d,
    depth, full and spline, each once, or whose depth and counts differ from
    what the node lines hold (a file cut after some node lines); and a
    region line no node could match: a dim outside [0, d), an anchor without
    d - 1 pairs, knots and outputs of unequal lengths or not finite, or a
    midpoint and half-length other than the ones save_surrogate writes for
    its knots.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(_MAGIC + " "):
        raise PersistenceError(f"{path}: not a surrogate file")
    try:
        items = [item.split("=") for item in lines[0].split()[1:]]
        header = {key: int(value) for key, value in items}
        if sorted(key for key, _ in items) != ["d", "depth", "full", "spline"]:
            raise ValueError("header items must be d, depth, full and spline, each once")
        model = SurrogateModel(header["d"])
    except (ValueError, SparseGridError) as exc:
        raise PersistenceError(f"{path}: malformed header: {lines[0]!r}") from exc
    levels, indices, values = [], [], []
    i = 1
    try:
        while i < len(lines) and not lines[i].startswith("regions "):
            token, output, w, v, flag = lines[i].split()
            pairs = [part.split(":") for part in token.split(",")]
            if len(pairs) != model.dimension:
                raise ValueError(f"{len(pairs)} dimensions, header says {model.dimension}")
            levels.append([int(level) for level, _ in pairs])
            indices.append([int(index) for _, index in pairs])
            if flag not in _FLAGS:
                raise ValueError(f"provenance flag {flag!r}, not F or S")
            values.append((float(output), float(w), float(v), _FLAGS[flag]))
            i += 1
    except ValueError as exc:
        raise PersistenceError(f"{path}: bad node line {i + 1}: {lines[i]!r}") from exc
    if values:
        outputs, w, v, is_spline = (np.array(column) for column in zip(*values))
        finite = np.isfinite([outputs, w, v]).all(axis=0)
        if not finite.all():
            row = int(finite.argmin()) + 1  # lines[0] is the header
            raise PersistenceError(f"{path}: bad node line {row + 1}: {lines[row]!r}: "
                                   f"output, w and v must be finite")
        try:
            codes = join_codes(levels, indices)
            depth = np.array(levels).sum(axis=1)
            # free the per-line lists before add_level grows the kernel's table
            levels = indices = values = None
            # one add_level per run of lines on one level, in file order
            bounds = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), len(depth)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                model.add_level(codes[lo:hi], outputs[lo:hi], w[lo:hi], v[lo:hi],
                                is_spline[lo:hi])
        except SparseGridError as exc:
            raise PersistenceError(f"{path}: bad node lines: {exc}") from exc
    counted = {"depth": model.depth if len(model) else None,
               "full": model.full_evaluations, "spline": model.spline_interpolations}
    if counted != {key: header[key] for key in counted}:
        held = " ".join(f"{key}={value}" for key, value in counted.items())
        raise PersistenceError(f"{path}: header says {lines[0]!r}, its {len(model)} node "
                               f"lines hold {held}")
    model.freeze()
    if i == len(lines):
        return model, None
    db = RegionDatabase()
    d = model.dimension
    line, region_lines = lines[i], lines[i + 1:]
    try:
        _, count = line.split()
        if int(count) != len(region_lines):
            raise ValueError(f"{len(region_lines)} region lines follow")
        fields = []
        for line in region_lines:
            dim, anchor, knots, outputs, mid, half = line.split()
            pairs = [p.split(":") for p in anchor.split(",")] if anchor != "-" else []
            pairs = np.array([(int(num), int(exp)) for num, exp in pairs], dtype=np.int64)
            if not 0 <= int(dim) < d:
                raise ValueError(f"dim {dim} outside [0, {d})")
            if len(pairs) != d - 1:
                raise ValueError(f"anchor of {len(pairs)} pairs, not d - 1 = {d - 1}")
            fields.append((int(dim), pairs.reshape(d - 1, 2),
                           np.array([float(k) for k in knots.split(",")]),
                           np.array([float(o) for o in outputs.split(",")]), f"{mid} {half}"))
        dyadic = np.array([f[1] for f in fields], dtype=np.int64).reshape(len(fields), d - 1, 2)
        anchors, valid = _codes_of_dyadic(dyadic[..., 0], dyadic[..., 1])
        if not valid.all():
            line = region_lines[int(np.flatnonzero(~valid.all(axis=1))[0])]
            raise ValueError("anchor pair names no node: not the canonical num:exp of one")
        for line, (dim, _, knots, outputs, ends), anchor in zip(region_lines, fields,
                                                                 anchors.tolist()):
            region = SmoothRegion(dim=dim, anchor=tuple(anchor), knots=knots, outputs=outputs)
            written = f"{_REAL} {_REAL}" % (region.midpoint, region.half_length)
            if ends != written:
                raise ValueError(f"midpoint and half-length {ends!r}, not {written!r}")
            db.store(region)
    except (ValueError, OverflowError, SparseGridError) as exc:
        raise PersistenceError(f"{path}: bad region line: {line!r}: {exc}") from exc
    return model, db

