"""Line-oriented text persistence for surrogates and their region databases.

Layout: a header line (dimension, depth, evaluation counts), one node per
line (per-dimension level:index pairs, output, surplus, squared-output
surplus, provenance flag), then an optional region section (dimension,
anchor, knots, outputs, midpoint, half-length; one region per line).  The
dyadic fields are integers, so round-trips are bit-exact; reals use 17
significant digits, which round-trips doubles exactly.  Writing is
deterministic for a given model, byte for byte, and atomic: the file is
written beside its target and renamed over it.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

import numpy as np

from .core import Provenance, SurrogateModel, join_codes, split_codes
from .errors import PersistenceError, SparseGridError
from .smooth import RegionDatabase, SmoothRegion

__all__ = ["save_surrogate", "load_surrogate"]

_MAGIC = "surrogate"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _region_lines(db: RegionDatabase):
    # creation order, so reloaded databases resolve lookup ties identically
    for region in sorted(db.regions(), key=lambda r: r.created_at):
        anchor = ",".join(f"{num}:{exp}" for num, exp in region.anchor) or "-"
        knots = ",".join(_fmt(k) for k in region.knots)
        outputs = ",".join(_fmt(o) for o in region.outputs)
        yield (
            f"{region.dim} {anchor} {knots} {outputs} "
            f"{_fmt(region.midpoint)} {_fmt(region.half_length)}"
        )


def save_surrogate(path, model: SurrogateModel, region_db: RegionDatabase | None = None) -> None:
    """Write a surrogate (and its smooth regions, if any) to a text file.

    An existing file at `path` is replaced whole, or left as it was if the
    write fails.
    """
    lines = [
        f"{_MAGIC} d={model.dimension} depth={model.depth} "
        f"full={model.full_evaluations} spline={model.spline_interpolations}"
    ]
    levels, indices = split_codes(model.codes)
    flags = np.where(model.spline, Provenance.SPLINE_INTERPOLATED.value,
                     Provenance.FULL_MODEL.value)
    for lv, ix, output, w, v, flag in zip(
        levels.tolist(), indices.tolist(), model.outputs.tolist(), model.w.tolist(),
        model.v.tolist(), flags.tolist(),
    ):
        token = ",".join(f"{level}:{index}" for level, index in zip(lv, ix))
        lines.append(f"{token} {_fmt(output)} {_fmt(w)} {_fmt(v)} {flag}")
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
    line, including a blank one, raises PersistenceError, and so does a
    region line no node could match: a dim outside [0, d), an anchor without
    d - 1 pairs, or knots and outputs of unequal lengths or not finite.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(_MAGIC + " "):
        raise PersistenceError(f"{path}: not a surrogate file")
    try:
        header = dict(item.split("=") for item in lines[0].split()[1:])
        model = SurrogateModel(int(header["d"]))
        full = int(header["full"])
        spline = int(header["spline"])
    except (KeyError, ValueError, SparseGridError) as exc:
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
            from_spline = Provenance(flag) is Provenance.SPLINE_INTERPOLATED
            values.append((float(output), float(w), float(v), from_spline))
            i += 1
    except ValueError as exc:
        raise PersistenceError(f"{path}: bad node line {i + 1}: {lines[i]!r}") from exc
    if values:
        try:
            codes = join_codes(levels, indices)
            outputs, w, v, is_spline = (np.array(column) for column in zip(*values))
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
    model.full_evaluations = full
    model.spline_interpolations = spline
    model.freeze()
    if i == len(lines):
        return model, None
    db = RegionDatabase()
    line, region_lines = lines[i], lines[i + 1:]
    try:
        _, count = line.split()
        if int(count) != len(region_lines):
            raise ValueError(f"{len(region_lines)} region lines follow")
        for line in region_lines:
            dim, anchor_tok, knots_tok, outputs_tok, _mid, _half = line.split()
            anchor = tuple(
                (int(num), int(exp))
                for num, exp in (p.split(":") for p in anchor_tok.split(","))
            ) if anchor_tok != "-" else ()
            region = SmoothRegion(
                dim=int(dim),
                anchor=anchor,
                knots=np.array([float(k) for k in knots_tok.split(",")]),
                outputs=np.array([float(o) for o in outputs_tok.split(",")]),
            )
            _check_region(region, model.dimension)
            db.store(region)
    except (ValueError, KeyError, SparseGridError) as exc:
        raise PersistenceError(f"{path}: bad region line: {line!r}: {exc}") from exc
    return model, db


def _check_region(region: SmoothRegion, d: int) -> None:
    """Refuse a region that no node of a d-dimensional model can ever match."""
    if not 0 <= region.dim < d:
        raise ValueError(f"dim {region.dim} outside [0, {d})")
    if len(region.anchor) != d - 1:
        raise ValueError(f"anchor of {len(region.anchor)} pairs, not d - 1 = {d - 1}")
