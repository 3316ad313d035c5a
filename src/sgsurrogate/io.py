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
renamed over it.  It formats and writes the node lines _CHUNK at a time, so
no step holds a Python string per line of the file.  Reading takes node
lines only in the ASCII grammar that writing produces (_node_grammar; it
does not check a real's digits against its value, so 0.1 loads, and saves
back as 0.10000000000000001), and parses them _CHUNK at a time with
np.loadtxt into preallocated arrays; a refused node line is named by its
number and text.  It checks the header's depth and counts against what the
node lines hold.
"""

from __future__ import annotations

import itertools
import os
import re
import uuid
from pathlib import Path

import numpy as np

from .core import SurrogateModel, _codes_of_dyadic, dyadic_codes, join_codes, split_codes
from .errors import PersistenceError, SparseGridError
from .smooth import RegionDatabase, SmoothRegion, StoreOutcome

__all__ = ["save_surrogate", "load_surrogate"]

_MAGIC = "surrogate"

# reals: 17 significant digits, the same digits as format(x, ".17g"), inf,
# nan and -0 included; one %-template formats a whole line
_REAL = "%.17g"

# node lines per piece that save_surrogate writes and load_surrogate parses
_CHUNK = 4096


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
    _replace_file(Path(path), _file_pieces(model, region_db))


def _file_pieces(model: SurrogateModel, region_db: RegionDatabase | None):
    """The file's text in pieces: the header, _CHUNK node lines at a time,
    then the region section."""
    yield (f"{_MAGIC} d={model.dimension} depth={model.depth} "
           f"full={model.full_evaluations} spline={model.spline_interpolations}\n")
    line = ",".join(["%d:%d"] * model.dimension) + f" {_REAL} {_REAL} {_REAL} %s\n"
    for lo in range(0, len(model), _CHUNK):
        hi = lo + _CHUNK
        levels, indices = split_codes(model.codes[lo:hi])
        pairs = np.stack([levels, indices], axis=2).reshape(len(levels), -1)
        yield "".join(line % (*pair, output, w, v, flag) for pair, output, w, v, flag in zip(
            pairs.tolist(), model.outputs[lo:hi].tolist(), model.w[lo:hi].tolist(),
            model.v[lo:hi].tolist(), np.where(model.spline[lo:hi], "S", "F").tolist(),
        ))
    if region_db is not None and len(region_db) > 0:
        yield f"regions {len(region_db)}\n" + "".join(f"{r}\n" for r in _region_lines(region_db))


def _replace_file(path: Path, pieces) -> None:
    """Write the strings `pieces` to a new file beside `path`, then rename it
    over `path`.

    A reader sees the old file or the whole new one, never a part; when a
    write fails, or `pieces` raises, the old file stays as it was and the new
    one is removed.  The file is created as open() would create it, under
    the umask.
    """
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as handle:
            for piece in pieces:
                handle.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _node_grammar(d: int) -> re.Pattern:
    """A node line as save_surrogate writes it in d dimensions, with its
    newline, in ASCII: d level:index pairs of decimal integers without sign
    or leading zero (a level of one or two digits, an index below 2**63),
    the output, w and v as %.17g writes a double (no leading zero or
    trailing fraction zero, an exponent of two or three digits), and the
    flag F or S."""
    pair = "[1-9][0-9]?:(?:0|[1-9][0-9]{0,17}|1[0-9]{18})"
    real = "(?:-?(?:(?:0|[1-9][0-9]*)(?:\\.[0-9]*[1-9])?(?:e[-+][0-9]{2,3})?|inf)|nan)"
    return re.compile(f"{','.join([pair] * d)} {real} {real} {real} [FS]\n")


def _line(text: str, pos: int, k: int = 0) -> str:
    """The k-th line after the one at offset `pos` of `text`, without its newline."""
    for _ in range(k):
        pos = text.index("\n", pos) + 1
    return text[pos:text.index("\n", pos)]


def _bad_node(path, row: int, line: str, why) -> PersistenceError:
    """The error naming node row `row`, which is line row + 2 of its file."""
    return PersistenceError(f"{path}: bad node line {row + 2}: {line!r}: {why}")


def _node_arrays(path, text: str, start: int, n: int, d: int):
    """Codes, (output, w, v) rows, spline flags and total levels of the n
    node lines of `text` from offset `start`, each ending in a newline.

    Each line must match _node_grammar.  The lines are then parsed _CHUNK
    at a time by one np.loadtxt call, and their pairs joined into codes; a
    line whose output, w or v is not finite, or whose pairs name no node, is
    refused by its number.
    """
    grammar = _node_grammar(d)
    record = np.dtype([("pairs", np.int64, (2 * d,)), ("reals", np.float64, (3,)),
                       ("flag", "U1")])
    codes = np.empty((n, d), dtype=np.int64)
    reals = np.empty((n, 3))
    spline = np.empty(n, dtype=bool)
    depth = np.empty(n, dtype=np.int64)
    pos = start
    for lo in range(0, n, _CHUNK):
        hi, first = min(lo + _CHUNK, n), pos
        for row in range(lo, hi):
            match = grammar.match(text, pos)
            if match is None:
                raise _bad_node(path, row, _line(text, pos),
                                f"not a node line of d = {d}: level:index pairs, output, "
                                f"w, v and F or S")
            pos = match.end()
        # the grammar admits only fields loadtxt reads: integers below 2**63,
        # reals, and the flag
        lines = text[first:pos - 1].replace(":", " ").replace(",", " ").split("\n")
        parsed = np.loadtxt(lines, dtype=record, comments=None, ndmin=1)
        finite = np.isfinite(parsed["reals"]).all(axis=1)
        if not finite.all():
            k = int(finite.argmin())
            raise _bad_node(path, lo + k, _line(text, first, k), "output, w and v must be finite")
        levels, indices = parsed["pairs"][:, 0::2], parsed["pairs"][:, 1::2]
        try:
            codes[lo:hi] = join_codes(levels, indices)
        except SparseGridError:
            for k in range(hi - lo):  # the first line of no node
                try:
                    join_codes(levels[k], indices[k])
                except SparseGridError as exc:
                    raise _bad_node(path, lo + k, _line(text, first, k), exc) from exc
            raise
        reals[lo:hi] = parsed["reals"]
        spline[lo:hi] = parsed["flag"] == "S"
        depth[lo:hi] = levels.sum(axis=1)
    return codes, reals, spline, depth


def load_surrogate(path) -> tuple[SurrogateModel, RegionDatabase | None]:
    """Read a surrogate file back; the inverse of save_surrogate.

    Parsing is strict: any line that is not a well-formed node or region
    line, including a blank one, raises PersistenceError, and so do a node
    line written other than save_surrogate writes it (see _node_grammar),
    or whose output, w or v is not finite, or whose pairs name no node; a
    run of node lines on one level that repeats a node or follows a deeper
    run; a header whose items are not d, depth, full and spline, each once,
    or whose depth and counts differ from what the node lines hold (a file
    cut after some node lines); and a region line no node could match: a
    dim outside [0, d), an anchor without d - 1 pairs, knots and outputs of
    unequal lengths or not finite, a midpoint and half-length other than
    the ones save_surrogate writes for its knots, or an interval that
    overlaps an earlier line's on its line (save_surrogate writes a
    database's regions, which never overlap).  Each refused node line is
    named by its number and text; a refused level names its first line.
    """
    text = Path(path).read_text()
    if not text.endswith("\n"):
        text += "\n"
    head = text[:text.index("\n")]
    if not head.startswith(_MAGIC + " "):
        raise PersistenceError(f"{path}: not a surrogate file")
    try:
        if not head.isprintable():
            raise ValueError("a header of printable characters on one line")
        items = [item.split("=") for item in head.split()[1:]]
        header = {key: int(value) for key, value in items}
        if sorted(key for key, _ in items) != ["d", "depth", "full", "spline"]:
            raise ValueError("header items must be d, depth, full and spline, each once")
        model = SurrogateModel(header["d"])
    except (ValueError, SparseGridError) as exc:
        raise PersistenceError(f"{path}: malformed header: {head!r}") from exc
    # node lines run from the second line to the first that starts "regions "
    start = len(head) + 1
    stop = text.find("\nregions ", start - 1) + 1 or len(text)
    n = text.count("\n", start, stop)
    codes, reals, spline, depth = _node_arrays(path, text, start, n, model.dimension)
    # one add_level per run of lines on one level, in file order
    bounds = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        try:
            model.add_level(codes[lo:hi], *reals[lo:hi].T, spline[lo:hi])
        except SparseGridError as exc:
            raise _bad_node(path, lo, _line(text, start, lo), exc) from exc
    counted = {"depth": model.depth if len(model) else None,
               "full": model.full_evaluations, "spline": model.spline_interpolations}
    if counted != {key: header[key] for key in counted}:
        held = " ".join(f"{key}={value}" for key, value in counted.items())
        raise PersistenceError(f"{path}: header says {head!r}, its {len(model)} node "
                               f"lines hold {held}")
    model.freeze()
    if stop == len(text):
        return model, None
    db = RegionDatabase()
    d = model.dimension
    line, *region_lines = text[stop:].splitlines()
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
            if db.store(region) != StoreOutcome("created"):
                raise ValueError("overlaps an earlier region line")
    except (ValueError, OverflowError, SparseGridError) as exc:
        raise PersistenceError(f"{path}: bad region line: {line!r}: {exc}") from exc
    return model, db

