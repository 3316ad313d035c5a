"""Line-oriented text persistence for surrogates and their region databases.

Layout: a header line (dimension, depth, evaluation counts), one node per
line (per-dimension level:index pairs, output, surplus, squared-output
surplus, provenance flag F for a full evaluation or S for a spline value),
then an optional region section (dimension, anchor, knots, outputs,
midpoint, half-length; one region per line, in the database's creation
order, which breaks its lookup ties).  The library holds a region's
anchor as the codes of its line's other d - 1 dimensions; the file holds
each as the exact dyadic coordinate num:exp of its node (value num / 2**exp,
the canonical pair of core.dyadic_codes), read back by core's vectorised
inverse, which refuses a pair that is no node's canonical coordinate.  The
integer fields round-trip exactly; reals use 17 significant digits, which
round-trips doubles exactly.  Writing is deterministic for a given model,
byte for byte, and atomic: the file is written beside its target and
renamed over it.  It formats and writes the node lines _CHUNK at a time, so
no step holds a Python string per line of the file.  The header and region
lines are stated once, by the formatters writing uses (_header,
_region_lines): reading parses them loosely, builds the model and its
regions, and refuses any such line other than the one writing produces
for what it built.  Node lines are read in the ASCII grammar that writing
produces (_node_grammar; it does not check a real's digits against its
value, so 0.1 loads, and saves back as 0.10000000000000001), _CHUNK at a
time with np.loadtxt into preallocated arrays.  A refused line is named by
its text, and a node line by its number too.
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


def _header(model: SurrogateModel) -> str:
    """The header line of a file of `model`, without its newline."""
    return (f"{_MAGIC} d={model.dimension} depth={model.depth} "
            f"full={model.full_evaluations} spline={model.spline_interpolations}")


def _region_lines(db: RegionDatabase):
    regions = list(db.regions())
    dyadic = dyadic_codes(np.array([c for r in regions for c in r.anchor], dtype=np.int64))
    pairs = iter(np.stack(dyadic, axis=1).ravel().tolist())  # num, exp, num, exp, ...
    for region in regions:
        anchor = ",".join(["%d:%d"] * len(region.anchor)) or "-"
        reals = ",".join([_REAL] * len(region.knots))
        yield f"%d {anchor} {reals} {reals} {_REAL} {_REAL}" % (
            region.dim, *itertools.islice(pairs, 2 * len(region.anchor)),
            *region.knots.tolist(), *region.outputs.tolist(), (region.lo + region.hi) / 2.0,
            (region.hi - region.lo) / 2.0,
        )


def save_surrogate(path, model: SurrogateModel, region_db: RegionDatabase | None = None) -> None:
    """Write a surrogate (and its smooth regions, if any) to a text file.

    An existing file at `path` is replaced whole, or left as it was if the
    write fails.  A database of another node dimension than the model's
    holds regions on no line of the model and raises PersistenceError before
    anything is written.
    """
    if region_db is not None and region_db.dimension != model.dimension:
        raise PersistenceError(f"{path}: a region database of {region_db.dimension}-dimensional "
                               f"nodes saved with a model of {model.dimension}-dimensional ones")
    _replace_file(Path(path), _file_pieces(model, region_db))


def _file_pieces(model: SurrogateModel, region_db: RegionDatabase | None):
    """The file's text in pieces: the header, _CHUNK node lines at a time,
    then the region section."""
    yield _header(model) + "\n"
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
    flag F or S.  The pairs are one counted repetition, so the pattern's
    size does not grow with d."""
    pair = "[1-9][0-9]?:(?:0|[1-9][0-9]{0,17}|1[0-9]{18})"
    real = "(?:-?(?:(?:0|[1-9][0-9]*)(?:\\.[0-9]*[1-9])?(?:e[-+][0-9]{2,3})?|inf)|nan)"
    return re.compile(f"(?:{pair},){{{d - 1}}}{pair} {real} {real} {real} [FS]\n")


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
    try:
        grammar = _node_grammar(d)
        record = np.dtype([("pairs", np.int64, (2 * d,)), ("reals", np.float64, (3,)),
                           ("flag", "U1")])
    except (ValueError, OverflowError) as exc:  # a d past what re or numpy can size
        raise PersistenceError(f"{path}: no node line of d = {d} can be read") from exc
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

    Raises PersistenceError on a header or region line other than the one
    save_surrogate writes for the model and regions read: so on a header
    whose depth or counts differ from what its node lines hold (a file cut
    after some node lines) or that no node line follows, and on a count
    line other than `regions N` for the N > 0 lines after it.  Also on a
    node line not in _node_grammar (a blank one included), not finite or
    of no node; a level's run of lines that repeats a node or follows a
    deeper run; and a region line no node could match: one SmoothRegion or
    RegionDatabase(d).store refuses (an anchor of other than d - 1 pairs
    too), an anchor with a pair of no node, or an interval that overlaps an
    earlier line's on its line.  A refused line is named by its text, a node
    line by its number too, and a refused level by its first line.
    """
    text = Path(path).read_text()
    if not text.endswith("\n"):
        text += "\n"
    head = text[:text.index("\n")]
    if not head.startswith(_MAGIC + " "):
        raise PersistenceError(f"{path}: not a surrogate file")
    try:  # d, read loosely: the whole header is checked against the nodes below
        model = SurrogateModel(int(head.split()[1].removeprefix("d=")))
    except (ValueError, IndexError, SparseGridError) as exc:
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
    written = _header(model) if n else "none, as save refuses an empty model"
    if head != written:
        raise PersistenceError(f"{path}: header says {head!r}; the header of its {n} node "
                               f"lines is {written!r}")
    model.freeze()
    if stop == len(text):
        return model, None
    db = RegionDatabase(model.dimension)
    line, *lines = text[stop:].splitlines()
    try:
        if not lines or line != f"regions {len(lines)}":
            raise ValueError(f"{len(lines)} region lines follow, so save writes "
                             + (f"'regions {len(lines)}'" if lines else "no region section"))
        fields = []
        for line in lines:
            dim, anchor, knots, outputs, _, _ = line.split()
            pairs = [pair.split(":") for pair in anchor.split(",")] if anchor != "-" else []
            dyadic = np.array([(int(num), int(exp)) for num, exp in pairs], dtype=np.int64)
            fields.append((line, int(dim), dyadic.reshape(-1, 2), knots, outputs))
        # every anchor in one call; a pair of no node has code 0, which no node has
        codes = iter(_codes_of_dyadic(*np.concatenate([f[2] for f in fields]).T)[0].tolist())
        for line, dim, dyadic, knots, outputs in fields:
            anchor = list(itertools.islice(codes, len(dyadic)))
            if 0 in anchor:
                raise ValueError("anchor pair names no node: not the canonical num:exp of one")
            region = SmoothRegion(dim=dim, anchor=anchor,
                                  knots=[float(k) for k in knots.split(",")],
                                  outputs=[float(o) for o in outputs.split(",")])
            if db.store(region) != StoreOutcome("created"):
                raise ValueError("overlaps an earlier region line")
        # the regions are stored in file order, the order save writes them in
        for line, written in zip(lines, _region_lines(db)):
            if line != written:
                raise ValueError(f"not the line save writes for its region, {written!r}")
    except (ValueError, OverflowError, SparseGridError) as exc:
        raise PersistenceError(f"{path}: bad region line: {line!r}: {exc}") from exc
    return model, db
