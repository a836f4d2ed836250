"""Command-line surface: certification, spin witnessing, slices, fuzzing.

Exit codes for certification commands: 0 all Member, 1 any NonMember,
2 any Indeterminate (without NonMember), 64 input error; every command
exits 141 (128 + SIGPIPE) when its stdout is closed before all is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import cache, lru_cache
from itertools import chain
from operator import itemgetter

import numpy as np
import orjson

from . import fuzz as fuzz_mod
from .core import (
    DEFAULT_TOL,
    MOMENT_FIELDS,
    POLY_FIELDS,
    ProblemDims,
    RowBatch,
    Status,
    SymmetricQuadratic,
    abs_scale,
    check_magnitude,
    group_rows,
    json_int,
    margin_verdict,
    scaled_tolerance,
)
from .exact_d1 import (
    hypercube_points,
    limit_cone_rows,
    p_n1_membership,  # noqa: F401  (bench/tracing.py wraps this binding)
    p_n1_rows,
)
from .halfdeg import check_pattern_budget, reduced_global_min
from .moment_cone import (
    STATUSES,
    classify,  # noqa: F401  (bench/tracing.py wraps this binding)
    classify_rows,
    witness_rows,
)
from .sos_cone import (
    ellipsoid_quadratic_min,  # noqa: F401  (bench/tracing.py wraps this binding)
    sigma_membership_lmi,  # noqa: F401  (bench/tracing.py wraps this binding)
    sigma_rows,
)
from .spin import (
    SymmetricState,
    coherent_amplitudes,
    coherent_state,
    dicke_state,
    entanglement_witness,
    ghz_state,
    mixture,
    spin_tolerance,
)

SCHEMA = "2"
EXIT_OK = 0
EXIT_NONMEMBER = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT = 64
EXIT_PIPE = 141  # 128 + SIGPIPE: stdout was closed before all was written

#: the largest --n a --preset builds.  Every preset makes a dense (n+1)^2
#: complex rho and validates it by a Cholesky factor, n^2 in memory and n^3
#: in time: on a 2-core Xeon, coherent, dicke and ghz took 0.4-1.6 s and
#: 358 MB peak at n = 2048 (mixed, 3 components: 2.1 s, 364 MB), and coherent
#: 3.0 s and 1.32 GB at n = 4096.  --state files are not bounded
MAX_PRESET_N = 4096
#: the most plane coordinates g^2 (1 + 2d) a slice holds; for every d >= 1
#: it bounds --grid by 1000.  A slice holds its g^2 points and their
#: verdicts, about 0.35 KB a cell at d = 1: at --grid 1000, --cone Sigma
#: --n 4 took 2.9 s and 340 MB peak at d = 1 (2-core Xeon).  Its memory grows
#: with d too (--grid 1000 at d = 3 peaked at 705 MB).  At the bound,
#: --cone Sigma --n 4 peaked at 341 MB at d = 1 (g = 1000), 329 MB at d = 2
#: (g = 774) and 325 MB at d = 3 (g = 654), 2-core Xeon
MAX_SLICE_VALUES = 3_000_000
#: the most witness matrix entries, (2d + 2)^2 per Member row, that
#: check-moments --output json holds and writes in one call; checked after
#: classification, before any witness is built.  At the bound, 16 Member rows
#: at d = 249 (z0 = 1, z and zz of size 1e-3) took 2.1-2.9 s and 411 MB peak
#: RSS and wrote 95 MB; 64 rows at d = 124 took 1.9 s and 392 MB (2-core
#: Xeon).  A bench call holds at most 4096 rows of d <= 4: 409,600 entries
MAX_WITNESS_ENTRIES = 4_000_000


class InputError(Exception):
    pass


#: rows per record tree of streamed JSON output.  The rows of a tree are one
#: (d-group, record shape) stream, because a block of input rows split by
#: d-group and shape leaves trees too small to amortize their numpy calls (a
#: few per leaf); the bound keeps a tree's leaf-text arrays small
JSON_BLOCK = 128

#: compact separators and no indent select the stdlib's C encoder
_compact_json = json.JSONEncoder(separators=(",", ": "), sort_keys=True).encode


def _indented_json(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with every line after
    the first indented ``depth`` levels further."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _json_out(payload: dict) -> str:
    return _indented_json({"schema": SCHEMA, **payload})


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


#: the deepest nesting the JSON decoder hands to orjson.  orjson 3.8 recurses
#: without a bound (10^6 levels overflowed an 8 MB C stack) where json refuses
#: past about sys.getrecursionlimit() levels, so text that may nest deeper
#: goes to json, which decides it
ORJSON_DEPTH = 256
#: every byte but JSON's structure characters []{}, quote and backslash
_NOT_STRUCTURAL = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))
#: the characters of JSON text that ``_shallow`` encodes at a time
_ENCODE_CHARS = 1 << 16
#: the depth step of each structure character: +1 opens, -1 closes
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")], _DEPTH_STEP[list(b"]}")] = 1, -1


def _shallow(s: str) -> bool:
    """Whether a parser that reads the JSON text ``s`` nests at most
    ORJSON_DEPTH deep before it ends or meets an error.  Without a backslash
    every quote opens or closes a string (or is the error), so the brackets
    outside strings give the depth; text with a backslash is not judged
    (False).  One C pass keeps the structure characters; dropping two
    adjacent quotes there keeps every bracket inside or outside a string.
    The text is encoded _ENCODE_CHARS characters at a time: encoded whole,
    or a megabyte at a time, the copies raised the peak RSS of a process
    that read the 35 seed-1 bench state files by 13 and 9 MB (64K: 0.5 MB)."""
    try:
        marks = b"".join(s[i:i + _ENCODE_CHARS].encode().translate(None, _NOT_STRUCTURAL)
                         for i in range(0, len(s), _ENCODE_CHARS))
    except UnicodeEncodeError:  # a lone surrogate, which orjson refuses
        return False
    if b"\\" in marks:
        return False
    m = np.frombuffer(marks.replace(b'""', b""), dtype=np.uint8)
    step = _DEPTH_STEP[m]
    step[np.cumsum(m == ord('"')) % 2 == 1] = 0  # a bracket inside a string
    return int(np.cumsum(step).max(initial=0)) <= ORJSON_DEPTH


class _JsonDecoder(json.JSONDecoder):
    """json's decoder, parsing with orjson where orjson accepts the text.

    orjson gives json's values, float bits included, except that it reads
    an integer past 64 bits as its float where json keeps the int; every
    use of such a number reads its float or refuses it with a message that
    does not print it (``_capped``).  orjson refuses NaN, Infinity, a number
    past the float range, a BOM, a trailing comma and a lone surrogate:
    json decides each text that orjson refuses, or that may nest deeper
    than ORJSON_DEPTH, so it keeps json's values, errors and messages.
    Nesting past json's recursion limit is a JSONDecodeError.  Given to
    ``json.load``/``json.loads`` as ``cls``, so the parse stays a call of
    ``json``."""

    def decode(self, s: str):
        if _shallow(s):
            try:
                return orjson.loads(s)
            except orjson.JSONDecodeError:
                pass
        try:
            return super().decode(s)
        except RecursionError:
            raise json.JSONDecodeError("nesting too deep", s, 0) from None


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc))


#: what converting a record's fields, or a row rule, raises on bad input
PARSE_ERRORS = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _checked(n: np.ndarray, d: np.ndarray, values, names) -> list[RowBatch]:
    """``group_rows(n, d, values)`` under the row rules: n >= 2, n < 2^53,
    d >= 1, d < 2^53, every value finite and at most
    ``core.magnitude_bound`` in size.  A broken rule raises ValueError with
    the scalar constructors' message (or, for the bound, the bound) for the
    first row that breaks it."""
    low = np.flatnonzero(n < 2)
    if low.size:
        raise ValueError(f"n must be an integer >= 2, got {int(n[low[0]])}")
    if (n >= 2.0 ** 53).any():
        raise ValueError("n must be an integer < 2^53")
    low = np.flatnonzero(d < 1)
    if low.size:
        raise ValueError(f"d must be an integer >= 1, got {int(d[low[0]])}")
    if (d >= 2 ** 53).any():
        raise ValueError("d must be an integer < 2^53")
    batches = group_rows(n, d, values)
    for b in batches:
        for name, v in zip(names, b[2:]):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite" if v.ndim == 1
                                 else f"{name} contains non-finite entries")
        check_magnitude(b.n, b.d, b.x0, b.x, b.xx, names)
    return batches


def _parsed(parse, rows: list, label) -> list[RowBatch]:
    """``parse(rows)``; when that fails, the failing range is bisected (the
    first half is parsed, and the half that fails is kept) down to one row,
    which is reported as InputError ``label(i)`` followed by the error of
    ``parse`` on that row alone (its B=1 view): O(log B) calls."""
    try:
        return parse(rows)
    except PARSE_ERRORS:
        pass
    lo, hi = 0, len(rows)  # rows[:lo] parse, rows[lo:hi] fail together
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(rows[lo:mid])
            lo = mid
        except PARSE_ERRORS:
            hi = mid
    try:
        parse(rows[lo:hi])
    except PARSE_ERRORS as exc:
        raise InputError(f"{label(lo)}{exc}") from None
    raise AssertionError("rows that parse one at a time failed together")


def _integral(col: list) -> np.ndarray | None:
    """The values of a column of JSON numbers as floats when every one is an
    int, or a float, that is integral and below 2^53 in size: checked on the
    whole column.  None otherwise; the caller then converts value by value
    with ``json_int``, which gives the same values or raises for the first
    bad one."""
    if not set(map(type, col)) <= {int, float}:
        return None
    try:
        v = np.array(col, dtype=float)
    except OverflowError:
        return None
    return v if ((np.abs(v) < 2.0 ** 53) & (v == np.floor(v))).all() else None


def _capped(ints):
    """A column of integers n or d (an int64 array or a list of ints) with
    each value past 2^53 taken as 2^53: the rules n < 2^53 and d < 2^53 of
    ``_checked`` then refuse it by name, however it was spelled.  Uncapped,
    an int past the float range overflowed its float conversion, and a
    message printed a d past 64 bits as the parser read it (exact from
    json, rounded from orjson)."""
    return ints if isinstance(ints, np.ndarray) else [min(v, 2 ** 53) for v in ints]


def _take(rows: list, idx: np.ndarray) -> list:
    """The rows at the ascending positions ``idx``: ``rows`` itself when
    that is all of them."""
    return rows if idx.size == len(rows) else list(map(rows.__getitem__, idx.tolist()))


def _vectors(vals: list, key: str, d: int) -> np.ndarray:
    """The vectors ``vals`` of field ``key`` of a d-group as a (B, d) array,
    each converted as ``from_json_dict`` converts it.  Lists of d ints and
    floats are converted in one pass over their chained items; any other
    spelling (a bare number, a nested list, a bool, a string) is converted
    as a whole or, failing that, vector by vector, which also raises the
    one-row error."""
    if set(map(type, vals)) == {list} and set(map(len, vals)) == {d}:
        flat = list(chain.from_iterable(vals))
        if set(map(type, flat)) <= {float, int}:
            return np.array(flat, dtype=float).reshape(-1, d)
    try:
        v = np.array(vals, dtype=float)
    except ValueError:  # scalar, nested and flat spellings side by side
        v = np.array([np.array(x, dtype=float).ravel() for x in vals])
    v = v.reshape(len(vals), -1)
    if v.shape[1] != d:
        raise ValueError(f"{key} must have length {d}, got {v.shape[1:]}")
    return v


def _record_batches(rows: list, names) -> list[RowBatch]:
    """JSON-like records with n, d and the three named fields, grouped by d:
    each field converted for all records of a group at once, as
    ``from_json_dict`` converts it for one."""
    k0, k1, k2 = names

    def values(idx: np.ndarray, d: int):
        group = _take(rows, idx)
        x0 = np.fromiter(map(float, map(itemgetter(k0), group)), dtype=float, count=idx.size)
        return (x0, *(_vectors(list(map(itemgetter(k), group)), k, d) for k in (k1, k2)))

    n = _integral(list(map(itemgetter("n"), rows)))
    if n is None:
        n = np.array(_capped([json_int(r, "n") for r in rows]), dtype=float)
    d = _integral(list(map(itemgetter("d"), rows)))
    d = np.array(_capped([json_int(r, "d") for r in rows])) if d is None else d.astype(np.int64)
    return _checked(n, d, values, names)


def _json_records(raw: str, path: str, names, kind: str) -> list[RowBatch]:
    """The records of a JSON object or list, grouped by d."""
    try:
        obj = json.loads(raw, cls=_JsonDecoder)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}")
    rows = obj if isinstance(obj, list) else [obj]
    if not rows:
        raise InputError(f"{path}: no records")
    return _parsed(lambda r: _record_batches(r, names), rows,
                   lambda i: f"{path}: bad {kind} record: ")


def _load_moment_rows(path: str) -> list[RowBatch]:
    raw = _read_text(path)
    if raw.lstrip().startswith(("{", "[")):
        return _json_records(raw, path, MOMENT_FIELDS, "moment")
    return _parse_moment_csv(raw, path)


def _int_cells(col: list[str]) -> np.ndarray | list[int]:
    """``int`` of every cell of a CSV column: at once into int64 (numpy
    applies ``int`` to each cell); cell by cell when that fails, so that
    ``int`` raises its own error for the first bad cell, or returns a value
    beyond int64."""
    try:
        return np.array(col, dtype=np.int64)
    except (ValueError, OverflowError):
        return [int(c) for c in col]


def _csv_batches(rows: list[list[str]]) -> list[RowBatch]:
    """CSV rows n,d,z0,z_1..z_d,z_11..z_dd grouped by d, every cell
    converted with ``int``/``float``, the n and d columns by
    :func:`_int_cells`, the value cells of a d-group in one pass."""
    n = np.array(_capped(_int_cells(list(map(itemgetter(0), rows)))), dtype=float)
    d = np.array(_capped(_int_cells(list(map(itemgetter(1), rows)))))
    width = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))

    def values(idx: np.ndarray, d: int):
        if (width[idx] != 3 + 2 * d).any():
            raise ValueError(f"expected {1 + 2 * d} values after n,d")
        cells = chain.from_iterable(map(itemgetter(slice(2, None)), _take(rows, idx)))
        v = np.fromiter(map(float, cells), dtype=float, count=idx.size * (1 + 2 * d))
        v = v.reshape(idx.size, 1 + 2 * d)
        return v[:, 0].copy(), v[:, 1:1 + d].copy(), v[:, 1 + d:].copy()

    return _checked(n, d, values, MOMENT_FIELDS)


def _parse_moment_csv(raw: str, path: str) -> list[RowBatch]:
    """The rows of a moment CSV file with header n,d,z0,..., grouped by d;
    blank lines are skipped, and a bad row is reported with its line."""
    reader = csv.reader(io.StringIO(raw))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if header[:3] != ["n", "d", "z0"]:
        raise InputError(f"{path}: line 1: header must start with n,d,z0")
    rows = list(reader)
    lines = range(2, 2 + len(rows))
    try:  # a row whose first cell is not blank is not blank
        blank_free = all(map(str.strip, map(itemgetter(0), rows)))
    except IndexError:  # an empty line
        blank_free = False
    if not blank_free:
        lines = [i for i, row in zip(lines, rows) if row and any(map(str.strip, row))]
        rows = [rows[i - 2] for i in lines]
    if not rows:
        raise InputError(f"{path}: no data rows")
    return _parsed(_csv_batches, rows, lambda i: f"{path}: line {lines[i]}: ")


def _load_poly_rows(path: str) -> list[RowBatch]:
    return _json_records(_read_text(path), path, POLY_FIELDS, "polynomial")


STATUS_VALUES = tuple(s.value for s in STATUSES)
MEMBER, NON_MEMBER, INDETERMINATE = (
    STATUSES.index(s) for s in (Status.MEMBER, Status.NON_MEMBER, Status.INDETERMINATE))
#: the text line after "[i] " of status code c and boundary flag e, at 2c + e
_TEXT_TAILS = [v + tail for v in STATUS_VALUES for tail in ("\n", " (boundary)\n")]


def _exit_code(status: np.ndarray) -> int:
    if (status == NON_MEMBER).any():
        return EXIT_NONMEMBER
    if (status == INDETERMINATE).any():
        return EXIT_INDETERMINATE
    return EXIT_OK


def _witness_jsonable(obj):
    """Best-effort conversion of witness payloads to JSON-safe values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): _witness_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_witness_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if hasattr(obj, "__dict__"):
        return {k: _witness_jsonable(v) for k, v in vars(obj).items()}
    return repr(obj)


# Verdict records are written from their columns.  A record is given as a
# tree: the dicts of its JSON object, whose leaves are either constants or
# the leaf texts of every row at once, object arrays of shape (rows, ...)
# with one JSON text per entry.  The rows of a tree share one layout, the
# text _indented_json writes for the record whose leaves are slot markers.


#: the texts of 0.0, 1.0, -0.0 and -1.0, at 2 * signbit + (v != 0)
_CONSTANT_TEXTS = np.array(["0.0", "1.0", "-0.0", "-1.0"], dtype=object)


def _floats(v, witness: bool = False) -> np.ndarray:
    """The JSON texts of the floats ``v``, as the encoder writes Python
    floats: ``float.__repr__``, and NaN, Infinity or -Infinity; a witness
    value that is not finite is written, as ``_witness_jsonable`` gives it,
    as its quoted repr.  ±0.0 and ±1.0 take their text from a table.  The
    other values with 1e-4 <= |v| < 1e16 take theirs from one
    ``orjson.dumps`` of the column, split at its commas: orjson writes the
    shortest round-trip digits as repr does, and in that band spells them
    alike (outside it orjson writes 1e-7 and 1e16 where repr writes 1e-07
    and 1e+16).  The rest fall back to ``float.__repr__``."""
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    size = np.abs(flat)
    out = _CONSTANT_TEXTS[2 * np.signbit(flat) + (size != 0)]
    band = (size >= 1e-4) & (size < 1e16) & (size != 1)
    fast = np.flatnonzero(band)
    if fast.size:
        text = orjson.dumps(flat[fast], option=orjson.OPT_SERIALIZE_NUMPY)
        out[fast] = text[1:-1].decode().split(",")
    rest = np.flatnonzero(~band & (size != 0) & (size != 1))
    out[rest] = np.fromiter(map(float.__repr__, flat[rest].tolist()), dtype=object,
                            count=rest.size)
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        out[i] = _compact_json(out[i] if witness else float(flat[i]))
    return out.reshape(v.shape)


def _ints(v) -> np.ndarray:
    """The JSON texts of the integers ``v`` (any numeric dtype)."""
    flat = np.ravel(v).astype(np.int64)
    return np.fromiter(map(str, flat.tolist()), dtype=object,
                       count=flat.size).reshape(np.shape(v))


_BOOL_TEXTS = np.array(["false", "true"], dtype=object)
_STATUS_TEXTS = np.array([_compact_json(v) for v in STATUS_VALUES], dtype=object)
#: ``all_statuses`` of a check-poly record (["Member"], ["NonMember"] or
#: both) at 2 * any Member + any NonMember - 1, indented as a record key
_ALL_STATUSES = np.array([_indented_json(v, depth=3) for v in (
    [STATUS_VALUES[NON_MEMBER]], [STATUS_VALUES[MEMBER]], list(STATUS_VALUES[:2]))],
    dtype=object)


def _bools(v) -> np.ndarray:
    return _BOOL_TEXTS[np.asarray(v, dtype=np.intp)]


@lru_cache(maxsize=256)
def _layout(skeleton: str) -> np.ndarray:
    """The pieces of text between the leaves of a record as _emit_verdicts
    writes it (after its block's "[" or ","), from its compact ``skeleton``,
    in which each leaf array is "@" followed by the shape of one row's
    leaves."""
    def slots(node):
        if isinstance(node, dict):
            return {key: slots(v) for key, v in node.items()}
        if isinstance(node, str) and node[:1] == "@":
            return np.full([int(k) for k in node[1:].split(",") if k], "@", dtype=object).tolist()
        return node

    text = _indented_json([slots(json.loads(skeleton))], depth=1)[1:-4]
    pieces = np.array(text.split('"@"'), dtype=object)
    pieces.setflags(write=False)  # shared by every caller
    return pieces


def _record_texts(tree: dict) -> np.ndarray:
    """The JSON texts of the rows of one record tree: its layout's pieces
    interleaved with the leaf texts, which the encoder meets in text order."""
    leaves = []

    def leaf(v: np.ndarray) -> str:
        leaves.append(v.reshape(v.shape[0], -1))
        return "@" + ",".join(map(str, v.shape[1:]))

    pieces = _layout(json.JSONEncoder(sort_keys=True, default=leaf).encode(tree))
    rows = leaves[0].shape[0]
    out = np.empty((rows, 2 * pieces.size - 1), dtype=object)
    out[:, 0::2] = pieces
    out[:, 1::2] = np.concatenate(leaves, axis=1)
    return np.fromiter(map("".join, out.tolist()), dtype=object, count=rows)


def _emit_verdicts(status: np.ndarray, boundary: np.ndarray, texts, output: str):
    """Write the verdicts of the input rows in input order.  Text lines and
    CSV rows come straight from the status codes (indices into
    STATUS_VALUES) and boundary flags; JSON from ``texts(lo, hi)``, the
    record texts of rows lo..hi-1, made and written one JSON_BLOCK at a time.
    A record holds a row's verdict and witnesses, not the row itself: record
    i of "results" is input row i, as line "[i]" of text output and index i
    of CSV output are."""
    count = status.size
    if output == "json":
        # _json_out's layout, written a block of records at a time: sorted
        # keys put "results" before "schema"
        write = sys.stdout.write
        write('{\n  "results": [')
        for start in range(0, count, JSON_BLOCK):
            write(("," if start else "") + ",".join(texts(start, min(start + JSON_BLOCK, count))))
        write(("\n  ]" if count else "]") + f',\n  "schema": "{SCHEMA}"\n}}\n')
    elif output == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["index", "status", "boundary"])
        w.writerows(zip(range(count), [STATUS_VALUES[c] for c in status.tolist()],
                        boundary.tolist()))
    else:
        sys.stdout.write("".join([f"[{i}] {_TEXT_TAILS[k]}"
                                  for i, k in enumerate((2 * status + boundary).tolist())]))


def _block_texts(parts: list):
    """``texts(lo, hi)`` for _emit_verdicts.  ``parts`` holds, per d-group,
    the input positions of its rows (ascending), their record shapes, and
    ``tree(ks)``, the record tree of group rows ks, all of one shape.  The
    rows of one d-group and shape are a stream in input order, cut into
    blocks of JSON_BLOCK rows; a block's texts are built when the writer
    first needs one of its rows, and wait in ``pending`` until written."""
    pending = np.empty(sum(index.size for index, _, _ in parts), dtype=object)
    # per block: the input position of its first row (no two blocks share
    # one), its input positions and group rows, and its tree; sorted so that
    # the next block to build is the last
    blocks = []
    for index, shape, tree in parts:
        order = np.argsort(shape, kind="stable")
        for ks in np.split(order, np.flatnonzero(np.diff(shape[order])) + 1):
            blocks += [(int(index[ks[s]]), index[ks[s:s + JSON_BLOCK]], ks[s:s + JSON_BLOCK], tree)
                       for s in range(0, ks.size, JSON_BLOCK)]
    blocks.sort(key=itemgetter(0), reverse=True)

    def texts(lo: int, hi: int) -> list:
        while blocks and blocks[-1][0] < hi:
            _, pos, ks, tree = blocks.pop()
            pending[pos] = _record_texts(tree(ks))
        out = pending[lo:hi].tolist()
        pending[lo:hi] = None
        return out

    return texts


def _inline_rows(args, names) -> list[RowBatch]:
    """The one row given by --n, --d and the three coefficient options, read
    as a one-record file."""
    x0, x, xx = names
    if args.n is None or args.d is None or getattr(args, x0) is None:
        raise InputError(f"inline mode needs --n, --d, --{x0}, --{x}, --{xx}")
    record = {"n": args.n, "d": args.d, x0: getattr(args, x0)}
    # no default vector for a d that the row rule d < 2^53 refuses
    zeros = [0.0] * args.d if args.d < 2 ** 53 else []
    for k in (x, xx):
        record[k] = _parse_floats(getattr(args, k)) if getattr(args, k) else zeros
    return _parsed(lambda r: _record_batches(r, names), [record], lambda i: "")


def _columns(batches: list[RowBatch]) -> tuple[np.ndarray, np.ndarray]:
    """Empty status-code and boundary columns for every input row."""
    count = sum(b.index.size for b in batches)
    return np.empty(count, dtype=np.intp), np.empty(count, dtype=bool)


def _report_tree(rows, side: str, ks: np.ndarray) -> dict:
    """The ``InequalityReport`` of one side's ConditionRows at rows ks."""
    return {"side": side, "max_form_residual": _floats(rows.residual[ks], witness=True),
            "worst_pattern": _ints(rows.pattern[ks]), "z0_ok": _bools(rows.z0_ok[ks])}


def _moment_texts(b: RowBatch, v, w) -> tuple:
    """The record shapes of the rows of ``b`` (their verdicts) and
    ``tree(ks)``, the record tree of rows ks of one verdict, from the
    verdict columns ``v`` and witness columns ``w``."""
    rank = np.cumsum(v.status == MEMBER) - 1  # a Member row's index in w.matrix

    def tree(ks: np.ndarray) -> dict:
        kind = int(v.status[ks[0]])
        if kind == MEMBER:
            r = rank[ks]
            witness = {"matrix": {"matrix": _floats(w.matrix[r]),
                                  "x0": _floats(w.x0[r], witness=True),
                                  "xdiag": _floats(w.xdiag[r])},
                       "report": _report_tree(v.suf, "sufficient", ks)}
        elif kind == NON_MEMBER:
            witness = {"pairing": _floats(w.pairing[ks], witness=True),
                       "report": _report_tree(v.nec, "necessary", ks),
                       "separating_polynomial": {"n": _ints(b.n[ks]), "d": b.d,
                                                 "a0": _floats(w.a0[ks]), "a": _floats(w.a[ks]),
                                                 "aa": _floats(w.aa[ks])},
                       "witness_in_sigma": _bools(w.in_sigma[ks])}
        else:
            witness = {"necessary_residual": _floats(v.nec.residual[ks], witness=True),
                       "sufficient_residual": _floats(v.suf.residual[ks], witness=True)}
        return {"status": STATUS_VALUES[kind], "boundary": _bools(v.boundary[ks]),
                "witness": witness}

    return v.status, tree


def cmd_check_moments(args) -> int:
    batches = (_load_moment_rows(args.file) if args.file
               else _inline_rows(args, MOMENT_FIELDS))
    status, boundary = _columns(batches)
    verdicts = [classify_rows(b.x0, b.x, b.xx, b.n, args.tol) for b in batches]
    for b, v in zip(batches, verdicts):
        status[b.index], boundary[b.index] = v.status, v.boundary
    parts = []
    if args.output == "json":  # a witness matrix per Member row, bounded before any is built
        entries = sum((2 * b.d + 2) ** 2 * int((v.status == MEMBER).sum())
                      for b, v in zip(batches, verdicts))
        if entries > MAX_WITNESS_ENTRIES:
            raise InputError(f"--output json needs {entries} witness matrix entries, "
                             f"more than MAX_WITNESS_ENTRIES={MAX_WITNESS_ENTRIES}")
        parts = [(b.index, *_moment_texts(b, v, witness_rows(v, b.x0, b.x, b.xx, b.n, args.tol)))
                 for b, v in zip(batches, verdicts)]
    _emit_verdicts(status, boundary, _block_texts(parts), args.output)
    return _exit_code(status)


ROUTES = ("lmi", "ellipsoid", "exact-d1", "halfdeg", "all")


def _lmi_route(b: RowBatch, args, sigma):
    return (sigma.member, sigma.boundary,
            lambda ks: {"c": _floats(sigma.c[ks]), "slack": _floats(sigma.slack[ks])})


def _exact_d1_route(b: RowBatch, args, sigma):
    """The d=1 facet test, one kernel call per d-group."""
    kmin, rmin, member, edge = p_n1_rows(b.x0, b.x[:, 0], b.xx[:, 0], b.n, args.tol)

    def fields(ks: np.ndarray) -> dict:
        """``p_n1_membership`` witnesses of rows ks, all Member, or all NonMember at one n."""
        if member[ks[0]]:
            return {"witness": {"min_k": _ints(kmin[ks]),
                                "min_residual": _floats(rmin[ks], witness=True)}}
        n = int(b.n[ks[0]])
        return {"witness": {"k": _ints(kmin[ks]), "residual": _floats(rmin[ks], witness=True),
                            "point": {"dims": {"d": 1, "n": n},
                                      "points": _floats(hypercube_points(n, kmin[ks]))}}}

    return member, edge, fields


def _ellipsoid_route(b: RowBatch, args, sigma):
    """Member and boundary of each row's minimum of P_Q (at the Sigma
    tolerance, which ``sigma_rows`` has formed)."""
    return (*margin_verdict(sigma.min_value, sigma.t),
            lambda ks: {"min_value": _floats(sigma.min_value[ks]), "x": _floats(sigma.x[ks]),
                        "y": _floats(sigma.y[ks])})


def _halfdeg_route(b: RowBatch, args, sigma):
    """The half-degree search, one polynomial at a time; its minimum is
    decided at the P tolerance."""
    val, found = zip(*(reduced_global_min(SymmetricQuadratic(ProblemDims(n, b.d), *v),
                                          seed=args.seed)
                       for n, *v in zip(b.n.astype(int).tolist(), b.x0, b.x, b.xx)))
    val = np.array(val, dtype=float)
    return (*margin_verdict(val, scaled_tolerance(args.tol, abs_scale(b.x0, b.x, b.xx), b.n)),
            lambda ks: {"min_value": _floats(val[ks]),
                        "argmin": _floats([found[k].points for k in ks.tolist()])})


#: each route runs once per d-group, over the rows of that group, given the
#: group's ``sigma_rows`` (None unless a route of SIGMA_ROUTES runs), and
#: gives member and boundary (B,) and ``fields(ks)``: the tree of its JSON
#: fields besides status and boundary for group rows ks, which share one
#: shape: one exact-d1 verdict, and one n where a witness lists n points
ROUTE_TABLE = {"lmi": _lmi_route, "ellipsoid": _ellipsoid_route,
               "exact-d1": _exact_d1_route, "halfdeg": _halfdeg_route}
#: the routes read from one ``sigma_rows`` call per d-group
SIGMA_ROUTES = {"lmi", "ellipsoid"}


def _poly_texts(b: RowBatch, columns: dict, primary: str) -> tuple:
    """The record shapes of the rows of ``b`` and ``tree(ks)``, the record
    tree of rows ks of one shape, from each route's columns."""
    def tree(ks: np.ndarray) -> dict:
        routes = {r: {"status": _STATUS_TEXTS[np.where(member[ks], MEMBER, NON_MEMBER)],
                      "boundary": _bools(edge[ks]), **fields(ks)}
                  for r, (member, edge, fields) in columns.items()}
        members = np.array([member[ks] for member, _, _ in columns.values()])
        # halfdeg/exact-d1 decide the (larger) nonnegativity cone, so a
        # disagreement only counts between the two SOS routes
        sos = ([columns[r][0][ks] for r in ("lmi", "ellipsoid") if r in columns]
               or [np.zeros(ks.size, dtype=bool)])
        return {"status": routes[primary]["status"], "routes": routes,
                "disagreement": _bools(sos[0] != sos[-1]),
                "all_statuses": _ALL_STATUSES[2 * members.any(axis=0) + ~members.all(axis=0) - 1]}

    # a row's shape, 2n + its exact-d1 verdict: n counts where a witness
    # lists n points (a halfdeg argmin, an exact-d1 NonMember's point)
    shape = np.zeros(b.index.size, dtype=np.int64)
    points = np.full(b.index.size, "halfdeg" in columns)
    if "exact-d1" in columns:
        shape += columns["exact-d1"][0]
        points |= shape == 0
    shape += 2 * np.where(points, b.n, 0).astype(np.int64)
    return shape, tree


def cmd_check_poly(args) -> int:
    batches = (_load_poly_rows(args.file) if args.file
               else _inline_rows(args, POLY_FIELDS))
    routes = ROUTES[:-1] if args.route == "all" else (args.route,)
    if args.route == "exact-d1" and any(b.d != 1 for b in batches):
        raise InputError("route exact-d1 requires d=1")
    if "halfdeg" in routes:  # before any search, each (n, d) in input order
        rows = sorted((i, int(n), b.d) for b in batches for i, n in zip(b.index, b.n))
        for n, d in dict.fromkeys(row[1:] for row in rows):
            check_pattern_budget(n, d)
    primary = "lmi" if args.route == "all" else args.route
    status, boundary = _columns(batches)
    parts = []
    for b in batches:
        sigma = (sigma_rows(b.x0, b.x, b.xx, b.n, args.tol) if SIGMA_ROUTES.intersection(routes)
                 else None)
        columns = {r: ROUTE_TABLE[r](b, args, sigma) for r in routes
                   if r != "exact-d1" or b.d == 1}
        member, edge, _ = columns[primary]
        status[b.index] = np.where(member, MEMBER, NON_MEMBER)
        boundary[b.index] = edge
        if args.output == "json":
            parts.append((b.index, *_poly_texts(b, columns, primary)))
    _emit_verdicts(status, boundary, _block_texts(parts), args.output)
    return _exit_code(status)


def _count(args, name: str, least: int):
    """The count option ``--name`` (None when not given), refused below
    ``least``."""
    value = getattr(args, name)
    if value is not None and value < least:
        raise InputError(f"--{name} must be >= {least}, got {value}")
    return value


def _preset_state(args) -> SymmetricState:
    n = _count(args, "n", 2)
    if n is None:
        raise InputError("--preset needs --n")
    if n > MAX_PRESET_N:
        raise InputError(f"--n must be <= MAX_PRESET_N={MAX_PRESET_N} for a preset, got {n}")
    if args.preset == "dicke" and args.m is None:
        raise InputError("--preset dicke needs --m")
    for name in {"coherent": ("theta", "phi"), "dicke": ("m",)}.get(args.preset, ()):
        if not math.isfinite(getattr(args, name)):
            raise InputError(f"--{name} must be finite, got {getattr(args, name)}")
    if args.preset == "coherent":
        return coherent_state(n, args.theta, args.phi)
    if args.preset == "dicke":
        return dicke_state(n, args.m)
    if args.preset == "ghz":
        return ghz_state(n)
    if args.preset == "mixed":
        rng = np.random.default_rng(args.seed)
        k = _count(args, "components", 2)
        amps = (coherent_amplitudes(n, math.acos(2 * rng.uniform() - 1),
                                    2 * math.pi * rng.uniform()) for _ in range(k))
        return SymmetricState(n, mixture((np.outer(a, a.conj()) for a in amps), np.ones(k)))
    raise InputError(f"unknown preset {args.preset!r}")


def cmd_spin(args) -> int:
    if args.state:
        try:
            with open(args.state) as fh:
                obj = json.load(fh, cls=_JsonDecoder)
            state = SymmetricState.from_json_dict(obj)
        except (OSError, *PARSE_ERRORS) as exc:
            raise InputError(f"invalid state: {exc}")
    elif args.preset:
        state = _preset_state(args)
    else:
        raise InputError("need --state or --preset")
    report = entanglement_witness(state, tol=args.tol)
    if args.output == "json":
        print(_json_out(report.to_json_dict()))
    else:
        print(f"verdict: {report.verdict}")
        t = spin_tolerance(args.tol, state.n)
        for r in report.necessary:
            flag = " VIOLATED" if r.violated else ""
            # a residual within tolerance of 0 prints as 0, not as noise
            residual = 0.0 if abs(r.spin_residual) <= t else r.residual
            print(f"  necessary {r.label:28s} lhs={r.lhs: .6g} "
                  f"rhs={r.rhs: .6g} residual={residual: .6g}{flag}")
    return EXIT_OK


CONES = ("P", "Sigma", "SigmaPrime", "C-nec", "C-suf", "limit")


def _cone_tester(cone: str, n: int, d: int, tol: float):
    """Membership predicate over points (K, 1+2d) in the cone's coordinates
    (a0, a, aa) or (z0, z, zz): one kernel call per batch of points."""
    ProblemDims(n, d)  # rejects n < 2 and d < 1
    if cone in ("P", "limit") and d != 1:
        raise InputError("cone P is exactly decidable only at d=1" if cone == "P"
                         else "the limit-cone slice is defined at d=1")
    kernels = {
        "P": lambda a0, a, aa: p_n1_rows(a0, a[:, 0], aa[:, 0], n, tol)[2],
        "Sigma": lambda a0, a, aa: sigma_rows(a0, a, aa, n, tol).member,
        "SigmaPrime": lambda a0, a, aa: sigma_rows(a0 * n / (n - 1), a, aa, n, tol).member,
        "C-nec": lambda z0, z, zz: classify_rows(z0, z, zz, n, tol).nec.ok,
        "C-suf": lambda z0, z, zz: classify_rows(z0, z, zz, n, tol).suf.ok,
        "limit": lambda b0, b1, b11: limit_cone_rows(b0, b1[:, 0], b11[:, 0], tol)[2],
    }
    kernel = kernels[cone]  # --cone is one of CONES
    return lambda v: kernel(v[:, 0], v[:, 1:1 + d], v[:, 1 + d:])


def cmd_slice(args) -> int:
    try:
        plane = json.loads(args.plane, cls=_JsonDecoder)
        base = np.asarray(plane["base"], dtype=float)
        dirs = np.asarray(plane["dirs"], dtype=float)
        lo = np.asarray(plane.get("lo", [-1.0, -1.0]), dtype=float)
        hi = np.asarray(plane.get("hi", [1.0, 1.0]), dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid plane spec: {exc}")
    if lo.shape != (2,) or hi.shape != (2,):
        raise InputError("invalid plane spec: lo and hi must be two numbers each")
    n, d, g = args.n, args.d, _count(args, "grid", 1)
    if g * g * (1 + 2 * d) > MAX_SLICE_VALUES:
        raise InputError(f"--grid {g} at --d {d} gives {g * g * (1 + 2 * d)} plane values, "
                         f"more than MAX_SLICE_VALUES={MAX_SLICE_VALUES}")
    if base.shape != (1 + 2 * d,) or dirs.shape != (2, 1 + 2 * d):
        raise InputError(f"plane needs base of length {1 + 2 * d} and two "
                         f"direction vectors of the same length")
    member = _cone_tester(args.cone, n, d, args.tol)

    def points(x, y):
        return base + x[..., None] * dirs[0] + y[..., None] * dirs[1]

    # A point's coordinates, as rounded here, are monotone in x and in y, so
    # on the box [lo, hi] they lie between their values at its corners: the
    # finiteness rule and the certify row rules (``_checked``) hold at every
    # grid and bisection point when they hold at the corners.  An n past the
    # float range is refused by the n < 2^53 rule, as 2^53 is.
    corners = points(np.array([lo[0], lo[0], hi[0], hi[0]]), np.array([lo[1], hi[1]] * 2))
    if not np.isfinite(corners).all():
        raise InputError("plane point is not finite")
    _checked(np.full(4, float(min(n, 2 ** 53))), np.full(4, d),
             lambda idx, d: (corners[:, 0], corners[:, 1:1 + d], corners[:, 1 + d:]),
             POLY_FIELDS if args.cone in ("P", "Sigma", "SigmaPrime") else MOMENT_FIELDS)
    xs = np.linspace(lo[0], hi[0], g)
    ys = np.linspace(lo[1], hi[1], g)
    grid = member(points(*np.meshgrid(xs, ys, indexing="ij")).reshape(-1, 1 + 2 * d)
                  ).reshape(g, g).astype(int)
    # each member cell against its four neighbours, in scan order
    pairs = [((xs[i], ys[j]), (xs[i + di], ys[j + dj]))
             for i in range(g) for j in range(g) if grid[i, j]
             for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1))
             if 0 <= i + di < g and 0 <= j + dj < g and not grid[i + di, j + dj]]
    # bisect every (member, non-member) pair in lockstep, each to 1e-6
    ends = np.array(pairs, dtype=float).reshape(-1, 2, 2)
    a, b = ends[:, 0], ends[:, 1]
    for _ in range(60):
        mid = 0.5 * (a + b)
        live = np.flatnonzero(~(np.max(np.abs(b - a), axis=1) < 1e-6))
        if not live.size:
            break
        inside = member(points(mid[live, 0], mid[live, 1]))
        a[live[inside]] = mid[live[inside]]
        b[live[~inside]] = mid[live[~inside]]
    contour = (0.5 * (a + b)).tolist()
    if args.output == "json":
        print(_json_out({"cone": args.cone, "n": n, "d": d,
                         "x": xs.tolist(), "y": ys.tolist(),
                         "membership": grid.tolist(),
                         "contour": contour}))
    else:
        w = csv.writer(sys.stdout)
        w.writerow(["kind", "x", "y", "member"])
        for i, x in enumerate(xs):
            for jj, y in enumerate(ys):
                w.writerow(["grid", f"{x:.12g}", f"{y:.12g}", grid[i, jj]])
        for p in contour:
            w.writerow(["contour", f"{p[0]:.12g}", f"{p[1]:.12g}", ""])
    return EXIT_OK


def cmd_fuzz(args) -> int:
    result = fuzz_mod.run_suite(args.suite, iters=_count(args, "iters", 1), seed=args.seed)
    if args.output == "json":
        print(_json_out({"suite": result.suite, "iterations": result.iterations,
                         "passed": result.passed,
                         "violations": _witness_jsonable(result.violations)}))
    else:
        print(result.summary())
    return EXIT_OK if result.passed else EXIT_NONMEMBER


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    ap = argparse.ArgumentParser(
        prog="momentcert",
        description="Certify membership in the separable-moment cone and its "
                    "polynomial dual; witness collective-spin entanglement.")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed")
    ap.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ap.add_argument("--output", choices=("json", "csv", "text"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    cm = sub.add_parser("check-moments", help="moment-cone membership")
    cm.add_argument("--file", help="CSV (n,d,z0,z1..zd,z11..zdd) or JSON")
    cm.add_argument("--n", type=int)
    cm.add_argument("--d", type=int)
    cm.add_argument("--z0", type=float)
    cm.add_argument("--z", help="space/comma separated z_1..z_d")
    cm.add_argument("--zz", help="space/comma separated z_11..z_dd")
    cm.set_defaults(fn=cmd_check_moments)

    cp = sub.add_parser("check-poly", help="nonnegativity/SOS membership")
    cp.add_argument("--file", help="JSON record(s) with n,d,a0,a,aa")
    cp.add_argument("--route", choices=ROUTES, default="lmi")
    cp.add_argument("--n", type=int)
    cp.add_argument("--d", type=int)
    cp.add_argument("--a0", type=float)
    cp.add_argument("--a")
    cp.add_argument("--aa")
    cp.set_defaults(fn=cmd_check_poly)

    sp = sub.add_parser("spin", help="entanglement witness for a symmetric state")
    sp.add_argument("--state", help="JSON file {n, re, im}")
    sp.add_argument("--preset", choices=("coherent", "dicke", "ghz", "mixed"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--phi", type=float, default=0.0)
    sp.add_argument("--m", type=float)
    sp.add_argument("--components", type=int, default=3)
    sp.set_defaults(fn=cmd_spin)

    sl = sub.add_parser("slice", help="2-D cone cross-section as data")
    sl.add_argument("--cone", choices=CONES, required=True)
    sl.add_argument("--plane", required=True,
                    help='JSON {"base": [...], "dirs": [[...],[...]], '
                         '"lo": [x,y], "hi": [x,y]}')
    sl.add_argument("--grid", type=int, default=41)
    sl.add_argument("--n", type=int, required=True)
    sl.add_argument("--d", type=int, required=True)
    sl.set_defaults(fn=cmd_slice)

    fz = sub.add_parser("fuzz", help="property-based self-test suites")
    fz.add_argument("--suite", choices=sorted(fuzz_mod.SUITES), required=True)
    fz.add_argument("--iters", type=int)
    fz.set_defaults(fn=cmd_fuzz)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise InputError("tol must be finite and positive")
        if args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
