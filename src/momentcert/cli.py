"""Command-line surface: certification, spin witnessing, slices, fuzzing.

Exit codes for certification commands: 0 all Member, 1 any NonMember,
2 any Indeterminate (without NonMember), 64 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fuzz as fuzz_mod
from .core import (
    DEFAULT_TOL,
    ProblemDims,
    RowBatch,
    Status,
    SymmetricQuadratic,
    abs_scale,
    group_rows,
    json_int,
    margin_verdict,
    scaled_tolerance,
)
from .exact_d1 import (
    limit_cone_rows,
    p_n1_membership,  # noqa: F401  (bench/tracing.py wraps this binding)
    p_n1_rows,
    p_n1_witness,
)
from .halfdeg import check_pattern_budget, reduced_global_min
from .moment_cone import (
    STATUSES,
    classify,  # noqa: F401  (bench/tracing.py wraps this binding)
    classify_rows,
    classify_witnesses,
)
from .sos_cone import (
    arrow_lmi_rows,
    ellipsoid_quadratic_min,  # noqa: F401  (bench/tracing.py wraps this binding)
    ellipsoid_rows,
    sigma_membership_lmi,  # noqa: F401  (bench/tracing.py wraps this binding)
)
from .spin import (
    SymmetricState,
    coherent_state,
    dicke_state,
    entanglement_witness,
    ghz_state,
    mixed,
    spin_tolerance,
)

SCHEMA = "1"
EXIT_OK = 0
EXIT_NONMEMBER = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT = 64


@dataclass
class RunConfig:
    seed: int
    tol: float
    output: str

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")


class InputError(Exception):
    pass


#: verdict records per block of streamed JSON output: bounds the per-byte
#: index arrays of the re-indent pass, while a block still has enough bytes
#: that its few numpy calls cost little per record
JSON_BLOCK = 128

#: compact separators and no indent select the stdlib's C encoder
_compact_json = json.JSONEncoder(separators=(",", ": "), sort_keys=True).encode
_JSON_MARKS = np.zeros(256, dtype=bool)
_JSON_MARKS[list(b'",[]{}')] = True
_JSON_STEP = np.zeros(256, dtype=np.intp)  # nesting step of each mark
_JSON_STEP[list(b"[{")] = 1
_JSON_STEP[list(b"]}")] = -1


def _indented_json(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with every line after
    the first indented ``depth`` levels further.

    The C encoder writes the compact text; then, outside strings (told by
    quote parity), a newline and two spaces per level go after each
    non-empty ``[``/``{`` and each ``,``, and before each non-empty
    ``]``/``}``.  Text with a backslash, the only way a quote can sit inside
    a string, takes the stdlib's indenting encoder instead.
    """
    text = _compact_json(obj)
    if "\\" in text:
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    pos = np.flatnonzero(_JSON_MARKS[b])
    quote = b[pos] == ord('"')
    pos = pos[~quote & (np.cumsum(quote) % 2 == 0)]
    step = _JSON_STEP[b[pos]]
    level = depth + np.cumsum(step)
    empty = (step[:-1] > 0) & (step[1:] < 0) & (np.diff(pos) == 1)
    after = step >= 0  # an open or a comma
    after[:-1] &= ~empty
    before = step < 0
    before[1:] &= ~empty
    gap = after | before
    at = (pos + after)[gap]  # byte index each newline goes in front of
    width = 1 + 2 * level[gap]
    shift = np.zeros(b.size, dtype=np.intp)
    shift[at] = width
    np.cumsum(shift, out=shift)
    out = np.full(b.size + int(shift[-1]), ord(" "), dtype=np.uint8)
    out[np.arange(b.size) + shift] = b
    out[at + shift[at] - width] = ord("\n")
    return out.tobytes().decode("ascii")


def _json_out(payload: dict) -> str:
    return _indented_json({"schema": SCHEMA, **payload})


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc))


MOMENT_FIELDS = ("z0", "z", "zz")
POLY_FIELDS = ("a0", "a", "aa")
#: what converting a record's fields, or a row rule, raises on bad input
PARSE_ERRORS = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _checked(n: np.ndarray, d: np.ndarray, values, names) -> list[RowBatch]:
    """``group_rows(n, d, values)`` under the row rules: n >= 2, n < 2^53,
    d >= 1 and every value finite.  A broken rule raises ValueError with the
    scalar constructors' message for the first row that breaks it."""
    low = np.flatnonzero(n < 2)
    if low.size:
        raise ValueError(f"n must be an integer >= 2, got {int(n[low[0]])}")
    if (n >= 2.0 ** 53).any():
        raise ValueError("n must be an integer < 2^53")
    low = np.flatnonzero(d < 1)
    if low.size:
        raise ValueError(f"d must be an integer >= 1, got {int(d[low[0]])}")
    batches = group_rows(n, d, values)
    for b in batches:
        for name, v in zip(names, b[2:]):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite" if v.ndim == 1
                                 else f"{name} contains non-finite entries")
    return batches


def _parsed(parse, rows: list, label) -> list[RowBatch]:
    """``parse(rows)``; when that fails, ``parse`` runs on one row at a time
    (its B=1 view) and the first row that fails is reported as InputError
    ``label(i)`` followed by its error."""
    try:
        return parse(rows)
    except PARSE_ERRORS:
        pass
    for i, row in enumerate(rows):
        try:
            parse([row])
        except PARSE_ERRORS as exc:
            raise InputError(f"{label(i)}{exc}") from None
    raise AssertionError("rows that parse one at a time failed together")


def _record_batches(rows: list, names) -> list[RowBatch]:
    """JSON-like records with n, d and the three named fields, grouped by d:
    each field converted for all records of a group at once, as
    ``from_json_dict`` converts it for one."""
    k0, k1, k2 = names

    def block(idx: list, key: str, d: int) -> np.ndarray:
        vals = [rows[i][key] for i in idx]
        try:
            v = np.array(vals, dtype=float)
        except ValueError:  # scalar, nested and flat spellings side by side
            v = np.array([np.array(x, dtype=float).ravel() for x in vals])
        v = v.reshape(len(idx), -1)
        if v.shape[1] != d:
            raise ValueError(f"{key} must have length {d}, got {v.shape[1:]}")
        return v

    def values(idx: np.ndarray, d: int) -> np.ndarray:
        idx = idx.tolist()
        return np.column_stack([[float(rows[i][k0]) for i in idx],
                                block(idx, k1, d), block(idx, k2, d)])

    n = np.array([json_int(r, "n") for r in rows], dtype=float)
    d = np.array([json_int(r, "d") for r in rows])
    return _checked(n, d, values, names)


def _json_records(raw: str, path: str, names, kind: str) -> list[RowBatch]:
    """The records of a JSON object or list, grouped by d."""
    try:
        obj = json.loads(raw)
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


def _csv_batches(rows: list[list[str]]) -> list[RowBatch]:
    """CSV rows n,d,z0,z_1..z_d,z_11..z_dd grouped by d, every cell
    converted with ``int``/``float``."""
    n = np.array([int(r[0]) for r in rows], dtype=float)
    d = np.array([int(r[1]) for r in rows])
    width = np.array([len(r) for r in rows])

    def values(idx: np.ndarray, d: int) -> np.ndarray:
        if (width[idx] != 3 + 2 * d).any():
            raise ValueError(f"expected {1 + 2 * d} values after n,d")
        return np.array([float(c) for i in idx.tolist() for c in rows[i][2:]]
                        ).reshape(idx.size, 1 + 2 * d)

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
    rows, lines = [], []
    for lineno, row in enumerate(reader, start=2):
        if row and any(map(str.strip, row)):
            rows.append(row)
            lines.append(lineno)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return _parsed(_csv_batches, rows, lambda i: f"{path}: line {lines[i]}: ")


def _load_poly_rows(path: str) -> list[RowBatch]:
    return _json_records(_read_text(path), path, POLY_FIELDS, "polynomial")


def _exit_code(results: list[dict]) -> int:
    statuses = {r["status"] for r in results}
    if Status.NON_MEMBER.value in statuses:
        return EXIT_NONMEMBER
    if Status.INDETERMINATE.value in statuses:
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


def _emit_verdicts(results: list[dict], cfg: RunConfig):
    if cfg.output == "json":
        # _json_out's layout, written a block of records at a time: sorted
        # keys put "results" before "schema"
        write = sys.stdout.write
        write('{\n  "results": [')
        for start in range(0, len(results), JSON_BLOCK):
            block = _indented_json(results[start:start + JSON_BLOCK], depth=1)
            write(("," if start else "") + block[1:-4])  # without "[" and "\n  ]"
        write(("\n  ]" if results else "]") + f',\n  "schema": "{SCHEMA}"\n}}\n')
    elif cfg.output == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["index", "status", "boundary"])
        w.writerows([i, r["status"], r.get("boundary", False)] for i, r in enumerate(results))
    else:
        sys.stdout.write("".join(
            f"[{i}] {r['status']}{' (boundary)' if r.get('boundary') else ''}\n"
            for i, r in enumerate(results)))


STATUS_VALUES = tuple(s.value for s in STATUSES)


def _inline_rows(args, names) -> list[RowBatch]:
    """The one row given by --n, --d and the three coefficient options, read
    as a one-record file."""
    x0, x, xx = names
    if args.n is None or args.d is None or getattr(args, x0) is None:
        raise InputError(f"inline mode needs --n, --d, --{x0}, --{x}, --{xx}")
    record = {"n": args.n, "d": args.d, x0: getattr(args, x0)}
    for k in (x, xx):
        record[k] = _parse_floats(getattr(args, k)) if getattr(args, k) else [0.0] * args.d
    return _parsed(lambda r: _record_batches(r, names), [record], lambda i: "")


def cmd_check_moments(args, cfg: RunConfig) -> int:
    batches = (_load_moment_rows(args.file) if args.file
               else _inline_rows(args, MOMENT_FIELDS))
    results: list = [None] * sum(b.index.size for b in batches)
    for b in batches:
        verdicts = classify_rows(b.x0, b.x, b.xx, b.n, cfg.tol)
        witnesses = (classify_witnesses(verdicts, b.x0, b.x, b.xx, b.n, cfg.tol)
                     if cfg.output == "json" else None)
        for k, (i, code, edge) in enumerate(zip(b.index.tolist(), verdicts.status.tolist(),
                                                verdicts.boundary.tolist())):
            r = {"status": STATUS_VALUES[code], "boundary": edge}
            if witnesses is not None:
                r["input"] = b.record(k, MOMENT_FIELDS)
                r["witness"] = _witness_jsonable(witnesses[k])
            results[i] = r
    _emit_verdicts(results, cfg)
    return _exit_code(results)


ROUTES = ("lmi", "ellipsoid", "exact-d1", "halfdeg", "all")


def _member_value(member: bool) -> str:
    return STATUS_VALUES[0] if member else STATUS_VALUES[1]


def _min_verdicts(b: RowBatch, cfg: RunConfig, val) -> tuple[list, list]:
    """Member and boundary of each row's minimum of Q (P/Sigma tolerance)."""
    t = scaled_tolerance(cfg.tol, abs_scale(b.x0, b.x, b.xx), b.n)
    return tuple(v.tolist() for v in margin_verdict(val, t))


def _lmi_route(b: RowBatch, cfg: RunConfig) -> list[dict]:
    r = arrow_lmi_rows(b.x0, b.x, b.xx, b.n, cfg.tol)
    return [{"status": _member_value(m), "boundary": e, "c": c, "slack": f}
            for m, e, c, f in zip(r.member.tolist(), r.boundary.tolist(),
                                  r.c.tolist(), r.slack.tolist())]


def _exact_d1_route(b: RowBatch, cfg: RunConfig) -> list[dict]:
    """The d=1 facet test, one kernel call per n."""
    out: list = [None] * b.index.size
    for n in sorted(set(b.n.tolist())):
        sel = np.flatnonzero(b.n == n)
        _, kmin, rmin, member, edge = p_n1_rows(b.x0[sel], b.x[sel, 0], b.xx[sel, 0],
                                                int(n), cfg.tol)
        for k, km, rm, m, e in zip(sel.tolist(), kmin.tolist(), rmin.tolist(),
                                   member.tolist(), edge.tolist()):
            out[k] = {"status": _member_value(m), "boundary": e,
                      "witness": (_witness_jsonable(p_n1_witness(int(n), km, rm, m))
                                  if cfg.output == "json" else None)}
    return out


def _ellipsoid_route(b: RowBatch, cfg: RunConfig) -> list[dict]:
    val, x, y = ellipsoid_rows(b.x0, b.x, b.xx, b.n)
    return [{"status": _member_value(m), "boundary": e, "min_value": v, "x": xk, "y": yk}
            for m, e, v, xk, yk in zip(*_min_verdicts(b, cfg, val), val.tolist(),
                                       x.tolist(), y.tolist())]


def _halfdeg_route(b: RowBatch, cfg: RunConfig) -> list[dict]:
    """The half-degree search, one polynomial at a time."""
    val, found = zip(*(reduced_global_min(SymmetricQuadratic(ProblemDims(n, b.d), *v),
                                          seed=cfg.seed)
                       for n, *v in zip(b.n.astype(int).tolist(), b.x0, b.x, b.xx)))
    return [{"status": _member_value(m), "boundary": e, "min_value": v,
             "argmin": c.points.tolist()}
            for m, e, v, c in zip(*_min_verdicts(b, cfg, np.array(val)), val, found)]


#: each route runs once per d-group, over the rows of that group
ROUTE_TABLE = {"lmi": _lmi_route, "ellipsoid": _ellipsoid_route,
               "exact-d1": _exact_d1_route, "halfdeg": _halfdeg_route}


def cmd_check_poly(args, cfg: RunConfig) -> int:
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
    results: list = [None] * sum(b.index.size for b in batches)
    for b in batches:
        batched = [(r, ROUTE_TABLE[r](b, cfg)) for r in routes if r != "exact-d1" or b.d == 1]
        for k, i in enumerate(b.index.tolist()):
            per_route = {r: v[k] for r, v in batched}
            # halfdeg/exact-d1 decide the (larger) nonnegativity cone, so a
            # disagreement only counts between the two SOS routes
            sos_verdicts = {per_route[r]["status"] for r in ("lmi", "ellipsoid")
                            if r in per_route}
            result = {"status": per_route[primary]["status"], "routes": per_route,
                      "disagreement": len(sos_verdicts) > 1,
                      "all_statuses": sorted({r["status"] for r in per_route.values()})}
            if cfg.output == "json":
                result["input"] = b.record(k, POLY_FIELDS)
            results[i] = result
    _emit_verdicts(results, cfg)
    return _exit_code(results)


def _preset_state(args) -> SymmetricState:
    if args.n is None:
        raise InputError("--preset needs --n")
    n = args.n
    if args.preset == "coherent":
        return coherent_state(n, args.theta, args.phi)
    if args.preset == "dicke":
        if args.m is None:
            raise InputError("--preset dicke needs --m")
        try:
            return dicke_state(n, args.m)
        except ValueError as exc:
            raise InputError(str(exc))
    if args.preset == "ghz":
        return ghz_state(n)
    if args.preset == "mixed":
        rng = np.random.default_rng(args_seed(args))
        comps = [coherent_state(n, math.acos(2 * rng.uniform() - 1),
                                2 * math.pi * rng.uniform())
                 for _ in range(max(2, args.components))]
        return mixed(comps, np.ones(len(comps)))
    raise InputError(f"unknown preset {args.preset!r}")


def args_seed(args) -> int:
    env = os.environ.get("MC_SEED")
    return int(env) if env is not None else args.seed


def cmd_spin(args, cfg: RunConfig) -> int:
    if args.state:
        try:
            with open(args.state) as fh:
                obj = json.load(fh)
            state = SymmetricState.from_json_dict(obj)
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"invalid state: {exc}")
    elif args.preset:
        state = _preset_state(args)
    else:
        raise InputError("need --state or --preset")
    try:
        report = entanglement_witness(state, tol=cfg.tol)
    except ValueError as exc:
        raise InputError(str(exc))
    if cfg.output == "json":
        print(_json_out(report.to_json_dict()))
    else:
        print(f"verdict: {report.verdict}")
        t = spin_tolerance(cfg.tol, state.n)
        for kind, rows in (("necessary", report.necessary),
                           ("sufficient", report.sufficient)):
            for r in rows:
                flag = " VIOLATED" if r.violated else ""
                # a residual within tolerance of 0 prints as 0, not as noise
                residual = 0.0 if abs(r.spin_residual) <= t else r.residual
                print(f"  {kind} {r.label:28s} lhs={r.lhs: .6g} "
                      f"rhs={r.rhs: .6g} residual={residual: .6g}{flag}")
    return EXIT_OK


CONES = ("P", "Sigma", "SigmaPrime", "C-nec", "C-suf", "limit")


def _cone_tester(cone: str, n: int, d: int, tol: float):
    """Membership predicate over points (K, 1+2d) in the cone's coordinates
    (a0, a, aa) or (z0, z, zz): one kernel call per batch of points.  A
    non-finite point is an input error."""
    ProblemDims(n, d)  # rejects n < 2 and d < 1
    if cone in ("P", "limit") and d != 1:
        raise InputError("cone P is exactly decidable only at d=1" if cone == "P"
                         else "the limit-cone slice is defined at d=1")
    kernels = {
        "P": lambda a0, a, aa: p_n1_rows(a0, a[:, 0], aa[:, 0], n, tol)[3],
        "Sigma": lambda a0, a, aa: arrow_lmi_rows(a0, a, aa, n, tol).member,
        "SigmaPrime": lambda a0, a, aa: arrow_lmi_rows(a0 * n / (n - 1), a, aa, n, tol).member,
        "C-nec": lambda z0, z, zz: classify_rows(z0, z, zz, n, tol).nec.ok,
        "C-suf": lambda z0, z, zz: classify_rows(z0, z, zz, n, tol).suf.ok,
        "limit": lambda b0, b1, b11: limit_cone_rows(b0, b1[:, 0], b11[:, 0], tol)[2],
    }
    kernel = kernels[cone]  # --cone is one of CONES

    def member(v):
        if not np.isfinite(v).all():
            raise InputError("plane point is not finite")
        return kernel(v[:, 0], v[:, 1:1 + d], v[:, 1 + d:])

    return member


def cmd_slice(args, cfg: RunConfig) -> int:
    try:
        plane = json.loads(args.plane)
        base = np.asarray(plane["base"], dtype=float)
        dirs = np.asarray(plane["dirs"], dtype=float)
        lo = np.asarray(plane.get("lo", [-1.0, -1.0]), dtype=float)
        hi = np.asarray(plane.get("hi", [1.0, 1.0]), dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid plane spec: {exc}")
    n, d, g = args.n, args.d, args.grid
    if base.shape != (1 + 2 * d,) or dirs.shape != (2, 1 + 2 * d):
        raise InputError(f"plane needs base of length {1 + 2 * d} and two "
                         f"direction vectors of the same length")
    member = _cone_tester(args.cone, n, d, cfg.tol)
    xs = np.linspace(lo[0], hi[0], g)
    ys = np.linspace(lo[1], hi[1], g)

    def points(x, y):
        return base + x[..., None] * dirs[0] + y[..., None] * dirs[1]

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
    if cfg.output == "json":
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


def cmd_fuzz(args, cfg: RunConfig) -> int:
    try:
        result = fuzz_mod.run_suite(args.suite, iters=args.iters, seed=cfg.seed)
    except ValueError as exc:
        raise InputError(str(exc))
    if cfg.output == "json":
        print(_json_out({"suite": result.suite, "iterations": result.iterations,
                         "passed": result.passed,
                         "violations": _witness_jsonable(result.violations)}))
    else:
        print(result.summary())
    return EXIT_OK if result.passed else EXIT_NONMEMBER


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="momentcert",
        description="Certify membership in the separable-moment cone and its "
                    "polynomial dual; witness collective-spin entanglement.")
    ap.add_argument("--seed", type=int, default=0,
                    help="RNG seed (env MC_SEED overrides)")
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
        cfg = RunConfig(seed=args_seed(args), tol=args.tol, output=args.output)
        return args.fn(args, cfg)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
