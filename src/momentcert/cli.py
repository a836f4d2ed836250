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
from .core import MomentVector, ProblemDims, Status, SymmetricQuadratic, scaled_tolerance
from .exact_d1 import limit_cone_d1, p_n1_membership
from .halfdeg import reduced_global_min
from .moment_cone import classify, necessary_condition, sufficient_condition
from .sos_cone import ellipsoid_quadratic_min, sigma_membership_lmi, sigma_prime_membership
from .spin import (
    SymmetricState,
    coherent_state,
    dicke_state,
    entanglement_witness,
    ghz_state,
    mixed,
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
        if self.tol <= 0:
            raise ValueError("tol must be positive")


class InputError(Exception):
    pass


def _json_out(payload: dict) -> str:
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, indent=2, sort_keys=True)


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _load_moment_rows(path: str) -> list[MomentVector]:
    try:
        raw = open(path).read()
    except OSError as exc:
        raise InputError(str(exc))
    if raw.lstrip().startswith(("{", "[")):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}")
        rows = obj if isinstance(obj, list) else [obj]
        try:
            return [MomentVector.from_json_dict(r) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: bad moment record: {exc}")
    return _parse_moment_csv(raw, path)


def _parse_moment_csv(raw: str, path: str) -> list[MomentVector]:
    reader = csv.reader(io.StringIO(raw))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if header[:3] != ["n", "d", "z0"]:
        raise InputError(f"{path}: line 1: header must start with n,d,z0")
    out = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            n, d = int(row[0]), int(row[1])
            vals = [float(c) for c in row[2:]]
            if len(vals) != 1 + 2 * d:
                raise ValueError(f"expected {1 + 2 * d} values after n,d")
            out.append(MomentVector(ProblemDims(n, d), vals[0],
                                    vals[1:1 + d], vals[1 + d:]))
        except (ValueError, IndexError) as exc:
            raise InputError(f"{path}: line {lineno}: {exc}")
    if not out:
        raise InputError(f"{path}: no data rows")
    return out


def _load_poly_rows(path: str) -> list[SymmetricQuadratic]:
    try:
        raw = open(path).read()
    except OSError as exc:
        raise InputError(str(exc))
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}")
    rows = obj if isinstance(obj, list) else [obj]
    try:
        return [SymmetricQuadratic.from_json_dict(r) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad polynomial record: {exc}")


def _exit_code(statuses: list[Status]) -> int:
    if any(s is Status.NON_MEMBER for s in statuses):
        return EXIT_NONMEMBER
    if any(s is Status.INDETERMINATE for s in statuses):
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
        print(_json_out({"results": results}))
    elif cfg.output == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["index", "status", "boundary"])
        for i, r in enumerate(results):
            w.writerow([i, r["status"], r.get("boundary", False)])
    else:
        for i, r in enumerate(results):
            extra = " (boundary)" if r.get("boundary") else ""
            print(f"[{i}] {r['status']}{extra}")


def cmd_check_moments(args, cfg: RunConfig) -> int:
    if args.file:
        rows = _load_moment_rows(args.file)
    else:
        if args.n is None or args.d is None or args.z0 is None:
            raise InputError("inline mode needs --n, --d, --z0, --z, --zz")
        d = args.d
        z = _parse_floats(args.z) if args.z else [0.0] * d
        zz = _parse_floats(args.zz) if args.zz else [0.0] * d
        try:
            rows = [MomentVector(ProblemDims(args.n, d), args.z0, z, zz)]
        except ValueError as exc:
            raise InputError(str(exc))
    results, statuses = [], []
    for m in rows:
        v = classify(m, tol=cfg.tol)
        statuses.append(v.status)
        results.append({"input": m.to_json_dict(), "status": v.status.value,
                        "boundary": v.boundary,
                        "witness": _witness_jsonable(v.witness)})
    _emit_verdicts(results, cfg)
    return _exit_code(statuses)


ROUTES = ("lmi", "ellipsoid", "exact-d1", "halfdeg", "all")


def _poly_route_verdict(q: SymmetricQuadratic, route: str, cfg: RunConfig) -> dict:
    if route == "lmi":
        v, feas = sigma_membership_lmi(q, tol=cfg.tol)
        return {"status": v.status.value, "boundary": v.boundary,
                "c": feas.c, "slack": feas.marginal}
    if route == "ellipsoid":
        val, pt = ellipsoid_quadratic_min(q)
        t = scaled_tolerance(cfg.tol, q.coeff_scale(), q.dims.n)
        status = Status.MEMBER if val >= -t else Status.NON_MEMBER
        return {"status": status.value, "boundary": -t <= val < t,
                "min_value": val, "x": list(pt.x), "y": list(pt.y)}
    if route == "exact-d1":
        if q.dims.d != 1:
            raise InputError("route exact-d1 requires d=1")
        v, _ = p_n1_membership(q, tol=cfg.tol)
        return {"status": v.status.value, "boundary": v.boundary,
                "witness": _witness_jsonable(v.witness)}
    if route == "halfdeg":
        try:
            val, cfg_min = reduced_global_min(q, seed=cfg.seed)
        except ValueError as exc:  # pattern count above halfdeg.MAX_PATTERNS
            raise InputError(str(exc))
        t = scaled_tolerance(cfg.tol, q.coeff_scale(), q.dims.n)
        status = Status.MEMBER if val >= -t else Status.NON_MEMBER
        return {"status": status.value, "boundary": -t <= val < t,
                "min_value": val,
                "argmin": [list(p) for p in cfg_min.points]}
    raise InputError(f"unknown route {route!r}")


def cmd_check_poly(args, cfg: RunConfig) -> int:
    if args.file:
        rows = _load_poly_rows(args.file)
    else:
        if args.n is None or args.d is None or args.a0 is None:
            raise InputError("inline mode needs --n, --d, --a0, --a, --aa")
        d = args.d
        a = _parse_floats(args.a) if args.a else [0.0] * d
        aa = _parse_floats(args.aa) if args.aa else [0.0] * d
        try:
            rows = [SymmetricQuadratic(ProblemDims(args.n, d), args.a0, a, aa)]
        except ValueError as exc:
            raise InputError(str(exc))
    routes = ROUTES[:-1] if args.route == "all" else (args.route,)
    results, statuses = [], []
    for q in rows:
        per_route = {}
        for route in routes:
            if route == "exact-d1" and args.route == "all" and q.dims.d != 1:
                continue
            per_route[route] = _poly_route_verdict(q, route, cfg)
        verdicts = {r["status"] for r in per_route.values()}
        # halfdeg/exact-d1 decide the (larger) nonnegativity cone, so a
        # disagreement only counts between the two SOS routes
        sos_verdicts = {per_route[r]["status"] for r in ("lmi", "ellipsoid")
                        if r in per_route}
        disagreement = len(sos_verdicts) > 1
        status = Status(per_route[routes[0] if args.route != "all" else "lmi"]["status"])
        statuses.append(status)
        results.append({"input": q.to_json_dict(), "status": status.value,
                        "routes": per_route, "disagreement": disagreement,
                        "all_statuses": sorted(verdicts)})
    _emit_verdicts(results, cfg)
    return _exit_code(statuses)


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
            obj = json.load(open(args.state))
            state = SymmetricState.from_json_dict(obj)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
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
        for kind, rows in (("necessary", report.necessary),
                           ("sufficient", report.sufficient)):
            for r in rows:
                flag = " VIOLATED" if r.violated else ""
                print(f"  {kind} {r.label:28s} lhs={r.lhs: .6g} "
                      f"rhs={r.rhs: .6g} residual={r.residual: .6g}{flag}")
    return EXIT_OK


CONES = ("P", "Sigma", "SigmaPrime", "C-nec", "C-suf", "limit")


def _cone_tester(cone: str, n: int, d: int, tol: float):
    """Membership predicate over the full coordinate vector of length 1+2d."""
    dims = ProblemDims(n, d)

    def poly(vec):
        return SymmetricQuadratic(dims, vec[0], vec[1:1 + d], vec[1 + d:])

    def mom(vec):
        return MomentVector(dims, vec[0], vec[1:1 + d], vec[1 + d:])

    if cone == "P":
        if d != 1:
            raise InputError("cone P is exactly decidable only at d=1")
        return lambda v: p_n1_membership(poly(v), tol=tol)[0].is_member
    if cone == "Sigma":
        return lambda v: sigma_membership_lmi(poly(v), tol=tol)[0].is_member
    if cone == "SigmaPrime":
        return lambda v: sigma_prime_membership(poly(v), tol=tol).is_member
    if cone == "C-nec":
        return lambda v: necessary_condition(mom(v), tol=tol)[0]
    if cone == "C-suf":
        return lambda v: sufficient_condition(mom(v), tol=tol)[0]
    if cone == "limit":
        if d != 1:
            raise InputError("the limit-cone slice is defined at d=1")
        return lambda v: limit_cone_d1((v[0], v[1], v[2]), tol=tol).is_member
    raise InputError(f"unknown cone {cone!r}")


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
    grid = np.zeros((g, g), dtype=int)
    for i, x in enumerate(xs):
        for jj, y in enumerate(ys):
            grid[i, jj] = int(member(base + x * dirs[0] + y * dirs[1]))

    def refine(p_in, p_out):
        a, b = np.array(p_in, float), np.array(p_out, float)
        for _ in range(60):
            mid = 0.5 * (a + b)
            if np.max(np.abs(b - a)) < 1e-6:
                break
            if member(base + mid[0] * dirs[0] + mid[1] * dirs[1]):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    contour = []
    for i in range(g):
        for jj in range(g):
            if grid[i, jj]:
                for di, dj in ((1, 0), (0, 1)):
                    ii, jjj = i + di, jj + dj
                    if ii < g and jjj < g and not grid[ii, jjj]:
                        contour.append(refine((xs[i], ys[jj]), (xs[ii], ys[jjj])))
                for di, dj in ((-1, 0), (0, -1)):
                    ii, jjj = i + di, jj + dj
                    if ii >= 0 and jjj >= 0 and not grid[ii, jjj]:
                        contour.append(refine((xs[i], ys[jj]), (xs[ii], ys[jjj])))
    if cfg.output == "json":
        print(_json_out({"cone": args.cone, "n": n, "d": d,
                         "x": list(xs), "y": list(ys),
                         "membership": grid.tolist(),
                         "contour": [list(p) for p in contour]}))
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
    ap.add_argument("--tol", type=float, default=1e-9)
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
