"""Correctness checks on CLI output, using the benchmark's own formulas.

Every check can say no: each returns, per input record, either None or the
reason the record failed.  A record fails when its call raised or exited 64,
when its verdict or witness is rejected below, or when the exit code does not
match the verdicts.  Checks run after the timed interval.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import oracle
from workloads import ENTANGLED, SEPARABLE

#: slack for re-evaluating reported values: 10x the package's verdict tolerance
EVAL_TOL = 1e-8
EXIT_INPUT = 64
DETECTED = "EntanglementDetected"
SPIN_VERDICTS = (DETECTED, "SeparabilityCertified", "Inconclusive")
TEXT_LINE = re.compile(r"^\[(\d+)\] (Member|NonMember|Indeterminate)( \(boundary\))?$")


def expected_exit(statuses: list[str]) -> int:
    if "NonMember" in statuses:
        return 1
    if "Indeterminate" in statuses:
        return 2
    return 0


def _parse(call: dict, text: str, output: str) -> list[dict]:
    """Per-record results from one call's stdout; raises ValueError."""
    if call["kind"] == "spin":
        return [json.loads(text)]
    if output == "json":
        return json.loads(text)["results"]
    rows = []
    for i, line in enumerate(text.splitlines()):
        m = TEXT_LINE.match(line)
        if not m or int(m.group(1)) != i:
            raise ValueError(f"line {i + 1}: unexpected {line[:60]!r}")
        rows.append({"status": m.group(2), "boundary": bool(m.group(3))})
    return rows


def _tol(scale: float, n: int) -> float:
    return oracle.abs_tol(scale, n, EVAL_TOL)


def check_moment_row(exp: dict, res: dict, offset: float | None = None) -> str | None:
    """``offset``, if given, is sigma_offset of the row's separating polynomial."""
    n, d, z0 = exp["n"], exp["d"], exp["z0"]
    z, zz = np.array(exp["z"]), np.array(exp["zz"])
    status = res["status"]
    if exp["atomic"]:
        if status == "NonMember":
            return "atomic-measure moments reported NonMember"
    elif status != exp["expect"]:
        return f"verdict {status}, closed form gives {exp['expect']}"
    scale = oracle.moment_scale(z0, z, zz)
    t = _tol(scale, n)
    if d == 1:
        facets = oracle.c_d1_facets(z0, z[0], zz[0], n)
        if status == "Member" and facets.min() < -t:
            return f"Member but d=1 facet value {facets.min():.3g}"
        if status == "NonMember" and facets.min() >= t:
            return "NonMember but every d=1 facet holds"
    if "witness" not in res:                  # text output carries verdicts only
        return None
    wit = res["witness"]
    if status == "NonMember":
        q = (wit or {}).get("separating_polynomial")
        if not q:
            return "NonMember without a separating polynomial"
        a0, a, aa = q["a0"], np.array(q["a"]), np.array(q["aa"])
        if a0 * z0 + float(a @ z) + float(aa @ zz) >= 0.0:
            return "separating polynomial pairs nonnegatively with the row"
        qscale = oracle.coeff_scale(a0, a, aa)
        if offset is None:
            offset = oracle.sigma_offset(a, aa, n)
        if a0 + offset < -oracle.abs_tol(qscale, n):
            return "separating polynomial is not a sum of squares"
    elif status == "Member":
        mat = ((wit or {}).get("matrix") or {}).get("matrix")
        if mat is None:
            return "Member without a moment matrix"
        mat = np.array(mat, dtype=float)
        if mat.shape != (2 * d + 2, 2 * d + 2):
            return f"moment matrix has shape {mat.shape}"
        if float(np.linalg.eigvalsh(mat)[0]) < -EVAL_TOL * scale * scale * mat.shape[0]:
            return "moment matrix is not positive semidefinite"
    return None


def check_poly_row(exp: dict, res: dict, route: str) -> str | None:
    n, d, a0 = exp["n"], exp["d"], exp["a0"]
    a, aa = np.array(exp["a"]), np.array(exp["aa"])
    status = res["status"]
    t = _tol(oracle.coeff_scale(a0, a, aa), n)
    if route == "exact-d1":
        want = "Member" if exp["p_member"] else "NonMember"
        if status != want:
            return f"exact-d1 verdict {status}, d=1 facets give {want}"
    elif status != exp["expect"]:
        return f"{route} verdict {status}, closed form gives {exp['expect']}"
    if d == 1 and status == "Member":
        low = oracle.p_d1_facets(a0, a[0], aa[0], n).min()
        if low < -t:
            return f"Member but Q = {low:.3g} at a cube vertex"
    detail = res.get("routes", {}).get(route)
    if detail is None:
        return None
    if route == "ellipsoid":
        x, y = np.array(detail["x"]), np.array(detail["y"])
        if float(y @ y + x @ x / n) > 1.0 + 1e-9:
            return "ellipsoid point lies outside the ellipsoid"
        val = oracle.ellipsoid_value(a0, a, aa, n, x, y)
        if abs(val - detail["min_value"]) > t:
            return f"ellipsoid min_value {detail['min_value']:.6g} but {val:.6g} at its point"
    if route == "exact-d1":
        wit = detail.get("witness") or {}
        if status == "NonMember":
            pts = np.array(((wit.get("point") or {}).get("points")) or [], dtype=float)
            if pts.shape != (n, 1) or np.any(np.abs(np.abs(pts) - 1.0) > 0.0):
                return "exact-d1 NonMember without a cube vertex"
            val = oracle.quadratic_at(a0, a, aa, pts)
            if val >= 0.0 or abs(val - wit.get("residual", math.nan)) > t:
                return f"exact-d1 vertex value {val:.6g} does not refute membership"
    return None


def check_halfdeg_row(exp: dict, res: dict, seed: int) -> str | None:
    n, d, a0 = exp["n"], exp["d"], exp["a0"]
    a, aa = np.array(exp["a"]), np.array(exp["aa"])
    detail = res["routes"]["halfdeg"]
    status, val = res["status"], detail["min_value"]
    t = oracle.abs_tol(oracle.coeff_scale(a0, a, aa), n)
    if status != ("Member" if val >= -t else "NonMember"):
        return f"verdict {status} does not follow from min_value {val:.6g}"
    pts = np.array(detail["argmin"], dtype=float)
    if pts.shape != (n, d) or float(np.max(np.linalg.norm(pts, axis=1))) > 1.0 + 1e-9:
        return "argmin is not a configuration in the ball product"
    at = oracle.quadratic_at(a0, a, aa, pts)
    if abs(at - val) > 10.0 * t:
        return f"min_value {val:.6g} but Q = {at:.6g} at the argmin"
    if status == "Member":
        found = oracle.search_min(a0, a, aa, n, d, seed)
        if found < -2.0 * t:
            return f"Member contradicted: search finds Q = {found:.6g}"
    return None


def _own_detection(exp: dict) -> bool | None:
    """Expected detection from the state's own moments, or None when some
    spin-squeezing residual is within 1000x the package tolerance of zero."""
    n = exp["n"]
    z, zz = np.array(exp["z"]), np.array(exp["zz"])
    base = 1.0 + float(zz.sum()) / n
    kappa, t = n * (n - 1), 1e-9 * n * n
    values = []
    for pattern in range(1, 7):                       # the six non-trivial ones
        picks = [(pattern >> k) & 1 for k in range(3)]
        res = base - sum(zz[k] / (n - 1) if picks[k] else z[k] ** 2 / n for k in range(3))
        values.append(kappa * res)
    if min(abs(v) for v in values) < 1e3 * t:
        return None
    return min(values) < 0.0


def check_spin_row(exp: dict, res: dict) -> str | None:
    n = exp["n"]
    verdict = res.get("verdict")
    if verdict not in SPIN_VERDICTS:
        return f"unknown verdict {verdict!r}"
    mom = res["moments"]
    tol = EVAL_TOL * max(1.0, n * n)
    if (np.max(np.abs(np.array(mom["z"]) - exp["z"])) > tol
            or np.max(np.abs(np.array(mom["zz"]) - exp["zz"])) > tol):
        return "reported spin moments differ from the trace formulas"
    if exp["kind"] in SEPARABLE and verdict == DETECTED:
        return f"separable {exp['kind']} state detected as entangled"
    if exp["kind"] in ENTANGLED and verdict != DETECTED:
        return f"balanced Dicke state not detected ({verdict})"
    own = _own_detection(exp)
    if own is not None and own != (verdict == DETECTED):
        return f"verdict {verdict}, spin-squeezing residuals say detected={own}"
    return None


def _separating_offsets(expect: list[dict], results: list[dict]) -> dict[int, float]:
    """sigma_offset of every NonMember row's separating polynomial, computed
    in one batch per d; empty if some witness is malformed (the row check
    then reports it)."""
    by_d: dict[int, list] = {}
    try:
        for i, (exp, res) in enumerate(zip(expect, results)):
            q = (res.get("witness") or {}).get("separating_polynomial")
            if res.get("status") == "NonMember" and q:
                by_d.setdefault(len(q["a"]), []).append((i, q, exp["n"]))
        out = {}
        for items in by_d.values():
            off = oracle.sigma_offset(np.array([q["a"] for _, q, _ in items], dtype=float),
                                      np.array([q["aa"] for _, q, _ in items], dtype=float),
                                      np.array([n for _, _, n in items]))
            out.update(zip((i for i, _, _ in items), off.tolist()))
        return out
    except (KeyError, TypeError, ValueError, AttributeError):
        return {}


def check_call(call: dict, expect: list[dict], text: str | None, rc, output: str,
               seed: int) -> list[str | None]:
    """Failure reason per record of one call's output (None = passed)."""
    nrec = len(expect)
    if rc is None or rc == EXIT_INPUT or text is None:
        return [f"call failed (exit {rc})"] * nrec
    try:
        results = _parse(call, text, output)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable output: {exc}"] * nrec
    if len(results) != nrec:
        return [f"{len(results)} results for {nrec} records"] * nrec
    offsets = _separating_offsets(expect, results) if call["kind"] == "moments" else {}
    reasons = []
    for i, (exp, res) in enumerate(zip(expect, results)):
        try:
            if call["kind"] == "moments":
                reasons.append(check_moment_row(exp, res, offsets.get(i)))
            elif call["kind"] == "poly":
                reasons.append(check_poly_row(exp, res, call["route"]))
            elif call["kind"] == "halfdeg":
                reasons.append(check_halfdeg_row(exp, res, seed))
            else:
                reasons.append(check_spin_row(exp, res))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reasons.append(f"malformed result: {exc!r}")
    want = 0 if call["kind"] == "spin" else expected_exit([r["status"] for r in results])
    if rc != want:
        reasons = [r or f"exit code {rc}, verdicts give {want}" for r in reasons]
    return reasons


def check_route_agreement(calls: list[dict], outputs: dict[int, str], output: str,
                          expect: dict[str, list[dict]]) -> dict[int, list[str | None]]:
    """lmi and ellipsoid verdicts on one file must agree unless the ellipsoid
    minimum is within EVAL_TOL*max(1, scale*n^2) of zero (JSON output only).

    Returns extra failure reasons keyed by the ellipsoid call.
    """
    if output != "json":
        return {}
    by_file: dict[str, dict[str, int]] = {}
    for i, call in enumerate(calls):
        if call.get("route") in ("lmi", "ellipsoid") and i in outputs:
            by_file.setdefault(call["file"], {})[call["route"]] = i
    extra = {}
    for name, routes in by_file.items():
        if len(routes) != 2:
            continue
        try:
            lmi = json.loads(outputs[routes["lmi"]])["results"]
            ell = json.loads(outputs[routes["ellipsoid"]])["results"]
        except (ValueError, KeyError):
            continue                       # already counted by check_call
        reasons = []
        for exp, r1, r2 in zip(expect[name], lmi, ell):
            val = r2["routes"]["ellipsoid"]["min_value"]
            scale = oracle.coeff_scale(exp["a0"], exp["a"], exp["aa"])
            if r1["status"] != r2["status"] and abs(val) > _tol(scale, exp["n"]):
                reasons.append(f"lmi {r1['status']} vs ellipsoid {r2['status']} "
                               f"at min_value {val:.3g}")
            else:
                reasons.append(None)
        extra[routes["ellipsoid"]] = reasons
    return extra


def verdicts(call: dict, text: str, output: str) -> list[str]:
    """The status (or spin verdict) of each record, for the verdict mix."""
    try:
        results = _parse(call, text, output)
    except (ValueError, KeyError, TypeError):
        return []
    if call["kind"] == "spin":
        return [r.get("verdict", "?") for r in results]
    return [r.get("status", "?") + (" (boundary)" if r.get("boundary") else "")
            for r in results]
