"""Each batch kernel equals its one-row view (the scalar API) row by row,
and both Sigma routes of :func:`sigma_rows` equal scalar loops of the same
rule to the last bit.  The rules they replaced stay here as second
references, matched within stated bounds: the bisection of the secular
equation, and the arrow LMI that decided c by end tests on f' with, between
them, a root of its own or the bisection of f'.

Rows come from the fuzz generators, with n mixed inside each d-group as the
CLI batches them, plus hand-made rows for every branch of each kernel.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from momentcert.core import (
    DEFAULT_TOL,
    MomentVector,
    ProblemDims,
    SymmetricQuadratic,
    abs_scale,
    fold_columns,
    margin_verdict,
    scaled_tolerance,
)
from momentcert.exact_d1 import p_n1_membership, p_n1_rows
from momentcert.fuzz import random_moment_probe, random_quadratic
from momentcert.moment_cone import (
    STATUSES,
    classify,
    classify_rows,
    necessary_condition,
    sufficient_condition,
)
from momentcert.sos_cone import (
    NEWTON_STEPS,
    POLE_STEPS,
    PSI_BAND,
    _schur_slack,
    ellipsoid_quadratic_min,
    secular_rows,
    sigma_membership_lmi,
    sigma_rows,
)


def _arrays(rows, names):
    """(n, x0, x, xx) arrays of a list of moment vectors or quadratics."""
    return (np.array([r.dims.n for r in rows], dtype=float),
            np.array([getattr(r, names[0]) for r in rows]),
            np.array([getattr(r, names[1]) for r in rows]),
            np.array([getattr(r, names[2]) for r in rows]))


def _moment_rows(d: int) -> list[MomentVector]:
    rng = np.random.default_rng(500 + d)
    probes = []
    while len(probes) < 120:
        n, dd, m = random_moment_probe(rng)
        if dd == d:
            probes.append(m)
    rows = list(probes)
    # the same directions closer to z = 0, for Member and Indeterminate rows
    for m, f in zip(probes, np.geomspace(1e-4, 0.3, len(probes))):
        rows.append(MomentVector(m.dims, abs(m.z0) + 1.0, f * m.z, f * m.zz))
    e = np.eye(d)[0]
    for n in (2, 3, 17):
        dims = ProblemDims(n, d)
        rows += [
            MomentVector(dims, 0.0, np.zeros(d), np.zeros(d)),          # zero vector
            MomentVector(dims, 0.0, e, np.zeros(d)),                    # z0 <= tol s
            MomentVector(dims, 1e-12, np.zeros(d), e),
            MomentVector(dims, 0.0, np.zeros(d), -e),
            MomentVector(dims, -1.0, e, e),                             # z0 < 0
            MomentVector(dims, 1.0, np.zeros(d), (n - 1) ** 2 * e),     # on the sufficient side
        ]
    return rows


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_classify_rows_equal_one_row_views(d):
    rows = _moment_rows(d)
    n, z0, z, zz = _arrays(rows, ("z0", "z", "zz"))
    batch = classify_rows(z0, z, zz, n)
    verdicts = [classify(m) for m in rows]
    assert [v.status for v in verdicts] == [STATUSES[c] for c in batch.status]
    assert np.array_equal([v.boundary for v in verdicts], batch.boundary)
    for side, cond in ((batch.nec, necessary_condition), (batch.suf, sufficient_condition)):
        views = [cond(m) for m in rows]
        assert np.array_equal([ok for ok, _ in views], side.ok)
        assert np.array_equal([r.max_form_residual for _, r in views], side.residual)
        assert np.array_equal([r.worst_pattern for _, r in views], side.pattern.astype(int))
        assert np.array_equal([r.z0_ok for _, r in views], side.z0_ok)
    # every verdict, and boundary Members, occur
    assert set(batch.status.tolist()) == {0, 1, 2} and batch.boundary.any()


def _poly_rows(d: int) -> list[SymmetricQuadratic]:
    rng = np.random.default_rng(600 + d)
    rows = []
    for _ in range(200):
        n = int(rng.integers(2, 65))
        q = random_quadratic(rng, n, d)
        # half of them shifted into [c_lo, c_hi] so the root search runs
        if rng.uniform() < 0.5:
            q = SymmetricQuadratic(q.dims, n * n * (1.0 + abs(q.a0)), 0.3 * q.a, q.aa)
        rows.append(q)
    z = np.zeros(d)
    a_zero = np.r_[0.0, 0.5 * np.ones(d - 1)]
    aa_neg = np.r_[-1.0, 0.1 * np.ones(d - 1)]
    for n in (2, 5):
        dims = ProblemDims(n, d)
        rows += [
            SymmetricQuadratic(dims, -1.0, z, z + 1.0),            # empty c-interval
            SymmetricQuadratic(dims, 1.0, z + 10.0, z),            # f'(c_hi) >= 0
            SymmetricQuadratic(dims, 1.0, z, z),                   # f'(c_lo) <= 0
            SymmetricQuadratic(dims, 4.0, z + 0.5, z + 0.1),       # root inside (c_lo, c_hi)
            # A_1 = 0 with denominator (n-1)A_11 + c/n = 0 at c = c_lo
            SymmetricQuadratic(dims, n * (n - 1) + 3.0, a_zero, aa_neg),
            # the same denominator with A_1 ≠ 0: f' has its pole at c_lo
            SymmetricQuadratic(dims, n * (n - 1) + 3.0, a_zero + 1e-3, aa_neg),
            # and with A_1 so small that the root is c_lo in floats: c steps
            # off the pole
            SymmetricQuadratic(dims, n * (n - 1) + 3.0, np.r_[1e-17, z[1:]], aa_neg),
            # tiny c* = n sqrt(d) |A_α| / 2
            SymmetricQuadratic(dims, 1.0, z + 1e-300, z),
            SymmetricQuadratic(dims, 1.0, np.r_[3e-310, z[1:] - 1e-310], z),
        ]
    return rows


def _newton_root(g, h, lo, hi) -> float:
    """The root of Σ t_i² = 1, t_i = g_i / (h_i + λ), in (lo, hi] by the
    rule of :func:`secular_rows`, for one row in Python floats."""
    band_lo, band_hi = PSI_BAND
    aim = 0.5 * (band_lo + band_hi)
    x = min(max(math.nextafter(lo, math.inf), max(abs(gi) - hi_ for gi, hi_ in zip(g, h))), hi)
    for _ in range(NEWTON_STEPS):
        norm2 = s = 0.0
        pole = False
        for gi, hi_ in zip(g, h):
            den = hi_ + x
            if gi == 0.0:
                continue
            if den <= 0.0:
                pole = True
                break
            t = gi / den
            norm2 += t * t
            s += t * t * (x / den)
        if not pole:
            phi = math.sqrt(norm2)
            psi = 1.0 / phi - 1.0
        below = pole or psi < band_lo
        if below:
            lo = x
        else:
            hi = x
            if psi <= band_hi:
                return hi
        if not pole:
            nxt = x + (aim - psi) * (norm2 * phi) * x / s
            if below and math.nextafter(x, math.inf) > nxt:
                nxt = math.nextafter(x, math.inf)
        if pole or not nxt > lo:
            nxt = 0.5 * (lo + hi)
        if not lo < nxt < hi:
            return hi
        x = nxt
    return hi


def _slack(q: SymmetricQuadratic, c: float) -> float:
    """f(c) of the arrow LMI by a scalar loop: -inf on a zero denominator
    with A_α ≠ 0."""
    n, s = q.dims.n, q.a0 - c
    for ai, aai in zip(q.a.tolist(), q.aa.tolist()):
        den, num = (n - 1) * aai + c / n, n * ai * ai / 4.0
        if den <= 0.0:
            if num != 0.0:
                return -math.inf
            continue
        s -= num / den
    return s


def _reference_lmi(q: SymmetricQuadratic) -> tuple[float, float, bool, str]:
    """(c, f(c), empty) of the arrow LMI by scalar loops, by the rule of
    :func:`sigma_rows`, and the exit taken: c is λ/2 of the TRS reference
    clipped to [c_lo, max(c_lo, A0)], raised at c_lo to the float ceiling of
    its exact value (in fractions), then stepped up off a pole of f, at most
    ``POLE_STEPS`` floats."""
    n, a0, aa = q.dims.n, q.a0, q.aa.tolist()
    c_lo = max(0.0, n * max(aa), -n * (n - 1) * min(aa))
    if c_lo > a0 + scaled_tolerance(DEFAULT_TOL, q.coeff_scale(), n):
        return c_lo, -math.inf, True, "empty"
    c = min(0.5 * _reference_ellipsoid(q)[4], max(a0, c_lo))
    how = "hi" if c == a0 else "root"
    if c <= c_lo:
        exact = max(Fraction(0), n * Fraction(max(aa)), -n * (n - 1) * Fraction(min(aa)))
        c, how = float(exact), "lo"
        if Fraction(c) < exact:
            c = math.nextafter(c, math.inf)
    s = _slack(q, c)
    for _ in range(POLE_STEPS):
        if s > -math.inf:
            break
        c = math.nextafter(c, math.inf)
        s, how = _slack(q, c), "pole"
    return c, s, False, how


def _bisect_lmi(q: SymmetricQuadratic) -> tuple[float, float]:
    """(c, f(c)) of the arrow LMI by scalar loops, for a quadratic whose
    c-interval is not empty, by the rule before the secular Newton iteration:
    c = max(c_lo, A0) if f' >= 0 there, c_lo if f'(c_lo) <= 0, else the
    bisection of f' between them."""
    n, a, aa = q.dims.n, q.a.tolist(), q.aa.tolist()

    def fprime(c):
        s = -1.0
        for ai, aai in zip(a, aa):
            if ai == 0.0:
                continue
            den = (n - 1) * aai + c / n
            if den <= 0.0:
                return math.inf
            s += (ai * ai / 4.0) / (den * den)
        return s

    lo = max(0.0, n * max(aa), -n * (n - 1) * min(aa))
    hi = max(q.a0, lo)
    if fprime(hi) >= 0.0:
        c = hi
    elif fprime(lo) <= 0.0:
        c = lo
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fprime(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        c = 0.5 * (lo + hi)
    return c, _slack(q, c)


def _endpoint_lmi_rows(a0, a, aa, n):
    """(c, f(c), empty) of the arrow LMI by the rule :func:`sigma_rows`
    replaced: c_lo the rounded max(0, n max A_αα, -n(n-1) min A_αα); where
    the interval is not empty, c = max(c_lo, A0) if f' >= 0 there, c_lo if
    f'(c_lo) <= 0, else the root of f'(c) = 0, Σ (n A_α/2)²/(n(n-1)A_αα + c)²
    = 1, by :func:`secular_rows`."""
    nc = n[:, None]
    c_lo = np.maximum(np.maximum(0.0, n * aa.max(axis=1)), -n * (n - 1) * aa.min(axis=1))
    hi = np.maximum(a0, c_lo)

    def fprime(c):
        """f'(c) = -1 + Σ (A_α/2)²/((n-1)A_αα + c/n)²; +inf at a pole."""
        with np.errstate(divide="ignore", invalid="ignore"):
            den = (nc - 1) * aa + (c / n)[:, None]
            bad = (a != 0.0) & (den <= 0.0)
            term = np.where((a != 0.0) & ~bad, (a / 2.0) ** 2 / (den * den), 0.0)
        return np.where(bad.any(axis=1), np.inf, term.sum(axis=1) - 1.0)

    c = np.where(fprime(hi) >= 0.0, hi, c_lo)
    mid = np.flatnonzero((fprime(hi) < 0.0) & (fprime(c_lo) > 0.0))
    c[mid] = secular_rows(0.5 * nc[mid] * a[mid], nc[mid] * (nc[mid] - 1) * aa[mid],
                          c_lo[mid], hi[mid])
    empty = c_lo > a0 + scaled_tolerance(DEFAULT_TOL, abs_scale(a0, a, aa), n)
    return c, np.where(empty, -np.inf, _schur_slack(a0, a, aa, n, c)), empty


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_arrow_lmi_rows_equal_one_row_views(d):
    """The LMI fields of :func:`sigma_rows` equal its one-row view and the
    scalar rule to the last bit, and the rule they replaced within bounds."""
    rows = _poly_rows(d)
    n, a0, a, aa = _arrays(rows, ("a0", "a", "aa"))
    batch = sigma_rows(a0, a, aa, n)
    views = [sigma_membership_lmi(q) for q in rows]
    assert np.array_equal([f.c for _, f in views], batch.c)
    assert np.array_equal([f.marginal for _, f in views], batch.slack)
    assert np.array_equal([v.is_member for v, _ in views], batch.member)
    assert np.array_equal([v.boundary for v, _ in views], batch.boundary)
    # and scalar loops of the same rule, to the last bit
    ref = [_reference_lmi(q) for q in rows]
    assert np.array_equal([r[:3] for r in ref],
                          np.stack([batch.c, batch.slack, batch.empty], axis=1))
    # every exit occurs, and c lies where h and G's diagonal are
    # nonnegative in exact arithmetic
    assert {r[3] for r in ref} == {"empty", "lo", "hi", "root", "pole"}
    assert all(Fraction(c) >= max(0, q.dims.n * Fraction(max(q.aa.tolist())),
                                  -q.dims.n * (q.dims.n - 1) * Fraction(min(q.aa.tolist())))
               for q, c, e in zip(rows, batch.c.tolist(), batch.empty) if not e)
    assert batch.member.any() and (~batch.empty & ~batch.member).any()
    # the endpoint-test LMI: no verdict, boundary, empty or pole flag moves;
    # c within 1e-15 and f(c) within 1e-16 of max(1, scale n²) (largest seen:
    # 3.4e-17 in c at d = 4 and 1.1e-17 in f at d = 1)
    c, slack, empty = _endpoint_lmi_rows(a0, a, aa, n)
    t = scaled_tolerance(DEFAULT_TOL, abs_scale(a0, a, aa), n)
    assert np.array_equal(empty, batch.empty)
    assert np.array_equal(np.stack(margin_verdict(slack, t)),
                          np.stack([batch.member, batch.boundary]))
    assert np.array_equal(np.isfinite(slack), np.isfinite(batch.slack))
    scale = np.maximum(1.0, abs_scale(a0, a, aa) * n * n)
    fin = np.isfinite(slack)
    assert (np.abs(batch.c - c) / scale)[~empty].max() <= 1e-15
    assert (np.abs(batch.slack[fin] - slack[fin]) / scale[fin]).max() <= 1e-16
    # the bisection of f', which no secular root enters: c within 1e-14 of
    # max(1, |c|) and f(c) within 1e-15 of max(1, scale n²) (largest seen:
    # 3.4e-15 in c at d = 4 and 1.1e-16 in f)
    run = ~batch.empty
    old = np.array([_bisect_lmi(q) for q, e in zip(rows, batch.empty) if not e])
    dc = np.abs(batch.c[run] - old[:, 0]) / np.maximum(1.0, np.abs(old[:, 0]))
    ds = np.abs(batch.slack[run] - old[:, 1]) / scale[run]
    assert dc.max() <= 1e-14 and ds.max() <= 1e-15


def _trs_unit_ball(g: list[float], h: list[float], bisect: bool = False
                   ) -> tuple[list[float], str, float]:
    """Exact minimizer of g·w + 0.5 Σ h_i w_i² over ||w|| <= 1 (diagonal
    TRS) by a scalar loop, the branch that returned it and its multiplier λ.
    The secular equation is solved by the kernel's Newton rule, or with
    ``bisect`` by the bisection it replaced."""
    k = len(g)
    hmin = min(h)
    lam_lo = max(0.0, -hmin)
    gnorm = math.sqrt(sum(x * x for x in g))
    if gnorm == 0.0:
        if lam_lo == 0.0:
            return [0.0] * k, "zero", lam_lo
        w = [0.0] * k
        w[h.index(hmin)] = 1.0
        return w, "unit", lam_lo
    if lam_lo == 0.0 and all(h[i] > 0.0 or g[i] == 0.0 for i in range(k)):
        w = [-g[i] / h[i] if h[i] > 0.0 else 0.0 for i in range(k)]
        if sum(x * x for x in w) <= 1.0:
            return w, "interior", 0.0

    def norm2(lam: float) -> float:
        s = 0.0
        for i in range(k):
            den = h[i] + lam
            if den <= 0.0:
                if g[i] != 0.0:
                    return math.inf
                continue
            t = g[i] / den
            s += t * t
        return s

    if norm2(lam_lo) < 1.0 or not lam_lo + gnorm > lam_lo:
        # hard case: zero linear term on every minimal-eigenvalue coordinate,
        # or a bracket empty in floats; fill up to the boundary along the
        # smallest-index such coordinate, against the sign of g there
        w = [-g[i] / (h[i] + lam_lo) if h[i] + lam_lo > 0.0 else 0.0 for i in range(k)]
        j = min(i for i in range(k) if h[i] == hmin)
        w[j] += (-1.0 if g[j] > 0.0 else 1.0) * math.sqrt(max(0.0, 1.0 - sum(x * x for x in w)))
        return w, "hard", lam_lo

    lo, hi = lam_lo, lam_lo + gnorm
    if not bisect:
        lam = _newton_root(g, h, lo, hi)
        return [-g[i] / (h[i] + lam) for i in range(k)], "secular", lam
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval is down to one ulp
        if norm2(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return [-g[i] / (h[i] + hi) for i in range(k)], "secular", hi


def _reference_ellipsoid(q: SymmetricQuadratic, bisect: bool = False
                         ) -> tuple[float, list, list, str, float]:
    """(min, X, Y) of P_Q over the ellipsoid by scalar loops, and the TRS
    branch and λ taken (``bisect`` as in :func:`_trs_unit_ball`)."""
    n, d = q.dims.n, q.dims.d
    aa = [float(v) for v in q.aa]
    g = [n * float(v) for v in q.a] + [0.0] * d
    h = [2.0 * n * (n - 1) * v for v in aa] + [-2.0 * n * v for v in aa]
    w, branch, lam = _trs_unit_ball(g, h, bisect)
    val = q.a0 + sum(g[i] * w[i] + 0.5 * h[i] * w[i] * w[i] for i in range(2 * d))
    rt = math.sqrt(n)
    return val, [rt * w[i] for i in range(d)], w[d:], branch, lam


def _ellipsoid_corpus(d: int) -> list[SymmetricQuadratic]:
    """Gaussian and integer rows with n mixed, plus rows for each branch."""
    rng = np.random.default_rng(800 + d)
    rows = [random_quadratic(rng, int(rng.integers(2, 65)), d) for _ in range(150)]
    for _ in range(150):  # small integers: zero a, ties in min h, signed zeros
        n = int(rng.integers(2, 9))
        a0, a, aa = rng.integers(-3, 4, size=(3, d)) * rng.choice([-1.0, 1.0], size=(3, d))
        a = np.where(rng.uniform(size=d) < 0.4, -0.0 * a, a)
        rows.append(SymmetricQuadratic(ProblemDims(n, d), float(a0[0]), a, aa))
    z, e = np.zeros(d), np.eye(d)[0]
    for n in (2, 3, 17):
        dims = ProblemDims(n, d)
        rows += [
            SymmetricQuadratic(dims, 1.0, z, z),                 # g = 0, lam_lo = 0
            SymmetricQuadratic(dims, -0.0, -z, -z),
            SymmetricQuadratic(dims, 1.0, z, z + 1.0),           # g = 0, tie in the Y block
            SymmetricQuadratic(dims, 1.0, z, -e),                # g = 0, X block
            SymmetricQuadratic(dims, 1.0, 0.1 * (1 - e), z + 1.0),   # hard case, tie
            SymmetricQuadratic(dims, 1.0, e, -(z + 1.0)),        # secular, tie
            SymmetricQuadratic(dims, 1.0, z + 1e-3, z),          # secular from lam_lo = 0
            SymmetricQuadratic(dims, 1.0, z + 1e-300, z),        # tiny root, at hi
            # the root 1e-9 n above the pole at lam_lo (at hi when d = 1)
            SymmetricQuadratic(dims, 1.0, np.r_[1e-9, z[1:] + 1.0], np.r_[-1.0, z[1:] + 0.5]),
            # [lam_lo, lam_lo + ||g||] empty in floats, g ≠ 0 on the pole: filled
            SymmetricQuadratic(dims, 1.0, np.r_[1e-17, z[1:]], np.r_[-1.0, z[1:] + 0.5]),
        ]
    if d > 1:  # h ties across the blocks: 2n(n-1) A_11 = -2n A_22 at n = 2
        rows += [SymmetricQuadratic(ProblemDims(2, d), 1.0, np.r_[0.0, 0.5, z[2:]],
                                    np.r_[-1.0, 1.0, z[2:]])]
    return rows


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ellipsoid_rows_equal_scalar_reference_and_one_row_views(d):
    rows = _ellipsoid_corpus(d)
    n, a0, a, aa = _arrays(rows, ("a0", "a", "aa"))
    val, x, y = sigma_rows(a0, a, aa, n)[:3]
    ref = [_reference_ellipsoid(q) for q in rows]
    columns = list(zip(val.tolist(), x.tolist(), y.tolist()))
    # the same bits, signed zeros included (repr tells -0.0 from 0.0)
    assert repr(columns) == repr([r[:3] for r in ref])
    views = [ellipsoid_quadratic_min(q) for q in rows]
    assert repr(columns) == repr([(v, p.x.tolist(), p.y.tolist()) for v, p in views])
    # every reachable branch occurs; the interior Newton point is unreachable
    branches = [r[3] for r in ref]
    assert {"zero", "unit", "hard", "secular"} == set(branches)
    if d > 1:  # ties in min h, where the first minimal coordinate is filled
        h = np.concatenate([n[:, None] * (n[:, None] - 1) * aa, -n[:, None] * aa], axis=1)
        ties = (h == h.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert all(ties[[b == k for b in branches]].any() for k in ("unit", "hard"))
    assert any(math.copysign(1.0, v) < 0 for r in ref for v in r[2] if v == 0.0)
    # the bisection the Newton rule replaced: the same branches, the minimum
    # within 1e-13 of max(1, scale n²) (largest seen: 2.6e-14, at d = 3; near
    # the pole psi moves by many eps from one float λ to the next, and the
    # two rules may stop one float apart), and a secular point inside the
    # ellipsoid wherever the bisection's point was
    old = [_reference_ellipsoid(q, bisect=True) for q in rows]
    assert [r[3] for r in old] == branches
    dv = np.abs(val - [r[0] for r in old]) / np.maximum(1.0, abs_scale(a0, a, aa) * n * n)
    assert dv.max() <= 1e-13

    def inside(x, y, n):
        x, y = np.array(x), np.array(y)
        return float(y @ y + (x @ x) / n) <= 1.0

    sec = [i for i, b in enumerate(branches) if b == "secular"]
    was = [i for i in sec if inside(old[i][1], old[i][2], n[i])]
    assert was and all(inside(x[i], y[i], n[i]) for i in was)


def test_secular_rows_at_the_bracket_end_the_pole_and_tiny_roots():
    """Roots exactly at hi (g nonzero only on a minimal h, or every h equal),
    a root 1.3e-9 above the pole at lo, a tiny root, a zero term whose own
    pole is the start, and a start on a pole: the kernel equals the scalar
    rule and ends where Σ t_i² < 1."""
    g = np.array([[3.0, 0.0], [1e-9, 1.0], [1e-150, 2e-150], [0.5, 0.25],
                  [0.0, 1.0], [1e-20, 1.0]])
    h = np.array([[-2.0, 5.0], [-1.0, 0.5], [0.0, 0.0], [-1.0, -0.5],
                  [-1.0, 0.0], [-1.0, 0.0]])
    lo = np.maximum(0.0, -h.min(axis=1))
    hi = lo + np.sqrt(fold_columns(np.add, 0.0, g * g))
    # a bracket past the zero term's pole at 1 = the root; lo below the pole
    # at 1 of the last row, where the start 1e-20 + 1 rounds onto it
    lo[4:], hi[4:] = 0.0, 2.0
    lo[5] = 0.5
    lam = secular_rows(g, h, lo, hi)
    ref = [_newton_root(gi.tolist(), hi_.tolist(), float(l), float(u))
           for gi, hi_, l, u in zip(g, h, lo, hi)]
    assert lam.tolist() == ref
    assert (lam > lo).all() and (lam <= hi).all()
    assert lam[0] == 5.0 and lam[2] == hi[2]
    t = g / (h + lam[:, None])
    assert (fold_columns(np.add, 0.0, t * t)[[1, 3, 4, 5]] < 1.0).all()
    assert abs(lam[1] - 1.0 - 1.3416e-9) < 1e-12
    assert 0.0 < lam[4] - 1.0 < 1e-14 and 0.0 < lam[5] - 1.0 < 1e-13


def test_p_n1_rows_equal_one_row_views():
    rng = np.random.default_rng(700)
    n = rng.integers(2, 40, size=400)
    n[:5] = 2
    rows = [random_quadratic(rng, int(k), 1) for k in n]
    for k in range(0, len(rows), 3):     # a third of them inside P
        q = rows[k]
        rows[k] = SymmetricQuadratic(q.dims, abs(q.a0) * q.dims.n ** 2, q.a, q.aa)
    for nn in np.unique(n).tolist():
        sel = [q for q in rows if q.dims.n == nn]
        _, a0, a, aa = _arrays(sel, ("a0", "a", "aa"))
        kmin, rmin, member, boundary = p_n1_rows(a0, a[:, 0], aa[:, 0], nn)
        views = [p_n1_membership(q) for q in sel]
        assert np.array_equal([v.witness.get("min_k", v.witness.get("k")) for v in views], kmin)
        assert np.array_equal([v.witness.get("min_residual", v.witness.get("residual"))
                               for v in views], rmin)
        assert np.array_equal([v.is_member for v in views], member)
        assert np.array_equal([v.boundary for v in views], boundary)
