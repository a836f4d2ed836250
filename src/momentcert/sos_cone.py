"""Membership in the SOS cone by two independent routes, plus explicit witnesses.

Route 1 (LMI): the arrow-structured matrix pencil is positive semidefinite for
some feasibility parameter c >= 0; the arrow shape reduces this to diagonal
sign checks plus one concave scalar Schur slack, maximized by bisection on its
strictly decreasing derivative.

Route 2 (ellipsoid): the reduced quadratic P_Q(X, Y) is nonnegative on the
ellipsoid ||Y||^2 + ||X||^2/n <= 1.  After X = sqrt(n) u this is a
diagonal-Hessian trust-region subproblem on the unit ball, solved exactly via
the secular equation with explicit hard-case handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BALL_TOL,
    ConeVerdict,
    Configuration,
    Status,
    SymmetricQuadratic,
    abs_scale,
    scaled_tolerance,
)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class EllipsoidPoint:
    """A point (X, Y) of the reduced domain ||Y||^2 + ||X||^2/n <= 1."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        y = np.array(self.y, dtype=float).reshape(-1)
        if x.shape != y.shape:
            raise ValueError("X and Y must have the same length")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def check_inside(self, n: int, tol: float = BALL_TOL) -> bool:
        return float(self.y @ self.y + (self.x @ self.x) / n) <= 1.0 + tol


@dataclass(frozen=True)
class ArrowFeasibility:
    c: float
    marginal: float
    c_range: tuple[float, float]


@dataclass(frozen=True)
class SosWitness:
    """Arrow matrix G, diagonal H and the proof-scale parameter c."""

    g: np.ndarray
    h: np.ndarray
    c: float


def pq_evaluate(q: SymmetricQuadratic, pt: EllipsoidPoint) -> float:
    """P_Q(X,Y) = A0 + Σ √n A_α X_α + (n-1) Σ A_αα X_α² - n Σ A_αα Y_α²."""
    n, d = q.dims.n, q.dims.d
    if pt.x.shape != (d,):
        raise ValueError("point dimension mismatch")
    return (q.a0 + math.sqrt(n) * float(q.a @ pt.x)
            + (n - 1) * float(q.aa @ (pt.x * pt.x))
            - n * float(q.aa @ (pt.y * pt.y)))


def config_to_ellipsoid(config: Configuration) -> EllipsoidPoint:
    """The (X, Y) coordinates induced by a configuration."""
    n = config.dims.n
    pts = config.points
    x = pts.sum(axis=0) / math.sqrt(n)
    y2 = np.sum(pts * pts, axis=0) / n - x * x / n
    return EllipsoidPoint(x, np.sqrt(np.maximum(y2, 0.0)))


def _trs_unit_ball(g: list[float], h: list[float], max_iter: int = 200) -> list[float]:
    """Exact minimizer of g·w + 0.5 Σ h_i w_i² over ||w|| <= 1 (diagonal TRS)."""
    k = len(g)
    hmin = min(h)
    lam_lo = max(0.0, -hmin)
    gnorm = math.sqrt(sum(x * x for x in g))
    if gnorm == 0.0:
        if lam_lo == 0.0:
            return [0.0] * k
        w = [0.0] * k
        w[h.index(hmin)] = 1.0
        return w
    if lam_lo == 0.0 and all(h[i] > 0.0 or g[i] == 0.0 for i in range(k)):
        w = [-g[i] / h[i] if h[i] > 0.0 else 0.0 for i in range(k)]
        if sum(x * x for x in w) <= 1.0:
            return w

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

    if norm2(lam_lo) < 1.0:
        # hard case: zero linear term on every minimal-eigenvalue coordinate;
        # fill up to the boundary along the smallest-index such coordinate
        w = [-g[i] / (h[i] + lam_lo) if h[i] + lam_lo > 0.0 else 0.0 for i in range(k)]
        j = min(i for i in range(k) if h[i] == hmin)
        w[j] += math.sqrt(max(0.0, 1.0 - sum(x * x for x in w)))
        return w

    lo, hi = lam_lo, lam_lo + gnorm
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval is down to one ulp
        if norm2(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    lam = hi
    return [-g[i] / (h[i] + lam) for i in range(k)]


def ellipsoid_quadratic_min(q: SymmetricQuadratic, max_iter: int = 200
                            ) -> tuple[float, EllipsoidPoint]:
    """Global minimum of P_Q over the ellipsoid, with an attaining point."""
    n, d = q.dims.n, q.dims.d
    aa = [float(v) for v in q.aa]
    g = [n * float(v) for v in q.a] + [0.0] * d
    h = [2.0 * n * (n - 1) * v for v in aa] + [-2.0 * n * v for v in aa]
    w = _trs_unit_ball(g, h, max_iter=max_iter)
    val = q.a0 + sum(g[i] * w[i] + 0.5 * h[i] * w[i] * w[i] for i in range(2 * d))
    rt = math.sqrt(n)
    return val, EllipsoidPoint([rt * w[i] for i in range(d)], w[d:])


def _schur_slack(a0, a, aa, n, c):
    """f(c) = (A0 - c) - Σ (n A_α²/4)/((n-1)A_αα + c/n); -inf on a zero
    denominator with a nonzero numerator.

    a0, n and c are scalars or (B,), a and aa are (d,) or (B, d).  The terms
    are subtracted one column at a time in index order (np.sum would add 8 or
    more of them pairwise); a skipped term subtracts +0.0, which leaves every
    value, -0.0 included, unchanged.
    """
    a, aa, c = np.asarray(a, dtype=float), np.asarray(aa, dtype=float), np.asarray(c)
    nc = np.asarray(n)[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = (nc - 1) * aa + (c / n)[..., None]
        num = nc * a * a / 4.0
        skip = den <= 0.0
        term = np.where(skip, 0.0, num / den)
    s = np.asarray(a0, dtype=float) - c
    for i in range(term.shape[-1]):
        s = s - term[..., i]
    return np.where((skip & (num != 0.0)).any(axis=-1), -np.inf, s)


def _schur_slack_derivative(a, aa, n):
    """f'(c) = -1 + Σ_{A_α≠0} (A_α²/4)/((n-1)A_αα + c/n)² as a function of c
    for fixed rows (shapes as in :func:`_schur_slack`); +inf on a
    non-positive denominator with A_α ≠ 0.  The terms are added column by
    column in index order, a skipped one as +0.0 (exact: the sum starts at -1
    and never reaches -0.0)."""
    n1aa = (np.asarray(n)[..., None] - 1) * aa
    half2 = a * a / 4.0
    live = a != 0.0

    def fprime(c):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            den = n1aa + (c / n)[..., None]
            bad = live & (den <= 0.0)
            term = np.where(live & ~bad, half2 / (den * den), 0.0)
        s = -1.0 + term[..., 0]
        for i in range(1, term.shape[-1]):
            s = s + term[..., i]
        return np.where(bad.any(axis=-1), np.inf, s)

    return fprime


class ArrowRows(NamedTuple):
    """Per-row result of :func:`arrow_lmi_rows`, each of shape (B,)."""

    c: np.ndarray         # maximizer c* of the Schur slack, c_lo on an empty interval
    slack: np.ndarray     # f(c*), -inf on an empty interval
    c_lo: np.ndarray
    c_hi: np.ndarray
    empty: np.ndarray     # c_lo > c_hi + t: no feasible c
    member: np.ndarray    # slack >= -t
    boundary: np.ndarray  # member and slack < t


def _py_max(x, y):
    """Elementwise max(x, y) with Python's tie rule (x on ties, so 0.0 vs
    -0.0 keeps x); np.maximum returns y on ties."""
    return np.where(y > x, y, x)


def _bisect(fprime, lo, hi):
    """Per-row bisection on the sign of f' over [lo, hi]; a row stops once
    hi - lo <= 1e-15 max(1, |hi|), the others go on (at most 200 steps)."""
    live = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = fprime(mid) > 0.0
        np.copyto(lo, mid, where=live & up)
        np.copyto(hi, mid, where=live & ~up)
        live &= ~(hi - lo <= 1e-15 * np.maximum(1.0, np.abs(hi)))
        if not live.any():
            break
    return 0.5 * (lo + hi)


def arrow_lmi_rows(a0, a, aa, n, tol: float = DEFAULT_TOL) -> ArrowRows:
    """Arrow-matrix LMI test for the SOS cone over rows a0 (B,), a and aa
    (B, d), n a scalar or (B,).

    The feasible c form [c_lo, c_hi] with c_lo = max(0, n max A_αα,
    -n(n-1) min A_αα) and c_hi = A0; empty (beyond t) means NonMember.
    Otherwise c* is c_hi if f' >= 0 there, c_lo if f' <= 0 there, else the
    bisection point of f'; the row is a member when f(c*) >= -t, with
    t = ``scaled_tolerance(tol, coeff_scale, n)``.
    """
    a0 = np.asarray(a0, dtype=float)
    a, aa = np.asarray(a, dtype=float), np.asarray(aa, dtype=float)
    n = np.asarray(n, dtype=float)
    t = scaled_tolerance(tol, abs_scale(a0, a, aa), n)
    c_lo = _py_max(_py_max(0.0, n * aa.max(axis=-1)), -n * (n - 1) * aa.min(axis=-1))
    c_hi = a0
    empty = c_lo > c_hi + t
    c = c_lo.copy()
    slack = np.full(c.shape, -np.inf)
    run = np.flatnonzero(~empty)
    if run.size:
        ar, aar, nr = a[run], aa[run], n[run] if n.ndim else n
        lo, hi = c_lo[run], _py_max(c_hi[run], c_lo[run])
        fprime = _schur_slack_derivative(ar, aar, nr)
        at_hi = fprime(hi) >= 0.0
        at_lo = ~at_hi & (fprime(lo) <= 0.0)
        cr = np.where(at_hi, hi, lo)
        mid = np.flatnonzero(~at_hi & ~at_lo)
        if mid.size:
            cr[mid] = _bisect(_schur_slack_derivative(ar[mid], aar[mid],
                                                      nr[mid] if n.ndim else n),
                              lo[mid], hi[mid])
        c[run] = cr
        slack[run] = _schur_slack(a0[run], ar, aar, nr, cr)
    member = ~empty & (slack >= -t)
    return ArrowRows(c, slack, c_lo, c_hi, empty, member, member & (slack < t))


def sigma_membership_lmi(q: SymmetricQuadratic, tol: float = DEFAULT_TOL
                         ) -> tuple[ConeVerdict, ArrowFeasibility]:
    """Arrow-matrix LMI feasibility test for the SOS cone:
    :func:`arrow_lmi_rows` on one row."""
    r = arrow_lmi_rows(np.array([q.a0]), q.a[None], q.aa[None], q.dims.n, tol)
    c, slack = float(r.c[0]), float(r.slack[0])
    c_range = (float(r.c_lo[0]), float(r.c_hi[0]))
    feas = ArrowFeasibility(c, slack, c_range)
    if r.empty[0]:
        return ConeVerdict(Status.NON_MEMBER,
                           witness={"empty_c_interval": c_range}), feas
    if r.member[0]:
        witness = sos_witness(q, c, validate=False)
        return ConeVerdict(Status.MEMBER,
                           witness={"c": c, "slack": slack, "sos": witness},
                           boundary=bool(r.boundary[0])), feas
    return ConeVerdict(Status.NON_MEMBER,
                       witness={"c": c, "slack": slack, "c_range": c_range}), feas


def sigma_prime_membership(q: SymmetricQuadratic, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Expanded-cone test: the LMI applied to (n/(n-1) A0, A_α, A_αα)."""
    n = q.dims.n
    scaled = SymmetricQuadratic(q.dims, q.a0 * n / (n - 1), q.a, q.aa)
    verdict, _ = sigma_membership_lmi(scaled, tol=tol)
    return verdict


def sos_witness(q: SymmetricQuadratic, c_lmi: float, validate: bool = True,
                tol: float = DEFAULT_TOL) -> SosWitness:
    """Reconstruct (G, H, c) from a feasible LMI parameter.

    ``c_lmi`` is the pencil parameter; the proof-scale parameter stored in the
    witness is c = c_lmi / n.
    """
    n, d = q.dims.n, q.dims.d
    c = c_lmi / n
    g0 = q.a0 - c_lmi
    g_diag = ((n - 1) * q.aa + c_lmi / n) / n
    h = (c - g_diag) / (n - 1)
    g = np.zeros((d + 1, d + 1))
    g[0, 0] = g0
    g[0, 1:] = q.a / 2.0
    g[1:, 0] = q.a / 2.0
    g[np.arange(1, d + 1), np.arange(1, d + 1)] = g_diag
    if validate:
        t = scaled_tolerance(tol, q.coeff_scale(), n)
        eig_min = float(np.linalg.eigvalsh(g)[0])
        if eig_min < -t or float(np.min(h)) < -t:
            raise ValueError(f"infeasible parameter c_lmi={c_lmi}: "
                             f"eig_min(G)={eig_min}, min h={float(np.min(h))}")
    return SosWitness(g, h, c)


def verify_sos_witness(w: SosWitness, q: SymmetricQuadratic,
                       num_configs: int = 100, seed: int = 0) -> float:
    """Max |Q(x) - (<S,G> + <F,H> + c(n - Σ p_αα))| over random configurations,
    or inf when the witness is not a certificate: G has an eigenvalue, h an
    entry or c a value below -t, t = ``scaled_tolerance(1e-9, coeff_scale, n)``.
    (The identity alone holds for every c, so it cannot reject anything.)"""
    n, d = q.dims.n, q.dims.d
    t = scaled_tolerance(1e-9, q.coeff_scale(), n)
    if (float(np.linalg.eigvalsh(w.g)[0]) < -t or float(np.min(w.h)) < -t
            or w.c < -t):
        return math.inf
    rng = np.random.default_rng(seed)
    g0 = float(w.g[0, 0])
    g_lin = 2.0 * w.g[0, 1:]
    g_diag = np.diag(w.g)[1:]
    worst = 0.0
    for _ in range(num_configs):
        pts = rng.normal(size=(n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(size=(n, 1)) ** (1.0 / d)
        s = pts.sum(axis=0)
        p = np.sum(pts * pts, axis=0)
        ss = s * s - p
        lhs = q.a0 + float(q.a @ s) + float(q.aa @ ss)
        rhs = (g0 + float(g_lin @ s) + float(g_diag @ (ss + p))
               + float(w.h @ ((n - 1) * p - ss))
               + w.c * (n - float(p.sum())))
        worst = max(worst, abs(lhs - rhs))
    return worst
