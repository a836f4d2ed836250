"""Membership in the SOS cone Sigma from one secular root per row, plus
explicit witnesses.

The arrow-shaped LMI decides Sigma: the pencil is positive semidefinite for
some parameter c, which the arrow shape reduces to diagonal sign checks plus
one concave scalar Schur slack f(c).  Its dual is the minimum of the reduced
quadratic P_Q(X, Y) on the ellipsoid ||Y||^2 + ||X||^2/n <= 1, after
X = sqrt(n) w a diagonal-Hessian trust-region subproblem on the unit ball.
Both are the secular equation Σ g_i²/(h_i + λ)² = 1 with λ = 2c (Moré &
Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983).  :func:`sigma_rows` solves
it once per row with a safeguarded Newton iteration, :func:`secular_rows`,
and reads both routes from that root: the minimum and its point (the
ellipsoid route) and c with its slack f(c) (the lmi route).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BALL_TOL,
    DEFAULT_TOL,
    ConeVerdict,
    Status,
    SymmetricQuadratic,
    abs_scale,
    fold_columns,
    margin_verdict,
    scaled_tolerance,
)


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


def _py_max(x, y):
    """Elementwise max(x, y) with Python's tie rule (x on ties, so 0.0 vs
    -0.0 keeps x); np.maximum returns y on ties."""
    return np.where(y > x, y, x)


EPS = float(np.finfo(float).eps)
#: a row of :func:`secular_rows` ends where psi lies in this band: 2 eps above
#: the root, so that the TRS point w stays in the unit ball through the
#: rounding of X = √n w and of the check, and 8 eps wide, so that a Newton
#: step aimed at its middle lands in it
PSI_BAND = (2.0 * EPS, 10.0 * EPS)
#: iterations before a row of :func:`secular_rows` ends at its bracket's upper
#: end (no row took more than 8 on the benchmark's certify files)
NEWTON_STEPS = 100


def secular_rows(g, h, lo, hi):
    """Per row, the root of the secular equation Σ_i t_i² = 1 with
    t_i = g_i / (h_i + λ) in the bracket (lo, hi] (B,), by a safeguarded
    Newton iteration on psi(λ) = 1/sqrt(Σ t_i²) - 1 (Moré & Sorensen, 1983).

    g, h are (B, m); a term with g_i = 0 is 0, wherever its own pole is.
    Where every other h_i + λ is positive, psi is increasing, concave and
    nearly linear (linear for one term), so a Newton step from below never
    passes the point it aims at.  The root must lie above every such pole.

    Each row starts at the lower bound max_i (|g_i| - h_i) of the root (no
    term may exceed 1), kept in (lo, hi], and retires on its own.  At a point
    λ it moves the lower end L of its bracket to λ when psi(λ) is below
    ``PSI_BAND`` or λ is at or below a pole (some h_i + λ <= 0 with
    g_i ≠ 0; rounding can put lo there), and the upper end H to λ otherwise.
    The row retires at H when psi(λ) is in the band.  Else Newton aims at the
    middle of the band, and a step from below goes at least to the next
    float.  A Newton point at or beyond H retires the row at H: the root is
    H to working precision (as when g is nonzero only on a minimal h).  At a
    pole, or when the Newton point is at or below L (a step from far above
    the root), the next point is the midpoint of [L, H], and the row retires
    at H when that is not strictly inside: L and H are then adjacent floats,
    as where psi moves by more than the band's width from one float to the
    next.  Terms are added in index order (``core.fold_columns``).

    Returns H (B,).  There psi >= 2 eps, so Σ t_i² < 1, except where H is
    still hi, and the root is hi to working precision.
    """
    band_lo, band_hi = PSI_BAND
    aim = 0.5 * (band_lo + band_hi)
    lo, out = np.array(lo, dtype=float), np.array(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = np.abs(g) - h
        lam = np.minimum(_py_max(np.nextafter(lo, np.inf),
                                 fold_columns(np.maximum, start[:, 0], start[:, 1:])), out)
        # the live rows: their places in the output and their g, h, nonzero
        # g, bracket [lo, hi] and point lam, compacted as rows retire
        rows, hi, nz = np.arange(lo.size), out.copy(), g != 0.0
        for _ in range(NEWTON_STEPS):
            if not rows.size:
                break
            xc = lam[:, None]
            den = h + xc
            pole = (den <= 0.0) & nz
            pole = fold_columns(np.logical_or, pole[:, 0], pole[:, 1:])
            np.copyto(den, 1.0, where=~nz)  # the term is 0 wherever its own pole is
            t = g / den
            t2 = t * t
            norm2 = fold_columns(np.add, 0.0, t2)
            phi = np.sqrt(norm2)
            psi = 1.0 / phi - 1.0
            below = pole | (psi < band_lo)
            lo = np.where(below, lam, lo)
            hi = np.where(below, hi, lam)
            # psi' = Σ t_i² / (h_i + λ) / phi³; the step (aim - psi) / psi'
            # is formed with λ psi', a sum of O(1) terms however small λ is
            lam_slope = fold_columns(np.add, 0.0, t2 * (xc / den))
            nxt = lam + (aim - psi) * (norm2 * phi) * lam / lam_slope
            nxt = np.where(below, _py_max(nxt, np.nextafter(lam, np.inf)), nxt)
            lam = np.where(pole | ~(nxt > lo), 0.5 * (lo + hi), nxt)
            done = (~below & (psi <= band_hi)) | ~((lo < lam) & (lam < hi))
            if done.any():
                out[rows[done]] = hi[done]
                keep = ~done
                rows, lam, lo, hi, g, h, nz = (v[keep] for v in (rows, lam, lo, hi, g, h, nz))
        out[rows] = hi
    return out


def _ceil_product(x, y):
    """The smallest float at or above the exact x·y (no overflow or
    underflow): the rounded product, or the next float up where its error,
    Dekker's two-product on Veltkamp halves, is positive."""

    def halves(v):
        big = 134217729.0 * v  # 2^27 + 1
        top = big - (big - v)
        return top, v - top

    p = x * y
    (xt, xb), (yt, yb) = halves(x), halves(y)
    err = ((xt * yt - p) + xt * yb + xb * yt) + xb * yb
    return np.where(err > 0.0, np.nextafter(p, np.inf), p)


def _schur_slack(a0, a, aa, n, c):
    """f(c) = (A0 - c) - Σ (n A_α²/4)/((n-1)A_αα + c/n); -inf on a zero
    denominator with a nonzero numerator.

    a0, n and c are scalars or (B,), a and aa are (d,) or (B, d).  The terms
    are subtracted in index order by ``core.fold_columns``; a skipped term adds
    -0.0, which leaves every value, -0.0 included, unchanged.
    """
    a, aa, c = np.asarray(a, dtype=float), np.asarray(aa, dtype=float), np.asarray(c)
    nc = np.asarray(n)[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = (nc - 1) * aa + (c / n)[..., None]
        num = nc * a * a / 4.0
        skip = den <= 0.0
        term = np.where(skip, 0.0, num / den)
    s = fold_columns(np.add, np.asarray(a0, dtype=float) - c, -term)
    pole = skip & (num != 0.0)
    return np.where(fold_columns(np.logical_or, pole[..., 0], pole[..., 1:]), -np.inf, s)


#: next-float steps that move c off a pole of f in :func:`sigma_rows`: as
#: c >= n(n-1)|A_αα| exactly, c is on a pole only where fl(c/n) equals
#: fl((n-1)|A_αα|), and each step raises c/n by over a quarter of the float
#: spacing there, so 4 pass it wherever c/n is normal
POLE_STEPS = 4


class SigmaRows(NamedTuple):
    """Per-row result of :func:`sigma_rows`: the ellipsoid minimum (B,) and an
    attaining point X, Y (B, d), then the arrow LMI's fields and the
    tolerance of both routes' margins, each (B,)."""

    min_value: np.ndarray
    x: np.ndarray
    y: np.ndarray
    c: np.ndarray         # λ/2 clipped to [c_lo, max(c_lo, c_hi)], then raised
    slack: np.ndarray     # f(c), -inf on an empty interval
    c_lo: np.ndarray
    c_hi: np.ndarray
    empty: np.ndarray     # c_lo > c_hi + t: no feasible c
    member: np.ndarray    # slack >= -t
    boundary: np.ndarray  # member and slack < t
    t: np.ndarray         # scaled_tolerance(tol, coeff_scale, n)


def sigma_rows(a0, a, aa, n, tol: float = DEFAULT_TOL) -> SigmaRows:
    """Both Sigma routes over rows a0 (B,), a and aa (B, d), n a scalar or
    (B,), from one root λ of the secular equation per row.

    Ellipsoid: with X = √n w[:d] and Y = w[d:], min P_Q is A0 plus the
    minimum of g·w + ½ Σ h_i w_i² over ||w|| <= 1, g = (n A_α, 0) and
    h = (2n(n-1) A_αα, -2n A_αα).  With lam_lo = max(0, -min h) and
    w(λ) = -g/(h + λ), per row:
    g = 0: λ = lam_lo, and w zero, or the unit vector on the first minimal h
    when lam_lo > 0;
    the hard case ||w(lam_lo)|| < 1, or [lam_lo, lam_lo + ||g||] empty in
    floats: λ = lam_lo, and w(lam_lo) (zero where h + lam_lo <= 0) filled up
    to the sphere along the first minimal h, against the sign of g there;
    else λ a few eps above the root of ||w(λ)||² = 1 in
    (lam_lo, lam_lo + ||g||] by :func:`secular_rows` on the X columns (a Y
    column has g = 0), so that ||w(λ)|| < 1 unless the root is the upper end
    to working precision; the Y entries of w(λ) are -0.0.
    An interior Newton point needs every A_αα = 0: it never occurs for g ≠ 0.

    LMI: the pencil is feasible for c in [c_lo, c_hi], c_hi = A0 and
    c_lo = lam_lo/2 = max(0, n max A_αα, -n(n-1) min A_αα) rounded.  The
    concave Schur slack f has f'(c) = 0 at c = λ/2, so c is λ/2 clipped to
    [c_lo, max(c_lo, c_hi)], raised at c_lo to the float ceiling of the exact
    lower end, and on a pole of f up to ``POLE_STEPS`` floats off it.  An
    empty interval (beyond t) gives slack -inf; else the row is a member when
    f(c) >= -t, t = ``scaled_tolerance(tol, coeff_scale, n)``.
    """
    a0 = np.asarray(a0, dtype=float)
    a, aa = np.asarray(a, dtype=float), np.asarray(aa, dtype=float)
    n = np.broadcast_to(np.asarray(n, dtype=float), a0.shape)
    nc = n[:, None]
    d = a.shape[-1]
    gx = nc * a
    g = np.concatenate([gx, np.zeros(a.shape)], axis=-1)
    h = np.concatenate([2.0 * nc * (nc - 1) * aa, -2.0 * nc * aa], axis=-1)
    # min h and the sums of squares below over X columns only: a Y column
    # adds +0.0 to a sum >= +0.0, and _py_max(0.0, .) drops a zero's sign
    hmin = np.minimum(h[:, :d], h[:, d:])
    lam_lo = _py_max(0.0, -fold_columns(np.minimum, hmin[:, 0], hmin[:, 1:]))
    gnorm = np.sqrt(fold_columns(np.add, 0.0, gx * gx))

    w, lam = np.zeros(g.shape), lam_lo.copy()
    zero = gnorm == 0.0
    unit = np.flatnonzero(zero & (lam_lo > 0.0))
    w[unit, np.argmin(h[unit], axis=-1)] = 1.0
    rest = np.flatnonzero(~zero)
    gr, hr = g[rest], h[rest]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # w(lam_lo), zero where h + lam_lo <= 0: the hard case when shorter
        # than 1 (and so g = 0 wherever h + lam_lo <= 0)
        den = hr + lam_lo[rest, None]
        skip = den <= 0.0
        w_lo = np.where(skip, 0.0, -gr / den)
        norm2 = fold_columns(np.add, 0.0, w_lo[:, :d] * w_lo[:, :d])
        pole = skip[:, :d] & (gr[:, :d] != 0.0)
        hard = ((~fold_columns(np.logical_or, pole[:, 0], pole[:, 1:]) & (norm2 < 1.0))
                | ~(lam_lo[rest] + gnorm[rest] > lam_lo[rest]))
        fill, sec = rest[hard], rest[~hard]
        first = np.argmin(h[fill], axis=-1)
        w[fill] = w_lo[hard]
        w[fill, first] += (np.where(g[fill, first] > 0.0, -1.0, 1.0)
                           * np.sqrt(_py_max(0.0, 1.0 - norm2[hard])))
        # the secular equation; h + λ > 0 at every λ > lam_lo
        gs, hs = gr[~hard], hr[~hard]
        lam[sec] = secular_rows(gs[:, :d], hs[:, :d], lam_lo[sec], lam_lo[sec] + gnorm[sec])
        w[sec] = -gs / (hs + lam[sec, None])
    min_value = a0 + fold_columns(np.add, 0.0, g * w + 0.5 * h * w * w)

    t = scaled_tolerance(tol, abs_scale(a0, a, aa), n)
    c_lo = 0.5 * lam_lo
    empty = c_lo > a0 + t
    c = np.minimum(0.5 * lam, _py_max(a0, c_lo))
    # c_lo rounds the exact lower end, from which h >= 0 and the diagonal of
    # G >= 0 hold: a c at c_lo is raised to that end's float ceiling
    low = np.flatnonzero(~empty & (c <= c_lo))
    nl, aal = n[low], aa[low]
    k = nl * (nl - 1)  # exact below 2^53; above, its next float bounds it
    ends = _ceil_product(np.stack([nl, np.where(k < 2.0**53, k, np.nextafter(k, np.inf))]),
                         np.stack([fold_columns(np.maximum, aal[:, 0], aal[:, 1:]),
                                   -fold_columns(np.minimum, aal[:, 0], aal[:, 1:])]))
    c[low] = _py_max(_py_max(c_lo[low], ends[0]), ends[1])
    slack = np.where(empty, -np.inf, _schur_slack(a0, a, aa, n, c))
    # rounding, or an empty bracket, can put c on a pole of f (a zero
    # denominator with A_α ≠ 0)
    for _ in range(POLE_STEPS):
        on = np.flatnonzero(~empty & (slack == -np.inf))
        if not on.size:
            break
        c[on] = np.nextafter(c[on], np.inf)
        slack[on] = _schur_slack(a0[on], a[on], aa[on], n[on], c[on])
    return SigmaRows(min_value, np.sqrt(nc) * w[:, :d], w[:, d:], c, slack, c_lo, a0,
                     empty, *margin_verdict(slack, t), t)


def ellipsoid_quadratic_min(q: SymmetricQuadratic) -> tuple[float, EllipsoidPoint]:
    """Global minimum of P_Q over the ellipsoid, with an attaining point:
    :func:`sigma_rows` on one row."""
    r = sigma_rows(np.array([q.a0]), q.a[None], q.aa[None], q.dims.n)
    return float(r.min_value[0]), EllipsoidPoint(r.x[0], r.y[0])


def sigma_membership_lmi(q: SymmetricQuadratic, tol: float = DEFAULT_TOL
                         ) -> tuple[ConeVerdict, ArrowFeasibility]:
    """Arrow-matrix LMI feasibility test for the SOS cone:
    :func:`sigma_rows` on one row."""
    r = sigma_rows(np.array([q.a0]), q.a[None], q.aa[None], q.dims.n, tol)
    c, slack = float(r.c[0]), float(r.slack[0])
    c_range = (float(r.c_lo[0]), float(r.c_hi[0]))
    feas = ArrowFeasibility(c, slack, c_range)
    if r.empty[0]:
        return ConeVerdict(Status.NON_MEMBER,
                           witness={"empty_c_interval": c_range}), feas
    if r.member[0]:
        witness = sos_witness(q, c)
        return ConeVerdict(Status.MEMBER,
                           witness={"c": c, "slack": slack, "sos": witness},
                           boundary=bool(r.boundary[0])), feas
    return ConeVerdict(Status.NON_MEMBER,
                       witness={"c": c, "slack": slack, "c_range": c_range}), feas


def sos_witness(q: SymmetricQuadratic, c_lmi: float) -> SosWitness:
    """Build (G, H, c) from the LMI parameter ``c_lmi`` for any c_lmi,
    feasible or not: the proof-scale parameter stored in the witness is
    c = c_lmi / n.  :func:`verify_sos_witness` is the one test of it."""
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
    return SosWitness(g, h, c)


def verify_sos_witness(w: SosWitness, q: SymmetricQuadratic) -> float:
    """Largest mismatch between the coefficients of Q and of the certificate
    <S,G> + <F,H> + c(n - Σ p_α) on 1, s_α, ss_α and p_α,

        g00 + c n = a0,  2 G0α = a_α,  Gαα - h_α = aa_α,  Gαα + (n-1) h_α = c,

    and on s_α s_β (α ≠ β), whose coefficient 2 Gαβ Q lacks.  G is read from
    its lower triangle, the part ``eigvalsh`` checks.  inf when the witness is
    not a certificate: G has an eigenvalue, h an entry or c a value below -t,
    t = ``scaled_tolerance(DEFAULT_TOL, coeff_scale, n)``.  (The witness that
    :func:`sos_witness` builds matches for every c, so only these checks
    reject a bad c.)"""
    n = q.dims.n
    t = scaled_tolerance(DEFAULT_TOL, q.coeff_scale(), n)
    if (float(np.linalg.eigvalsh(w.g)[0]) < -t or float(np.min(w.h)) < -t
            or w.c < -t):
        return math.inf
    g = np.tril(w.g) + np.tril(w.g, -1).T
    g_diag = np.diag(g)[1:]
    mismatch = np.concatenate([
        [g[0, 0] + w.c * n - q.a0], 2.0 * g[0, 1:] - q.a, g_diag - w.h - q.aa,
        g_diag + (n - 1) * w.h - w.c, 2.0 * (g[1:, 1:] - np.diag(g_diag)).ravel()])
    return float(np.abs(mismatch).max())
