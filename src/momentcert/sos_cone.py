"""Membership in the SOS cone by two independent routes, plus explicit witnesses.

Route 1 (LMI): the arrow-structured matrix pencil is positive semidefinite for
some feasibility parameter c >= 0; the arrow shape reduces this to diagonal
sign checks plus one concave scalar Schur slack, maximized where its strictly
decreasing derivative vanishes.

Route 2 (ellipsoid): the reduced quadratic P_Q(X, Y) is nonnegative on the
ellipsoid ||Y||^2 + ||X||^2/n <= 1.  After X = sqrt(n) w this is a
diagonal-Hessian trust-region subproblem on the unit ball, solved exactly
over rows with explicit zero-gradient and hard cases.  Its secular
equation Σ g_i²/(h_i + λ)² = 1 is Route 1's f'(c) = 0 with λ = 2c (Moré &
Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983), so both routes solve it
with the same safeguarded Newton iteration, :func:`secular_rows`, in a
handful of steps per row.
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
    Configuration,
    Status,
    SymmetricQuadratic,
    abs_scale,
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


def _column_sum(start, terms):
    """start + terms[..., 0] + terms[..., 1] + ..., added in index order as a
    Python loop adds them (np.sum would add 8 or more columns pairwise)."""
    for i in range(terms.shape[-1]):
        start = start + terms[..., i]
    return start


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


def secular_rows(g, h, lo, hi, k=1.0):
    """Per row, the root of the secular equation Σ_i t_i² = 1 with
    t_i = g_i / (h_i + λ/k) in the bracket (lo, hi] (B,), by a safeguarded
    Newton iteration on psi(λ) = 1/sqrt(Σ t_i²) - 1 (Moré & Sorensen, 1983).

    g, h are (B, m), k a scalar or (B,); a term with g_i = 0 is 0, wherever
    its own pole is.  Where every other h_i + λ/k is positive, psi is
    increasing, concave and nearly linear (linear for one term), so a Newton
    step from below never passes the point it aims at.  The root must lie
    above every such pole.

    Each row starts at the lower bound max_i k(|g_i| - h_i) of the root (no
    term may exceed 1), kept in (lo, hi], and retires on its own.  At a point
    λ it moves the lower end L of its bracket to λ when psi(λ) is below
    ``PSI_BAND`` or λ is at or below a pole (some h_i + λ/k <= 0 with
    g_i ≠ 0; rounding can put lo there), and the upper end H to λ otherwise.
    The row retires at H when psi(λ) is in the band.  Else Newton aims at the
    middle of the band, and a step from below goes at least to the next
    float.  A Newton point at or beyond H retires the row at H: the root is
    H to working precision (as when g is nonzero only on a minimal h).  At a
    pole, or when the Newton point is at or below L (a step from far above
    the root), the next point is the midpoint of [L, H], and the row retires
    at H when that is not strictly inside: L and H are then adjacent floats,
    as where psi moves by more than the band's width from one float to the
    next.  Terms are added in index order (:func:`_column_sum`).

    Returns H (B,).  There psi >= 2 eps, so Σ t_i² < 1, except where H is
    still hi, and the root is hi to working precision.
    """
    band_lo, band_hi = PSI_BAND
    aim = 0.5 * (band_lo + band_hi)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    kb = np.broadcast_to(np.asarray(k, dtype=float), lo.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = np.minimum(_py_max(np.nextafter(lo, np.inf), kb * (np.abs(g) - h).max(axis=-1)), hi)
        live = np.arange(lo.size)
        for _ in range(NEWTON_STEPS):
            if not live.size:
                break
            x, gl = lam[live], g[live]
            xk = (x / kb[live])[:, None]
            den = h[live] + xk
            pole = ((den <= 0.0) & (gl != 0.0)).any(axis=-1)
            den[gl == 0.0] = 1.0  # the term is 0 wherever its own pole is
            t = gl / den
            t2 = t * t
            norm2 = _column_sum(0.0, t2)
            phi = np.sqrt(norm2)
            psi = 1.0 / phi - 1.0
            below = pole | (psi < band_lo)
            lo_l = np.where(below, x, lo[live])
            hi_l = np.where(below, hi[live], x)
            lo[live], hi[live] = lo_l, hi_l
            # psi' = Σ t_i² / (k (h_i + λ/k)) / phi³; the step (aim - psi) / psi'
            # is formed with λ psi', a sum of O(1) terms however small λ is
            nxt = x + (aim - psi) * (norm2 * phi) * x / _column_sum(0.0, t2 * (xk / den))
            nxt = np.where(below, _py_max(nxt, np.nextafter(x, np.inf)), nxt)
            nxt = np.where(pole | ~(nxt > lo_l), 0.5 * (lo_l + hi_l), nxt)
            done = (~below & (psi <= band_hi)) | ~((lo_l < nxt) & (nxt < hi_l))
            lam[live] = nxt
            live = live[~done]
    return hi


def ellipsoid_rows(a0, a, aa, n):
    """Global minimum of P_Q over the ellipsoid ||Y||^2 + ||X||^2/n <= 1 for
    rows a0 (B,), a and aa (B, d), n a scalar or (B,): the minimum (B,) and
    an attaining point X, Y, each (B, d).

    With X = √n w[:d] and Y = w[d:] this is min g·w + ½ Σ h_i w_i² over
    ||w|| <= 1 with g = (n A_α, 0) and h = (2n(n-1) A_αα, -2n A_αα).  Let
    lam_lo = max(0, -min h) and w(λ) = -g/(h + λ).  Per row, w is:
    g = 0: zero, or the unit vector on the first minimal h when lam_lo > 0;
    the hard case ||w(lam_lo)|| < 1, or [lam_lo, lam_lo + ||g||] empty in floats:
    w(lam_lo) (zero where h + lam_lo <= 0) filled up to the sphere along the
    first minimal h, against the sign of g there;
    else w(λ) at the root of the secular equation ||w(λ)||² = 1 in
    (lam_lo, lam_lo + ||g||], by :func:`secular_rows`: λ is a few eps above
    the root, so ||w|| < 1, unless the root is the upper end to working
    precision (as when g is nonzero only on the first minimal h).
    An interior Newton point needs lam_lo = 0, so every A_αα = 0 and h has no
    positive entry: it never occurs for g ≠ 0.
    """
    a0 = np.asarray(a0, dtype=float)
    a, aa = np.asarray(a, dtype=float), np.asarray(aa, dtype=float)
    n = np.asarray(n, dtype=float)
    nc = n[..., None]
    d = a.shape[-1]
    g = np.concatenate([nc * a, np.zeros(a.shape)], axis=-1)
    h = np.concatenate([2.0 * nc * (nc - 1) * aa, -2.0 * nc * aa], axis=-1)
    first = np.argmin(h, axis=-1)
    lam_lo = _py_max(0.0, -h.min(axis=-1))
    gnorm = np.sqrt(_column_sum(0.0, g * g))

    w = np.zeros(g.shape)
    zero = gnorm == 0.0
    unit = np.flatnonzero(zero & (lam_lo > 0.0))
    w[unit, first[unit]] = 1.0
    rest = np.flatnonzero(~zero)
    gr, hr = g[rest], h[rest]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # w(lam_lo), zero where h + lam_lo <= 0: the hard case when shorter
        # than 1 (and so g = 0 wherever h + lam_lo <= 0)
        den = hr + lam_lo[rest, None]
        skip = den <= 0.0
        w_lo = np.where(skip, 0.0, -gr / den)
        norm2 = _column_sum(0.0, w_lo * w_lo)
        hard = ((~(skip & (gr != 0.0)).any(axis=-1) & (norm2 < 1.0))
                | ~(lam_lo[rest] + gnorm[rest] > lam_lo[rest]))
        fill, sec = rest[hard], rest[~hard]
        w[fill] = w_lo[hard]
        w[fill, first[fill]] += (np.where(g[fill, first[fill]] > 0.0, -1.0, 1.0)
                                 * np.sqrt(_py_max(0.0, 1.0 - norm2[hard])))
        # the secular equation; h + λ > 0 at every λ > lam_lo
        gs, hs = gr[~hard], hr[~hard]
        lam = secular_rows(gs, hs, lam_lo[sec], lam_lo[sec] + gnorm[sec])
        w[sec] = -gs / (hs + lam[:, None])
    return a0 + _column_sum(0.0, g * w + 0.5 * h * w * w), np.sqrt(nc) * w[:, :d], w[:, d:]


def ellipsoid_quadratic_min(q: SymmetricQuadratic) -> tuple[float, EllipsoidPoint]:
    """Global minimum of P_Q over the ellipsoid, with an attaining point:
    :func:`ellipsoid_rows` on one row."""
    val, x, y = ellipsoid_rows(np.array([q.a0]), q.a[None], q.aa[None], q.dims.n)
    return float(val[0]), EllipsoidPoint(x[0], y[0])


def _schur_slack(a0, a, aa, n, c):
    """f(c) = (A0 - c) - Σ (n A_α²/4)/((n-1)A_αα + c/n); -inf on a zero
    denominator with a nonzero numerator.

    a0, n and c are scalars or (B,), a and aa are (d,) or (B, d).  The terms
    are subtracted in index order by :func:`_column_sum`; a skipped term adds
    -0.0, which leaves every value, -0.0 included, unchanged.
    """
    a, aa, c = np.asarray(a, dtype=float), np.asarray(aa, dtype=float), np.asarray(c)
    nc = np.asarray(n)[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = (nc - 1) * aa + (c / n)[..., None]
        num = nc * a * a / 4.0
        skip = den <= 0.0
        term = np.where(skip, 0.0, num / den)
    s = _column_sum(np.asarray(a0, dtype=float) - c, -term)
    return np.where((skip & (num != 0.0)).any(axis=-1), -np.inf, s)


def _schur_slack_derivative(a, aa, n):
    """f'(c) = -1 + Σ_{A_α≠0} (A_α²/4)/((n-1)A_αα + c/n)² as a function of c
    for fixed rows (shapes as in :func:`_schur_slack`); +inf on a
    non-positive denominator with A_α ≠ 0.  The terms are added in index
    order by :func:`_column_sum`, a skipped one as +0.0 (exact: the sum starts
    at -1 and never reaches -0.0)."""
    n1aa = (np.asarray(n)[..., None] - 1) * aa
    half2 = a * a / 4.0
    live = a != 0.0

    def fprime(c):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            den = n1aa + (c / n)[..., None]
            bad = live & (den <= 0.0)
            term = np.where(live & ~bad, half2 / (den * den), 0.0)
        return np.where(bad.any(axis=-1), np.inf, _column_sum(-1.0, term))

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


def arrow_lmi_rows(a0, a, aa, n, tol: float = DEFAULT_TOL) -> ArrowRows:
    """Arrow-matrix LMI test for the SOS cone over rows a0 (B,), a and aa
    (B, d), n a scalar or (B,).

    The feasible c form [c_lo, c_hi] with c_lo = max(0, n max A_αα,
    -n(n-1) min A_αα) and c_hi = A0; empty (beyond t) means NonMember.
    Otherwise c* is c_hi if f' >= 0 there, c_lo if f' <= 0 there, else the
    root of f'(c) = 0, the secular equation Σ (A_α/2)²/((n-1)A_αα + c/n)² = 1,
    by :func:`secular_rows` (a few eps of psi above it); the row is a member
    when f(c*) >= -t, with t = ``scaled_tolerance(tol, coeff_scale, n)``.
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
            nm = nr[mid] if n.ndim else n
            cr[mid] = secular_rows(0.5 * ar[mid], (nm[..., None] - 1) * aar[mid],
                                   lo[mid], hi[mid], nm)
        c[run] = cr
        slack[run] = _schur_slack(a0[run], ar, aar, nr, cr)
    return ArrowRows(c, slack, c_lo, c_hi, empty, *margin_verdict(slack, t))


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


def sos_witness(q: SymmetricQuadratic, c_lmi: float, validate: bool = True) -> SosWitness:
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
        t = scaled_tolerance(DEFAULT_TOL, q.coeff_scale(), n)
        eig_min = float(np.linalg.eigvalsh(g)[0])
        if eig_min < -t or float(np.min(h)) < -t:
            raise ValueError(f"infeasible parameter c_lmi={c_lmi}: "
                             f"eig_min(G)={eig_min}, min h={float(np.min(h))}")
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
