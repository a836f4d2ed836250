"""The benchmark's own formulas, written independently of the package.

Inputs are generated and outputs are judged with these functions only, so a
defect in the package's deciders cannot make its own output look right.

Notation follows the README: on a product of n unit d-balls, a symmetric
square-free quadratic is Q(x) = a0 + sum_a a_a s_a + sum_a aa_a ss_a with
s_a = sum_i x_ia and ss_a = s_a^2 - sum_i x_ia^2; a moment vector
(z0, z_a, zz_a) holds the matching moments of a measure.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: relative tolerance the package applies to verdicts (its default --tol)
TOL = 1e-9


# ---------------------------------------------------------------------------
# moment cone C: the two closed-form sides


def max_form_residual(z0, z, zz, n, sufficient: bool):
    """z0e^2 + z0e*sum(zz)/n - sum_a max(z0e*zz_a/(n-1), z_a^2/n).

    z0e is z0 on the necessary side and z0*(n-1)/n on the sufficient side.
    The vector passes a side when this residual is >= 0 (and z0 > 0).
    Works on one vector or on a batch: z0 of shape (B,), z and zz (B, d),
    n a scalar or of shape (B,).
    """
    z0 = np.asarray(z0, dtype=float)
    z = np.asarray(z, dtype=float)
    zz = np.asarray(zz, dtype=float)
    n = np.asarray(n, dtype=float)
    z0e = z0 * (n - 1) / n if sufficient else z0
    picked = np.maximum(z0e[..., None] * zz / (n[..., None] - 1), z * z / n[..., None])
    return z0e * z0e + z0e * zz.sum(axis=-1) / n - picked.sum(axis=-1)


def moment_scale(z0: float, z, zz) -> float:
    return max(1.0, abs(z0), float(np.max(np.abs(z))), float(np.max(np.abs(zz))))


def c_d1_facets(z0: float, z1: float, zz1: float, n: int) -> np.ndarray:
    """Facet values of the exact d=1 moment cone; all >= 0 iff a member.

    At d=1 the moments of a point of the cube [-1,1]^n are multilinear in the
    coordinates, so C is the cone over the vertex moments (1, u, u^2 - n),
    u = n - 2k.  Those points lie on a convex parabola: the lower facets are
    the chords between neighbouring vertices, the upper facet the chord
    between u = -n and u = n.
    """
    v = n - 1 - 2 * np.arange(n, dtype=float)        # chord midpoints
    lower = zz1 - 2.0 * v * z1 + (v * v + n - 1) * z0
    upper = (n * n - n) * z0 - zz1
    return np.append(lower, upper)


# ---------------------------------------------------------------------------
# polynomial cones: P at d=1, the SOS cone Sigma in general


def p_d1_facets(a0: float, a1: float, aa1: float, n: int) -> np.ndarray:
    """Q at the cube vertices with k coordinates -1 (k = 0..n); Q is
    multilinear in each point at d=1, so its minimum sits at a vertex."""
    u = n - 2 * np.arange(n + 1, dtype=float)
    return a0 + a1 * u + aa1 * (u * u - n)


def coeff_scale(a0: float, a, aa) -> float:
    return max(1.0, abs(a0), float(np.max(np.abs(a))), float(np.max(np.abs(aa))))


def abs_tol(scale: float, n: int, tol: float = TOL) -> float:
    return tol * max(1.0, scale * n * n)


def sigma_offset(a, aa, n):
    """sup over c of -n c - sum_a n a_a^2 / (4 (c + (n-1) aa_a)).

    Q is a sum of squares of the arrow form iff a0 + sigma_offset >= 0: write
    Q = <S, G> + <F, H> + c (n - sum_a p_a) with G the arrow matrix
    [[g0, a/2], [a/2, diag(g)]], H = diag(h) >= 0 and c >= 0; matching
    coefficients gives h_a = (c - aa_a)/n, g_a = (c + (n-1) aa_a)/n and
    g0 = a0 - n c, and G >= 0 iff g0 >= sum_a a_a^2 / (4 g_a).  The objective
    is concave in c, so its maximum is found by bisection on the derivative.
    Works on one quadratic (a float) or on a batch: a and aa of shape (B, d),
    n a scalar or of shape (B,).
    """
    a = np.asarray(a, dtype=float)
    batch = a.ndim == 2
    a, aa = np.atleast_2d(a), np.atleast_2d(np.asarray(aa, dtype=float))
    n = np.broadcast_to(np.asarray(n, dtype=float), a.shape[:1])
    k = (n[:, None] - 1) * aa
    c_lo = np.maximum(np.maximum(aa.max(axis=1), (-k).max(axis=1)), 0.0)

    def terms(c, power):
        den = c[:, None] + k
        blocked = np.any((den <= 0.0) & (a != 0.0), axis=1)
        safe = np.where(den > 0.0, den, 1.0)
        return blocked, np.sum(np.where(den > 0.0, n[:, None] * a * a / (4.0 * safe ** power),
                                        0.0), axis=1)

    def value(c):
        blocked, total = terms(c, 1)
        return np.where(blocked, -math.inf, -n * c - total)

    def slope(c):
        blocked, total = terms(c, 2)
        return np.where(blocked, math.inf, -n + total)

    lo, hi = c_lo, c_lo + np.sum(np.abs(a), axis=1) / 2.0 + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = slope(mid) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        if np.all(hi - lo <= 1e-15 * np.maximum(1.0, np.abs(hi))):
            break
    out = np.where(slope(c_lo) <= 0.0, value(c_lo), value(0.5 * (lo + hi)))
    return out if batch else float(out[0])


def ellipsoid_value(a0: float, a, aa, n: int, x, y) -> float:
    """Q written on the reduced coordinates X = s/sqrt(n), Y^2 = p/n - X^2/n."""
    a, aa, x, y = (np.asarray(v, dtype=float) for v in (a, aa, x, y))
    return (a0 + math.sqrt(n) * float(a @ x) + (n - 1) * float(aa @ (x * x))
            - n * float(aa @ (y * y)))


def quadratic_at(a0: float, a, aa, points) -> float:
    """Q at an explicit configuration, points of shape (n, d)."""
    pts = np.asarray(points, dtype=float)
    s = pts.sum(axis=0)
    ss = s * s - np.sum(pts * pts, axis=0)
    return a0 + float(np.asarray(a) @ s) + float(np.asarray(aa) @ ss)


def search_min(a0: float, a, aa, n: int, d: int, seed: int,
               starts: int = 48, sweeps: int = 30) -> float:
    """Best value of Q over the ball product found by seeded multistart block
    coordinate descent.

    With the other points fixed Q is affine in one point x_i, with gradient
    a + 2 aa * (s - x_i), so the exact block minimizer is the unit vector
    against that gradient.  This is an upper bound on the true minimum.
    """
    rng = np.random.default_rng(seed)
    a = np.asarray(a, dtype=float)
    aa = np.asarray(aa, dtype=float)
    x = rng.normal(size=(starts, n, d))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    for _ in range(sweeps):
        for i in range(n):
            s = x.sum(axis=1)
            g = a + 2.0 * aa * (s - x[:, i, :])
            norm = np.linalg.norm(g, axis=1, keepdims=True)
            x[:, i, :] = np.where(norm > 0.0, -g / np.where(norm > 0.0, norm, 1.0),
                                  x[:, i, :])
    s = x.sum(axis=1)
    ss = s * s - np.sum(x * x, axis=1)
    return float(np.min(a0 + s @ a + ss @ aa))


@lru_cache(maxsize=None)
def partitions(n: int, parts: int) -> int:
    """Partitions of n into at most `parts` parts.

    By conjugation these are the partitions of n into parts no larger than
    `parts`, counted with the coin-change recurrence.
    """
    ways = [1] + [0] * n
    for part in range(1, parts + 1):
        for v in range(part, n + 1):
            ways[v] += ways[v - part]
    return ways[n]


# ---------------------------------------------------------------------------
# collective spin


def spin_moments(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<J_x>, <J_y>, <J_z>) and (<J_x^2>, <J_y^2>, <J_z^2>) in O(n).

    Basis index i carries m = j - i.  J+ maps i to i-1 with coefficient
    c_i = sqrt(j(j+1) - m_i(m_i+1)), so <J+> = sum_i rho[i, i-1] c_i and
    <J+^2> = sum_i rho[i, i-2] c_i c_(i-1); J_x^2 + J_y^2 = J^2 - J_z^2.
    """
    dim = rho.shape[0]
    j = (dim - 1) / 2.0
    m = j - np.arange(dim)
    diag = np.real(np.diag(rho))
    jz, jz2 = float(diag @ m), float(diag @ (m * m))
    c = np.sqrt(np.maximum(j * (j + 1) - m * (m + 1), 0.0))
    jp = complex(np.sum(np.diagonal(rho, -1) * c[1:]))
    jp2 = complex(np.sum(np.diagonal(rho, -2) * c[2:] * c[1:-1]))
    perp = j * (j + 1) - jz2
    jx2 = 0.5 * (jp2.real + perp)
    jy2 = 0.5 * (-jp2.real + perp)
    return np.array([jp.real, jp.imag, jz]), np.array([jx2, jy2, jz2])


def spin_to_moments(first: np.ndarray, second: np.ndarray, n: int):
    """The spin dictionary z_a = 2<J_a>, zz_a = 4<J_a^2> - n (z0 = 1)."""
    return 2.0 * first, 4.0 * second - n
