"""Half-degree reduction: global minimization over the sphere product needs
only configurations with at most 2d distinct points.

The reduction is realized numerically: enumerate multiplicity patterns
(partitions of n into at most 2d parts), minimize over each pattern with
multistart projected gradient descent, and compare against a brute-force
random-search oracle.  Critical-point diagnostics (the degree-2d polynomial
P(t) and the coordinate-recovery quotient) come straight from the Lagrange
stationarity conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Configuration, SymmetricQuadratic
from .exact_d1 import facet_residuals, hypercube_point

JITTER = 1e-10
CLUSTER_TOL = 1e-5


@dataclass(frozen=True)
class MultiplicityPattern:
    """Partition of n into at most 2d parts, nonincreasing."""

    counts: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(v) for v in self.counts)
        if any(v < 1 for v in c) or list(c) != sorted(c, reverse=True):
            raise ValueError(f"counts must be nonincreasing positive ints, got {c}")
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class CriticalData:
    r: np.ndarray
    poly_coeffs: np.ndarray  # ascending powers, length 2d+1


def enumerate_patterns(n: int, d: int):
    """All partitions of n with at most 2d parts, each exactly once."""
    if n < 1:
        raise ValueError("n must be positive")
    max_parts = 2 * d

    def rec(remaining, max_part, parts_left, prefix):
        if remaining == 0:
            yield MultiplicityPattern(tuple(prefix))
            return
        if parts_left == 0:
            return
        for part in range(min(remaining, max_part), 0, -1):
            # feasibility: the rest must fit in the remaining slots
            if remaining - part > part * (parts_left - 1):
                continue
            yield from rec(remaining - part, part, parts_left - 1, prefix + [part])

    yield from rec(n, n, max_parts, [])


@lru_cache(maxsize=None)
def partition_count(n: int, max_parts: int) -> int:
    """Independent recurrence for the number of partitions of n into <= k parts."""
    if n == 0:
        return 1
    if max_parts == 0:
        return 0
    # p(n, <=k) = p(n-k, <=k) + p(n, <=k-1)
    extra = partition_count(n - max_parts, max_parts) if n >= max_parts else 0
    return extra + partition_count(n, max_parts - 1)


def _objective(q: SymmetricQuadratic, counts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched objective; y has shape (B, m, d), returns (B,)."""
    s = np.einsum("j,bjd->bd", counts, y)
    p = np.einsum("j,bjd->bd", counts, y * y)
    return q.a0 + s @ q.a + (s * s - p) @ q.aa


def _gradient(q: SymmetricQuadratic, counts: np.ndarray, y: np.ndarray) -> np.ndarray:
    s = np.einsum("j,bjd->bd", counts, y)
    return counts[None, :, None] * (q.a[None, None, :]
                                    + 2.0 * q.aa[None, None, :] * (s[:, None, :] - y))


def _curvature(q: SymmetricQuadratic, counts: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g^T H g for the ambient quadratic, batched."""
    t = np.einsum("j,bjd->bd", counts, g)
    u = np.einsum("j,bjd->bd", counts, g * g)
    return 2.0 * (t * t - u) @ q.aa


def _normalize_rows(y: np.ndarray) -> np.ndarray:
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def _projected_gradient_descent(q: SymmetricQuadratic, counts: np.ndarray,
                                y0: np.ndarray, max_iter: int = 600,
                                gtol: float = 1e-11) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the pattern objective over unit rows, batched over restarts."""
    y = _normalize_rows(np.array(y0, dtype=float))
    f = _objective(q, counts, y)
    scale = max(1.0, q.coeff_scale()) * q.dims.n ** 2
    alive = np.ones(y.shape[0], dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        ya, fa = y[idx], f[idx]
        grad = _gradient(q, counts, ya)
        tangent = grad - np.sum(grad * ya, axis=-1, keepdims=True) * ya
        gnorm2 = np.einsum("bjd,bjd->b", tangent, tangent)
        converged = gnorm2 <= (gtol * scale) ** 2
        curv = _curvature(q, counts, tangent)
        step = np.where(curv > 0.0, gnorm2 / np.maximum(curv, 1e-300),
                        1.0 / (1.0 + np.abs(curv)))
        improved = np.zeros(idx.size, dtype=bool)
        for _ in range(25):
            open_ = ~(improved | converged)
            if not open_.any():
                break
            trial = _normalize_rows(ya - step[:, None, None] * tangent)
            ft = _objective(q, counts, trial)
            take = (ft < fa) & open_
            if take.any():
                ya = np.where(take[:, None, None], trial, ya)
                fa = np.where(take, ft, fa)
                improved |= take
            step = np.where(improved, step, step * 0.5)
        y[idx], f[idx] = ya, fa
        # retire converged elements and those the line search cannot move
        alive[idx] = improved
    return f, y


def _ambient_hessian(q: SymmetricQuadratic, counts: np.ndarray) -> np.ndarray:
    """Hessian of the objective in the flattened (point, coordinate) basis.

    Coordinates decouple: H[(j,a),(k,a)] = 2 A_aa (c_j c_k - delta_jk c_j).
    """
    m, d = counts.size, q.dims.d
    h = np.zeros((m * d, m * d))
    outer = np.outer(counts, counts) - np.diag(counts)
    for a in range(d):
        h[a::d, a::d] = 2.0 * q.aa[a] * outer
    return h


def _newton_polish(q: SymmetricQuadratic, counts: np.ndarray, y: np.ndarray,
                   max_iter: int = 40) -> tuple[float, np.ndarray]:
    """Quadratically convergent cleanup of one near-critical candidate.

    Newton's method on the Lagrange system, restricted to the tangent space of
    the sphere product; steps that fail to reduce the stationarity residual
    fall back to halving, and the loop stops at machine-precision KKT.
    """
    m, d = counts.size, q.dims.d
    scale = max(1.0, q.coeff_scale()) * q.dims.n ** 2
    y = _normalize_rows(np.array(y, dtype=float))
    h_f = _ambient_hessian(q, counts)
    best_f = float(_objective(q, counts, y[None])[0])
    best_y = y.copy()

    def kkt(yc):
        g = _gradient(q, counts, yc[None])[0]
        lam = np.sum(g * yc, axis=1)
        return g - lam[:, None] * yc, lam

    res, lam = kkt(y)
    res_norm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if res_norm <= 1e-13 * scale:
            break
        h = h_f - np.kron(np.diag(lam), np.eye(d))
        # project out the d normal directions and regularize the solve
        basis = np.zeros((m * d, m))
        for j in range(m):
            basis[j * d:(j + 1) * d, j] = y[j]
        proj = np.eye(m * d) - basis @ basis.T
        hp = proj @ h @ proj + 1e-14 * scale * np.eye(m * d)
        step, *_ = np.linalg.lstsq(hp, proj @ res.reshape(-1), rcond=None)
        step = step.reshape(m, d)
        improved = False
        for _ in range(20):
            trial = _normalize_rows(y - step)
            t_res, t_lam = kkt(trial)
            t_norm = float(np.max(np.abs(t_res)))
            if t_norm < res_norm:
                y, res, lam, res_norm = trial, t_res, t_lam, t_norm
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        f = float(_objective(q, counts, y[None])[0])
        if f < best_f:
            best_f, best_y = f, y.copy()
    f = float(_objective(q, counts, y[None])[0])
    if f < best_f:
        best_f, best_y = f, y
    return best_f, best_y


def _d1_exact_pattern_min(q: SymmetricQuadratic, counts: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Exact sign enumeration for d=1: y_j ∈ {±1}."""
    m = counts.size
    best, best_y = math.inf, None
    for mask in range(1 << m):
        y = np.array([[1.0 if (mask >> j) & 1 == 0 else -1.0] for j in range(m)])
        val = float(_objective(q, counts, y[None])[0])
        if val < best:
            best, best_y = val, y
    return best, best_y


def _expand_pattern(counts: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.repeat(y, counts.astype(int), axis=0)


def min_over_pattern(q: SymmetricQuadratic, pattern: MultiplicityPattern,
                     restarts: int = 32, seed: int = 0
                     ) -> tuple[float, Configuration]:
    """Best value found over configurations with the given multiplicities.

    Heuristic upper bound on the true pattern minimum (multistart projected
    gradient with exact line search on the ambient quadratic).
    """
    if pattern.n != q.dims.n:
        raise ValueError(f"pattern sums to {pattern.n}, expected n={q.dims.n}")
    counts = np.array(pattern.counts, dtype=float)
    d = q.dims.d
    if d == 1:
        val, y = _d1_exact_pattern_min(q, counts)
    else:
        rng = np.random.default_rng(seed)
        y0 = rng.normal(size=(restarts, counts.size, d))
        vals, ys = _projected_gradient_descent(q, counts, y0)
        val, y = math.inf, None
        for b in np.argsort(vals)[:4]:
            pv, py = _newton_polish(q, counts, ys[b])
            if pv < val:
                val, y = pv, py
    pts = _expand_pattern(counts, y)
    return val, Configuration(q.dims, _normalize_rows(pts))


def reduced_global_min(q: SymmetricQuadratic, restarts: int = 32, seed: int = 0
                       ) -> tuple[float, Configuration]:
    """Minimum over all multiplicity patterns; equals the global minimum over
    the sphere product up to optimizer accuracy."""
    best_val, best_cfg = math.inf, None
    for idx, pattern in enumerate(enumerate_patterns(q.dims.n, q.dims.d)):
        val, cfg = min_over_pattern(q, pattern, restarts=restarts, seed=seed + idx)
        if val < best_val:
            best_val, best_cfg = val, cfg
    return best_val, best_cfg


def full_bruteforce_min(q: SymmetricQuadratic, samples: int = 2000, seed: int = 0,
                        polish_top: int = 16) -> tuple[float, Configuration]:
    """Random-search oracle with local polish; exact over the n+1 facets at d=1."""
    n, d = q.dims.n, q.dims.d
    if d == 1:
        r = facet_residuals(q.a0, q.a[0], q.aa[0], n)
        k = int(np.argmin(r))
        return float(r[k]), hypercube_point(n, k)
    rng = np.random.default_rng(seed)
    counts = np.ones(n)
    pts = _normalize_rows(rng.normal(size=(samples, n, d)))
    vals = _objective(q, counts, pts)
    order = np.argsort(vals)[:polish_top]
    pvals, pys = _projected_gradient_descent(q, counts, pts[order])
    best_v, best_y = math.inf, None
    for b in np.argsort(pvals)[:4]:
        pv, py = _newton_polish(q, counts, pys[b])
        if pv < best_v:
            best_v, best_y = pv, py
    return best_v, Configuration(q.dims, _normalize_rows(best_y))


def count_distinct_points(config: Configuration, tol: float = CLUSTER_TOL) -> int:
    """Number of distinct points after clustering at the given tolerance."""
    reps: list[np.ndarray] = []
    for p in config.points:
        if not any(np.linalg.norm(p - r) <= tol for r in reps):
            reps.append(p)
    return len(reps)


def lagrange_residual(q: SymmetricQuadratic, config: Configuration) -> float:
    """Stationarity residual with per-point multipliers solved by least squares."""
    pts = config.points
    s = pts.sum(axis=0)
    r = q.a + 2.0 * q.aa * s
    worst = 0.0
    for xi in pts:
        rhs = r - 2.0 * q.aa * xi
        lam = float(xi @ rhs) / float(xi @ xi)
        worst = max(worst, float(np.max(np.abs(rhs - lam * xi))))
    return worst


def critical_r(q: SymmetricQuadratic, config: Configuration) -> np.ndarray:
    """R_α = A_α + 2 A_αα s_α at the configuration."""
    s = config.points.sum(axis=0)
    return np.asarray(q.a + 2.0 * q.aa * s, dtype=float)


def _distinct_aa(q: SymmetricQuadratic, seed: int = 0) -> np.ndarray:
    aa = np.array(q.aa, dtype=float)
    gaps = np.abs(aa[:, None] - aa[None, :])
    np.fill_diagonal(gaps, np.inf)
    scale = max(1.0, float(np.max(np.abs(aa))))
    if float(gaps.min()) > JITTER * scale:
        return aa
    rng = np.random.default_rng(seed)
    return aa + JITTER * scale * rng.standard_normal(aa.size)


def critical_polynomial(q: SymmetricQuadratic, r: np.ndarray, seed: int = 0
                        ) -> CriticalData:
    """Coefficients (ascending) of the degree-2d polynomial whose roots contain
    every first coordinate of a critical configuration."""
    r = np.asarray(r, dtype=float)
    d = q.dims.d
    if r.shape != (d,):
        raise ValueError("R must have length d")
    aa = _distinct_aa(q, seed=seed)
    r1 = float(r[0])
    rscale = float(np.max(np.abs(r)))
    if rscale == 0.0 or abs(r1) <= 1e-12 * rscale:
        raise ValueError("R_1 vanishes: minima lie on coordinate axes "
                         "(degenerate branch, no critical polynomial)")
    # linear factors f_α(t) = R_1 + 2(A_αα - A_11) t, ascending coefficients
    factors = [np.array([r1, 2.0 * (aa[alpha] - aa[0])]) for alpha in range(d)]
    sq = [np.polynomial.polynomial.polymul(f, f) for f in factors]
    total = np.array([1.0])
    for f2 in sq:
        total = np.polynomial.polynomial.polymul(total, f2)
    poly = -total
    for beta in range(d):
        term = np.array([0.0, 0.0, r[beta] * r[beta]])  # (R_β t)^2
        for alpha in range(d):
            if alpha != beta:
                term = np.polynomial.polynomial.polymul(term, sq[alpha])
        poly = np.polynomial.polynomial.polyadd(poly, term)
    out = np.zeros(2 * d + 1)
    out[:poly.size] = poly
    return CriticalData(r, out)


def recover_point(q: SymmetricQuadratic, r: np.ndarray, t: float,
                  seed: int = 0) -> list[np.ndarray]:
    """Candidate points with first coordinate t, from the quotient formula.

    A near-zero denominator at one coordinate (there can be at most one) is
    resolved by the unit-norm constraint with both signs.
    """
    r = np.asarray(r, dtype=float)
    d = q.dims.d
    aa = _distinct_aa(q, seed=seed)
    r1 = float(r[0])
    dens = r1 + 2.0 * (aa - aa[0]) * t
    den_scale = max(abs(r1), float(np.max(np.abs(2.0 * (aa - aa[0]) * t))), 1e-300)
    degenerate = np.abs(dens) <= 1e-9 * den_scale
    xi = np.zeros(d)
    xi[0] = t
    for alpha in range(1, d):
        if not degenerate[alpha]:
            xi[alpha] = r[alpha] * t / dens[alpha]
    if not degenerate[1:].any():
        return [xi]
    alpha0 = 1 + int(np.argmax(degenerate[1:]))
    rest = float(np.sum(xi ** 2)) - xi[alpha0] ** 2
    fill = math.sqrt(max(0.0, 1.0 - rest))
    plus, minus = xi.copy(), xi.copy()
    plus[alpha0], minus[alpha0] = fill, -fill
    return [plus, minus]
