"""Half-degree reduction: global minimization over the sphere product needs
only configurations with at most 2d distinct points.

The reduction is realized numerically: enumerate multiplicity patterns
(partitions of n into at most 2d parts, each a nonincreasing tuple of
counts) and minimize over each pattern.  At d=1 that is an exact sign
enumeration; at d >= 2 it is a multistart saddle-free Riemannian Newton
descent, batched over the restarts, whose step is solved in a Householder
basis of each point's tangent space (`_newton_descent`).  A restart retires
once its tangent gradient is at most GTOL = sqrt(eps) times the problem's
scale, the finest gradient that its strict-decrease line search can
resolve.  A brute-force random-search oracle runs the same descent on
unreduced configurations.  A search over more than MAX_PATTERNS patterns,
with a Newton Hessian of order over MAX_HESSIAN_ORDER, or with Newton work
over MAX_SEARCH_WORK, is refused before it starts.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Configuration, SymmetricQuadratic
from .exact_d1 import hypercube_point, p_n1_rows

CLUSTER_TOL = 1e-5
#: largest pattern count reduced_global_min will search; partition_count(n, 2d)
#: grows like n^(2d-1) (n=20, d=3: 282; n=200, d=3: 4,775,383) and each
#: d >= 2 pattern costs a batched Newton run of milliseconds (median about
#: 2.1 ms at d=2 and 3.4 ms at d=3, p90 3.3 and 6.6 ms, over the n=3..8
#: Gaussian grid of the bench, 32 restarts, 2-core x86-64), more as n and d grow
MAX_PATTERNS = 1000
#: largest order m(d-1) of the Newton Hessian of a d >= 2 pattern search, m =
#: min(n, 2d) points: each step forms and runs eigh on restarts x order^2
#: floats, about 4x the memory and 5x the time per doubling of d.  At the
#: bound, check-poly --route halfdeg at n = 3, d = 86 (order 255) took 1.4-2.4 s
#: and 82 MB peak (2-core Xeon); at d = 171 (order 510), 4.9 s and 212 MB
MAX_HESSIAN_ORDER = 256
#: largest Newton work of a search: restarts times the sum, over its
#: patterns, of order^3 (order m(d-1) for a pattern of m parts; each Newton
#: step runs eigh on one Hessian of that order per restart).  At 32 restarts
#: it admits n = 3, d = 86 (7.1e8, the largest Hessian order: 2.4 s) and
#: refuses n = 20, d = 10 (9.5e9; still running after 120 s).  order^3
#: leaves out the per-pattern cost at small orders, which MAX_PATTERNS
#: bounds: the slowest search measured within all three bounds, n = 22,
#: d = 5 (807 patterns, 6.1e8), took 25 s (2-core Xeon, BLAS on one thread)
MAX_SEARCH_WORK = 750_000_000
#: a restart retires at |t| <= GTOL scale: sqrt(eps), the resolution of a
#: strict-decrease test of Q (see `_newton_descent`).  A SymmetricQuadratic's
#: coefficients are within ``core.magnitude_bound``, so scale <= sqrt(max
#: float / (2d+1)) n and (GTOL scale)^2 is finite for n < sqrt(2d+1) / GTOL
#: (over 10^8), far past the n < 2 MAX_PATTERNS that reduced_global_min accepts
GTOL = 2.0 ** -26
#: the backtracking steps tried after the full one: 1/2, 1/4, ..., 2^-29
_HALVINGS = 0.5 ** np.arange(1, 30)


def enumerate_patterns(n: int, d: int):
    """All partitions of n with at most 2d parts, each exactly once, as
    nonincreasing tuples of counts."""
    if n < 1:
        raise ValueError("n must be positive")
    max_parts = 2 * d

    def rec(remaining, max_part, parts_left, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        if parts_left == 0:
            return
        for part in range(min(remaining, max_part), 0, -1):
            # feasibility: the rest must fit in the remaining slots
            if remaining - part > part * (parts_left - 1):
                continue
            yield from rec(remaining - part, part, parts_left - 1, prefix + [part])

    yield from rec(n, n, max_parts, [])


def partition_count(n: int, max_parts: int) -> int:
    """Number of partitions of n into <= k parts, counted independently of
    enumerate_patterns as partitions into parts of size <= k (conjugation).

    Iterative, but it builds a list of n + 1 counts (O(n) memory, O(nk)
    time), so the cost guard :func:`check_pattern_budget` refuses large n
    before counting.
    """
    ways = [1] + [0] * n
    for part in range(1, max_parts + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _objective(q: SymmetricQuadratic, counts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched objective; y has shape (B, m, d), returns (B,).

    Every row is reduced on its own (einsum, not the BLAS gemv of ``@``, which
    may round a row differently with the number of rows in the call), so a
    row's value does not depend on the batch it is evaluated in.
    """
    s = np.einsum("j,bjd->bd", counts, y)
    p = np.einsum("j,bjd->bd", counts, y * y)
    return q.a0 + np.einsum("bd,d->b", s, q.a) + np.einsum("bd,d->b", s * s - p, q.aa)


def _gradient(q: SymmetricQuadratic, counts: np.ndarray, y: np.ndarray) -> np.ndarray:
    s = np.einsum("j,bjd->bd", counts, y)
    return counts[None, :, None] * (q.a[None, None, :]
                                    + 2.0 * q.aa[None, None, :] * (s[:, None, :] - y))


def _normalize_rows(y: np.ndarray) -> np.ndarray:
    return y / np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True))  # np.linalg.norm's sum, inlined


def _tangent_basis(y: np.ndarray) -> np.ndarray:
    """Rows 2..d of the Householder reflection mapping e_1 to -sign(y_1) y: an
    orthonormal tangent basis (..., d-1, d) at unit rows y, over 1 + |y_1| >= 1."""
    y1 = y[..., :1]
    v = np.concatenate([y1 + np.where(y1 < 0.0, -1.0, 1.0), y[..., 1:]], axis=-1)
    return np.eye(y.shape[-1])[1:] - (y[..., 1:] / (1.0 + np.abs(y1)))[..., None] * v[..., None, :]


def _eigh_upper(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of each matrix of ``hess`` from its upper triangle, for a
    batch whose default (lower-triangle) ``eigh`` did not converge: OpenBLAS
    0.3.31 failed so on a finite 54 x 54 Hessian, symmetric to 7e-15, whose
    upper triangle it solved.  A matrix that fails again gets NaN eigenpairs, so
    its restart's step is NaN, which no step size accepts: the restart
    retires where it is."""
    w = np.full(hess.shape[:-1], np.nan)
    v = np.full(hess.shape, np.nan)
    for b, h in enumerate(hess):
        try:
            w[b], v[b] = np.linalg.eigh(h, UPLO="U")
        except np.linalg.LinAlgError:
            pass
    return w, v


def _newton_step(aa: np.ndarray, coupling: np.ndarray, y: np.ndarray, t: np.ndarray,
                 lam: np.ndarray, floor: float) -> np.ndarray:
    """x = T |T^T (H - lambda (x) I) T|^-1 T^T t at rows y (B, m, d), T the tangent
    bases, eigenvalue moduli floored at ``floor``.  H's coordinates decouple:
    T_j^T H_jk T_k = T_j^T diag(aa) T_k * coupling_jk, the tiled 2 (c c^T - diag c)."""
    bt = _tangent_basis(y)
    rows = bt.reshape(y.shape[0], -1, y.shape[-1])
    r = rows.shape[1]
    hess = (rows * aa) @ rows.transpose(0, 2, 1) * coupling
    hess.reshape(-1, r * r)[:, ::r + 1] -= np.repeat(lam, y.shape[-1] - 1, axis=-1)
    try:
        w, v = np.linalg.eigh(hess)
    except np.linalg.LinAlgError:
        w, v = _eigh_upper(hess)
    coef = np.einsum("bki,bk->bi", v, np.einsum("bjka,bja->bjk", bt, t).reshape(-1, r))
    coef /= np.maximum(np.abs(w), floor)
    z = np.einsum("bki,bi->bk", v, coef).reshape(bt.shape[:-1])
    return np.einsum("bjka,bjk->bja", bt, z)


def _newton_descent(q: SymmetricQuadratic, counts: np.ndarray, y0: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the pattern objective over unit rows, batched over restarts.

    y0 has shape (B, m, d).  Each iteration takes a saddle-free Riemannian
    Newton step x = T |Hess|^-1 T^T t (`_newton_step`): t is the tangent
    gradient, T an orthonormal basis of the tangent space (`_tangent_basis`)
    and Hess = T^T (H - lambda (x) I) T, m(d-1) square.  Replacing each
    eigenvalue by its modulus makes x a descent direction away from minima
    too.  At d = 1 every t is 0 and the normalized start is returned.

    Backtracking line search: every restart tries the full step s = 1; the
    restarts it does not strictly decrease try s = 1/2, ..., 2^-29 in one
    call and take the first (largest) strict decrease.  `_objective` values a
    row alike in any batch, so these are the steps that trying all 30 sizes
    for every restart takes, bit for bit, and a restart's descent does not
    depend on the other restarts.  Only strict decreases are accepted, so no
    restart ends above its normalized start.

    A restart retires once |t| <= GTOL * scale (scale = coefficient scale
    times n^2) or when no step size decreases it; all stop after 100
    iterations.  GTOL = sqrt(eps) is the resolution of the value test: a
    Newton step lowers Q by about |t|^2 / scale, which falls under the
    rounding of Q, about eps * scale, once |t| < sqrt(eps) * scale.  A
    tighter gtol cannot be reached by strict decreases, and the restarts
    below it would only spend line searches that stall.
    """
    y = _normalize_rows(np.array(y0, dtype=float))
    f = _objective(q, counts, y)
    m, d = counts.size, q.dims.d
    scale = q.coeff_scale() * q.dims.n ** 2
    coupling = np.kron(2.0 * (np.outer(counts, counts) - np.diag(counts)), np.ones((d - 1, d - 1)))
    idx, ya, fa = np.arange(y.shape[0]), y, f  # the restarts still moving
    for _ in range(100):
        g = _gradient(q, counts, ya)
        lam = np.add.reduce(g * ya, axis=-1)
        t = g - lam[..., None] * ya
        moving = np.einsum("bjd,bjd->b", t, t) > (GTOL * scale) ** 2
        if not moving.all():
            idx, ya, fa, t, lam = idx[moving], ya[moving], fa[moving], t[moving], lam[moving]
        if idx.size == 0:
            break
        x = _newton_step(q.aa, coupling, ya, t, lam, 1e-12 * scale)
        # the full step, then the halvings where it does not strictly decrease
        trial = _normalize_rows(ya - x)
        ft = _objective(q, counts, trial)
        ok = ft < fa
        back = np.flatnonzero(~ok)
        if back.size:
            half = _normalize_rows(ya[back, None] - _HALVINGS[None, :, None, None] * x[back, None])
            fh = _objective(q, counts, half.reshape(-1, m, d)).reshape(back.size, -1)
            okh = fh < fa[back, None]
            found = okh.any(axis=1)
            back, half, fh = back[found], half[found], fh[found]
            first = np.argmax(okh[found], axis=1)
            rows = np.arange(back.size)
            trial[back], ft[back], ok[back] = half[rows, first], fh[rows, first], True
            idx, trial, ft = idx[ok], trial[ok], ft[ok]
        ya, fa = trial, ft
        y[idx], f[idx] = ya, fa
    return f, y


def _d1_exact_pattern_min(q: SymmetricQuadratic, counts: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Exact sign enumeration for d=1: y_j ∈ {±1}, all 2^m sign rows at once."""
    m = counts.size
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    ys = (1.0 - 2.0 * bits)[:, :, None]
    vals = _objective(q, counts, ys)
    k = int(np.argmin(vals))  # the first minimal mask
    return float(vals[k]), ys[k]


def min_over_pattern(q: SymmetricQuadratic, pattern: tuple[int, ...],
                     restarts: int = 32, seed: int = 0
                     ) -> tuple[float, Configuration]:
    """Best value found over configurations whose points repeat with the
    multiplicities ``pattern``, a nonincreasing tuple of positive ints that
    sums to n (as :func:`enumerate_patterns` yields them).

    Exact at d=1 (sign enumeration).  At d >= 2 a heuristic upper bound on
    the true pattern minimum: the best of `restarts` saddle-free Newton
    descents from Gaussian starts drawn from `seed`.

    Raises ValueError when ``pattern`` is not such a tuple.
    """
    if (not all(type(c) is int and c >= 1 for c in pattern)
            or list(pattern) != sorted(pattern, reverse=True) or sum(pattern) != q.dims.n):
        raise ValueError(f"pattern must be nonincreasing positive ints summing to "
                         f"n={q.dims.n}, got {pattern!r}")
    counts = np.array(pattern, dtype=float)
    d = q.dims.d
    if d == 1:
        val, y = _d1_exact_pattern_min(q, counts)
    else:
        rng = np.random.default_rng(seed)
        vals, ys = _newton_descent(q, counts, rng.normal(size=(restarts, counts.size, d)))
        b = int(np.argmin(vals))
        val, y = float(vals[b]), ys[b]
    pts = np.repeat(y, counts.astype(int), axis=0)
    return val, Configuration(q.dims, _normalize_rows(pts))


def check_pattern_budget(n: int, d: int, restarts: int = 32):
    """Raise ValueError when the Newton Hessian order min(n, 2d)(d-1)
    exceeds MAX_HESSIAN_ORDER, partition_count(n, 2d) exceeds MAX_PATTERNS,
    or the search's Newton work (restarts times the sum of order^3 over the
    patterns) exceeds MAX_SEARCH_WORK.

    With 2d >= 2 parts there are at least floor(n/2) + 1 patterns (the
    splits of n into two parts), so n >= 2 MAX_PATTERNS is refused without
    counting: at any n the guard costs at most O(MAX_PATTERNS d).
    """
    order = min(n, 2 * d) * (d - 1)
    if order > MAX_HESSIAN_ORDER:
        raise ValueError(f"half-degree search at n={n}, d={d} needs a Newton Hessian of "
                         f"order {order}, more than MAX_HESSIAN_ORDER={MAX_HESSIAN_ORDER}")
    if n >= 2 * MAX_PATTERNS:
        raise ValueError(f"half-degree search at n={n}, d={d} needs more than "
                         f"MAX_PATTERNS={MAX_PATTERNS} multiplicity patterns")
    count = partition_count(n, 2 * d)
    if count > MAX_PATTERNS:
        raise ValueError(f"half-degree search at n={n}, d={d} needs {count} "
                         f"multiplicity patterns, more than MAX_PATTERNS={MAX_PATTERNS}")
    at_most = [partition_count(n, m) for m in range(min(n, 2 * d) + 1)]
    # at_most[m] - at_most[m - 1] patterns have m parts: Hessian order m(d-1)
    work = restarts * sum((hi - lo) * (m * (d - 1)) ** 3
                          for m, (lo, hi) in enumerate(zip(at_most, at_most[1:]), 1))
    if work > MAX_SEARCH_WORK:
        raise ValueError(f"half-degree search at n={n}, d={d} needs Newton work {work} "
                         f"({restarts} restarts x order^3 per pattern), more than "
                         f"MAX_SEARCH_WORK={MAX_SEARCH_WORK}")


def reduced_global_min(q: SymmetricQuadratic, restarts: int = 32, seed: int = 0
                       ) -> tuple[float, Configuration]:
    """Minimum over all multiplicity patterns; equals the global minimum over
    the sphere product up to optimizer accuracy.

    Raises ValueError when :func:`check_pattern_budget` refuses (n, d).
    """
    check_pattern_budget(q.dims.n, q.dims.d, restarts)
    best_val, best_cfg = math.inf, None
    for idx, pattern in enumerate(enumerate_patterns(q.dims.n, q.dims.d)):
        val, cfg = min_over_pattern(q, pattern, restarts=restarts, seed=seed + idx)
        if val < best_val:
            best_val, best_cfg = val, cfg
    return best_val, best_cfg


def full_bruteforce_min(q: SymmetricQuadratic, samples: int = 2000, seed: int = 0
                        ) -> tuple[float, Configuration]:
    """Random-search oracle: Newton descent from the 16 best of `samples`
    random configurations; exact over the n+1 facets at d=1."""
    n, d = q.dims.n, q.dims.d
    if d == 1:
        k, r, _, _ = (v[0].item() for v in p_n1_rows([q.a0], q.a, q.aa, n))
        return r, hypercube_point(n, k)
    rng = np.random.default_rng(seed)
    counts = np.ones(n)
    pts = _normalize_rows(rng.normal(size=(samples, n, d)))
    vals = _objective(q, counts, pts)
    order = np.argsort(vals)[:16]
    pvals, pys = _newton_descent(q, counts, pts[order])
    b = int(np.argmin(pvals))
    return float(pvals[b]), Configuration(q.dims, _normalize_rows(pys[b]))


def count_distinct_points(config: Configuration, tol: float = CLUSTER_TOL) -> int:
    """Number of distinct points after clustering at the given tolerance."""
    reps: list[np.ndarray] = []
    for p in config.points:
        if not any(np.linalg.norm(p - r) <= tol for r in reps):
            reps.append(p)
    return len(reps)
