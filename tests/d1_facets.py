"""Reference d=1 facet residuals: every facet of both cones as one array.

The kernels in ``momentcert.exact_d1`` evaluate at most four facets per row;
these arrays are what they are checked against.
"""

from __future__ import annotations

import numpy as np


def facet_residuals(a0, a1, a11, n: int) -> np.ndarray:
    """Residuals A0 + A1(n-2k) + A11((n-2k)^2 - n) for k = 0..n.

    Accepts scalars or batch arrays for the coefficients; with arrays of shape
    (B,) the result has shape (n+1, B).
    """
    u = (n - 2 * np.arange(n + 1, dtype=float))
    return a0 + np.multiply.outer(u, a1) + np.multiply.outer(u * u - n, a11)


def c_n1_residuals(m0, m1, m11, n: int) -> np.ndarray:
    """Facet residuals of the d=1 moment cone, k = 0..n.

    Facet k < n pairs m with the extreme quadratic of the nonnegativity cone
    vanishing at the adjacent hypercube values n-2k and n-2k-2:
    m0(n-1+(n-1-2k)^2) - 2 m1 (n-1-2k) + m11.  Facet k = n pairs with the
    concave extreme quadratic vanishing at both endpoints: (n^2-n) m0 - m11.
    Scalar moments give shape (n+1,); arrays of shape (B,) give (n+1, B).
    """
    v = (n - 1 - 2 * np.arange(n, dtype=float))
    m0, m1, m11 = np.asarray(m0, dtype=float), np.asarray(m1, dtype=float), np.asarray(m11, dtype=float)
    quad = np.multiply.outer(n - 1 + v * v, m0) - 2.0 * np.multiply.outer(v, m1) + m11
    return np.concatenate([quad, ((n * n - n) * m0 - m11)[None]])
