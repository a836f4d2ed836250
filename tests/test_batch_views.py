"""Each batch kernel equals its one-row view (the scalar API) row by row,
and the arrow LMI equals the scalar loops it replaced.

Rows come from the fuzz generators, with n mixed inside each d-group as the
CLI batches them, plus hand-made rows for every branch of each kernel.
"""

import math

import numpy as np
import pytest

from momentcert.core import MomentVector, ProblemDims, SymmetricQuadratic
from momentcert.exact_d1 import p_n1_membership, p_n1_rows
from momentcert.fuzz import random_moment_probe, random_quadratic
from momentcert.moment_cone import (
    STATUSES,
    classify,
    classify_rows,
    necessary_condition,
    sufficient_condition,
)
from momentcert.sos_cone import arrow_lmi_rows, sigma_membership_lmi


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
        # half of them shifted into [c_lo, c_hi] so the bisection runs
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
            SymmetricQuadratic(dims, 4.0, z + 0.5, z + 0.1),       # bisection
            # A_1 = 0 with denominator (n-1)A_11 + c/n = 0 at c = c_lo
            SymmetricQuadratic(dims, n * (n - 1) + 3.0, a_zero, aa_neg),
        ]
    return rows


def _reference_lmi(q: SymmetricQuadratic) -> tuple[float, float]:
    """(c*, f(c*)) of the arrow LMI by the scalar loops the batch kernel
    replaced, for a quadratic whose c-interval is not empty."""
    n, a0, a, aa = q.dims.n, q.a0, [float(v) for v in q.a], [float(v) for v in q.aa]

    def slack(c):
        s = a0 - c
        for ai, aai in zip(a, aa):
            den, num = (n - 1) * aai + c / n, n * ai * ai / 4.0
            if den <= 0.0:
                if num != 0.0:
                    return -math.inf
                continue
            s -= num / den
        return s

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
    hi = max(a0, lo)
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
    return c, slack(c)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_arrow_lmi_rows_equal_one_row_views(d):
    rows = _poly_rows(d)
    n, a0, a, aa = _arrays(rows, ("a0", "a", "aa"))
    batch = arrow_lmi_rows(a0, a, aa, n)
    views = [sigma_membership_lmi(q) for q in rows]
    assert np.array_equal([f.c for _, f in views], batch.c)
    assert np.array_equal([f.marginal for _, f in views], batch.slack)
    assert np.array_equal([v.is_member for v, _ in views], batch.member)
    assert np.array_equal([v.boundary for v, _ in views], batch.boundary)
    # and the scalar loops it replaced, to the last bit
    ref = [_reference_lmi(q) for q, empty in zip(rows, batch.empty) if not empty]
    assert np.array_equal(ref, np.stack([batch.c, batch.slack], axis=1)[~batch.empty])
    # every exit of the search occurs: empty interval, c_hi, c_lo, bisection
    run = ~batch.empty
    at_hi = run & (batch.c == np.maximum(batch.c_hi, batch.c_lo))
    at_lo = run & ~at_hi & (batch.c == batch.c_lo)
    assert batch.empty.any() and at_hi.any() and at_lo.any() and (run & ~at_hi & ~at_lo).any()
    assert batch.member.any() and (run & ~batch.member).any()


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
        r, kmin, rmin, member, boundary = p_n1_rows(a0, a[:, 0], aa[:, 0], nn)
        views = [p_n1_membership(q) for q in sel]
        assert np.array_equal(np.stack([res for _, res in views], axis=1), r)
        assert np.array_equal([v.witness.get("min_k", v.witness.get("k")) for v, _ in views], kmin)
        assert np.array_equal([v.witness.get("min_residual", v.witness.get("residual"))
                               for v, _ in views], rmin)
        assert np.array_equal([v.is_member for v, _ in views], member)
        assert np.array_equal([v.boundary for v, _ in views], boundary)
