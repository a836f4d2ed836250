import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_forms import (
    RescaledMomentVector,
    coeffs_from_rescaled,
    rescale_moments,
    unrescale_moments,
)

from momentcert.core import (
    Configuration,
    ConeVerdict,
    MomentVector,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    abs_scale,
    evaluate,
    fold_columns,
    margin_verdict,
    moments_of_configuration,
    pair,
    power_sums,
)


def test_dims_validation():
    ProblemDims(2, 1)
    with pytest.raises(ValueError):
        ProblemDims(1, 1)
    with pytest.raises(ValueError):
        ProblemDims(3, 0)


def test_power_sums_small_cases():
    c = Configuration(ProblemDims(2, 1), [[1.0], [-1.0]])
    s, ss = power_sums(c)
    assert s[0] == 0.0 and ss[0] == -2.0

    c = Configuration(ProblemDims(3, 1), [[1.0], [1.0], [-1.0]])
    s, ss = power_sums(c)
    assert s[0] == 1.0 and ss[0] == -2.0

    # one of four points flipped: s = n-2k, ss = (n-2k)^2 - n
    c = Configuration(ProblemDims(4, 1), [[-1.0], [1.0], [1.0], [1.0]])
    s, ss = power_sums(c)
    assert s[0] == 2.0 and ss[0] == 0.0


def test_evaluate_cases():
    dims = ProblemDims(2, 1)
    c = Configuration(dims, [[1.0], [-1.0]])
    assert evaluate(SymmetricQuadratic(dims, 1.0, [0.0], [0.0]), c) == 1.0
    assert evaluate(SymmetricQuadratic(dims, 0.0, [0.0], [1.0]), c) == -2.0

    dims4 = ProblemDims(4, 1)
    c4 = Configuration(dims4, np.ones((4, 1)))
    q = SymmetricQuadratic(dims4, 4.0, [0.0], [-1.0])
    assert evaluate(q, c4) == 4.0 - (16.0 - 4.0)


def test_evaluate_dim_mismatch():
    q = SymmetricQuadratic(ProblemDims(2, 1), 0.0, [1.0], [0.0])
    c = Configuration(ProblemDims(3, 1), np.ones((3, 1)))
    with pytest.raises(ValueError):
        evaluate(q, c)


def test_moments_of_configuration():
    m = moments_of_configuration(Configuration(ProblemDims(2, 1), [[1.0], [1.0]]))
    assert (m.z0, m.z[0], m.zz[0]) == (1.0, 2.0, 2.0)
    m = moments_of_configuration(Configuration(ProblemDims(2, 1), [[1.0], [-1.0]]))
    assert (m.z0, m.z[0], m.zz[0]) == (1.0, 0.0, -2.0)
    pts = np.zeros((3, 2))
    pts[:, 0] = 1.0
    m = moments_of_configuration(Configuration(ProblemDims(3, 2), pts))
    assert list(m.z) == [3.0, 0.0] and list(m.zz) == [6.0, 0.0]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10**6))
def test_pairing_identity(n, d, seed):
    """pair(q, moments(x)) equals evaluate(q, x) for any q, x."""
    rng = np.random.default_rng(seed)
    dims = ProblemDims(n, d)
    pts = rng.normal(size=(n, d))
    pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))
    c = Configuration(dims, pts)
    q = SymmetricQuadratic(dims, rng.normal(), rng.normal(size=d), rng.normal(size=d))
    lhs = pair(q, moments_of_configuration(c))
    rhs = evaluate(q, c)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_pair_constant_polynomial():
    dims = ProblemDims(4, 2)
    q = SymmetricQuadratic(dims, 1.0, np.zeros(2), np.zeros(2))
    m = MomentVector(dims, 5.0, [1.0, 2.0], [3.0, 4.0])
    assert pair(q, m) == 5.0


def test_rescale_round_trips():
    dims = ProblemDims(4, 2)
    m = MomentVector(dims, 1.0, [4.0, -2.0], [4.0, 7.0])
    rm = rescale_moments(m)
    assert rm.zt[0] == 4.0 / 2.0 and rm.zzt[0] == 1.0
    back = unrescale_moments(rm, dims)
    assert np.allclose(back.z, m.z) and np.allclose(back.zz, m.zz)

    q2 = coeffs_from_rescaled((1.0, 2.0, 4.0), 4)
    assert q2.a0 == 1.0 and q2.a[0] == 1.0 and q2.aa[0] == 1.0


def test_rescale_moments_formula():
    n = 9
    m = MomentVector(ProblemDims(n, 1), 1.0, [float(n)], [float(n)])
    rm = rescale_moments(m)
    assert rm.zt[0] == math.sqrt(n) and rm.zzt[0] == 1.0


def test_configuration_ball_validation():
    dims = ProblemDims(2, 2)
    Configuration(dims, [[1.0, 0.0], [0.6, 0.8]])
    with pytest.raises(ValueError):
        Configuration(dims, [[1.0, 0.1], [0.0, 0.0]])


def test_moment_linearity():
    dims = ProblemDims(3, 2)
    rng = np.random.default_rng(0)
    cs = []
    for _ in range(3):
        pts = rng.normal(size=(3, 2))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))
        cs.append(Configuration(dims, pts))
    w = [0.3, 1.1, 2.0]
    total_z = sum(wi * moments_of_configuration(c).z for wi, c in zip(w, cs))
    total_zz = sum(wi * moments_of_configuration(c).zz for wi, c in zip(w, cs))
    # conic combination of atoms = same combination of their moment vectors
    assert np.allclose(total_z, sum(wi * power_sums(c)[0] for wi, c in zip(w, cs)))
    assert np.allclose(total_zz, sum(wi * power_sums(c)[1] for wi, c in zip(w, cs)))


def test_verdict_requires_witness():
    with pytest.raises(ValueError):
        ConeVerdict(Status.MEMBER)
    ConeVerdict(Status.INDETERMINATE)
    ConeVerdict(Status.NON_MEMBER, witness={"k": 0})


def test_json_round_trip():
    q = SymmetricQuadratic(ProblemDims(3, 2), 1.5, [0.5, -1.0], [2.0, 0.0])
    q2 = SymmetricQuadratic.from_json_dict(q.to_json_dict())
    assert q2.a0 == q.a0 and np.array_equal(q2.a, q.a)
    m = MomentVector(ProblemDims(3, 2), 1.0, [1.0, 2.0], [3.0, 4.0])
    m2 = MomentVector.from_json_dict(m.to_json_dict())
    assert m2.z0 == m.z0 and np.array_equal(m2.zz, m.zz)


def test_from_json_dict_refuses_non_integral_n_and_d():
    """n and d are never truncated: a bool, a string, a fractional or a
    non-finite value raises; an integral float reads as its int."""
    m = {"n": 4, "d": 1, "z0": 1.0, "z": [0.0], "zz": [0.0]}
    q = {"n": 4, "d": 1, "a0": 1.0, "a": [0.0], "aa": [0.0]}
    for cls, good in ((MomentVector, m), (SymmetricQuadratic, q)):
        for key, value in (("n", 4.7), ("n", True), ("n", "4"), ("n", math.nan),
                           ("n", math.inf), ("d", 1.9), ("d", False)):
            with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
                cls.from_json_dict({**good, key: value})
        assert cls.from_json_dict({**good, "n": 4.0, "d": 1.0}).dims == ProblemDims(4, 1)


def test_rescaled_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        RescaledMomentVector(float("nan"), [0.0], [0.0])


def test_margin_verdict_scalars_and_arrays():
    t = 1e-3
    margins = [-1.0, -t, -0.5 * t, 0.0, 0.5 * t, t, 1.0, -math.inf]
    member, edge = margin_verdict(np.array(margins), t)
    assert member.tolist() == [False, True, True, True, True, True, True, False]
    assert edge.tolist() == [False, True, True, True, True, False, False, False]
    assert [margin_verdict(m, t) for m in margins] == list(zip(member.tolist(), edge.tolist()))
    # t per row
    member, edge = margin_verdict(np.array([0.5, 0.5]), np.array([0.1, 1.0]))
    assert member.tolist() == [True, True] and edge.tolist() == [False, True]


#: entries of the fold tests: signed zeros, infinities, extremes and ties
FOLD_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, 5e-324, -1e308]


def _signed_zero_ties(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows whose result is a zero while the row holds both 0.0 and -0.0."""
    return (out == 0.0) & (x == 0.0).any(axis=-1) & np.signbit(x).any(axis=-1) & (
        (x == 0.0) & ~np.signbit(x)).any(axis=-1)


@pytest.mark.parametrize("width", range(3, 10))
def test_fold_columns_equals_numpy_reductions(width):
    """max, min and any over the last axis, and the index-order sum, of
    (B, width) arrays (B = 0, 1 and more) and of one row: the bits of
    numpy's reductions.  The one exception is the sign of a zero max or min
    of a row holding both 0.0 and -0.0: the fold gives the later column's
    zero, as np.maximum and np.minimum do, while numpy's axis reduction
    picks one by the array's width and memory layout (a C-contiguous
    (B, 9) array and a strided view of the same values differ), so those
    rows are compared by value."""
    rng = np.random.default_rng(width)
    for b in (0, 1, 2, 300):
        x = rng.choice(FOLD_VALUES, size=(b, width))
        for ufunc, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
            for rows in (x, x[0]) if b else (x,):
                got = fold_columns(ufunc, rows[..., 0], rows[..., 1:])
                want = reduce(rows, axis=-1)
                assert got.shape == want.shape and (got == want).all()
                exact = ~_signed_zero_ties(rows, np.asarray(want))
                assert (np.signbit(got) == np.signbit(want))[exact].all()
                # the fold itself: each row's columns in order
                ref = []
                for r in rows.reshape(-1, width):
                    ref.append(r[0])
                    for v in r[1:]:
                        ref[-1] = ufunc(ref[-1], v)
                assert np.asarray(got).reshape(-1).tobytes() == np.array(ref).tobytes()
        mask = x != 0.0
        got = fold_columns(np.logical_or, mask[:, 0], mask[:, 1:])
        assert got.dtype == bool and (got == mask.any(axis=-1)).all()
        with np.errstate(invalid="ignore", over="ignore"):
            total = fold_columns(np.add, 0.0, x)
        ref = []
        for r in x.tolist():
            ref.append(0.0)
            for v in r:
                ref[-1] += v
        assert repr(np.asarray(total, dtype=float).tolist()) == repr(ref)


def test_abs_scale_of_rows_and_one_row():
    """max(1, |x0|, max |x|, max |xx|) per row, one row alike; NaN passes."""
    rng = np.random.default_rng(3)
    x0 = rng.choice(FOLD_VALUES, size=50)
    x, xx = rng.choice(FOLD_VALUES, size=(2, 50, 3))
    want = np.abs(np.column_stack([x0, x, xx])).max(axis=-1, initial=1.0)
    assert abs_scale(x0, x, xx).tobytes() == want.tobytes()
    assert [float(abs_scale(float(a), b, c)) for a, b, c in zip(x0, x, xx)] == want.tolist()
    assert math.isnan(abs_scale(1.0, np.array([math.nan]), np.array([0.0])))
