import json
import re
import time
import warnings

import numpy as np
import pytest
from reference_forms import critical_polynomial, critical_r, lagrange_residual, recover_point

from momentcert import halfdeg
from momentcert.cli import main
from momentcert.core import (
    POLY_FIELDS,
    Configuration,
    ProblemDims,
    SymmetricQuadratic,
    evaluate,
    magnitude_bound,
)
from momentcert.halfdeg import (
    MAX_HESSIAN_ORDER,
    MAX_PATTERNS,
    MAX_SEARCH_WORK,
    _gradient,
    _newton_descent,
    _newton_step,
    _normalize_rows,
    _objective,
    _tangent_basis,
    check_pattern_budget,
    count_distinct_points,
    enumerate_patterns,
    full_bruteforce_min,
    min_over_pattern,
    partition_count,
    reduced_global_min,
)


def rand_q(rng, n, d, spread=1.0):
    return SymmetricQuadratic(ProblemDims(n, d), rng.normal(),
                              spread * rng.normal(size=d),
                              spread * rng.normal(size=d))


def test_pattern_validation():
    """min_over_pattern takes a nonincreasing tuple of positive ints summing
    to n, and refuses any other pattern with one ValueError."""
    q = SymmetricQuadratic(ProblemDims(7, 2), 1.0, np.zeros(2), np.zeros(2))
    assert min_over_pattern(q, (3, 2, 2), restarts=2)[0] == 1.0
    for pattern in ((5, 2, 0), (2, 3, 2), (3, 2), (3.0, 2, 2), (3, 2, 1, True)):
        with pytest.raises(ValueError, match=re.escape(
                f"pattern must be nonincreasing positive ints summing to n=7, got {pattern!r}")):
            min_over_pattern(q, pattern)


def test_enumerate_patterns_small():
    pats = set(enumerate_patterns(4, 1))
    assert pats == {(4,), (3, 1), (2, 2)}  # at most 2 parts
    pats = set(enumerate_patterns(3, 2))
    assert pats == {(3,), (2, 1), (1, 1, 1)}


def test_enumerate_matches_partition_count():
    for n in range(1, 13):
        for d in range(1, 4):
            listed = list(enumerate_patterns(n, d))
            assert len(listed) == partition_count(n, 2 * d)
            assert len(set(listed)) == len(listed)
            assert all(sum(p) == n for p in listed)


def test_min_over_pattern_rejects_wrong_n():
    q = SymmetricQuadratic(ProblemDims(4, 2), 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        min_over_pattern(q, (3,))


def test_min_over_pattern_d1_exact():
    # q = (0, s1, 0) on the hypercube: all-minus pattern gives -n
    n = 5
    q = SymmetricQuadratic(ProblemDims(n, 1), 0.0, [1.0], [0.0])
    val, cfg = min_over_pattern(q, (n,))
    assert val == -float(n)
    assert np.all(cfg.points == -1.0)


def test_reduced_min_known_values():
    # q = (0, 0, 1): ss >= -n with equality iff s = 0; attainable for even n
    q = SymmetricQuadratic(ProblemDims(4, 2), 0.0, np.zeros(2), [1.0, 0.0])
    val, cfg = reduced_global_min(q, restarts=16, seed=0)
    assert abs(val + 4.0) < 1e-7
    assert abs(evaluate(q, cfg) - val) < 1e-9
    # constant polynomial
    q = SymmetricQuadratic(ProblemDims(3, 2), 2.5, np.zeros(2), np.zeros(2))
    val, _ = reduced_global_min(q, restarts=4, seed=0)
    assert val == 2.5


def test_reduced_agrees_with_bruteforce():
    rng = np.random.default_rng(31)
    for trial in range(12):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        val, cfg = reduced_global_min(q, restarts=24, seed=trial)
        bval, _ = full_bruteforce_min(q, samples=3000, seed=trial)
        assert val <= bval + 1e-6 * max(1.0, abs(bval))
        assert abs(evaluate(q, cfg) - val) < 1e-8 * max(1.0, abs(val))


def test_minimizer_has_few_distinct_points():
    rng = np.random.default_rng(32)
    for trial in range(15):
        n, d = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d, spread=1.5)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        assert count_distinct_points(cfg) <= 2 * d


def test_count_distinct_points_clusters():
    pts = np.array([[1.0, 0.0], [1.0, 1e-7], [0.0, 1.0]])
    c = Configuration(ProblemDims(3, 2), pts / np.linalg.norm(pts, axis=1, keepdims=True))
    assert count_distinct_points(c) == 2
    assert count_distinct_points(c, tol=1e-9) == 3


def test_lagrange_residual_small_at_minimizer():
    rng = np.random.default_rng(33)
    for trial in range(10):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        assert lagrange_residual(q, cfg) < 1e-6 * max(1.0, q.coeff_scale() * n)


def test_critical_r_formula():
    q = SymmetricQuadratic(ProblemDims(3, 2), 0.0, [1.0, 2.0], [0.5, -1.0])
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    c = Configuration(ProblemDims(3, 2), pts)
    r = critical_r(q, c)
    s = pts.sum(axis=0)
    assert np.allclose(r, [1.0 + 1.0 * s[0], 2.0 - 2.0 * s[1]])


def test_critical_polynomial_vanishes_at_minimizer():
    """Every first coordinate of a critical configuration is a root of the
    degree-2d polynomial built from R."""
    rng = np.random.default_rng(34)
    checked = 0
    for trial in range(20):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        r = critical_r(q, cfg)
        rscale = float(np.max(np.abs(r)))
        if rscale == 0.0 or abs(r[0]) <= 1e-6 * rscale:
            continue  # degenerate branch, raises by contract
        coeffs = critical_polynomial(q, r, seed=trial)
        assert coeffs.shape == (2 * d + 1,)
        scale = float(np.max(np.abs(coeffs)))
        for xi in cfg.points:
            pv = float(np.polynomial.polynomial.polyval(float(xi[0]), coeffs))
            assert abs(pv) < 1e-6 * scale
        checked += 1
    assert checked >= 10


def test_recover_point_round_trip():
    rng = np.random.default_rng(35)
    recovered = 0
    for trial in range(20):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        r = critical_r(q, cfg)
        rscale = float(np.max(np.abs(r)))
        if rscale == 0.0 or abs(r[0]) <= 1e-6 * rscale:
            continue
        for xi in cfg.points:
            cands = recover_point(q, r, float(xi[0]), seed=trial)
            err = min(float(np.max(np.abs(c - xi))) for c in cands)
            assert err < 1e-5
        recovered += 1
    assert recovered >= 10


def test_critical_polynomial_degenerate_branch_raises():
    q = SymmetricQuadratic(ProblemDims(3, 2), 0.0, [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        critical_polynomial(q, np.array([0.0, 1.0]))


def test_bruteforce_never_beats_reduced_d1():
    """At d=1 the pattern search and the brute-force facet minimum are both
    exact, so they agree; at n=16 with A1 < 0 the minimum sits at k = 0."""
    rng = np.random.default_rng(36)
    cases = [rand_q(rng, int(rng.integers(3, 9)), 1) for _ in range(20)]
    cases.append(SymmetricQuadratic(ProblemDims(16, 1), 0.0, [-1.0], [0.0]))
    for trial, q in enumerate(cases):
        val, _ = reduced_global_min(q, seed=trial)
        bval, bcfg = full_bruteforce_min(q, samples=500, seed=trial)
        assert abs(val - bval) <= 1e-12
        assert abs(evaluate(q, bcfg) - bval) <= 1e-12
    assert bval == -16.0  # the n=16 case: every point at +1


def _scale(q):
    return max(1.0, q.coeff_scale()) * q.dims.n ** 2


def test_one_point_pattern_matches_angle_grid():
    """Pattern (n,) at d=2 puts every point at one unit vector y, so the
    minimum is that of a0 + n a.y + (n^2 - n) aa.y^2 over the circle."""
    rng = np.random.default_rng(37)
    cases = [SymmetricQuadratic(ProblemDims(8, 2), 0.3, [0.5, -1.2], [0.4, -0.9]),
             SymmetricQuadratic(ProblemDims(5, 2), -1.0, [2.0, 0.1], [-1.5, 0.2])]
    cases += [rand_q(rng, int(rng.integers(3, 9)), 2) for _ in range(4)]
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 20, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for q in cases:
        n = q.dims.n
        grid = q.a0 + n * circle @ q.a + (n * n - n) * (circle * circle) @ q.aa
        val, _ = min_over_pattern(q, (n,))
        assert abs(val - float(grid.min())) <= 1e-9 * _scale(q)


def test_newton_descent_never_rises_above_start():
    rng = np.random.default_rng(38)
    for trial in range(12):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d, spread=1.5)
        patterns = list(enumerate_patterns(n, d))
        counts = np.array(patterns[trial % len(patterns)], dtype=float)
        y0 = rng.normal(size=(16, counts.size, d))
        start = _objective(q, counts, _normalize_rows(y0))
        vals, ys = _newton_descent(q, counts, y0)
        assert np.all(vals <= start)
        assert np.allclose(np.linalg.norm(ys, axis=-1), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(_objective(q, counts, ys), vals, rtol=0.0,
                           atol=1e-12 * _scale(q))


def test_gaussian_set_argmin_is_stationary():
    """The d >= 2 polynomials of the fixed Gaussian set (one per (n, d) in
    {3..8} x {1, 2, 3}, drawn in that grid order from seed 0): the argmin
    satisfies the Lagrange conditions to 1e-8 * scale."""
    rng = np.random.default_rng(0)
    checked = 0
    for d in (1, 2, 3):
        for n in range(3, 9):
            q = SymmetricQuadratic(ProblemDims(n, d), float(rng.normal()),
                                   rng.normal(size=d), rng.normal(size=d))
            if d == 1:
                continue
            _, cfg = reduced_global_min(q)
            assert lagrange_residual(q, cfg) <= 1e-8 * _scale(q)
            checked += 1
    assert checked == 12


def test_pattern_count_guard(capsys):
    assert partition_count(200, 6) > MAX_PATTERNS >= partition_count(20, 6)
    q = SymmetricQuadratic(ProblemDims(200, 3), 1.0, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="MAX_PATTERNS"):
        reduced_global_min(q)
    for route in ("halfdeg", "all"):
        t0 = time.perf_counter()
        code = main(["check-poly", "--route", route, "--n", "200", "--d", "3",
                     "--a0", "1", "--a", "0.5,-1,0.2", "--aa", "1,-0.5,0.3"])
        assert code == 64
        assert time.perf_counter() - t0 < 1.0
        assert "MAX_PATTERNS" in capsys.readouterr().err
    code = main(["check-poly", "--route", "halfdeg", "--n", "8", "--d", "3",
                 "--a0", "1", "--a", "0.5,-1,0.2", "--aa", "1,-0.5,0.3"])
    assert code in (0, 1)
    assert "MAX_PATTERNS" not in capsys.readouterr().err


def test_pattern_count_guard_refuses_large_n_without_counting():
    # counting would build a list of n + 1 partition counts: 8 GB at n = 10^9
    for d in (1, 3):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="needs more than MAX_PATTERNS=1000"):
            check_pattern_budget(10**9, d)
        assert time.perf_counter() - t0 < 0.1
    # the shortcut refuses only what counting refuses: 2 parts give
    # floor(n/2) + 1 patterns, one too many from n = 2 MAX_PATTERNS on
    assert partition_count(2 * MAX_PATTERNS - 1, 2) == MAX_PATTERNS
    assert partition_count(2 * MAX_PATTERNS, 2) == MAX_PATTERNS + 1
    check_pattern_budget(2 * MAX_PATTERNS - 1, 1)



def test_hessian_order_guard(capsys, monkeypatch):
    """A search whose Newton Hessian, of order min(n, 2d)(d-1), is over
    MAX_HESSIAN_ORDER is refused before any pattern is searched; the bench
    grid (n <= 8, d <= 3: order at most 12) is not."""
    assert MAX_HESSIAN_ORDER == 256
    check_pattern_budget(3, 86)  # order 255
    check_pattern_budget(2, 129)  # order 256
    for n in range(3, 9):
        for d in (1, 2, 3):
            check_pattern_budget(n, d)

    def search(*args, **kwargs):
        raise AssertionError("searched before the Hessian check")

    monkeypatch.setattr(halfdeg, "min_over_pattern", search)
    message = "needs a Newton Hessian of order 258, more than MAX_HESSIAN_ORDER=256"
    with pytest.raises(ValueError, match=message):
        check_pattern_budget(3, 87)
    with pytest.raises(ValueError, match=message):
        reduced_global_min(SymmetricQuadratic(ProblemDims(3, 87), 1.0, np.zeros(87), np.zeros(87)))
    assert main(["check-poly", "--route", "halfdeg", "--n", "3", "--d", "87", "--a0", "1"]) == 64
    assert capsys.readouterr().err == f"error: half-degree search at n=3, d=87 {message}\n"


def test_search_work_guard(capsys, monkeypatch):
    """n = 20, d = 10 passes the pattern and Hessian-order bounds (627
    patterns, order at most 180) but its Newton work, restarts x order^3
    summed over the patterns, is 13x MAX_SEARCH_WORK: refused before any
    pattern is searched.  The bench grid, the kernel rows (n = 10, d = 3),
    acceptance criterion 5, the fuzz suites and the largest Hessian order
    (n = 3, d = 86) are not."""
    assert MAX_SEARCH_WORK == 750_000_000
    assert partition_count(20, 20) <= MAX_PATTERNS
    assert 20 * (10 - 1) <= MAX_HESSIAN_ORDER
    for n in range(2, 11):
        for d in (1, 2, 3):
            check_pattern_budget(n, d)
    check_pattern_budget(3, 86)

    def search(*args, **kwargs):
        raise AssertionError("searched before the work check")

    monkeypatch.setattr(halfdeg, "min_over_pattern", search)
    message = ("half-degree search at n=20, d=10 needs Newton work 9489643776 (32 restarts "
               "x order^3 per pattern), more than MAX_SEARCH_WORK=750000000")
    with pytest.raises(ValueError, match=re.escape(message)):
        reduced_global_min(SymmetricQuadratic(ProblemDims(20, 10), 1.0, np.zeros(10), np.zeros(10)))
    t0 = time.perf_counter()
    assert main(["check-poly", "--route", "halfdeg", "--n", "20", "--d", "10", "--a0", "1"]) == 64
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"
    # the work grows with the restarts: twice the CLI's at the largest order is refused
    with pytest.raises(ValueError, match="MAX_SEARCH_WORK"):
        reduced_global_min(SymmetricQuadratic(ProblemDims(3, 86), 1.0, np.zeros(86), np.zeros(86)),
                           restarts=64)


def test_over_budget_file_refused_before_any_search(tmp_path, capsys, monkeypatch):
    import momentcert.cli as cli

    def search(q, **kwargs):
        raise AssertionError(f"searched n={q.dims.n} before the budget check")

    monkeypatch.setattr(cli, "reduced_global_min", search)
    row = {"d": 3, "a0": 1.0, "a": [0.5, -1.0, 0.2], "aa": [1.0, -0.5, 0.3]}
    f = tmp_path / "q.json"
    f.write_text(json.dumps([{"n": 12, **row}] * 3 + [{"n": 200, **row}, {"n": 300, **row}]))
    for route in ("halfdeg", "all"):
        code = main(["check-poly", "--route", route, "--file", str(f)])
        out = capsys.readouterr()
        assert (code, out.out) == (64, "")
        assert out.err == ("error: half-degree search at n=200, d=3 needs 4775383 "
                           "multiplicity patterns, more than MAX_PATTERNS=1000\n")


def test_coefficients_past_the_magnitude_bound_are_refused():
    """The CLI's row rule holds for the library too: a (3, 2) quadratic
    scaled to 1e200 raised OverflowError from |t|^2 in the Newton descent.
    At the bound the search still answers, with the scaled minimum."""
    base = SymmetricQuadratic(ProblemDims(3, 2), 1.0, [0.5, -1.0], [0.3, 0.2])
    bound = float(magnitude_bound(np.array([3.0]), 2, POLY_FIELDS)[0])

    def scaled(s):
        return SymmetricQuadratic(base.dims, s * base.a0, s * base.a, s * base.aa)

    for fn in (reduced_global_min, full_bruteforce_min,
               lambda q: min_over_pattern(q, (2, 1))):
        with pytest.raises(ValueError, match=re.escape(f"must be at most {bound!r} in "
                                                       "magnitude at n=3, d=2")):
            fn(scaled(1e200))
    for fn in (reduced_global_min, full_bruteforce_min):
        val, cfg = fn(scaled(bound))
        ref, _ = fn(base)
        assert abs(val / bound - ref) <= 1e-9 * max(1.0, abs(ref))
        assert np.isfinite(cfg.points).all()


def _random_case(rng, d=None):
    """A random q (d from 2 to 4, coefficients scaled by 1e-3 to 1e3) and the
    counts of one of its patterns."""
    d = int(rng.integers(2, 5)) if d is None else d
    n = int(rng.integers(3, 8))
    q = rand_q(rng, n, d, spread=10.0 ** rng.uniform(-3.0, 3.0))
    patterns = list(enumerate_patterns(n, d))
    counts = np.array(patterns[int(rng.integers(len(patterns)))], dtype=float)
    return q, counts


def test_objective_of_a_row_does_not_depend_on_its_batch():
    """Each row's value is the same bits alone, in its batch and inside a
    larger shuffled batch (BLAS gemv rounded some rows by batch size)."""
    rng = np.random.default_rng(40)
    for _ in range(200):
        q, counts = _random_case(rng)
        b, extra = int(rng.integers(1, 40)), int(rng.integers(1, 60))
        y = _normalize_rows(rng.normal(size=(b + extra, counts.size, q.dims.d)))
        vals = _objective(q, counts, y[:b])
        alone = np.concatenate([_objective(q, counts, y[i:i + 1]) for i in range(b)])
        perm = rng.permutation(b + extra)
        shuffled = np.empty(b + extra)
        shuffled[perm] = _objective(q, counts, y[perm])
        assert np.array_equal(vals, alone)
        assert np.array_equal(vals, shuffled[:b])


def test_newton_descent_of_a_restart_does_not_depend_on_its_batch():
    """32 restarts give, bit for bit, what they give shuffled and one by one."""
    rng = np.random.default_rng(41)
    for trial in range(6):
        q, counts = _random_case(rng, d=2 + trial % 3)
        y0 = rng.normal(size=(32, counts.size, q.dims.d))
        vals, ys = _newton_descent(q, counts, y0)
        perm = rng.permutation(32)
        pvals, pys = _newton_descent(q, counts, y0[perm])
        assert np.array_equal(pvals, vals[perm]) and np.array_equal(pys, ys[perm])
        for i in range(32):
            v1, y1 = _newton_descent(q, counts, y0[i:i + 1])
            assert v1[0] == vals[i] and np.array_equal(y1[0], ys[i])


def _coupling(counts, d):
    """The descent's tiled 2 (c c^T - diag c), one (d-1)-square block per pair."""
    return np.kron(2.0 * (np.outer(counts, counts) - np.diag(counts)), np.ones((d - 1, d - 1)))


def _all_halvings_descent(q, counts, y0, stats):
    """The descent with every step size s = 1, 1/2, ..., 2^-29 evaluated for
    every restart on every iteration; the first strict decrease is taken.
    ``stats`` counts row-steps by the step taken (full, halved) and the
    restarts the line search stalls."""
    y = _normalize_rows(np.array(y0, dtype=float))
    f = _objective(q, counts, y)
    m, d = counts.size, q.dims.d
    scale = q.coeff_scale() * q.dims.n ** 2
    coupling = _coupling(counts, d)
    steps = 0.5 ** np.arange(30)
    idx = np.arange(y.shape[0])
    for _ in range(100):
        ya = y[idx]
        g = _gradient(q, counts, ya)
        lam = np.sum(g * ya, axis=-1)
        t = g - lam[..., None] * ya
        moving = np.einsum("bjd,bjd->b", t, t) > (halfdeg.GTOL * scale) ** 2
        idx, ya, t, lam = idx[moving], ya[moving], t[moving], lam[moving]
        if idx.size == 0:
            break
        x = _newton_step(q.aa, coupling, ya, t, lam, 1e-12 * scale)
        trial = _normalize_rows(ya[:, None] - steps[None, :, None, None] * x[:, None])
        ft = _objective(q, counts, trial.reshape(-1, m, d)).reshape(idx.size, -1)
        ok = ft < f[idx][:, None]
        improved = ok.any(axis=1)
        first = np.argmax(ok, axis=1)
        stats["full"] += int(np.sum(improved & (first == 0)))
        stats["halved"] += int(np.sum(improved & (first > 0)))
        stats["stalled"] += int(np.sum(~improved))
        idx, trial, ft, first = idx[improved], trial[improved], ft[improved], first[improved]
        rows = np.arange(idx.size)
        y[idx], f[idx] = trial[rows, first], ft[rows, first]
    return f, y


#: a gtol far below what a strict-decrease test can resolve, so restarts from
#: random starts end in line searches that stall
_STALLING_GTOL = 1e-11


def test_full_step_first_matches_all_halvings_bitwise(monkeypatch):
    """Trying s = 1 before the halvings takes the same steps as evaluating all
    30 step sizes at once: same values and points, bit for bit, on 200
    random descents, among them halved steps and stalled restarts.  Random
    starts retired at GTOL do not stall, so the 200 cases run again with
    gtol 1e-11, where they do."""
    stats = {}
    for gtol in (halfdeg.GTOL, _STALLING_GTOL):
        monkeypatch.setattr(halfdeg, "GTOL", gtol)
        stats[gtol] = {"full": 0, "halved": 0, "stalled": 0}
        rng = np.random.default_rng(42)
        for _ in range(200):
            q, counts = _random_case(rng)
            y0 = rng.normal(size=(int(rng.integers(1, 9)), counts.size, q.dims.d))
            vals, ys = _newton_descent(q, counts, y0)
            rvals, rys = _all_halvings_descent(q, counts, y0, stats[gtol])
            assert np.array_equal(vals, rvals) and np.array_equal(ys, rys)
    assert min(stats[_STALLING_GTOL].values()) >= 50, stats
    assert min(stats[halfdeg.GTOL]["full"], stats[halfdeg.GTOL]["halved"]) >= 50, stats


def test_retiring_at_gtol_costs_at_most_1e12_scale(monkeypatch):
    """Against the descent that retires only at |t| <= 1e-11 scale, on random
    (q, pattern) cases with d 2-4, m up to 2d and coefficients scaled 1e-3 to
    1e3: every restart stops on that descent's own trajectory, so its value
    is never lower, and each pattern's best value is within 1e-12 scale."""
    rng = np.random.default_rng(46)
    worst = 0.0
    for _ in range(150):
        q, counts = _random_case(rng)
        y0 = rng.normal(size=(32, counts.size, q.dims.d))
        vals, _ = _newton_descent(q, counts, y0)
        with monkeypatch.context() as patch:
            patch.setattr(halfdeg, "GTOL", _STALLING_GTOL)
            ref, _ = _newton_descent(q, counts, y0)
        scale = q.coeff_scale() * q.dims.n ** 2
        assert np.all(vals >= ref)
        worst = max(worst, (vals.min() - ref.min()) / scale)
    assert worst <= 1e-12, worst


def _ambient_hessian(q, counts):
    """Hessian of the objective in the flattened (point, coordinate) basis.

    Coordinates decouple: H[(j,a),(k,a)] = 2 A_aa (c_j c_k - delta_jk c_j).
    """
    m, d = counts.size, q.dims.d
    h = np.zeros((m * d, m * d))
    outer = np.outer(counts, counts) - np.diag(counts)
    for a in range(d):
        h[a::d, a::d] = 2.0 * q.aa[a] * outer
    return h


def _ambient_step(q, counts, y, t, lam, floor):
    """The step in md coordinates: x = |P(H - lambda (x) I)P + N|^-1 t with
    P the tangent projector and N = blockdiag(y_j y_j^T), which puts
    eigenvalue 1 on the normal directions, where t has no component."""
    m, d = counts.size, q.dims.d
    eye_m, eye = np.eye(m), np.eye(m * d)
    normal = np.einsum("bja,jk,bkc->bjakc", y, eye_m, y).reshape(-1, m * d, m * d)
    proj = eye - normal
    shifted = _ambient_hessian(q, counts) - np.repeat(lam, d, axis=-1)[:, :, None] * eye
    w, v = np.linalg.eigh(proj @ shifted @ proj + normal)
    coef = np.einsum("bki,bk->bi", v, t.reshape(-1, m * d))
    coef /= np.maximum(np.abs(w), floor)
    return np.einsum("bki,bi->bk", v, coef).reshape(y.shape)


def _points_on_sign_branches(rng, b, m, d):
    """b restarts of m unit rows, a third of them with y_1 = 0, -0.0, +1 or -1
    (the sign branches of the Householder basis)."""
    y = _normalize_rows(rng.normal(size=(b, m, d)))
    for i, j in zip(*np.nonzero(rng.random((b, m)) < 1.0 / 3.0)):
        kind = int(rng.integers(4))
        if kind < 2:
            rest = rng.normal(size=d - 1)
            y[i, j] = np.concatenate([[(0.0, -0.0)[kind]], rest / np.linalg.norm(rest)])
        else:
            y[i, j] = 0.0
            y[i, j, 0] = (1.0, -1.0)[kind - 2]
    return y


def test_tangent_basis_is_orthonormal_and_orthogonal_to_y():
    rng = np.random.default_rng(43)
    for d in (2, 3, 4, 6):
        y = _points_on_sign_branches(rng, 64, 8, d)
        bt = _tangent_basis(y)
        assert bt.shape == (64, 8, d - 1, d)
        gram = bt @ bt.swapaxes(-1, -2)
        assert np.abs(gram - np.eye(d - 1)).max() <= 1e-15
        assert np.abs(np.einsum("bjka,bja->bjk", bt, y)).max() <= 1e-15
    # y_1 = +-1 gives the other unit vectors up to sign, and so does y_1 = -0.0
    # at a unit vector
    bt = _tangent_basis(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-0.0, 1.0, 0.0]]))
    assert np.array_equal(np.abs(bt[0]), np.eye(3)[1:])
    assert np.array_equal(np.abs(bt[1]), np.eye(3)[1:])
    assert np.array_equal(np.abs(bt[2]), np.eye(3)[[0, 2]])


def test_tangent_step_matches_the_ambient_step():
    """The Newton step in the m(d-1) tangent basis equals the md ambient one
    to 1e-10 relative, at d = 2, 3, 4 with m = 1 and m = 2d points,
    coefficients scaled 1e-3 to 1e3, and rows on every sign branch."""
    rng = np.random.default_rng(44)
    for d in (2, 3, 4):
        for m in (1, 2 * d):
            for _ in range(12):
                counts = rng.integers(1, 4, size=m).astype(float)
                counts[0] += 1.0  # n >= 2
                q = rand_q(rng, int(counts.sum()), d, spread=10.0 ** rng.uniform(-3.0, 3.0))
                y = _points_on_sign_branches(rng, 16, m, d)
                g = _gradient(q, counts, y)
                lam = np.sum(g * y, axis=-1)
                t = g - lam[..., None] * y
                floor = 1e-12 * q.coeff_scale() * q.dims.n ** 2
                x = _newton_step(q.aa, _coupling(counts, d), y, t, lam, floor)
                ref = _ambient_step(q, counts, y, t, lam, floor)
                err = np.linalg.norm((x - ref).reshape(16, -1), axis=1)
                size = np.linalg.norm(ref.reshape(16, -1), axis=1)
                assert np.all(err <= 1e-10 * size), (d, m, float(np.max(err / size)))


def test_newton_descent_at_d1_returns_the_normalized_start():
    """At d = 1 the tangent space is empty: every tangent gradient is 0, so
    the descent returns the signs of the start and their values unchanged."""
    rng = np.random.default_rng(45)
    for n in (2, 5, 9):
        q = rand_q(rng, n, 1)
        counts = np.array([n - 1.0, 1.0])
        y0 = 10.0 ** rng.uniform(-3.0, 3.0, size=(8, 2, 1)) * rng.choice([-1.0, 1.0], size=(8, 2, 1))
        vals, ys = _newton_descent(q, counts, y0)
        assert np.array_equal(ys, np.sign(y0))
        assert np.array_equal(vals, _objective(q, counts, np.sign(y0)))


def _eigh_failing(monkeypatch, fails):
    """Patch ``np.linalg.eigh`` to raise LinAlgError on its calls numbered
    (from 0) in ``fails(call, uplo)``, as LAPACK does when it does not
    converge; the calls are recorded as (matrix shape, UPLO)."""
    eigh, calls = np.linalg.eigh, []

    def fake(a, UPLO="L"):
        calls.append((a.shape, UPLO))
        if fails(len(calls) - 1, UPLO):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigh", fake)
    return calls


def test_failed_newton_eigh_is_solved_from_the_upper_triangle(capsys, monkeypatch):
    """A batch whose eigh does not converge is solved matrix by matrix from
    the upper triangle, and the search prints its verdict: the LinAlgError,
    a ValueError, used to reach main as an input error (exit 64)."""
    argv = ["--output", "json", "check-poly", "--route", "halfdeg", "--n", "5", "--d", "2",
            "--a0", "1", "--a=0.5,-0.25", "--aa=-0.5,0.25"]
    assert main(argv) == 1
    expected = json.loads(capsys.readouterr().out)["results"][0]["routes"]["halfdeg"]
    calls = _eigh_failing(monkeypatch, lambda call, uplo: call == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    got = json.loads(out)["results"][0]["routes"]["halfdeg"]
    assert err == "" and got["status"] == expected["status"] == "NonMember"
    assert abs(got["min_value"] - expected["min_value"]) <= 1e-9 * abs(expected["min_value"])
    restarts = calls[0][0][0]
    assert calls[1:restarts + 1] == [(calls[0][0][1:], "U")] * restarts


def test_restart_whose_eigh_fails_both_ways_retires_at_its_start(monkeypatch):
    """A matrix that fails from its upper triangle too gives its restart a
    NaN step, which no step size accepts: that restart keeps its normalized
    start, and the others descend as they do when every batch is solved
    matrix by matrix."""
    rng = np.random.default_rng(46)
    q = rand_q(rng, 6, 3)
    counts = np.array([3.0, 2.0, 1.0])
    y0 = rng.normal(size=(8, 3, 3))
    start = _objective(q, counts, _normalize_rows(y0))
    _eigh_failing(monkeypatch, lambda call, uplo: uplo == "L")
    vals, ys = _newton_descent(q, counts, y0)
    _eigh_failing(monkeypatch, lambda call, uplo: uplo == "L" or call == 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, gys = _newton_descent(q, counts, y0)
    assert got[0] == start[0] and np.array_equal(gys[0], _normalize_rows(y0[:1])[0])
    assert np.array_equal(got[1:], vals[1:]) and np.array_equal(gys[1:], ys[1:])
    assert np.all(vals < start)
