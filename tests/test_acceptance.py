"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every criterion is property-based at desk scale; instance counts, tolerances
and runtime budgets are part of the contract and are asserted here, also
the bounds that criteria 2, 3, 5 and 6 read from the :mod:`momentcert.fuzz`
checks they call.  Criterion 3 is ``momentcert --seed 103 fuzz --suite
soundness --iters 100000``, criterion 6 ``... --seed 106 ... lemma --iters 10000``.
"""

import math
import time

import numpy as np
from reference_forms import (
    critical_polynomial,
    critical_r,
    RescaledMomentVector,
    expand_inequalities,
    facet_residuals,
    ray_crossing,
    sigma_n1_min,
    spin_form_residuals,
)

from momentcert.core import (
    DEFAULT_TOL,
    MomentVector,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    pair,
    row_batches,
)
from momentcert.fuzz import (
    EQUIVALENCE_TOL,
    HALFDEG_TOL,
    LEMMA_TOL,
    LEMMA_X_TOL,
    halfdeg_faults,
    lemma_suite,
    random_moment_probe,
    random_quadratic,
    route_disagreements,
    soundness_suite,
)
from momentcert.halfdeg import full_bruteforce_min, reduced_global_min
from momentcert.moment_cone import (
    NECESSARY,
    SUFFICIENT,
    classify,
    lmi_dual_feasibility,
    necessary_condition,
    sufficient_condition,
)
from momentcert.sos_cone import (
    sigma_membership_lmi,
    sigma_rows,
    sos_witness,
    verify_sos_witness,
)
from momentcert.spin import (
    DETECTED,
    coherent_state,
    dicke_state,
    entanglement_witness,
    moments_from_spin,
    random_state,
    spin_form_scale,
    spin_moments,
)


def _report(num: int, name: str, ok: bool, detail: str, budget: float,
            elapsed: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} ({name}): {status} — {detail} "
          f"[{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s over budget"


def _sandwich_violations(sig, p_min, sig_prime, t) -> int:
    """Rows in Sigma but not in P, and rows in P but not in Sigma', each
    decided by its minimum against t."""
    return int(np.sum((sig > t) & (p_min < -t)) + np.sum((p_min > t) & (sig_prime < -t)))


def test_criterion_1_d1_sandwich():
    """Sigma => P => Sigma' on 10^4 random quadratics for each n in 2..20,
    against the exact hypercube facet oracle, with the Sigma and Sigma'
    minima of the closed form and, on the same draws and t, of the kernel
    that check-poly runs (``sigma_rows``; Sigma' on A0 n/(n-1), as
    ``slice --cone SigmaPrime`` runs it)."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    violations, kernel, total = 0, 0, 0
    for n in range(2, 21):
        a0, a1, a11 = rng.normal(size=(3, 10_000)) * 2.0
        scale = np.maximum(1.0, np.maximum(np.abs(a0), np.maximum(
            np.abs(a1), np.abs(a11))) * n * n)
        t = 1e-9 * scale
        p_min = facet_residuals(a0, a1, a11, n).min(axis=0)
        violations += _sandwich_violations(sigma_n1_min(a0, a1, a11, n)[0], p_min,
                                           sigma_n1_min(a0, a1, a11, n, expanded=True)[0], t)
        kernel += _sandwich_violations(
            sigma_rows(a0, a1[:, None], a11[:, None], n).min_value, p_min,
            sigma_rows(a0 * n / (n - 1), a1[:, None], a11[:, None], n).min_value, t)
        total += 10_000
    _report(1, "d=1 sandwich", violations == kernel == 0,
            f"{violations} violations in {total} instances, {kernel} through sigma_rows",
            30.0, time.time() - t0)


def test_criterion_2_route_equivalence():
    """LMI route and ellipsoid-minimum route agree (tol 1e-8) on 10^3 random
    instances per (n,d) in {2..10}x{1..4}, both read from one
    :func:`sigma_rows` call per cell (:func:`route_disagreements`)."""
    t0 = time.time()
    assert EQUIVALENCE_TOL == 1e-8
    rng = np.random.default_rng(102)
    disagreements, total = 0, 0
    for n in range(2, 11):
        for d in range(1, 5):
            b = row_batches([random_quadratic(rng, n, d) for _ in range(1000)])[0]
            disagreements += route_disagreements(b.x0, b.x, b.xx, n)[0].size
            total += b.index.size
    _report(2, "route equivalence", disagreements == 0,
            f"{disagreements} disagreements in {total} instances",
            60.0, time.time() - t0)


def test_criterion_3_moment_soundness():
    """10^5 random atomic measures (n <= 64, d <= 4) all satisfy the
    necessary condition (residual >= -1e-9 scale², the package's verdict)."""
    t0 = time.time()
    assert DEFAULT_TOL == 1e-9
    r = soundness_suite(100_000, seed=103)
    _report(3, "moment soundness", r.passed,
            f"{len(r.violations)} violations in {r.iterations} measures",
            60.0, time.time() - t0)


def test_criterion_4_semialgebraic_vs_lmi():
    """Closed-form max inequality and explicit LMI witness agree on both
    sides for 10^4 random moment vectors; Member witness matrices are PSD."""
    t0 = time.time()
    rng = np.random.default_rng(104)
    disagreements, eig_failures, total = 0, 0, 0
    for _ in range(10_000):
        n, d = int(rng.integers(2, 33)), int(rng.integers(1, 5))
        m = MomentVector(ProblemDims(n, d), float(abs(rng.normal()) + 1e-3),
                         n * rng.normal(size=d) * 0.5,
                         n * rng.normal(size=d) * 0.5)
        for side, cond in ((NECESSARY, necessary_condition),
                           (SUFFICIENT, sufficient_condition)):
            ok, _ = cond(m)
            verdict, w = lmi_dual_feasibility(m, side)
            if ok != verdict.is_member:
                disagreements += 1
            elif ok:
                scale = max(1.0, m.moment_scale() ** 2)
                if float(np.linalg.eigvalsh(w.matrix)[0]) < -1e-8 * scale:
                    eig_failures += 1
            total += 1
    _report(4, "semialgebraic = LMI witness",
            disagreements == 0 and eig_failures == 0,
            f"{disagreements} disagreements, {eig_failures} non-PSD witnesses "
            f"in {total} checks", 60.0, time.time() - t0)


def test_criterion_5_half_degree():
    """50 random quadratics per (n,d) in {3..6}x{2,3}: reduced search matches
    brute force within 1e-6, minimizers have <= 2d distinct points, and at
    generic minima the critical polynomial vanishes at the first coordinates."""
    t0 = time.time()
    assert HALFDEG_TOL == 1e-6
    rng = np.random.default_rng(105)
    gap_fail, distinct_fail, poly_fail, poly_checked, total = 0, 0, 0, 0, 0
    for n in range(3, 7):
        for d in (2, 3):
            for i in range(50):
                q = random_quadratic(rng, n, d)
                seed = 1000 * n + 100 * d + i
                val, cfg = reduced_global_min(q, restarts=24, seed=seed)
                faults = halfdeg_faults(q, (val, cfg),
                                        full_bruteforce_min(q, samples=2000, seed=seed))
                gap_fail += "reduced" in faults
                distinct_fail += "distinct" in faults
                r = critical_r(q, cfg)
                rscale = float(np.max(np.abs(r)))
                if rscale > 0.0 and abs(r[0]) > 1e-6 * rscale:
                    coeffs = critical_polynomial(q, r, seed=seed)
                    pscale = float(np.max(np.abs(coeffs)))
                    poly_checked += 1
                    for xi in cfg.points:
                        pv = float(np.polynomial.polynomial.polyval(
                            float(xi[0]), coeffs))
                        if abs(pv) > 1e-6 * pscale:
                            poly_fail += 1
                            break
                total += 1
    ok = gap_fail == 0 and distinct_fail == 0 and poly_fail == 0
    _report(5, "half-degree principle", ok,
            f"{gap_fail} gap / {distinct_fail} support / {poly_fail} critical-"
            f"polynomial failures in {total} instances "
            f"({poly_checked} generic)", 300.0, time.time() - t0)


def test_criterion_6_lemma_construction():
    """10^4 random targets over the (n,d) grid {2..64}x{1..4}: exact X match,
    Y zero off the last coordinate, last-coordinate defect <= 1/n, all points
    inside the ball, to 1e-9 max(1, √n) and 1e-12."""
    t0 = time.time()
    assert (LEMMA_X_TOL, LEMMA_TOL) == (1e-9, 1e-12)
    r = lemma_suite(10_000, seed=106)
    _report(6, "approximation lemma", r.passed,
            f"{len(r.violations)} violations in {r.iterations} targets",
            30.0, time.time() - t0)


def test_criterion_7_convergence_rate():
    """On 100 random rays the necessary/sufficient crossing gap follows
    c/n^p over n in {4,...,512} with p in [0.8, 1.2] (log-log fit of the
    geometric-mean gap)."""
    t0 = time.time()
    rng = np.random.default_rng(107)
    ns = np.array([4, 8, 16, 32, 64, 128, 256, 512], dtype=float)
    gaps = np.empty((100, ns.size))
    for ray in range(100):
        d = int(rng.integers(1, 5))
        rm = RescaledMomentVector(1.0, rng.normal(size=d), rng.normal(size=d))
        for j, n in enumerate(ns):
            gaps[ray, j] = (ray_crossing(rm, int(n), NECESSARY)
                            - ray_crossing(rm, int(n), SUFFICIENT))
    positive = np.all(gaps > 0.0)
    agg = np.exp(np.mean(np.log(np.maximum(gaps, 1e-300)), axis=0))
    design = np.vstack([np.ones(ns.size), -np.log(ns)]).T
    coef, *_ = np.linalg.lstsq(design, np.log(agg), rcond=None)
    p = float(coef[1])
    ok = positive and 0.8 <= p <= 1.2
    _report(7, "convergence rate", ok,
            f"fitted exponent p = {p:.3f} over 100 rays "
            f"(gaps all positive: {positive})", 60.0, time.time() - t0)


def test_criterion_8_spin_witness():
    """Coherent states are never detected and saturate their squeezing
    inequality to 1e-9 n^2; balanced Dicke states are detected at -n^2 on the
    z squeezing family; trivial inequalities hold on 10^3 random states; the
    spin-language forms match the expanded moment forms, and on them each
    planar row is the sum of two squeezing rows and the second-moment-sum
    row is 0, so the three squeezing rows decide the verdict."""
    t0 = time.time()
    rng = np.random.default_rng(108)
    coherent_fail = saturation_fail = dicke_fail = trivial_fail = form_fail = 0
    identity_fail = 0
    # coherent states: random directions, never detected
    for n in range(2, 33):
        for _ in range(5):
            theta = math.acos(2.0 * rng.uniform() - 1.0)
            phi = 2.0 * math.pi * rng.uniform()
            if entanglement_witness(coherent_state(n, theta, phi)).verdict == DETECTED:
                coherent_fail += 1
        # axis-aligned coherent states saturate the matching squeezing form
        for axis, (theta, phi) in (("x", (math.pi / 2.0, 0.0)),
                                   ("y", (math.pi / 2.0, math.pi / 2.0)),
                                   ("z", (0.0, 0.0))):
            sm = spin_moments(coherent_state(n, theta, phi))
            res = spin_form_residuals(sm, n)
            pattern = {"x": (0, 1, 1), "y": (1, 0, 1), "z": (1, 1, 0)}[axis]
            if abs(res[pattern]) > 1e-9 * n * n:
                saturation_fail += 1
    # balanced Dicke states: detected with residual -n^2 on squeezing-z
    for n in range(2, 33, 2):
        rep = entanglement_witness(dicke_state(n, 0.0))
        hits = {r.pattern: r for r in rep.necessary if r.violated}
        ok = (rep.verdict == DETECTED and (1, 1, 0) in hits
              and abs(hits[(1, 1, 0)].spin_residual + n * n) <= 1e-9 * n * n)
        if not ok:
            dicke_fail += 1
    # trivial inequalities on 10^3 random valid states + form identity; the
    # rows that never decide: planar-a = squeezing-b + squeezing-c (the two
    # squeezing patterns with bit a set) and second-moment-sum = 0
    for i in range(1000):
        n = int(rng.integers(2, 33))
        sm = spin_moments(random_state(n, seed=200_000 + i))
        res = spin_form_residuals(sm, n)
        if res[(0, 0, 0)] < -1e-9 * n * n or res[(1, 1, 1)] < -1e-9 * n * n:
            trivial_fail += 1
        mres, _, _ = expand_inequalities(moments_from_spin(sm, n), NECESSARY)
        for idx in range(8):
            pattern = tuple((idx >> a) & 1 for a in range(3))
            kappa = spin_form_scale(pattern, n)
            diff = abs(res[pattern] - kappa * float(mres[idx]))
            if diff > 1e-12 * max(float(n * n), abs(res[pattern])):
                form_fail += 1
        for planar in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            a = planar.index(1)
            squeezing = sum(res[p] for p in ((0, 1, 1), (1, 0, 1), (1, 1, 0)) if p[a])
            if abs(res[planar] - squeezing) > 1e-12 * max(float(n * n), abs(res[planar])):
                identity_fail += 1
        if abs(res[(1, 1, 1)]) > 1e-12 * n * n:
            identity_fail += 1
    ok = (coherent_fail == saturation_fail == dicke_fail
          == trivial_fail == form_fail == identity_fail == 0)
    _report(8, "spin witness", ok,
            f"{coherent_fail} false detections, {saturation_fail} saturation, "
            f"{dicke_fail} Dicke, {trivial_fail} trivial, {form_fail} form-"
            f"identity, {identity_fail} row-identity failures", 30.0, time.time() - t0)


def test_criterion_9_witness_self_validation():
    """Every SOS witness re-validates by coefficient match with residual
    < 1e-8 * scale; every NonMember moment verdict ships a
    separating polynomial inside the SOS cone with negative pairing."""
    t0 = time.time()
    rng = np.random.default_rng(109)
    sos_fail, found = 0, 0
    while found < 100:
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        q = SymmetricQuadratic(ProblemDims(n, d), float(abs(rng.normal())) * 3,
                               0.3 * rng.normal(size=d),
                               0.3 * rng.normal(size=d))
        v, feas = sigma_membership_lmi(q)
        if not v.is_member:
            continue
        found += 1
        w = sos_witness(q, feas.c)
        res = verify_sos_witness(w, q)
        if res >= 1e-8 * max(1.0, q.coeff_scale() * n * n):
            sos_fail += 1
    sep_fail, checked = 0, 0
    while checked < 200:
        _, _, m = random_moment_probe(rng)
        verdict = classify(m)
        if verdict.status is not Status.NON_MEMBER:
            continue
        checked += 1
        q = verdict.witness["separating_polynomial"]
        q_ok, _ = sigma_membership_lmi(q)
        if not q_ok.is_member or pair(q, m) >= 0.0:
            sep_fail += 1
    ok = sos_fail == 0 and sep_fail == 0
    _report(9, "witness self-validation", ok,
            f"{sos_fail}/{found} SOS reconstruction failures, "
            f"{sep_fail}/{checked} separating-polynomial failures",
            60.0, time.time() - t0)
