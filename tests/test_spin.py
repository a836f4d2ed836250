import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from reference_forms import expand_inequalities, pattern_of_index, spin_form_residuals

from momentcert.core import DEFAULT_TOL, margin_verdict
from momentcert.moment_cone import NECESSARY
from momentcert.spin import (
    DETECTED,
    EIGENVALUE_TOL,
    INCONCLUSIVE,
    PATTERN_LABELS,
    SymmetricState,
    coherent_state,
    dicke_state,
    entanglement_witness,
    ghz_state,
    mixture,
    moments_from_spin,
    random_state,
    spin_form_scale,
    spin_moments,
)


def collective_operators(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense reference: spin-j matrices (Jx, Jy, Jz) in the Dicke basis,
    j = n/2, index i carrying m = j - i."""
    j = n / 2.0
    m = j - np.arange(n + 1)
    jz = np.diag(m).astype(complex)
    # J+ raises m by one: index i maps to i-1
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((n + 1, n + 1), dtype=complex)
    jp[np.arange(n), np.arange(1, n + 1)] = ladder
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return jx, jy, jz


def dense_moments(rho: np.ndarray) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>, <Jx²>, <Jy²>, <Jz²>) as tr(rho J) on the dense
    operators."""
    ops = collective_operators(rho.shape[0] - 1)

    def ev(op):
        return float(np.sum(rho.T * op).real)

    return np.array([ev(op) for op in ops] + [ev(op @ op) for op in ops])


def test_state_validation():
    SymmetricState(2, np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        SymmetricState(2, np.eye(4) / 4.0)  # wrong shape
    with pytest.raises(ValueError):
        SymmetricState(2, np.eye(3))  # trace 3
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        SymmetricState(2, bad)  # negative eigenvalue
    nh = np.eye(3, dtype=complex) / 3.0
    nh[0, 1] = 1j * 1e-3
    with pytest.raises(ValueError):
        SymmetricState(2, nh)  # not Hermitian


def test_operator_algebra():
    for n in (1, 2, 5):
        jx, jy, jz = collective_operators(n)
        j = n / 2.0
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        assert np.allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-12)
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(casimir, j * (j + 1) * np.eye(n + 1), atol=1e-12)


def test_moments_match_dense_reference():
    """The O(n) diagonal formulas agree with tr(rho J) on the dense operators:
    they sum the same products in another order, so the bound is set from the
    dtype, 1e-14 · max(1, n²) (the moments are O(n²))."""
    for n in (1, 2, 5, 64, 512):
        states = [random_state(n, seed=n), coherent_state(n, 0.7, 1.9),
                  coherent_state(n, 2.3, -0.4), dicke_state(n, n / 2.0 - n // 3),
                  ghz_state(n)]
        for st in states:
            err = np.max(np.abs(np.array(dataclasses.astuple(spin_moments(st))) - dense_moments(st.rho)))
            assert err <= 1e-14 * max(1.0, n * n), (n, err)


def _state_with_min_eigenvalue(n: int, lam_min: float, rng) -> np.ndarray:
    """Unit-trace Hermitian matrix whose lowest eigenvalues (one, or half of
    them) equal lam_min, in a random eigenbasis."""
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    v = np.linalg.qr(a)[0]
    lam = rng.uniform(0.1, 1.0, size=n + 1)
    low = int(rng.choice([1, (n + 1) // 2]))
    lam[:low] = lam_min
    lam[low:] *= (1.0 - low * lam_min) / lam[low:].sum()
    rho = (v * lam) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def test_cholesky_psd_test_agrees_with_eigvalsh():
    """Acceptance iff lambda_min >= -EIGENVALUE_TOL, decided by the Cholesky
    factor of rho + EIGENVALUE_TOL I exactly where eigvalsh decides it, on
    spectra placed just inside and just outside the bound."""
    rng = np.random.default_rng(44)
    for n in (1, 2, 5, 64, 200):
        for delta in (-1e-9, -1e-11, -3e-12, 3e-12, 1e-11, 1e-9):
            for _ in range(3):
                rho = _state_with_min_eigenvalue(n, -EIGENVALUE_TOL + delta, rng)
                by_eig = float(np.linalg.eigvalsh(rho)[0]) >= -EIGENVALUE_TOL
                assert by_eig == (delta > 0)
                try:
                    SymmetricState(n, rho)
                    accepted = True
                except ValueError as exc:
                    assert "negative eigenvalue" in str(exc)
                    accepted = False
                assert accepted == by_eig, (n, delta)


def test_rank_one_states_accepted_at_n512():
    n = 512
    rng = np.random.default_rng(45)
    vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    vec /= np.linalg.norm(vec)
    SymmetricState(n, np.outer(vec, vec.conj()))
    for st in (coherent_state(n, 1.1, 0.3), dicke_state(n, 0.0), ghz_state(n)):
        SymmetricState(n, st.rho)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("pos", [(0, 0), (2, 2), (1, 0), (0, 1), (3, 1), (0, 2),
                                 (0, 4), (4, 0), (1, 4)])
def test_non_finite_entries_rejected(value, pos):
    """A non-finite entry is refused wherever it sits, also off the three
    diagonals that spin_moments reads."""
    rho = np.eye(5, dtype=complex) / 5.0
    rho[pos] = value
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricState(4, rho)


def test_coherent_state_matches_direct_formula():
    for n in (1, 2, 7, 20):
        for theta, phi in ((0.0, 0.0), (math.pi, 0.3), (0.7, 1.9), (4.0, -2.5),
                           (-1.2, 0.5)):
            k = np.arange(n + 1)
            amps = (np.sqrt([math.comb(n, int(i)) for i in k])
                    * np.cos(theta / 2.0) ** (n - k)
                    * (np.sin(theta / 2.0) * np.exp(1j * phi)) ** k)
            ref = np.outer(amps, amps.conj())
            assert np.max(np.abs(coherent_state(n, theta, phi).rho - ref)) < 1e-13


def test_coherent_state_large_n():
    """Amplitudes past C(n, k) > 2**63 (n >= 68): the state points along
    (theta, phi) with <J_z> = j cos(theta)."""
    n, j = 512, 256.0
    for theta, phi in ((0.0, 0.0), (0.3, 1.0), (math.pi / 2.0, -0.7), (2.9, 2.0),
                       (4.0, 0.5)):
        sm = spin_moments(coherent_state(n, theta, phi))
        assert abs(sm.jz - j * math.cos(theta)) <= 1e-12 * j
        assert abs(sm.jx - j * math.sin(theta) * math.cos(phi)) <= 1e-12 * j
        assert abs(sm.jy - j * math.sin(theta) * math.sin(phi)) <= 1e-12 * j
    assert abs(spin_moments(coherent_state(70, 1.0, 0.0)).jz - 35.0 * math.cos(1.0)) < 1e-12 * 35


def test_coherent_state_moments():
    n = 6
    sm = spin_moments(coherent_state(n, 0.0, 0.0))  # along +z
    j = n / 2.0
    assert abs(sm.jz - j) < 1e-12 and abs(sm.jz2 - j * j) < 1e-12
    assert abs(sm.jx) < 1e-12 and abs(sm.jy) < 1e-12
    # transverse variance of a spin-j coherent state is j/2
    assert abs(sm.jx2 - j / 2.0) < 1e-12
    sm = spin_moments(coherent_state(n, math.pi / 2.0, 0.0))  # along +x
    assert abs(sm.jx - j) < 1e-12 and abs(sm.jz) < 1e-12


def test_dicke_state_moments_and_validation():
    n = 4
    sm = spin_moments(dicke_state(n, 0.0))
    j = n / 2.0
    assert sm.jz == 0.0 and sm.jz2 == 0.0
    assert abs(sm.jx2 - j * (j + 1) / 2.0) < 1e-12
    with pytest.raises(ValueError):
        dicke_state(4, 0.5)
    with pytest.raises(ValueError):
        dicke_state(4, 3.0)


def test_moment_dictionary():
    n = 4
    m = moments_from_spin(spin_moments(coherent_state(n, 0.0, 0.0)), n)
    # all spins up: z = (0, 0, n), z_aa = (0, 0, n(n-1)) up to the dictionary
    assert np.allclose(m.z, [0.0, 0.0, float(n)])
    assert abs(m.zz[2] - n * (n - 1)) < 1e-12
    assert abs(m.zz[0] - (4.0 * n / 4.0 - n)) < 1e-12  # <Jx^2> = j/2


def test_spin_form_equals_scaled_moment_form():
    """Each spin-language residual is exactly kappa times the moment-language
    expanded inequality residual."""
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.integers(2, 12))
        st = random_state(n, seed=trial)
        sm = spin_moments(st)
        m = moments_from_spin(sm, n)
        res, _, _ = expand_inequalities(m, NECESSARY)
        spin_res = spin_form_residuals(sm, n)
        for idx in range(8):
            pattern = tuple((idx >> a) & 1 for a in range(3))
            kappa = spin_form_scale(pattern, n)
            assert abs(spin_res[pattern] - kappa * res[idx]) < 1e-10 * max(
                1.0, n * n * abs(res[idx]) + n * n)


def test_witness_rows_lhs_rhs_follow_pattern_formula():
    """Row lhs = sum over α of z0 z_αα/(n-1) (bit α set) or z_α²/n, rhs =
    z0² + z0 Σ z_αα/n, and rhs - lhs is the row's residual."""
    states = [random_state(n, seed=n) for n in (2, 5, 16, 33)]
    states += [dicke_state(8, 0.0), coherent_state(12, 0.7, 1.9), ghz_state(6)]
    for st in states:
        rep = entanglement_witness(st)
        m, n = rep.moments, st.n
        rhs = m.z0 * m.z0 + m.z0 * float(m.zz.sum()) / n
        for r in rep.necessary:
            terms = [m.z0 * m.zz[a] / (n - 1) if r.pattern[a] else m.z[a] * m.z[a] / n
                     for a in range(3)]
            scale = max(1.0, sum(abs(t) for t in terms))
            assert abs(r.lhs - sum(terms)) <= 1e-12 * scale
            assert abs(r.rhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            assert abs((r.rhs - r.lhs) - r.residual) <= 1e-12 * max(
                1.0, abs(r.lhs), abs(r.rhs))


def test_coherent_states_never_detected():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(2, 16))
        theta = math.acos(2 * rng.uniform() - 1)
        phi = 2 * math.pi * rng.uniform()
        rep = entanglement_witness(coherent_state(n, theta, phi))
        assert rep.verdict != DETECTED, (n, theta, phi)


def test_coherent_mixtures_never_detected():
    rng = np.random.default_rng(43)
    for trial in range(20):
        n = int(rng.integers(2, 10))
        comps = [coherent_state(n, math.acos(2 * rng.uniform() - 1),
                                2 * math.pi * rng.uniform()) for _ in range(3)]
        rho = mixture([c.rho for c in comps], rng.uniform(size=3) + 0.1)
        rep = entanglement_witness(SymmetricState(n, rho))
        assert rep.verdict != DETECTED


def test_balanced_dicke_detected_by_squeezing():
    for n in (2, 4, 6, 8, 10):
        rep = entanglement_witness(dicke_state(n, 0.0))
        assert rep.verdict == DETECTED
        hits = [r for r in rep.necessary if r.violated]
        assert [r.label for r in hits] == ["squeezing-z"]
        assert abs(hits[0].spin_residual + n * n) < 1e-9 * n * n


def test_ghz_two_qubits_detected():
    rep = entanglement_witness(ghz_state(2))
    assert rep.verdict == DETECTED
    assert any(r.label.startswith("squeezing") for r in rep.necessary if r.violated)


def test_random_states_respect_universal_constraints():
    """The two trivial inequalities hold for every density matrix, so the
    witness never raises on a valid state."""
    for trial in range(100):
        n = 2 + trial % 9
        rep = entanglement_witness(random_state(n, seed=trial))
        assert rep.verdict in (DETECTED, INCONCLUSIVE)


def _witness_states(n: int, seed: int):
    """Random, coherent, Dicke, GHZ and coherent-mixture states on n qubits."""
    rng = np.random.default_rng(seed)

    def angles():
        return math.acos(2 * rng.uniform() - 1), 2 * math.pi * rng.uniform()

    return {"random": random_state(n, seed), "coherent": coherent_state(n, *angles()),
            "dicke": dicke_state(n, 0.0 if n % 2 == 0 else 0.5), "ghz": ghz_state(n),
            "mixture": SymmetricState(n, mixture([coherent_state(n, *angles()).rho
                                                  for _ in range(3)], rng.uniform(size=3) + 0.1))}


@pytest.mark.parametrize("n", [2, 16, 64, 128, 256, 512])
def test_verdict_is_read_from_the_printed_rows(n):
    """The report holds the squeezing-z, -y and -x rows, in that order; each
    is VIOLATED exactly when margin_verdict on its spin residual at tol n²
    says not a member, and the verdict is EntanglementDetected exactly when
    one of them is."""
    for tol in (DEFAULT_TOL, 0.5):
        for kind, state in _witness_states(n, seed=n).items():
            rep = entanglement_witness(state, tol=tol)
            assert [r.label for r in rep.necessary] == [
                "squeezing-z", "squeezing-y", "squeezing-x"]
            for r in rep.necessary:
                assert r.violated == (not margin_verdict(r.spin_residual, tol * n * n)[0])
            want = DETECTED if any(r.violated for r in rep.necessary) else INCONCLUSIVE
            assert rep.verdict == want, (n, kind, tol)


def test_witness_rows_are_the_reference_expansion_bit_for_bit():
    """Each reported row's lhs, rhs and residual are the bits of its row of
    the reference 2^d expansion, and its spin residual that residual times
    spin_form_scale: the witness evaluates its five rows from the same terms
    in the expansion's order."""
    patterns = [pattern_of_index(k, 3) for k in range(8)]
    for n in [*range(2, 40), 64, 128, 256, 512]:
        for kind, state in _witness_states(n, seed=n).items():
            rep = entanglement_witness(state)
            res, lhs, rhs = expand_inequalities(rep.moments, NECESSARY)
            for r in rep.necessary:
                k = patterns.index(r.pattern)
                want = (lhs[k], rhs[k], res[k], spin_form_scale(r.pattern, n) * res[k])
                assert [float(v).hex() for v in (r.lhs, r.rhs, r.residual, r.spin_residual)] == [
                    float(v).hex() for v in want], (n, kind, r.label)


def test_invalid_moments_raise_universal_violation():
    # duck-typed object whose "moments" violate the Casimir bound
    fake = SimpleNamespace(n=4, rho=np.diag([2.0, 0, 0, 0, -1.0]).astype(complex))
    with pytest.raises(ValueError):
        entanglement_witness(fake)


def test_witness_requires_two_qubits():
    with pytest.raises(ValueError):
        entanglement_witness(coherent_state(1, 0.0, 0.0))


def test_report_rows_and_json():
    rep = entanglement_witness(dicke_state(4, 0.0))
    assert len(rep.necessary) == 3
    assert {r.pattern for r in rep.necessary} == set(PATTERN_LABELS)
    for r in rep.necessary:
        assert abs((r.rhs - r.lhs) - r.residual) < 1e-12
    obj = rep.to_json_dict()
    assert set(obj) == {"verdict", "moments", "necessary"}
    assert len(obj["necessary"]) == 3
    assert obj["verdict"] == DETECTED


def test_state_json_round_trip():
    st = ghz_state(3)
    st2 = SymmetricState.from_json_dict(st.to_json_dict())
    assert st2.n == 3 and np.allclose(st2.rho, st.rho)


def test_mixed_validation():
    """``mixture`` refuses weights that are negative or not one per state,
    takes a generator alike, and its sum of states is a state."""
    a, b = coherent_state(2, 0.0, 0.0).rho, coherent_state(2, 1.0, 0.0).rho
    with pytest.raises(ValueError, match="one per state"):
        mixture([a, b], [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        mixture([a, b], [1.0, -1.0])
    with pytest.raises(ValueError, match="one per state"):
        mixture(iter([a, b, a]), [1.0, 1.0])
    with pytest.raises(ValueError, match="one per state"):
        mixture(iter([]), [])
    rho = mixture(iter([a, b]), [1.0, 3.0])
    assert np.array_equal(rho, mixture([a, b], [1.0, 3.0]))
    assert np.array_equal(SymmetricState(2, rho).rho, 0.25 * a + 0.75 * b)
