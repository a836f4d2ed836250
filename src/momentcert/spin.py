"""Collective-spin entanglement witness for symmetric n-qubit states (d=3).

States live in the n+1 dimensional Dicke basis |j,m>, j = n/2, ordered
m = j, j-1, ..., -j.  The moment dictionary maps first and second collective
spin moments to a d=3 moment vector.  Of the eight necessary-for-separability
inequalities on it, the two trivial rows and the three spin-squeezing rows
are evaluated, and the squeezing rows decide detection.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .core import DEFAULT_TOL, MomentVector, ProblemDims, fold_columns, json_int, margin_verdict
from .moment_cone import NECESSARY, max_form_terms
from .moment_cone import sufficient_condition  # noqa: F401  (bench/tracing.py wraps this binding)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10

DETECTED = "EntanglementDetected"
INCONCLUSIVE = "Inconclusive"

#: labels of the three spin-squeezing sign patterns (t1, t2, t3), the rows
#: that are reported and decide the verdict
PATTERN_LABELS = {
    (0, 1, 1): "squeezing-x",
    (1, 0, 1): "squeezing-y",
    (1, 1, 0): "squeezing-z",
}
#: the evaluated patterns in the order of the 2^3 expansion (index Σ p_α 2^α):
#: the squeezing patterns between the variance-sum and second-moment-sum
#: patterns, which every density matrix satisfies
ROWS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))


@dataclass(frozen=True)
class SymmetricState:
    """Finite Hermitian PSD unit-trace matrix on the symmetric subspace."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        n = int(self.n)
        if n < 1:
            raise ValueError("n must be >= 1")
        if n >= 2 ** 53:  # no rho has that order; as certify says it for every spelling
            raise ValueError("n must be an integer < 2^53")
        if rho.shape != (n + 1, n + 1):
            raise ValueError(f"rho must be {(n + 1, n + 1)}, got {rho.shape}")
        # first: NaN passes every comparison below, and spin_moments reads
        # only diagonals 0-2, so a non-finite entry elsewhere would go unseen
        if not np.all(np.isfinite(rho)):
            raise ValueError("rho has a non-finite entry")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
            raise ValueError("rho is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
            raise ValueError("rho does not have unit trace")
        # lambda_min >= -EIGENVALUE_TOL iff rho + EIGENVALUE_TOL I admits a
        # Cholesky factor: O(n^3 / 3) with no eigensolver iterations
        try:
            np.linalg.cholesky(rho + EIGENVALUE_TOL * np.eye(n + 1))
        except np.linalg.LinAlgError:
            raise ValueError("rho has a negative eigenvalue") from None
        rho.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rho", rho)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "re": self.rho.real.tolist(),
                "im": self.rho.imag.tolist()}

    @staticmethod
    def from_json_dict(obj: dict) -> "SymmetricState":
        n = json_int(obj, "n")
        with np.errstate(invalid="ignore"):  # 1j * inf: SymmetricState refuses it
            rho = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
        return SymmetricState(n, rho)


@dataclass(frozen=True)
class SpinMoments:
    jx: float
    jy: float
    jz: float
    jx2: float
    jy2: float
    jz2: float


def coherent_amplitudes(n: int, theta: float, phi: float) -> np.ndarray:
    """Dicke-basis amplitudes of n identical qubits pointing along (theta, phi).

    The amplitudes sqrt(C(n,k)) cos(θ/2)^(n-k) (sin(θ/2) e^{iφ})^k are built
    in log space and then normalised, so neither C(n,k) nor the powers
    overflow or underflow at large n."""
    k = np.arange(n + 1)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    lg = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = (0.5 * (lg[n] - lg - lg[::-1])
                   + np.where(k < n, (n - k) * np.log(abs(c)), 0.0)
                   + np.where(k > 0, k * np.log(abs(s)), 0.0))
    amps = (np.exp(log_mag - log_mag.max()) * np.sign(c) ** (n - k)
            * np.sign(s) ** k * np.exp(1j * phi * k))
    amps /= np.linalg.norm(amps)
    return amps


def coherent_state(n: int, theta: float, phi: float) -> SymmetricState:
    """Product state of n identical qubits pointing along (theta, phi)."""
    amps = coherent_amplitudes(n, theta, phi)
    return SymmetricState(n, np.outer(amps, amps.conj()))


def dicke_state(n: int, m: float) -> SymmetricState:
    """The basis state |j, m>."""
    j = n / 2.0
    idx = j - m
    if abs(m) > j or abs(idx - round(idx)) > 0:
        raise ValueError(f"invalid magnetic number m={m} for n={n}")
    vec = np.zeros(n + 1, dtype=complex)
    vec[int(round(idx))] = 1.0
    return SymmetricState(n, np.outer(vec, vec.conj()))


def ghz_state(n: int) -> SymmetricState:
    vec = np.zeros(n + 1, dtype=complex)
    vec[0] = vec[n] = 1.0 / math.sqrt(2.0)
    return SymmetricState(n, np.outer(vec, vec.conj()))


def mixture(rhos: Iterable[np.ndarray], weights) -> np.ndarray:
    """Σ w_i rho_i / Σ w_i of density-matrix arrays, summed one at a time:
    ``rhos`` may be a generator, and then only one component is held at once."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative, one per state")
    w, rho, k = w / w.sum(), 0, 0
    for k, r in enumerate(rhos, 1):
        if k > w.size:
            break
        rho = rho + w[k - 1] * r
    if k == 0 or k != w.size:
        raise ValueError("weights must be nonnegative, one per state")
    return rho


def random_state(n: int, seed: int) -> SymmetricState:
    """Full-rank random state: shifted Gaussian Hermitian, trace-normalized."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    h = (a + a.conj().T) / 2.0
    h = h - (float(np.linalg.eigvalsh(h)[0]) - 1e-3) * np.eye(n + 1)
    return SymmetricState(n, h / np.trace(h).real)


def spin_moments(state: SymmetricState) -> SpinMoments:
    """First and second collective-spin moments in O(n).

    Index i carries m_i = j - i.  J_z is diagonal, and J+ maps index i to
    i-1 with c_i = sqrt(j(j+1) - m_i(m_i+1)), so <J+> reads diagonal -1 of
    rho and <J+²> diagonal -2; <J_x> + i<J_y> = <J+>, <J_x²> - <J_y²> =
    Re<J+²> and <J_x²> + <J_y²> = j(j+1) tr rho - <J_z²>.
    """
    rho, j = state.rho, state.n / 2.0
    m = j - np.arange(state.n + 1)
    diag = np.diagonal(rho).real
    jz, jz2 = float(diag @ m), float(diag @ (m * m))
    c = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = complex(np.diagonal(rho, -1) @ c)
    jp2 = float((np.diagonal(rho, -2) @ (c[1:] * c[:-1])).real)
    perp = j * (j + 1) * float(diag.sum()) - jz2
    return SpinMoments(jp.real, jp.imag, jz,
                       0.5 * (perp + jp2), 0.5 * (perp - jp2), jz2)


def moments_from_spin(sm: SpinMoments, n: int) -> MomentVector:
    """The spin-moment dictionary: z_α = 2<J_α>, z_αα = 4<J_α²> - n."""
    return MomentVector(ProblemDims(n, 3), 1.0,
                        [2.0 * sm.jx, 2.0 * sm.jy, 2.0 * sm.jz],
                        [4.0 * sm.jx2 - n, 4.0 * sm.jy2 - n, 4.0 * sm.jz2 - n])


def spin_form_scale(pattern: tuple[int, ...], n: int) -> float:
    """Ratio spin-form residual / expanded moment-form residual (z0 = 1)."""
    if pattern == (0, 0, 0):
        return n / 2.0
    return float(n * (n - 1))


def spin_tolerance(tol: float, n: int) -> float:
    """Absolute tolerance of a spin-form residual: a row is violated when
    its residual is below minus this."""
    return tol * n * n


@dataclass(frozen=True)
class InequalityResult:
    pattern: tuple[int, ...]
    label: str
    lhs: float
    rhs: float
    residual: float
    spin_residual: float
    violated: bool


@dataclass
class WitnessReport:
    verdict: str
    moments: MomentVector
    necessary: list[InequalityResult]  # the three squeezing rows

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "moments": self.moments.to_json_dict(),
                "necessary": list(map(asdict, self.necessary))}


def entanglement_witness(state: SymmetricState, tol: float = DEFAULT_TOL) -> WitnessReport:
    """Evaluate the trivial and squeezing rows of the necessary-for-
    separability inequalities on the state's projected moments and report
    the three squeezing rows.

    Row p is base >= Σ_α (term1[α] if p_α else term0[α]) of
    ``max_form_terms``: lhs adds the picked terms in α order from 0.0, the
    residual subtracts them from base in the same order, and rhs is base.
    A row is VIOLATED when ``margin_verdict(spin_residual, tol·n²)`` says it
    is not a member.  For a symmetric state each planar-a row is the sum of
    the squeezing rows of the other two axes and the second-moment-sum row
    is 0, so the squeezing rows alone decide: EntanglementDetected when one
    is violated, Inconclusive otherwise.  A violated trivial row (variance
    sum, second-moment sum) is refused: no density matrix violates them.
    """
    n = state.n
    if n < 2:
        raise ValueError("witness needs n >= 2")
    sm = spin_moments(state)
    m = moments_from_spin(sm, n)
    terms = max_form_terms(m.z0, m.z, m.zz, n, NECESSARY)
    picked = np.where(np.array(ROWS, dtype=bool), terms.term1, terms.term0)
    lhs = fold_columns(np.add, 0.0, picked)
    res = fold_columns(np.subtract, terms.base, picked)
    spin_res = np.array([spin_form_scale(p, n) for p in ROWS]) * res
    ok = margin_verdict(spin_res, spin_tolerance(tol, n))[0]
    if not (ok[0] and ok[-1]):
        raise ValueError("state moments violate a universal quantum constraint; "
                         "the input is not a valid density matrix")
    rows = [InequalityResult(p, PATTERN_LABELS[p], float(lhs[k]), float(terms.base),
                             float(res[k]), float(spin_res[k]), not ok[k])
            for k, p in enumerate(ROWS) if p in PATTERN_LABELS]
    verdict = DETECTED if any(r.violated for r in rows) else INCONCLUSIVE
    return WitnessReport(verdict, m, rows)
