"""Density matrix <-> Wigner grid transforms and tilted-line marginals.

The grid is stored complex even though it is real for hermitian operator
sets: the even-N candidate produces non-hermitian phase-point operators and
its complex "Wigner" output must remain representable so that violations
can be reported instead of silently truncated.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fano import CheckResult, _result, _site_gram_residuals
from .lattice import SL2Element, check_dim, line_sites
from .operators import DEFAULT_TOL, monomial, omega_int


@dataclass(frozen=True)
class WignerGrid:
    """Quasi-probability values on the N x N lattice, indexed [q, p]."""

    n: int
    values: np.ndarray

    def total(self):
        return complex(self.values.sum())

    def max_imag(self):
        return float(np.abs(self.values.imag).max())

    def to_json_dict(self, tol=DEFAULT_TOL):
        im = self.values.imag if self.max_imag() > tol else None
        return {"n": self.n, "re": self.values.real, "im": im}


@dataclass(frozen=True)
class MarginalDistribution:
    """Line-sum weights of one direction, indexed by the line label p0."""

    element: SL2Element
    weights: np.ndarray

    def to_json_dict(self):
        return {
            "kappa": self.element.kappa,
            "lambda": self.element.lam,
            "mu": self.element.mu,
            "nu": self.element.nu,
            "weights": self.weights,
        }


def wigner_from_density(rho, f):
    """W(q,p) = Tr[D(q,p) rho] at every lattice site.

    rho is not validated as a density matrix: this is a linear map defined
    on every N x N matrix, and callers (the round trip through
    `density_from_wigner`, for one) feed it matrices that are not PSD.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (f.n, f.n):
        raise ValueError(f"density matrix shape {rho.shape} does not match N = {f.n}")
    return WignerGrid(f.n, np.einsum("qpij,ji->qp", f.operators, rho))


def density_from_wigner(w, f):
    """rho = N * sum_qp D(q,p)^dag W(q,p); exact inverse for orthogonal sets."""
    if w.n != f.n:
        raise ValueError(f"grid dimension {w.n} does not match operator set {f.n}")
    if _site_gram_residuals(f).max() > 1e-8:
        raise ValueError("operator set is not trace-orthogonal; inverse not guaranteed")
    return f.n * np.einsum("qp,qpji->ij", w.values, f.operators.conj())


def marginal_along_line(w, g):
    """Sum W over each line of the direction (kappa, lam), labelled by p0.

    Weights are returned as the real part; realness of the grid itself is
    a separate audited property, not silently assumed here.
    """
    q, p = line_sites(g, w.n)
    # Python's sum adds the columns r = 0..N-1 in order, starting from 0, as a
    # per-line loop does; np.sum would add pairwise and move the last bits of
    # the weights, which the artifacts record.
    return MarginalDistribution(element=g, weights=sum(w.values.real[q, p].T))


def line_sum_operator(f, g, p0):
    """M = sum over the line's sites of D(q,p), added in the line's r order."""
    q, p = line_sites(g, f.n)
    p0 = p0 % f.n
    return f.operators[q[p0], p[p0]].sum(axis=0)


def direction_unitary(g, n):
    """V = omega^((N-1)*kappa*lam/2) S^kappa P^lam, for odd N.

    The scalar makes V^N = 1 with the eigenvalue labels aligned so that the
    line sum at label p0 projects onto the omega^(-p0) eigenspace.
    """
    check_dim(n)
    if n % 2 == 0:
        raise ValueError("direction unitary phase is defined here for odd N only")
    scale = omega_int(((n - 1) * g.kappa * g.lam // 2), n)
    return scale * monomial(g.kappa % n, g.lam % n, n)


@lru_cache(maxsize=64)
def _direction_spectrum(g, n):
    """direction_unitary(g, n) and its eigenvalues, read-only.

    The N line labels of one direction share them, so each direction pays
    for one eigendecomposition, not N.
    """
    v = direction_unitary(g, n)
    eigvals = np.linalg.eigvals(v)
    v.setflags(write=False)
    eigvals.setflags(write=False)
    return v, eigvals


@dataclass(frozen=True)
class LineProjectorReport:
    """Spectral verification that a line sum is the right rank-1 projector."""

    hermitian: CheckResult
    idempotent: CheckResult
    trace: CheckResult
    eigen_relation: CheckResult
    eigenvalue_multiplicity: int

    @property
    def passed(self):
        return (
            self.hermitian.passed
            and self.idempotent.passed
            and self.trace.passed
            and self.eigen_relation.passed
            and self.eigenvalue_multiplicity == 1
        )

    @property
    def max_violation(self):
        return max(
            self.hermitian.max_violation,
            self.idempotent.max_violation,
            self.trace.max_violation,
            self.eigen_relation.max_violation,
        )

    def to_json_dict(self):
        return {
            "pass": self.passed,
            "max_violation": float(self.max_violation),
            "eigenvalue_multiplicity": self.eigenvalue_multiplicity,
        }


def line_projector_check(f, g, p0, tol=DEFAULT_TOL):
    """Verify the line sum is the spectral projector of the direction unitary.

    Checks, without ever constructing the conjugating unitary: M = M^dag,
    M^2 = M, Tr M = 1, and V M = omega^(-p0) M for V = direction_unitary(g).
    The multiplicity of omega^(-p0) in spec(V) is reported rather than
    assumed to be one.
    """
    n = f.n
    if n % 2 == 0:
        raise ValueError("no valid operator set exists for even N")
    p0 = p0 % n
    m = line_sum_operator(f, g, p0)
    v, eigvals = _direction_spectrum(g, n)
    target = omega_int(-p0, n)
    res_h = np.abs(m - m.conj().T)
    res_i = np.abs(m @ m - m)
    res_t = np.abs(np.array([m.trace() - 1.0]))
    res_e = np.abs(v @ m - target * m)
    multiplicity = int(np.sum(np.abs(eigvals - target) < 1e-6))
    return LineProjectorReport(
        hermitian=_result("projector_hermitian", res_h, tol),
        idempotent=_result("projector_idempotent", res_i, tol),
        trace=_result("projector_trace", res_t, tol),
        eigen_relation=_result("projector_eigen_relation", res_e, tol),
        eigenvalue_multiplicity=multiplicity,
    )
