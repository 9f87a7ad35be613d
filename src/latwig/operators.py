"""Exact phase tables, the discrete momentum basis, states, check results.

All phases are unit-modulus numbers omega^x with omega = exp(2*pi*i/N).
Exponents are kept as exact integers or half-integers and reduced mod N
(mod 2N in doubled units) before a single complex exponential is taken;
phases are never accumulated by repeated floating multiplication.

:class:`CheckResult` and :func:`_result` are the outcome of an audit,
shared by the table audits of :mod:`latwig.fano` and the line checks of
:mod:`latwig.wigner`, so that neither module imports the other.
"""

from functools import lru_cache

import numpy as np

from ._record import record
from .lattice import check_dim

DEFAULT_TOL = 1e-10


@record
class CheckResult:
    """Outcome of one audited condition; max violation kept even on pass.

    The witness is the failing index, followed by the entries of the lift
    or lifts it failed under where the check runs over group elements.
    """

    name: str
    passed: bool
    max_violation: float
    witness: tuple | None = None

    def to_json_dict(self):
        witness = None if self.witness is None else [int(x) for x in self.witness]
        return {"pass": self.passed, "max_violation": float(self.max_violation), "witness": witness}


def _result(name, residuals, tol, witness_at=lambda *i: i):
    """Build a CheckResult from a residual-magnitude array.

    The witness is the lexicographically first index whose violation
    exceeds tolerance, the one a scan in index order meets first, however
    the residuals were computed. ``witness_at`` maps it to the index of the
    dense array that ``residuals`` stands for, which a scan of that array
    would name first.
    """
    res = np.asarray(residuals)
    max_violation = float(res.max()) if res.size else 0.0
    if max_violation <= tol:
        return CheckResult(name, True, max_violation)
    first = int((res > tol).argmax())  # the first True in C order, as a scan meets it
    return CheckResult(name, False, max_violation, witness_at(*(int(i) for i in np.unravel_index(first, res.shape))))


@lru_cache(maxsize=None)
def _omega_table(n):
    """omega^k for k = 0..N-1, read-only."""
    table = np.exp(2j * np.pi * np.arange(n) / n)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _half_omega_table(n):
    """omega^(k/2) for k = 0..2N-1 (doubled-exponent units), read-only."""
    table = np.exp(1j * np.pi * np.arange(2 * n) / n)
    table.setflags(write=False)
    return table


def momentum_vector(p, n):
    """Momentum eigenstate with components omega^(-q*p)/sqrt(N)."""
    check_dim(n)
    if not 0 <= p < n:
        raise ValueError(f"momentum index {p} not in [0, {n})")
    table = _omega_table(n)
    return np.array([table[(-q * p) % n] for q in range(n)]) / np.sqrt(n)


def square_dim(rho):
    """N of an N x N array rho, N >= 1; any other shape is refused."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    return check_dim(rho.shape[0])


def validate_density_matrix(rho, tol=DEFAULT_TOL):
    """Raise unless rho is hermitian, unit-trace and PSD to tolerance."""
    rho = np.asarray(rho, dtype=complex)
    square_dim(rho)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > tol:
        raise ValueError(f"density matrix not hermitian: max deviation {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace {tr} != 1")
    lo = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if lo < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def basis_state_density(q, n):
    """|q><q| in the position basis."""
    check_dim(n)
    if not 0 <= q < n:
        raise ValueError(f"basis index {q} not in [0, {n})")
    rho = np.zeros((n, n), dtype=complex)
    rho[q, q] = 1.0
    return rho


def momentum_state_density(p, n):
    """|p><p| built from the momentum eigenvector."""
    v = momentum_vector(p, n)
    return np.outer(v, v.conj())


def maximally_mixed(n):
    """I/N."""
    check_dim(n)
    return np.eye(n, dtype=complex) / n


# Substream tag of the generator the command line draws a random state
# from, rng([seed, STATE_STREAM_KEY]); clear of the tomography family indices.
STATE_STREAM_KEY = 0x5747


def random_density_matrix(n, rng):
    """Hilbert-Schmidt-random density matrix rho = X X^dag / Tr."""
    check_dim(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ x.conj().T
    return rho / rho.trace()
