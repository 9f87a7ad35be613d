"""Clock/shift monomials, the discrete momentum basis, and exact phase arithmetic.

All phases are unit-modulus numbers omega^x with omega = exp(2*pi*i/N).
Exponents are kept as exact integers or half-integers and reduced mod N
(mod 2N in doubled units) before a single complex exponential is taken;
phases are never accumulated by repeated floating multiplication.
"""

from functools import lru_cache

import numpy as np

from .lattice import check_dim

DEFAULT_TOL = 1e-10


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


def omega(n):
    """Primitive N-th root of unity exp(2*pi*i/N)."""
    check_dim(n)
    return complex(_omega_table(n)[1 % n])


def omega_int(k, n):
    """omega^k for an exact integer exponent k."""
    return complex(_omega_table(n)[k % n])


def momentum_vector(p, n):
    """Momentum eigenstate with components omega^(-q*p)/sqrt(N)."""
    check_dim(n)
    if not 0 <= p < n:
        raise ValueError(f"momentum index {p} not in [0, {n})")
    table = _omega_table(n)
    return np.array([table[(-q * p) % n] for q in range(n)]) / np.sqrt(n)


def monomial(n_exp, m_exp, n):
    """The operator-basis element S^n_exp * P^m_exp.

    Built entrywise from exact phase classes: row i has its single nonzero
    at column j = i + n_exp mod N with value omega^(m_exp * j).
    """
    check_dim(n)
    table = _omega_table(n)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        j = (i + n_exp) % n
        out[i, j] = table[(m_exp * j) % n]
    return out


def validate_density_matrix(rho, tol=DEFAULT_TOL):
    """Raise unless rho is hermitian, unit-trace and PSD to tolerance."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
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


def random_density_matrix(n, rng):
    """Hilbert-Schmidt-random density matrix rho = X X^dag / Tr."""
    check_dim(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ x.conj().T
    return rho / rho.trace()
