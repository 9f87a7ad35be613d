"""Exact phase tables, the discrete momentum basis, states, check results.

All phases are unit-modulus numbers omega^x with omega = exp(2*pi*i/N).
Exponents are kept as exact integers or half-integers and reduced mod N
(mod 2N in doubled units) before a single complex exponential is taken;
phases are never accumulated by repeated floating multiplication.

:class:`CheckResult` and :func:`_scan`, the one verdict rule of an audit,
are shared by the table audits of :mod:`latwig.fano` and the line checks
of :mod:`latwig.wigner`, so that neither module imports the other.
"""

from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import DEFAULT_TOL
from .lattice import check_dim
from .phases import half_omega


class CheckResult(namedtuple("CheckResult", "name passed max_violation witness", defaults=(None,))):
    """Outcome of one audited condition; max violation kept even on pass.

    The witness, None on a pass, is the failing index, followed by the
    entries of the lift or lifts it failed under where the check runs over
    group elements.
    """

    __slots__ = ()


def _scan(name, blocks, tol):
    """Fold ``(residuals, witness_at)`` blocks, given in scan order, into a CheckResult.

    A residual fails unless it is ``<= tol``, so a NaN fails; the max
    violation is the NaN-propagating max over every block. The witness is
    ``witness_at`` of the first failing C-order index of the first block
    that has one, the index a scan of the array the blocks stand for meets
    first. The fold lets go of each block before it asks for the next.
    """
    maxima, witness = [], None
    for block, witness_at in blocks:
        res = np.asarray(block)
        if res.size:
            maxima.append(res.max())
            if witness is None and not maxima[-1] <= tol:
                first = int((res <= tol).argmin())  # the first False in C order, as a scan meets it
                witness = witness_at(*(int(i) for i in np.unravel_index(first, res.shape)))
        del block, res
    return CheckResult(name, witness is None, float(np.max(maxima)) if maxima else 0.0, witness)


def _result(name, residuals, tol, witness_at=lambda *i: i):
    """:func:`_scan` of the one block ``residuals``."""
    return _scan(name, [(residuals, witness_at)], tol)


@lru_cache(maxsize=None)
def _half_omega_table(n):
    """omega^(k/2) for k = 0..2N-1 (doubled-exponent units), read-only: :func:`~latwig.phases.half_omega`."""
    table = np.empty(2 * n, dtype=complex)
    table.real, table.imag = half_omega(n)
    table.setflags(write=False)
    return table


def _omega_table(n):
    """omega^k for k = 0..N-1, read-only: every second entry of :func:`_half_omega_table`, a view."""
    return _half_omega_table(n)[::2]


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
    """Raise unless rho is finite, hermitian, unit-trace and PSD to tolerance."""
    rho = np.asarray(rho, dtype=complex)
    square_dim(rho)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has a non-finite entry")
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
