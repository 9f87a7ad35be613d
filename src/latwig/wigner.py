"""Density matrix <-> Wigner grid transforms and tilted-line marginals.

The operators are the unique odd-N solution, the displaced parity
D(q,p)[i,j] = (1/N) delta(i + j = 2q) omega^(p*(j - i)), indices mod N
(Wootters, Ann. Phys. 176, 1 (1987)): every entry is a function of
(q, p, i) and N, so each function here takes N from its data. With
i = q - k and j = q + k the transform pair is

    W(q,p) = (1/N) sum_k rho[q+k, q-k] omega^(2pk),
    rho[q+k, q-k] = sum_p W(q,p) omega^(-2pk),

so either direction is one N x N gather or scatter of rho, one batch of N
length-N FFTs and the column permutation p -> 2p mod N: O(N^2 log N) time
and O(N^2) memory. The line sums of a direction are an O(N^3) scatter of
the operators' N nonzeros per row, added in the order of the lines' sites.

The grid is stored complex even though it is real for hermitian operator
sets: a grid read from elsewhere need not be, and its imaginary part must
remain representable so that violations can be reported instead of
silently truncated.
"""

import numpy as np

from ._record import record
from .lattice import SL2Element, check_dim, line_sites
from .operators import DEFAULT_TOL, CheckResult, _omega_table, _result, monomial, omega_int, square_dim


@record
class WignerGrid:
    """Quasi-probability values on the N x N lattice, indexed [q, p]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values) != (self.n, self.n):
            raise ValueError(f"WignerGrid values must have shape {(self.n, self.n)}, got {np.shape(self.values)}")

    def total(self):
        return complex(self.values.sum())

    def max_imag(self):
        return float(np.abs(self.values.imag).max())

    def to_json_dict(self, tol=DEFAULT_TOL):
        im = self.values.imag if self.max_imag() > tol else None
        return {"n": self.n, "re": self.values.real, "im": im}


@record
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


def wigner_from_density(rho):
    """W(q,p) = Tr[D(q,p) rho] at every lattice site; N is rho's dimension.

    rho is not validated as a density matrix: this is a linear map defined
    on every N x N matrix, and callers (the round trip through
    `density_from_wigner`, for one) feed it matrices that are not PSD.
    """
    rho = np.asarray(rho, dtype=complex)
    n = square_dim(rho)
    plus, minus, doubled = _fold(n)
    # y[q, m] = sum_k rho[q+k, q-k] omega^(mk); W(q,p) = y[q, 2p] / N.
    y = np.fft.ifft(rho[plus, minus], axis=1, norm="forward")
    return WignerGrid(n, y[:, doubled] / n)


def density_from_wigner(w):
    """rho = N * sum_qp D(q,p)^dag W(q,p), the exact inverse for odd N = w.n.

    An even N raises ValueError: the operators are trace-orthogonal,
    Tr[D(q,p) D(q',p')^dag] = (1/N) delta(q,q') delta(p,p'), exactly when N
    is odd. This is decided from their structure, with no Gram product. The
    supports of D(q,.) and D(q',.) are disjoint unless 2q = 2q' mod N, and
    on one support the phases omega^(p*(2q - 2i)) of the N rows i are N
    distinct characters of p unless i -> 2i mod N repeats a value. Both maps
    are injective exactly when 2 is a unit mod N. For even N, q and q + N/2
    share a support, and Tr[D(q,p) D(q,p + N/2)^dag] has modulus 1/N.
    """
    n = w.n
    if n % 2 == 0:
        raise ValueError("operator set is not trace-orthogonal; inverse not guaranteed")
    plus, minus, doubled = _fold(n)
    z = np.empty((n, n), dtype=complex)
    z[:, doubled] = w.values
    rho = np.empty((n, n), dtype=complex)
    # fft(z)[q, k] = sum_p W(q,p) omega^(-2pk) = rho[q+k, q-k].
    rho[plus, minus] = np.fft.fft(z, axis=1)
    return rho


def _fold(n):
    """The index maps of the transform pair: (q+k, q-k) mod N as [q, k]
    arrays, and p -> 2p mod N. For odd N each is a bijection."""
    q, k = np.indices((n, n))
    return (q + k) % n, (q - k) % n, (2 * np.arange(n)) % n


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


def line_sum_operators(n, g):
    """The N line sums M[p0] = sum over line p0's sites of D(q,p), indexed [p0, i, j].

    Each sum adds the line's operators in r order, one site of every line
    at a time: site r adds the N nonzeros of its operator, row i's at
    column (2q - i) mod N with value omega^(p*(j - i)) / N read from the
    exact integer-exponent table. An entry that several sites share
    collects them in r order, as adding the dense operators would.
    """
    check_dim(n)
    q, p = line_sites(g, n)
    m = np.zeros((n, n, n), dtype=complex)
    lines, rows, om = np.arange(n)[:, np.newaxis], np.arange(n), _omega_table(n)
    for r in range(n):
        cols = (2 * q[:, r, np.newaxis] - rows) % n
        m[lines, rows, cols] += om[(p[:, r, np.newaxis] * (cols - rows)) % n] / n
    return m


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


@record
class LineProjectorReport:
    """Spectral verification that a direction's N line sums are its rank-1 projectors.

    The residuals are indexed by the line label first ([p0] for the trace,
    [p0, i, j] for the others), so a witness names the failing line.
    """

    hermitian: CheckResult
    idempotent: CheckResult
    trace: CheckResult
    eigen_relation: CheckResult
    eigenvalue_multiplicity: int  # the largest over the line labels

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


def line_projector_check(n, g, tol=DEFAULT_TOL):
    """Verify each line sum of the direction is a spectral projector of its unitary.

    Checks, for every label p0 and without ever constructing the
    conjugating unitary: M = M^dag, M^2 = M, Tr M = 1, and
    V M = omega^(-p0) M for M the line sum and V = direction_unitary(g).
    The multiplicity of omega^(-p0) in spec(V) is counted rather than
    assumed to be one. As V^N = 1, its N eigenvalues are N-th roots of
    unity, so every label's multiplicity is 1 exactly when the largest is.
    """
    if n % 2 == 0:
        raise ValueError("no valid operator set exists for even N")
    return _projector_report(line_sum_operators(n, g), g, tol)


def _projector_report(m, g, tol):
    """The checks of :func:`line_projector_check` on a stack m[p0, i, j] of N line sums."""
    n = m.shape[0]
    v = direction_unitary(g, n)
    target = np.array([omega_int(-p0, n) for p0 in range(n)])
    multiplicity = (np.abs(np.linalg.eigvals(v) - target[:, None]) < 1e-6).sum(axis=1).max()
    # Each residual is reduced to its result before the next is formed, so
    # at most one N^3 residual is alive next to m.
    return LineProjectorReport(
        hermitian=_result("projector_hermitian", np.abs(m - m.conj().transpose(0, 2, 1)), tol),
        idempotent=_result("projector_idempotent", np.abs(m @ m - m), tol),
        trace=_result("projector_trace", np.abs(np.trace(m, axis1=1, axis2=2) - 1.0), tol),
        eigen_relation=_result("projector_eigen_relation", np.abs(v @ m - target[:, None, None] * m), tol),
        eigenvalue_multiplicity=int(multiplicity),
    )
