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
The projector check builds them a block of lines at a time and compares
each with the spectral projector (1/N) sum_k omega^(k*p0) V^k of the
direction unitary V, built from V's exact monomial powers: O(N^2) memory,
and no dense product or eigendecomposition.

The grid is stored complex even though it is real for hermitian operator
sets: a grid read from elsewhere need not be, and its imaginary part must
remain representable so that violations can be reported instead of
silently truncated.
"""

import math

import numpy as np

from ._record import record
from .lattice import SL2Element, check_dim, line_sites
from .operators import DEFAULT_TOL, CheckResult, _omega_table, _result, square_dim


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
    """The N line sums M[p0] = sum over line p0's sites of D(q,p), indexed [p0, i, j]."""
    check_dim(n)
    [(_, m)] = _line_blocks(g, n, n)
    return m


def _line_blocks(g, n, step):
    """Yield (first label, m[line, i, j]): the direction's line sums, `step` lines at a time in label order.

    Site r of a line adds the N nonzeros of its operator D(q, p), row i's at
    column (2q - i) mod N with value omega^(p*(2q - 2i)) / N read from the
    exact integer-exponent table. The sites r0 + k*L, L = N / gcd(kappa, N),
    of a line share q and so put their nonzeros on the same entries; no
    other sites do. Each entry adds its d = N / L values in k order, which
    is r order, as adding the dense operators would, with
    ``np.add.accumulate``, whose k-th output is by definition the (k-1)-th
    plus the k-th input. The first value is never -0.0, so starting from it
    instead of from 0 keeps every bit.
    """
    q, p = line_sites(g, n)
    period = n // math.gcd(g.kappa % n, n)
    rows = np.arange(n)[:, np.newaxis]
    # Tables indexed by residues, so that no N^2 array is reduced mod N per
    # block: omega^x / N at x and x + N, then, flat at i*N + x, i*x mod N and
    # the index of row i's nonzero on the antidiagonal i + j = x. The values
    # are laid out [i, r0], so that each row's reads and writes stay in its row.
    value = np.tile(_omega_table(n) / n, 2)
    product = (rows * np.arange(n) % n).ravel()
    place = (rows * n + (np.arange(n) - rows) % n).ravel()
    for start in range(0, n, step):
        two_q = 2 * q[start:start + step, np.newaxis, :period] % n  # [line, 1, r0]
        lines = len(two_q)
        p_sites = p[start:start + step].reshape(lines, -1, 1, period)  # [line, k, 1, r0]
        # The exponent p*(2q - 2i) is p*2q - i*(2p) mod N.
        exponents = p_sites * two_q[:, np.newaxis] % n + n - product.take(rows * n + 2 * p_sites % n)
        values = value.take(exponents)  # [line, k, i, r0]
        m = np.zeros((lines, n * n), dtype=complex)
        m[np.arange(lines)[:, np.newaxis, np.newaxis], place.take(rows * n + two_q)] = (
            values[:, 0] if period == n else np.add.accumulate(values, axis=1)[:, -1]
        )
        del exponents, values  # freed before the caller checks the block, which then reuses their pages
        yield start, m.reshape(lines, n, n)


def _direction_monomial(g, n):
    """The direction unitary V = omega^((N-1)*kappa*lam/2) S^kappa P^lam, for odd N,
    by its exponents: row i holds omega^e[i] at column i + kappa mod N.

    The scalar makes V^N = 1 with the eigenvalue labels aligned so that the
    line sum at label p0 projects onto the omega^(-p0) eigenspace; its
    exponent is added to the monomial's, so each nonzero is one entry of
    the exact omega table. Returns e, in [0, N).
    """
    check_dim(n)
    if n % 2 == 0:
        raise ValueError("direction unitary phase is defined here for odd N only")
    kappa, lam = g.kappa % n, g.lam % n
    return ((n - 1) // 2 * kappa * lam + lam * (np.arange(n) + kappa)) % n


def _direction_powers(g, n):
    """V^0, ..., V^(N-1) by their nonzeros, as [i, k] arrays: row i of V^k holds
    omega^E[i, k] at column (i + k*kappa) mod N, whose flat index is F[i, k].

    E[i, k] is the sum of V's exponents on rows i, i + kappa, ..., i + (k-1)*kappa,
    exact in int64 (it is below N^2). Returns (F, E mod N).
    """
    rows = np.arange(n)[:, np.newaxis]
    columns = (rows + g.kappa % n * np.arange(n)) % n
    steps = _direction_monomial(g, n)[columns]
    return rows * n + columns, (np.cumsum(steps, axis=1) - steps) % n


def _eigenvalue_multiplicities(g, n):
    """The multiplicity of omega^(-p0) in spec(V) for every label p0, counted exactly.

    V is a monomial: i -> i + kappa mod N splits the rows into d = gcd(kappa, N)
    cycles i = c mod d of length L = N / d. On a cycle whose exponents sum to
    E, V^L is omega^E, and V has the L distinct L-th roots of omega^E as
    eigenvalues, one each. So omega^(-p0) is an eigenvalue once per cycle
    with -p0*L = E mod N.
    """
    exponents = _direction_monomial(g, n)
    d = math.gcd(g.kappa % n, n)
    cycle_sums = exponents.reshape(n // d, d).sum(axis=0)  # row a*d + c lies on cycle c
    labels = np.arange(n)[:, np.newaxis]
    return ((-labels * (n // d) - cycle_sums) % n == 0).sum(axis=1)


@record
class LineProjectorReport:
    """Whether a direction's N line sums are the rank-1 spectral projectors of its unitary.

    The residual |M - Pi| is indexed [p0, i, j], so a witness names the
    failing line.
    """

    projector: CheckResult
    eigenvalue_multiplicity: int  # the largest over the line labels

    @property
    def passed(self):
        return self.projector.passed and self.eigenvalue_multiplicity == 1

    @property
    def max_violation(self):
        return self.projector.max_violation

    def to_json_dict(self):
        return {
            "pass": self.passed,
            "max_violation": float(self.max_violation),
            "eigenvalue_multiplicity": self.eigenvalue_multiplicity,
        }


# Bytes of line sums `line_projector_check` holds at once: a block of whole
# lines, at least one. Each line sum takes 16*N^2 bytes, 8.5 kB at N = 23,
# so 7 lines a block there, and one line from N = 47 on. The block's
# temporaries take several times as much: a block of all 23 lines raised
# the peak RSS of `marginal --n 23` by 1 MiB.
BLOCK_BYTES = 1 << 16


def line_projector_check(n, g, tol=DEFAULT_TOL):
    """Verify that each line sum of the direction is the rank-1 spectral projector of its unitary.

    The line sum M at label p0 is compared entry by entry with
    Pi = (1/N) sum_{k<N} omega^(k*p0) V^k, for V the direction unitary of
    :func:`_direction_monomial` (Wootters, Ann. Phys. 176, 1 (1987)). As
    V^N = 1, V is a unitary whose eigenvalues mu are N-th roots of unity,
    and (1/N) sum_k (omega^p0 mu)^k is 1 at mu = omega^(-p0) and 0 at every
    other: Pi is the orthogonal projector onto V's omega^(-p0) eigenspace.
    So M = Pi holds with a multiplicity of 1 exactly when M is the rank-1
    projector onto that eigenvector. The multiplicity is counted from V's
    cycles rather than assumed to be one. V has N eigenvalues, each an N-th
    root, so every label's multiplicity is 1 exactly when the largest is.

    V^k is a monomial (:func:`_direction_powers`), so Pi's entry at
    row i and column i + k*kappa is omega^(k*p0 + E) / N read from the exact
    omega table, summed over the d = gcd(kappa, N) powers k + t*N/d that
    share the column. Where kappa is a unit mod N, d = 1: each entry is one
    table read, as each of M's is, and a correct M matches Pi to the bit.

    The lines are built and checked in label order, a block of whole lines
    of at most BLOCK_BYTES at a time, so the check holds O(N^2) memory and
    calls no BLAS or LAPACK routine.
    """
    if n % 2 == 0:
        raise ValueError("no valid operator set exists for even N")
    return _projector_report(n, g, tol, _line_blocks(g, n, max(1, BLOCK_BYTES // (16 * n * n))))


def _projector_report(n, g, tol, blocks):
    """The check of :func:`line_projector_check` on line sums given as
    (first label, m[line, i, j]) blocks of consecutive labels, in label order.

    It keeps the largest residual over the blocks and the first failing
    block's witness, whose label is offset by the block's start.
    """
    place, exponents = _direction_powers(g, n)
    period = n // math.gcd(g.kappa % n, n)
    place = place[:, :period]  # the powers k + t*period put row i's nonzero at the same place
    value = np.tile(_omega_table(n) / n, 2)  # omega^x / N at x and x + N

    def check(start, m):
        lines = len(m)
        labels = start + np.arange(lines)
        # [line, i, k]: omega^(k*p0 + E[i, k]) / N, each exponent below 2N.
        terms = value.take((labels[:, np.newaxis] * np.arange(n) % n)[:, np.newaxis] + exponents)
        projector = np.zeros((lines, n * n), dtype=complex)
        projector[:, place] = terms if period == n else terms.reshape(lines, n, -1, period).sum(axis=2)
        residual = np.abs(np.subtract(m.reshape(lines, n * n), projector, out=projector))
        return _result("projector", residual.reshape(lines, n, n), tol, lambda b, *i: (start + b, *i))

    found = [check(start, m) for start, m in blocks]
    first = next((r for r in found if not r.passed), found[0])
    return LineProjectorReport(
        CheckResult(first.name, first.passed, max(r.max_violation for r in found), first.witness),
        eigenvalue_multiplicity=int(_eigenvalue_multiplicities(g, n).max()),
    )
