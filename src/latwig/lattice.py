"""Exact modular arithmetic on the N x N lattice phase space.

Integer lifts and determinants use plain Python integers, so they are
exact; reduction mod N happens only where a residue is wanted. The lines
of a direction are numpy index arrays (:func:`line_sites`). The order of
SL(2, Z_N) (:func:`sl2_order`) is a closed form in the primes of N.
:func:`first_completions` completes rows to group elements by a closed
form; the route audit completes only the two rows of its witness. The
covariance audit needs only :data:`GENERATORS`: S and T generate
SL(2, Z), which maps onto every SL(2, Z_M).
"""

import math

import numpy as np

from ._record import record


def check_dim(n):
    """Validate a lattice dimension N >= 1."""
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"lattice dimension must be a positive integer, got {n!r}")
    return n


@record
class SL2Element:
    """Integer lift of an SL(2, Z_N) element, with exact determinant 1.

    The entries are plain integers, not residues: kappa*nu - mu*lam == 1
    holds over Z, not merely mod N. Residue classes are recovered with
    :meth:`residues`.
    """

    kappa: int
    lam: int
    mu: int
    nu: int

    def __post_init__(self):
        det = self.kappa * self.nu - self.mu * self.lam
        if det != 1:
            raise ValueError(f"determinant must be exactly 1, got {det} for {self}")

    def residues(self, n):
        check_dim(n)
        return (self.kappa % n, self.lam % n, self.mu % n, self.nu % n)

    def as_tuple(self):
        return (self.kappa, self.lam, self.mu, self.nu)


# S and T, which generate SL(2, Z); their residues generate SL(2, Z_M) for every M.
GENERATORS = (SL2Element(0, 1, -1, 0), SL2Element(1, 1, 0, 1))


def sl2_complete(kappa, lam):
    """Complete coprime (kappa, lam) to an SL2Element with kappa*nu - mu*lam = 1.

    Deterministic choice: the one completion with 0 <= mu < |kappa| when
    kappa != 0, mu = -lam^-1 mod |kappa|; for kappa == 0 (so lam = +-1) the
    completion is (0, lam, -lam, 0).
    """
    if math.gcd(kappa, lam) != 1:
        raise ValueError(f"({kappa}, {lam}) must be coprime to span a lattice line")
    if kappa == 0:
        return SL2Element(0, lam, -lam, 0)
    mu = -pow(lam, -1, abs(kappa)) % abs(kappa)
    return SL2Element(kappa, lam, mu, (1 + mu * lam) // kappa)


def sl2_order(n):
    """|SL(2, Z_N)| = N^3 prod_p (1 - 1/p^2) over the primes p | N, exactly: N completions of each primitive row."""
    check_dim(n)
    order = n**3
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1)):
            order = order // p**2 * (p**2 - 1)
    return order


def first_completions(rows, m):
    """For each primitive row (x, y) mod m, the first (u, w) in [0, m)^2 with x*w - y*u = 1 mod m.

    With g = gcd(x, m), y is a unit mod g and x/g one mod m/g. Reducing
    x*w - y*u = 1 mod g forces u = -y^-1 mod g, and every such u has the
    completions w = ((1 + y*u)/g) (x/g)^-1 mod m/g, so the first is u
    reduced mod g and then w reduced mod m/g.
    """
    out = np.empty_like(rows)
    for i, (x, y) in enumerate(rows.tolist()):
        g = math.gcd(x, m)
        u = -pow(y, -1, g) % g
        out[i] = u, (1 + y * u) // g * pow(x // g, -1, m // g) % (m // g)
    return out


def line_sites(g, n):
    """The sites of all N lines of the direction (kappa, lam), as [p0, r] arrays.

    Returns ``(q, p)`` with q[p0, r] = (kappa*r + mu*p0) mod N and
    p[p0, r] = (lam*r + nu*p0) mod N: row p0 holds the line
    kappa*p - lam*q = p0 (mod N), in the order of r.
    """
    kappa, lam, mu, nu = g.residues(n)
    r = np.arange(n)

    def residue(x, y):  # (x*r + y*p0) mod N from the reduced 1-D terms, with no N x N division
        sites = x * r % n + (y * r % n)[:, np.newaxis]
        sites -= n * (sites >= n)
        return sites

    return residue(kappa, mu), residue(lam, nu)

