"""Exact modular arithmetic on the N x N lattice phase space.

Integer lifts, determinants and gcd decompositions use plain Python
integers, so they are exact; reduction mod N happens only where a residue
is wanted. The lines of a direction are numpy index arrays (:func:`line_sites`).
SL(2, Z_M) is an int64 array of residues, written down row by row from
closed forms (:func:`sl2_enumerate`), with no search. The route audit runs
on :func:`lift_classes`, every class of integer lifts that its values can
tell apart; how large an N is worth auditing is the caller's decision
(``latwig check --audit-bound``). The covariance audit needs only
:data:`GENERATORS`: S and T generate SL(2, Z), which maps onto every
SL(2, Z_M).
"""

import math
from itertools import product

import numpy as np

from ._record import record


def check_dim(n):
    """Validate a lattice dimension N >= 1."""
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"lattice dimension must be a positive integer, got {n!r}")
    return n


def egcd(a, b):
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@record
class GcdDecomposition:
    """s = xi*sigma, t = xi*tau with gcd(sigma, tau) = 1 and xi = gcd(s, t)."""

    xi: int
    sigma: int
    tau: int


def gcd_decompose(s, t, n):
    """Split canonical residues (s, t) != (0, 0) into gcd and coprime direction."""
    check_dim(n)
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"(s, t) = ({s}, {t}) not canonical in [0, {n})")
    if s == 0 and t == 0:
        raise ValueError("(0, 0) has no gcd decomposition; handled by the axis slice directly")
    xi = math.gcd(s, t)
    return GcdDecomposition(xi=xi, sigma=s // xi, tau=t // xi)


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

    Deterministic choice: the extended-Euclid completion reduced so that
    0 <= mu < |kappa| when kappa != 0; for kappa == 0 (so lam = +-1) the
    completion is (0, lam, -lam, 0).
    """
    if math.gcd(kappa, lam) != 1:
        raise ValueError(f"({kappa}, {lam}) must be coprime to span a lattice line")
    if kappa == 0:
        return SL2Element(0, lam, -lam, 0)
    g, x, y = egcd(kappa, lam)
    nu0, mu0 = x, -y  # kappa*x + lam*y = 1  =>  kappa*nu0 - mu0*lam = 1
    mu = mu0 % abs(kappa)
    j = (mu - mu0) // kappa
    nu = nu0 + j * lam
    return SL2Element(kappa, lam, mu, nu)


def sl2_enumerate(m):
    """Every element of SL(2, Z_m) as an int64 array [element, (kappa, lam, mu, nu)] of residues in [0, m).

    Rows are in lexicographic order, the order a determinant filter of all
    m^4 residue tuples gives. For each primitive row (a, b), g = gcd(a, b)
    is a unit mod m; Euclid on (a/g, b/g) gives one completion (c0, d0) with
    a*d0 - b*c0 = 1 mod m, and the m completions are (c0 + j*a, d0 + j*b).
    """
    check_dim(m)
    if m == 1:
        return np.zeros((1, 4), dtype=np.int64)
    rows = [(a, b) for a, b in product(range(m), repeat=2) if math.gcd(a, b, m) == 1]
    first = np.empty((len(rows), 2), dtype=np.int64)
    for i, (a, b) in enumerate(rows):
        g = math.gcd(a, b)
        _, x, y = egcd(a // g, b // g)  # (a/g)*x + (b/g)*y = 1
        unit = pow(g, -1, m)
        first[i] = (-y * unit) % m, (x * unit) % m
    ab = np.array(rows, dtype=np.int64)
    c, d = ((first[:, [i]] + np.arange(m) * ab[:, [i]]) % m for i in (0, 1))
    cd = np.sort(c * m + d, axis=1).ravel()  # each row's completions in (c, d) order
    return np.column_stack([np.repeat(ab, m, axis=0), cd // m, cd % m])


def lift_classes(n):
    """The classes of integer lifts of SL(2, Z_N) that the route audit must tell apart.

    A route value omega^(phi'(t,s)) depends on a lift only through
    2*phi' mod 2N, a polynomial in its entries mod 2N. For odd N every term
    of 2*phi' is even and 2*phi' mod N depends only on the residues mod N,
    so by the CRT 2*phi' mod 2N depends only on the class mod N: one class
    per element, :func:`sl2_enumerate` (N). For even N it is
    :func:`sl2_enumerate` (2N), the 8 classes mod 2N above each element.
    SL(2, Z) maps onto SL(2, Z_2N), so every integer lift with determinant 1
    lies in one of these classes.
    """
    check_dim(n)
    return sl2_enumerate(n if n % 2 else 2 * n)


def line_sites(g, n):
    """The sites of all N lines of the direction (kappa, lam), as [p0, r] arrays.

    Returns ``(q, p)`` with q[p0, r] = (kappa*r + mu*p0) mod N and
    p[p0, r] = (lam*r + nu*p0) mod N: row p0 holds the line
    kappa*p - lam*q = p0 (mod N), in the order of r.
    """
    kappa, lam, mu, nu = g.residues(n)
    p0, r = np.indices((n, n))
    return (kappa * r + mu * p0) % n, (lam * r + nu * p0) % n

