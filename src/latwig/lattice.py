"""Exact modular arithmetic on the N x N lattice phase space.

Group elements, determinants and gcd decompositions use plain Python
integers, so they are exact; reduction mod N happens only where a residue
is wanted. The lines of a direction are numpy index arrays (:func:`line_sites`).
SL(2, Z_N) is written down row by row from closed forms (:func:`sl2_enumerate`)
for any N, with a second integer lift per element (:func:`sl2_lifts`) for
the route audit; how large an N is worth auditing is the caller's decision
(``latwig check --audit-bound``). The covariance audit needs only
:data:`GENERATORS`: S and T generate SL(2, Z), which maps onto every
SL(2, Z_M).
"""

import math
from dataclasses import dataclass
from itertools import count, groupby, product

import numpy as np


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def compose(self, other):
        """Exact integer 2x2 matrix product, rows (kappa, lam) / (mu, nu)."""
        return SL2Element(
            kappa=self.kappa * other.kappa + self.lam * other.mu,
            lam=self.kappa * other.lam + self.lam * other.nu,
            mu=self.mu * other.kappa + self.nu * other.mu,
            nu=self.mu * other.lam + self.nu * other.nu,
        )

    def as_tuple(self):
        return (self.kappa, self.lam, self.mu, self.nu)


IDENTITY = SL2Element(1, 0, 0, 1)

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


def _coprime_lift(a, b, n):
    """Lift residues (a, b) with gcd(a, b, n) = 1 to a coprime integer pair."""
    for i, j in product(range(5), range(5)):
        if math.gcd(a + i * n, b + j * n) == 1:
            return a + i * n, b + j * n
    raise ValueError(f"no coprime lift found for ({a}, {b}) mod {n}")


def _land_completion(base, mu_res, nu_res, n):
    """The completion of base's row (kappa, lam) whose (mu, nu) lie in given residue classes.

    The general solution of kappa*nu - mu*lam = 1 is (mu0 + j*kappa,
    nu0 + j*lam); as kappa*nu0 - mu0*lam = 1, j = nu0*mu_res - mu0*nu_res mod N.
    """
    j = (base.nu * mu_res - base.mu * nu_res) % n
    return SL2Element(base.kappa, base.lam, base.mu + j * base.kappa, base.nu + j * base.lam)


def sl2_enumerate(n):
    """One exact-determinant-1 integer lift per element of SL(2, Z_N), O(N^3).

    Each primitive row (a, b) mod N is lifted to a coprime (kappa, lam) in
    [0, 5N)^2 (reaching 3N at N = 7, 4N at N = 31); its N completions
    (mu0 + j*kappa, nu0 + j*lam) follow in the order of their residues.
    """
    check_dim(n)
    if n == 1:
        return [IDENTITY]
    out = []
    for a, b in product(range(n), repeat=2):
        if math.gcd(a, b, n) == 1:
            kappa, lam = _coprime_lift(a, b, n)
            base = sl2_complete(kappa, lam)
            row = [SL2Element(kappa, lam, base.mu + j * kappa, base.nu + j * lam) for j in range(n)]
            out.extend(sorted(row, key=lambda g: (g.mu % n, g.nu % n)))
    return out


def _second_row(kappa, lam, n):
    """The coprime row on which every element of row (kappa, lam) has its second lift.

    The first of the +N shifts of (kappa, lam) that is coprime. If none is,
    lam + j*N for the first coprime j >= 3 (j = 3P works, P the product of
    the primes dividing kappa but not N).
    """
    shifts = ((n, 0), (0, n), (n, n), (2 * n, 0), (0, 2 * n), (2 * n, n), (n, 2 * n))
    for da, db in shifts:
        if math.gcd(kappa + da, lam + db) == 1:
            return kappa + da, lam + db
    j = next(j for j in count(3) if math.gcd(kappa, lam + j * n) == 1)
    return kappa, lam + j * n


def sl2_lifts(n):
    """Every element of SL(2, Z_N) with the two integer lifts the route audit tests.

    One tuple ``(g, h)`` per element, in :func:`sl2_enumerate` order: h is
    the lift of g's residue class on the row :func:`_second_row`. The N
    elements of a row share (kappa, lam), so the second row and its base
    completion are found once per row.
    """
    out = []
    for (kappa, lam), row in groupby(sl2_enumerate(n), key=lambda g: (g.kappa, g.lam)):
        second = sl2_complete(*_second_row(kappa, lam, n))
        out.extend([(g, _land_completion(second, g.mu % n, g.nu % n, n)) for g in row])
    return out


def line_sites(g, n):
    """The sites of all N lines of the direction (kappa, lam), as [p0, r] arrays.

    Returns ``(q, p)`` with q[p0, r] = (kappa*r + mu*p0) mod N and
    p[p0, r] = (lam*r + nu*p0) mod N: row p0 holds the line
    kappa*p - lam*q = p0 (mod N), in the order of r.
    """
    kappa, lam, mu, nu = g.residues(n)
    p0, r = np.indices((n, n))
    return (kappa * r + mu * p0) % n, (lam * r + nu * p0) % n

