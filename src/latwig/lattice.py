"""Exact modular arithmetic on the N x N lattice phase space.

Group elements, determinants and gcd decompositions use plain Python
integers, so they are exact; reduction mod N happens only where a residue
is wanted. The lines of a direction are numpy index arrays (:func:`line_sites`).
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

DEFAULT_AUDIT_BOUND = 9


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


def _land_completion(kappa, lam, mu_res, nu_res, n):
    """Completion of (kappa, lam) whose (mu, nu) lie in given residue classes.

    The general solution of kappa*nu - mu*lam = 1 is (mu0 + j*kappa,
    nu0 + j*lam); exactly one j mod n lands the target residues.
    """
    base = sl2_complete(kappa, lam)
    for j in range(n):
        mu = base.mu + j * kappa
        nu = base.nu + j * lam
        if mu % n == mu_res and nu % n == nu_res:
            return SL2Element(kappa, lam, mu, nu)
    raise ValueError(
        f"residues (mu, nu) = ({mu_res}, {nu_res}) unreachable for ({kappa}, {lam}) mod {n}"
    )


def sl2_enumerate(n, audit_bound=DEFAULT_AUDIT_BOUND):
    """One exact-determinant-1 integer lift per element of SL(2, Z_N).

    (kappa, lam) is lifted into [0, 2N)^2 (coprime), then (mu, nu) is
    completed by extended Euclid and shifted to land the residue class.
    """
    check_dim(n)
    if n > audit_bound:
        raise ValueError(f"n = {n} exceeds the audit bound {audit_bound}")
    if n == 1:
        return [IDENTITY]
    out = []
    for a, b, c, d in product(range(n), repeat=4):
        if (a * d - b * c) % n == 1:
            kappa, lam = _coprime_lift(a, b, n)
            out.append(_land_completion(kappa, lam, c, d, n))
    return out


def sl2_order(n):
    """Order of SL(2, Z_N): N^3 * prod over primes p | N of (1 - p^-2)."""
    check_dim(n)
    order = n ** 3
    m, p = n, 2
    seen = set()
    while m > 1:
        if m % p == 0:
            if p not in seen:
                seen.add(p)
                order = order * (p * p - 1) // (p * p)
            m //= p
        else:
            p += 1
    return order


def sl2_second_lift(g, n):
    """A different integer lift of the same residue class as g.

    The +N shifts probe whether downstream phase functions depend on the
    choice of lift rather than on the residue class alone.
    """
    check_dim(n)
    _, _, mu_res, nu_res = g.residues(n)
    shifts = ((n, 0), (0, n), (n, n), (2 * n, 0), (0, 2 * n), (2 * n, n), (n, 2 * n))
    for da, db in shifts:
        kappa, lam = g.kappa + da, g.lam + db
        if math.gcd(kappa, lam) == 1:
            lift = _land_completion(kappa, lam, mu_res, nu_res, n)
            if lift != g:
                return lift
    raise ValueError(f"no second lift found for {g} mod {n}")


def sl2_lifts(n, audit_bound=DEFAULT_AUDIT_BOUND):
    """Every element of SL(2, Z_N) with the two integer lifts the audits test.

    One tuple ``(g, sl2_second_lift(g, n))`` per element, in
    :func:`sl2_enumerate` order. Built once, the list is shared by every
    audit of a report.
    """
    return [(g, sl2_second_lift(g, n)) for g in sl2_enumerate(n, audit_bound=audit_bound)]


def line_sites(g, n):
    """The sites of all N lines of the direction (kappa, lam), as [p0, r] arrays.

    Returns ``(q, p)`` with q[p0, r] = (kappa*r + mu*p0) mod N and
    p[p0, r] = (lam*r + nu*p0) mod N: row p0 holds the line
    kappa*p - lam*q = p0 (mod N), in the order of r.
    """
    kappa, lam, mu, nu = g.residues(n)
    p0, r = np.indices((n, n))
    return (kappa * r + mu * p0) % n, (lam * r + nu * p0) % n


def line_label(g, q, p, n):
    """Invariant p0 = kappa*p - lam*q mod N of the line through (q, p).

    q and p may be integer arrays; kappa and lam are reduced mod N first,
    so that no lift, however large, overflows them.
    """
    return ((g.kappa % n) * p - (g.lam % n) * q) % n
