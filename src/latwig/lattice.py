"""Exact modular arithmetic on the N x N lattice phase space.

Integer lifts, determinants and gcd decompositions use plain Python
integers, so they are exact; reduction mod N happens only where a residue
is wanted. The lines of a direction are numpy index arrays (:func:`line_sites`).
The primitive rows mod M and the first completion of each have closed
forms (:func:`primitive_rows`, :func:`first_completions`); the route
audit runs on them, and SL(2, Z_M) as an int64 array of residues
(:func:`sl2_enumerate`) is written down from them; its order
(:func:`sl2_order`) is M times the number of rows. The covariance
audit needs only :data:`GENERATORS`: S and T generate SL(2, Z), which maps
onto every SL(2, Z_M).
"""

import math

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


def sl2_order(n):
    """|SL(2, Z_N)|: each primitive row mod N has N completions."""
    return n * len(primitive_rows(n))


def primitive_rows(m):
    """The rows (a, b) mod m with gcd(a, b, m) = 1, in lexicographic order, as an int64 array [row, (a, b)]."""
    check_dim(m)
    a, b = np.indices((m, m)).reshape(2, -1)
    keep = np.gcd(np.gcd(a, b), m) == 1
    return np.column_stack([a[keep], b[keep]])


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


def sl2_enumerate(m):
    """Every element of SL(2, Z_m) as an int64 array [element, (kappa, lam, mu, nu)] of residues in [0, m).

    Rows are in lexicographic order, the order a determinant filter of all
    m^4 residue tuples gives. Each primitive row (a, b) has the m
    completions (c0 + j*a, d0 + j*b), (c0, d0) its first completion.
    """
    ab = primitive_rows(m)
    first = first_completions(ab, m)
    c, d = ((first[:, [i]] + np.arange(m) * ab[:, [i]]) % m for i in (0, 1))
    cd = np.sort(c * m + d, axis=1).ravel()  # each row's completions in (c, d) order
    return np.column_stack([np.repeat(ab, m, axis=0), cd // m, cd % m])


def line_sites(g, n):
    """The sites of all N lines of the direction (kappa, lam), as [p0, r] arrays.

    Returns ``(q, p)`` with q[p0, r] = (kappa*r + mu*p0) mod N and
    p[p0, r] = (lam*r + nu*p0) mod N: row p0 holds the line
    kappa*p - lam*q = p0 (mod N), in the order of r.
    """
    kappa, lam, mu, nu = g.residues(n)
    p0, r = np.indices((n, n))
    return (kappa * r + mu * p0) % n, (lam * r + nu * p0) % n

