"""Exact and plain-loop references that only the tests use.

The library has one production path per computation; these are the
independent forms it is checked against: the Fraction-valued covariance
phase, the dense int64 exponent table and the group action on tables, the
per-(s,t) route list, the inverse coefficient transform, lattice lines as
tuples of sites, and the brute-force incidence check of the line families.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from latwig.fano import FanoCoefficients, _route_kind, _route_value
from latwig.lattice import DEFAULT_AUDIT_BOUND, check_dim, line_label, line_sites, sl2_lifts
from latwig.operators import _half_omega_table
from latwig.tomography import mub_line_families


def canonical(x, n):
    """Canonical representative of x mod n, in [0, n)."""
    check_dim(n)
    return x % n


@dataclass(frozen=True)
class LatticeLine:
    """The N sites (q, p) with kappa*p - lam*q = p0 (mod N), ordered by r."""

    kappa: int
    lam: int
    p0: int
    points: tuple

    def __iter__(self):
        return iter(self.points)


def line_points(g, p0, n):
    """Points q = kappa*r + mu*p0, p = lam*r + nu*p0 (mod N) for r = 0..N-1."""
    check_dim(n)
    if math.gcd(g.kappa, g.lam) != 1:
        raise ValueError(f"degenerate direction ({g.kappa}, {g.lam}): not coprime")
    p0 = canonical(p0, n)
    q, p = line_sites(g, n)
    pts = tuple(zip(q[p0].tolist(), p[p0].tolist()))
    if len(set(pts)) != n:
        raise ValueError(f"line points not distinct for {g} mod {n}")
    return LatticeLine(kappa=g.kappa, lam=g.lam, p0=p0, points=pts)


def phase_phi(g, n_idx, m_idx, n):
    """Covariance phase exponent phi'(n,m), an exact integer or half-integer.

    phi'(n,m) = (1/2) * (nu*lam*n*(N-n) + mu*kappa*m*(N-m)) + mu*lam*n*m,
    evaluated with canonical n,m and the element's integer lifts. For odd N
    the value is always an integer; for even N it can be half-integer,
    which is where the parity dichotomy enters.
    """
    check_dim(n)
    a, b = n_idx % n, m_idx % n
    return (
        Fraction(g.nu * g.lam * a * (n - a) + g.mu * g.kappa * b * (n - b), 2)
        + g.mu * g.lam * a * b
    )


def two_phi_table(g, n):
    """Doubled exponents 2*phi'(n,m) as int64 on the full index grid, unreduced.

    Exact only while the products fit int64 (small lifts).
    """
    a = np.arange(n, dtype=np.int64)
    quad = a * (n - a)
    return (
        g.nu * g.lam * quad[:, None]
        + g.mu * g.kappa * quad[None, :]
        + 2 * g.mu * g.lam * np.outer(a, a)
    )


def covariance_phase_table(g, n):
    """omega^(phi'(n,m)) for all (n,m), via mod-2N reduction of doubled exponents."""
    half = _half_omega_table(n)
    return np.ascontiguousarray(half[two_phi_table(g, n) % (2 * n)])


def apply_covariance_transform(c, g):
    """The group action on tables whose fixed points are covariant tables.

    (g . A)(s,t;n,m) = omega^(phi'(n,m))
                       * A(kappa*s-lam*t, nu*t-mu*s; nu*n-mu*m, -lam*n+kappa*m).
    """
    n = c.n
    phases = covariance_phase_table(g, n)
    s = np.arange(n).reshape(n, 1, 1, 1)
    t = np.arange(n).reshape(1, n, 1, 1)
    a = np.arange(n).reshape(1, 1, n, 1)
    b = np.arange(n).reshape(1, 1, 1, n)
    gathered = c.table[
        (g.kappa * s - g.lam * t) % n,
        (g.nu * t - g.mu * s) % n,
        (g.nu * a - g.mu * b) % n,
        (-g.lam * a + g.kappa * b) % n,
    ]
    return FanoCoefficients(n, phases[np.newaxis, np.newaxis, :, :] * gathered)


def derivation_routes(n, s, t, elements=None, audit_bound=DEFAULT_AUDIT_BOUND):
    """All (lift, forced value) pairs for (s,t), over the group and lifts.

    ``elements`` is a list of lift tuples from
    :func:`latwig.lattice.sl2_lifts`; by default it is built here.
    """
    check_dim(n)
    if elements is None:
        elements = sl2_lifts(n, audit_bound)
    return [
        (lift, _route_value(lift, s, t, n))
        for group in elements
        if _route_kind(group[0], s, t, n) is not None
        for lift in group
    ]


def position_to_coefficients(a, n):
    """Inverse transform a~(s,t;n,m) = (1/N^2) sum_qp omega^(qs-pt) a(q,p;n,m)."""
    check_dim(n)
    c = np.fft.fft(a, axis=1, norm="forward")
    return np.fft.ifft(c, axis=0)


def incidence_ok(n):
    """Brute-force check that each pair of distinct sites shares exactly one line."""
    families = mub_line_families(n)
    sites = [(q, p) for q in range(n) for p in range(n)]
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            common = sum(
                1
                for g in families
                if line_label(g, a[0], a[1], n) == line_label(g, b[0], b[1], n)
            )
            if common != 1:
                return False
    return True
