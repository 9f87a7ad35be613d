"""Exact and plain-loop references that only the tests use.

The library has one production path per computation; these are the
independent forms it is checked against: the dense N^4 coefficient table
of the support values with the position transform and operator assembly
run on the whole of it, the operator tensor of any table by slab FFTs
(:func:`assemble`), the candidate's operator tensor scattered in closed
form, the JSON records of an operator tensor rendered from the tensor,
the dense operator tensor and the operator-level checks on it (marginal
sums, hermiticity scan and site Gram product), the joined text of a
JSON document, the Fraction-valued covariance
phase, the dense int64 exponent table and the group action on dense
tables, the covariance scan over every lift class of SL(2, Z_2N), the
lift classes and the route audit as a scan of every route of every
class, the route audit as a plain loop over the first lift of every
primitive row, the per-(s,t) route list, the identity and the exact
product of integer lifts, the primitive rows mod m, SL(2, Z_m) as
residues written down from its rows and the determinant-filter
enumeration it is checked against, integer lifts with determinant
exactly 1 found by search, the inverse coefficient transform, lattice
lines as tuples of sites, the invariant label of the line through a
site, the brute-force incidence check of the line families, the dense
N^4 expansion of the closed-form operator set with the einsum transforms
on it, the split-parity solution table, the clock and shift matrices and
their monomials S^n P^m, the dense direction unitary of a line family,
the integer and half-integer phases ``omega_int`` and ``omega_pow`` and
random pure states.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from latwig import serialize
from latwig.fano import CheckResult, FanoCoefficients, _covariance_scan, _two_phi
from latwig.lattice import SL2Element, check_dim, first_completions, line_sites, sl2_complete
from latwig.operators import _half_omega_table, _omega_table, momentum_vector
from latwig.tomography import mub_line_families
from latwig.wigner import _direction_monomial


IDENTITY = SL2Element(1, 0, 0, 1)


def compose(g, h):
    """Exact integer 2x2 matrix product g h, rows (kappa, lam) / (mu, nu)."""
    return SL2Element(
        kappa=g.kappa * h.kappa + g.lam * h.mu,
        lam=g.kappa * h.lam + g.lam * h.nu,
        mu=g.mu * h.kappa + g.nu * h.mu,
        nu=g.mu * h.lam + g.nu * h.nu,
    )


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


def line_label(g, q, p, n):
    """Invariant p0 = kappa*p - lam*q mod N of the line through (q, p).

    q and p may be integer arrays; kappa and lam are reduced mod N first,
    so that no lift, however large, overflows them.
    """
    return ((g.kappa % n) * p - (g.lam % n) * q) % n


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


def dense_table(c):
    """The dense N^4 table a~[s, t, n, m] of a FanoCoefficients, entry by entry."""
    n = c.n
    table = np.zeros((n, n, n, n), dtype=complex)
    for s, t in product(range(n), repeat=2):
        table[s, t, t, s] = c.values[s, t]
    return table


def coefficients_to_position(c):
    """Position-space coefficients a(q,p;n,m) = sum_st omega^(pt-qs) a~(s,t;n,m) of the dense table.

    A forward FFT over s and an unnormalised inverse FFT over t of the
    whole N^4 table, the calls that :func:`assemble` makes on each n-slab.
    """
    a = np.fft.fft(dense_table(c), axis=0)
    return np.fft.ifft(a, axis=1, norm="forward")


@dataclass(frozen=True)
class FanoOperatorSet:
    """The N^2 phase-point operators as a dense tensor, operators[q, p] an N x N matrix."""

    n: int
    operators: np.ndarray  # complex, shape (n, n, n, n), indexed [q, p, i, j]


def assemble_dense(c):
    """The operators D(q,p) of the dense N^4 table, the path :func:`assemble` slices into n-slabs.

    An unnormalised inverse FFT over m of the position-space coefficients
    gives b(q,p;n,j), and D(q,p)[i,j] = b(q,p; j-i mod N, j) is a gather.
    """
    n = c.n
    b = np.fft.ifft(coefficients_to_position(c), axis=3, norm="forward")
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return FanoOperatorSet(n, np.take(b.reshape(n, n, n * n), ((j - i) % n) * n + j, axis=2))


def assemble(c):
    """The tensor [q, p, i, j] of the operators D(q,p) = sum_stnm omega^(pt-qs) a~(s,t;n,m) S^n P^m, by FFT.

    (S^n P^m)[i,j] = delta(j, i+n) omega^(m*j), so D(q,p)[i,j] = b(q,p; j-i, j)
    with b(q,p;n,j) = sum_stm omega^(pt-qs+mj) a~(s,t;n,m): a forward FFT
    over s and unnormalised inverse FFTs over t and m of the table. None of
    them runs along n, so the operators are built one n-slab [s, t, m] of
    the table at a time, whose only nonzeros are a~(s,n;n,s) at t = n,
    m = s, and each slab's b(.,.;n,.) is scattered onto the diagonal
    j - i = n of every operator. Each line of an FFT is transformed on its
    own, so the operators are those of :func:`assemble_dense` to the bit.
    It takes any table, where :func:`candidate_operators` writes the
    candidate's in closed form.
    """
    n = c.n
    ops = np.empty((n, n, n, n), dtype=complex)
    k = np.arange(n)
    slab = np.zeros((n, n, n), dtype=complex)
    for diagonal in range(n):
        slab[k, diagonal, k] = c.values[:, diagonal]
        b = np.fft.fft(slab, axis=0)
        b = np.fft.ifft(b, axis=1, norm="forward")
        ops[:, :, (k - diagonal) % n, k] = np.fft.ifft(b, axis=2, norm="forward")
        slab[k, diagonal, k] = 0
    return ops


def candidate_operators(n):
    """The tensor [q, p, i, j] of the candidate table's operators D(q,p), scattered from the twist table.

    D(q,p)[i,j] = omega^(p*k) F[k, x] at k = j - i, x = j - q, with F the
    candidate's twist table in the closed form that
    ``fano.candidate_operator_codes`` proves: 1/N where
    e = (2x - k(N+1)) mod 2N is 0, 0 at any other even e, and
    (1 + i*cot(pi*e/(2N)))/N^2 at odd e. The tensor starts as ``np.zeros``
    and only the nonzeros are scattered, one diagonal j - i = k at a time,
    so every structural zero is +0.0. A 1/N entry is ``omega^(p*k) / N``
    from the omega table; an odd row's products are written in real
    arithmetic, with cot taken at an angle in (-pi/2, pi/2): the float
    expressions of the code table's values, so each entry is its value to
    the bit. No FFT runs.
    """
    check_dim(n)
    om = _omega_table(n)
    ops = np.zeros((n, n, n, n), dtype=complex)
    r = np.arange(n)  # a row i, a label q or p, or an x
    for k in range(n):
        e = (2 * r - k * (n + 1)) % (2 * n)  # [x]
        j = (r + k) % n  # the column of row i on the diagonal
        phase = om[r * k % n]  # [p]: omega^(p*k)
        if e[0] % 2 == 0:
            x = int(np.flatnonzero(e == 0)[0])
            ops[(j - x) % n, :, r, j] = phase / n  # [i, p] at q = j - x
            continue
        turns = np.where(e > n, e - 2 * n, e)  # the same cot, at an angle in (-pi/2, pi/2)
        cot = (1 / np.tan(np.pi * turns / (2 * n)))[(j - r[:, np.newaxis]) % n]  # [q, i] at x = j - q
        w, cot = phase[:, np.newaxis], cot[:, np.newaxis]  # [p, 1] and [q, 1, i]
        ops.real[:, :, r, j] = (w.real - w.imag * cot) / n**2
        ops.imag[:, :, r, j] = (w.imag + w.real * cot) / n**2
    return ops

def operator_residuals_dense(f):
    """The residuals of each operator-level check of ``fano`` on a dense FanoOperatorSet, entry by entry.

    sum_p D(q,p) against |q><q| at [q, i, j], sum_q D(q,p) against |p><p|
    at [p, i, j], D(q,p) against its adjoint at [q, p, i, j], and the site
    Gram product against (1/N) I at [q, p, q', p']: the arrays whose scan
    names the checks' witnesses.
    """
    n = f.n
    target_q = np.zeros((n, n, n), dtype=complex)
    target_p = np.empty((n, n, n), dtype=complex)
    for k in range(n):
        target_q[k, k, k] = 1.0
        v = momentum_vector(k, n)
        target_p[k] = np.outer(v, v.conj())
    ops = f.operators
    return {
        "marginal_q": np.abs(ops.sum(axis=1) - target_q),
        "marginal_p": np.abs(ops.sum(axis=0) - target_p),
        "hermiticity": np.abs(ops - ops.conj().transpose(0, 1, 3, 2)),
        "orthogonality_site": site_gram_residuals(f).reshape(n, n, n, n),
    }


def site_gram_residuals(f):
    """|Tr[D(q,p) D(q',p')^dag] - (1/N) delta delta| on [(q,p), (q',p')], by one N^2 x N^2 product."""
    n = f.n
    flat = f.operators.reshape(n * n, n * n)
    return np.abs(flat @ flat.conj().T - np.eye(n * n) / n)


def dumps_json(obj):
    """The whole JSON text that ``serialize.write_json`` writes for obj, joined."""
    return "".join(serialize._json_chunks(obj))


def tensor_records(ops):
    """The ``serialize.OperatorRecords`` of any N^4 operator tensor [q, p, i, j], real or complex.

    Each entry is its own value, its code its index in the flattened tensor.
    """
    n = len(ops)
    if np.shape(ops) != (n,) * 4:
        raise TypeError(f"operators must be an N x N x N x N array, got shape {np.shape(ops)}")
    codes = np.arange(n**4).reshape(n * n, n, n)
    return serialize.OperatorRecords(n, np.ravel(ops), codes.__getitem__)


def operator_text(ops):
    """The JSON text of the records {"q","p","re","im"} of an N^4 operator tensor, rendered from the tensor.

    The writer's renderer before it took codes: a record is the row of
    nested lists of shape (2, N, N) holding its real and then its
    imaginary part, opened by its head ``{"q":Q,"p":P,"re":[[``, with
    ``]],"im":[[`` between the parts and ``}`` after them, and each block of
    records formats its floats in one ``serialize._texts`` call.
    """
    n, cache = len(ops), {}
    parts = np.ascontiguousarray(ops, dtype=complex).reshape(n * n, n * n).view(float)
    heads = np.array([f'{{"q":{q},"p":{p},"re":[[' for q in range(n) for p in range(n)], dtype=object)
    row = serialize._row((2, n, n)).copy()
    row[2 * n * n] = ']],"im":[['
    row[-1] = "]]},"

    def pieces(rows):
        out = np.empty((rows.stop - rows.start, len(row)), dtype=object)
        out[:] = row
        out[:, 0] = heads[rows]
        real_then_imag = parts[rows].reshape(len(out), n * n, 2).transpose(0, 2, 1)
        out[:, 1::2] = serialize._texts(real_then_imag, cache).reshape(len(out), -1)
        return out

    return "".join(serialize._row_chunks(n * n, max(1, serialize.OPERATOR_BLOCK // len(row)), pieces))

def support_values(table):
    """The support values table[s, t, t, s] of a dense table that is zero everywhere else."""
    n = table.shape[0]
    s, t = np.indices((n, n))
    values = table[s, t, t, s]
    assert np.array_equal(dense_table(FanoCoefficients(n, values)), table), "a nonzero off the support (n, m) = (t, s)"
    return values


def apply_covariance_transform(c, g):
    """The group action on tables whose fixed points are covariant tables.

    (g . A)(s,t;n,m) = omega^(phi'(n,m))
                       * A(kappa*s-lam*t, nu*t-mu*s; nu*n-mu*m, -lam*n+kappa*m),
    gathered on the dense table; the image is again zero off the support.
    """
    n = c.n
    phases = covariance_phase_table(g, n)
    s = np.arange(n).reshape(n, 1, 1, 1)
    t = np.arange(n).reshape(1, n, 1, 1)
    a = np.arange(n).reshape(1, 1, n, 1)
    b = np.arange(n).reshape(1, 1, 1, n)
    gathered = dense_table(c)[
        (g.kappa * s - g.lam * t) % n,
        (g.nu * t - g.mu * s) % n,
        (g.nu * a - g.mu * b) % n,
        (-g.lam * a + g.kappa * b) % n,
    ]
    return FanoCoefficients(n, support_values(phases[np.newaxis, np.newaxis, :, :] * gathered))


def covariance_every_class(values, tol):
    """Covariance of the table with support ``values`` under one lift of every element of SL(2, Z_2N).

    The table maps depend on a lift only mod 2N, so this covers every
    integer lift of every element of SL(2, Z_N). Each class is lifted by
    :func:`exact_lift`, in :func:`sl2_enumerate` order, and
    the lifts are scanned 256 at a time, so memory stays flat as the group
    grows; the witness is that of the first failing lift.
    """
    n = values.shape[0]
    classes = sl2_enumerate(2 * n).tolist()
    worst = 0.0
    first_fail = None
    for start in range(0, len(classes), 256):
        got = _covariance_scan(values, [exact_lift(row, 2 * n) for row in classes[start:start + 256]], tol)
        worst = max(worst, got.max_violation)
        if first_fail is None and not got.passed:
            first_fail = got
    if first_fail is None:
        return CheckResult("covariance", True, worst)
    return CheckResult("covariance", False, worst, first_fail.witness)


def coprime_lift(a, b, n):
    """Lift residues (a, b) with gcd(a, b, n) = 1 to a coprime integer pair, by search in [0, 5N)^2."""
    for i, j in product(range(5), range(5)):
        if math.gcd(a + i * n, b + j * n) == 1:
            return a + i * n, b + j * n
    raise ValueError(f"no coprime lift found for ({a}, {b}) mod {n}")


def land_completion_search(kappa, lam, mu_res, nu_res, n):
    """Completion of (kappa, lam) in given residue classes, by trying every j mod N."""
    base = sl2_complete(kappa, lam)
    for j in range(n):
        mu = base.mu + j * kappa
        nu = base.nu + j * lam
        if mu % n == mu_res and nu % n == nu_res:
            return SL2Element(kappa, lam, mu, nu)
    raise ValueError(
        f"residues (mu, nu) = ({mu_res}, {nu_res}) unreachable for ({kappa}, {lam}) mod {n}"
    )


def primitive_rows(m):
    """The rows (a, b) mod m with gcd(a, b, m) = 1, in lexicographic order, as an int64 array [row, (a, b)]."""
    check_dim(m)
    a, b = np.indices((m, m)).reshape(2, -1)
    keep = np.gcd(np.gcd(a, b), m) == 1
    return np.column_stack([a[keep], b[keep]])


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


def sl2_enumerate_filter(n):
    """SL(2, Z_N) by testing the determinant of all N^4 residue tuples, in order."""
    check_dim(n)
    return [x for x in product(range(n), repeat=4) if (x[0] * x[3] - x[1] * x[2]) % n == 1 % n]


def exact_lift(row, n):
    """An integer lift with determinant exactly 1 of the residues ``row`` = (kappa, lam, mu, nu) mod N.

    The searched coprime lift of (kappa, lam), completed by search; the
    identity for N = 1.
    """
    if n == 1:
        return IDENTITY
    kappa, lam, mu, nu = (int(x) for x in row)
    return land_completion_search(*coprime_lift(kappa, lam, n), mu, nu, n)


def sl2_second_lift_search(g, n):
    """The first of the +N shifts of (kappa, lam) that is coprime, landed by search."""
    _, _, mu_res, nu_res = g.residues(n)
    shifts = ((n, 0), (0, n), (n, n), (2 * n, 0), (0, 2 * n), (2 * n, n), (n, 2 * n))
    for da, db in shifts:
        kappa, lam = g.kappa + da, g.lam + db
        if math.gcd(kappa, lam) == 1:
            lift = land_completion_search(kappa, lam, mu_res, nu_res, n)
            if lift != g:
                return lift
    raise ValueError(f"no second lift found for {g} mod {n}")


def sl2_lifts_search(n):
    """Two integer lifts with determinant exactly 1 of each element of SL(2, Z_N), by search.

    One tuple ``(g, h)`` per element of :func:`sl2_enumerate_filter`: g is
    its :func:`exact_lift`, h the :func:`sl2_second_lift_search` of g.
    """
    return [(g, sl2_second_lift_search(g, n)) for g in (exact_lift(row, n) for row in sl2_enumerate_filter(n))]


def route_kind(g, s, t, n):
    """Which axis slice the lift (kappa, lam, mu, nu) maps (s,t) onto, if any.

    's' means kappa*s - lam*t = 0 mod N (first index mapped to 0); 't'
    means nu*t - mu*s = 0 mod N (second index mapped to 0). At most one
    applies, because the index map is a bijection and (s,t) != (0,0).
    """
    kappa, lam, mu, nu = g
    if (kappa * s - lam * t) % n == 0:
        return "s"
    if (nu * t - mu * s) % n == 0:
        return "t"
    return None


def derivation_routes(n, s, t, elements):
    """All (lift, forced value) pairs for (s,t), over ``elements`` in order.

    ``elements`` holds lifts (kappa, lam, mu, nu), such as the rows of
    :func:`lift_classes`; the forced value of a route is
    (1/N^2) omega^(phi'(t,s)), one scalar at a time.
    """
    check_dim(n)
    half = _half_omega_table(n)
    return [
        (tuple(g), complex(half[_two_phi(g, t % n, s % n, n)]) / n**2)
        for g in elements
        if route_kind(g, s, t, n) is not None
    ]


def lift_classes(n):
    """The classes of integer lifts of SL(2, Z_N) that a route value can tell apart.

    A route value omega^(phi'(t,s)) depends on a lift only through
    2*phi' mod 2N, a polynomial in its entries mod 2N. For odd N every term
    of 2*phi' is even and 2*phi' mod N depends only on the residues mod N,
    so by the CRT 2*phi' mod 2N depends only on the class mod N: one class
    per element, :func:`sl2_enumerate` (N). For even N it is
    :func:`sl2_enumerate` (2N), the 8 classes mod 2N above
    each element. SL(2, Z) maps onto SL(2, Z_2N), so every integer lift with
    determinant 1 lies in one of these classes.
    """
    check_dim(n)
    return sl2_enumerate(n if n % 2 else 2 * n)


def route_consistency_scan(n, elements, tol):
    """The route audit as a scan of every route of every lift in ``elements``, in order.

    ``elements`` is an int64 array [lift, (kappa, lam, mu, nu)], such as
    :func:`lift_classes`. A lift maps (s,t) onto the s-slice
    (kappa*s - lam*t = 0 mod N) exactly at the nonzero multiples of
    (lam, kappa), and onto the t-slice (nu*t - mu*s = 0) at those of
    (nu, mu); a stable sort groups these routes by (s,t), lifts in order.
    The witness is the first (s,t) in lexicographic order with a conflict,
    then its first route's lift and the first lift that disagrees. Spreads
    are tabulated once for every pair of exponents. Every route is held at
    once: 8 |SL(2, Z_N)| 2(N - 1) of them at even N.
    """
    k, l, m, v = elements.T[:, :, np.newaxis]
    r = np.arange(1, n)
    s = np.concatenate([l * r, v * r], axis=1) % n
    t = np.concatenate([k * r, m * r], axis=1) % n
    point = (s * n + t).ravel()
    order = np.argsort(point, kind="stable")
    point, two = point[order], _two_phi((k, l, m, v), t, s, n).ravel()[order]
    starts = np.flatnonzero(np.diff(point, prepend=-1))
    first = np.repeat(starts, np.diff(starts, append=point.size))
    half = _half_omega_table(n)
    re, im = half.real / n**2, half.imag / n**2
    spread = np.hypot(re - re[:, np.newaxis], im - im[:, np.newaxis])[two[first], two]
    worst = float(spread.max()) if spread.size else 0.0
    conflicts = np.flatnonzero((spread > tol) & (np.arange(point.size) != first))
    witness = None
    if conflicts.size:
        i = conflicts[0]
        lifts = elements[order[[first[i], i]] // (2 * n - 2)]
        witness = divmod(int(point[i]), n) + tuple(int(x) for x in lifts.ravel())
    return CheckResult("route_consistency", witness is None, worst, witness)


def route_consistency_loop(n, tol):
    """The route audit as a plain loop: points, then primitive rows mod M in lexicographic order, then r.

    Each row (a, b) mod M (N for odd N, 2N for even N) runs through its
    first lift, completed by ``first_completions``, and maps (rb, ra) onto
    the s-slice at r = 1..N-1 with the value (1/N^2) omega^(phi'(t,s)) of
    ``_two_phi``. A point's first route is its lead, and the first route
    whose value lies more than ``tol`` from the lead's is its rival. The
    witness is the first point with a rival, then the lead's lift and the
    rival's.
    """
    check_dim(n)
    m = n if n % 2 else 2 * n
    rows = primitive_rows(m)
    lifts = [tuple(g) for g in np.column_stack([rows, first_completions(rows, m)]).tolist()]
    half = _half_omega_table(n)
    routes = {point: [] for point in product(range(n), repeat=2)}
    for g in lifts:
        for r in range(1, n):
            s, t = r * g[1] % n, r * g[0] % n
            routes[s, t].append((g, complex(half[_two_phi(g, t, s, n)]) / n**2))
    worst, witness = 0.0, None
    for point, found in routes.items():
        for g, v in found[1:]:
            spread = abs(v - found[0][1])
            worst = max(worst, spread)
            if spread > tol and witness is None:
                witness = point + found[0][0] + g
    return CheckResult("route_consistency", witness is None, worst, witness)


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


def omega_pow(x, n):
    """omega^x for an exact integer or half-integer exponent x.

    Accepts int or Fraction with denominator 1 or 2. The doubled exponent
    is reduced mod 2N before exponentiation, so the result is identical
    for all exponents in the same class.
    """
    check_dim(n)
    frac = Fraction(x)
    if frac.denominator not in (1, 2):
        raise ValueError(f"exponent must be integer or half-integer, got {x!r}")
    return complex(_half_omega_table(n)[int(2 * frac) % (2 * n)])


def omega(n):
    """Primitive N-th root of unity exp(2*pi*i/N)."""
    check_dim(n)
    return complex(_omega_table(n)[1 % n])


def omega_int(k, n):
    """omega^k for an exact integer exponent k."""
    return complex(_omega_table(n)[k % n])


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


def clock_matrix(n):
    """Diagonal matrix diag(1, omega, ..., omega^(N-1)); P|q> = omega^q |q>."""
    check_dim(n)
    return np.diag(_omega_table(n)).astype(complex)


def shift_matrix(n):
    """Cyclic shift with ones on the superdiagonal and lower-left corner."""
    check_dim(n)
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[i, (i + 1) % n] = 1.0
    return s


def direction_unitary(g, n):
    """The dense direction unitary V = omega^((N-1)*kappa*lam/2) S^kappa P^lam,
    for odd N, from the exponents that `wigner._direction_monomial` gives:
    row i's nonzero is at column i + kappa mod N."""
    v = np.zeros((n, n), dtype=complex)
    v[np.arange(n), (np.arange(n) + g.kappa % n) % n] = _omega_table(n)[_direction_monomial(g, n)]
    return v


def random_pure_density(n, rng):
    """Projector onto a Haar-ish random pure state."""
    check_dim(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def coefficients_cohendet(n):
    """Equivalent odd-N form with the phase split by the parity of n.

    a~ = (1/N^2) omega^(-n*m/2) delta(s,m) delta(t,n) for even n, and
    (1/N^2) omega^(-(n+N)*m/2) delta(s,m) delta(t,n) for odd n; both
    exponents are integers when N is odd.
    """
    check_dim(n)
    if n % 2 == 0:
        raise ValueError(f"the split-parity form requires odd N, got {n}")
    om = _omega_table(n)
    values = np.zeros((n, n), dtype=complex)
    for s in range(n):
        for t in range(n):
            nn, mm = t, s
            if nn % 2 == 0:
                exp = (-(nn * mm) // 2) % n
            else:
                exp = (-((nn + n) * mm) // 2) % n
            values[s, t] = om[exp] / n**2
    return FanoCoefficients(n, values)


def expand_operators(n):
    """The dense N^4 closed-form operators [q, p, i, j], entry by entry.

    D(q,p)[i, 2q - i] = omega^(p*(j - i)) / N with j = 2q - i mod N; every
    other entry is 0.
    """
    ops = np.zeros((n, n, n, n), dtype=complex)
    om = _omega_table(n)
    for q, p, i in product(range(n), repeat=3):
        j = (2 * q - i) % n
        ops[q, p, i, j] = om[(p * (j - i)) % n] / n
    return FanoOperatorSet(n, ops)


def wigner_einsum(rho, ops):
    """W(q,p) = Tr[D(q,p) rho] contracted densely over a FanoOperatorSet."""
    return np.einsum("qpij,ji->qp", ops.operators, np.asarray(rho, dtype=complex))


def density_einsum(values, ops):
    """rho = N * sum_qp D(q,p)^dag W(q,p) contracted densely over a FanoOperatorSet."""
    return ops.n * np.einsum("qp,qpji->ij", values, ops.operators.conj())
