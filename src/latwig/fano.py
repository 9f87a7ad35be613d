"""Phase-point operator tables on the lattice: construction and condition audits.

The central object is the rank-4 coefficient table a~(s,t;n,m) expanding the
phase-point operators D(q,p) over the clock/shift monomials S^n P^m. The
module builds the closed-form tables, assembles the operators, and audits
the defining condition families (axis marginals, hermiticity, orthogonality,
symplectic covariance) plus the line-by-line derivation that forces the
table uniquely. Audits never raise on mathematical failure; they return
check results, because failure is the expected outcome for even N.

Every table the construction admits is zero off the support (n,m) = (t,s),
so :class:`FanoCoefficients` holds only the N^2 support values a~(s,t;t,s),
and every coefficient-level audit is an O(N^2) formula on them: each
condition's dense residual vanishes off that support, and its witness is the
index that a scan of the dense N^4 residuals would name first. The support
fixes the operators through the N x N :func:`twist_table` F:
D(q,p)[i,j] = omega^(p*(j-i)) F[j-i, j-q]. The operator-level audits are
O(N^2 log N) formulas on F with the dense witnesses too, so no audit builds
an N^4 array. :func:`twist_table` takes F of any table by one inverse FFT;
the candidate's F is a geometric sum in closed form
(:func:`latwig.phases.operator_values`), from which the ``fano`` artifact's
operators are rendered with no numpy. For odd N, F has N nonzeros,
F[k,x] = delta(2x = k mod N) / N: each operator is the phased permutation
D(q,p)[i,j] = (1/N) delta(i + j = 2q mod N) omega^(p*(j - i)), the closed
form on which :mod:`latwig.wigner` and :mod:`latwig.tomography` run. For
even N, each even row k of F has one nonzero and an odd row has no zero.

Neither group audit bounds N. Covariance is an action of SL(2, Z) on
tables, so it is decided on the two generators S and T. Each lift with
determinant 1 maps the support onto itself, so it is one residual per
support point. For the candidate tables the float verdict is the exact one
at any tolerance between their residuals: round-off below 1e-16 for odd N,
where the table is covariant, and 2/N^2 for even N. A route value depends
on a lift only through the row it runs along, mod M (N for odd N, 2N for
even N), and r, by one closed form (:func:`_route_phi`), so the route
audit, exhaustive over every integer lift, is decided per point in O(N^2):
two exponent classes meet exactly where s or t is odd, for even N. The
derived table takes one canonical route per point by the same formula.
"""

from collections import namedtuple

import numpy as np

from .lattice import GENERATORS, check_dim, first_completions
from .operators import (
    DEFAULT_TOL,
    CheckResult,
    _half_omega_table,
    _omega_table,
    _result,
    _scan,
)
from .phases import candidate_exponent


class FanoCoefficients(namedtuple("FanoCoefficients", "n values")):
    """Coefficient table a~(s,t;n,m) on canonical residues [0,N)^4, held as its support.

    values[s, t] = a~(s,t;t,s), complex, of shape (n, n); every entry with
    (n,m) != (t,s) is zero.
    """

    __slots__ = ()

    def __new__(cls, n, values):
        check_dim(n)
        if values.shape != (n, n):
            raise ValueError(f"support values of an N = {n} table must have shape ({n}, {n}), got {values.shape}")
        return super().__new__(cls, n, values)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the shape too


def _on_support(s, t):
    """The index [s, t, t, s] of the dense table that support value [s, t] stands for."""
    return s, t, t, s


# ---------------------------------------------------------------------------
# Table constructors
# ---------------------------------------------------------------------------

def coefficients_candidate(n):
    """The table forced by the axis conditions plus line covariance, any N.

    a~(s,t;n,m) = (1/N^2) * omega^(-s*t*(N+1)/2) * delta(m,s) * delta(t,n)
    on canonical s,t. For even N the exponent can be half-integer; it is
    resolved as omega^x = exp(2*pi*i*x/N) with the doubled exponent of
    :func:`~latwig.phases.candidate_exponent`, reduced mod 2N.
    """
    check_dim(n)
    return FanoCoefficients(n, _half_omega_table(n)[candidate_exponent(*np.indices((n, n)), n)] / n**2)


def coefficients_odd(n):
    """The unique solution table for odd N: the candidate, with integer exponent -s*t*(N+1)/2."""
    check_dim(n)
    if n % 2 == 0:
        raise ValueError(f"no solution table exists for even N = {n}; use coefficients_candidate")
    return coefficients_candidate(n)


def twist_table(c):
    """F[k,x] = sum_s omega^(s*x) a~(s,k;k,s), so that D(q,p)[i,j] = omega^(p*(j-i)) F[j-i, j-q].

    On the support, D(q,p)[i,j] = sum_s omega^(p*k - q*s + s*j) v[s,k] at k = j - i.
    """
    return np.fft.ifft(c.values, axis=0, norm="forward").T


# ---------------------------------------------------------------------------
# Condition checks: operator level and coefficient level
# ---------------------------------------------------------------------------

def check_marginals(c, tol=DEFAULT_TOL):
    """Operator-level axis marginals: sum_p D(q,p) = |q><q|, sum_q D(q,p) = |p><p|.

    On the twist table F, sum_p D(q,p)[i,j] = N delta(i,j) F[0, i-q], read
    at [q, i]; sum_q D(q,p)[i,j] = omega^(p*(j-i)) sum_x F[j-i, x] and
    <i|p><p|j> = omega^(p*(j-i)) / N, so that residual is the same at every p.
    """
    n = c.n
    f, diff = twist_table(c), (np.arange(n) - np.arange(n)[:, np.newaxis]) % n  # [i, j] = j - i
    res_q = np.abs(n * f[0] - (np.arange(n) == 0))[diff]  # [q, i]
    res_p = np.abs(f.sum(axis=1) - 1.0 / n)[diff]  # [i, j]
    return {
        "marginal_q": _result("marginal_q", res_q, tol, lambda q, i: (q, i, i)),
        "marginal_p": _result("marginal_p", res_p, tol, lambda i, j: (0, i, j)),
    }


def check_coefficient_axes(c, tol=DEFAULT_TOL):
    """Coefficient-level axis conditions on the t=0 and s=0 slices.

    a~(s,0;n,m) = (1/N^2) delta(n,0) delta(m,s) and
    a~(0,t;n,m) = (1/N^2) delta(m,0) delta(n,t). Both sides vanish off the
    support, so the residuals are those of values[k, 0] and values[0, k],
    at [s, n, m] = (k, 0, k) and [t, n, m] = (k, k, 0).
    """
    target = 1.0 / c.n**2
    return {
        "coeff_axis_s": _result("coeff_axis_s", np.abs(c.values[:, 0] - target), tol, lambda k: (k, 0, k)),
        "coeff_axis_t": _result("coeff_axis_t", np.abs(c.values[0, :] - target), tol, lambda k: (k, k, 0)),
    }


def _hermiticity_phases(n):
    om = _omega_table(n)
    grid = np.arange(n)
    return om[(-np.outer(grid, grid)) % n]  # [n, m] = omega^(-nm)


def hermiticity_residuals(values):
    """Residuals |a~(s,t;n,m) - omega^(-nm) conj(a~(-s,-t;-n,-m))| on the support, indexed [s, t].

    Off the support both terms vanish, and on it (n,m) = (t,s), so the
    residual is |v[s,t] - omega^(-ts) conj(v[-s,-t])|, indices mod N. The
    product is written in real arithmetic, as in :func:`_covariance_scan`:
    numpy's complex multiply fuses a multiply-add where the CPU has FMA, and
    this way the residuals are those of a scalar loop on any machine.
    """
    n = values.shape[0]
    idx = (-np.arange(n)) % n
    phase, mirror = _hermiticity_phases(n), values[np.ix_(idx, idx)]
    re = values.real - (phase.real * mirror.real + phase.imag * mirror.imag)
    im = values.imag - (phase.imag * mirror.real - phase.real * mirror.imag)
    return np.hypot(re, im)


def check_hermiticity(c, tol=DEFAULT_TOL):
    """Hermiticity at both levels, reported separately.

    Operator level: D(q,p)^dag = D(q,p) sitewise, that is
    F[k,x] = conj F[-k, x-k] at k = j - i, x = j - q, alike at every (q, p).
    Coefficient level: a~(s,t;n,m) = omega^(-nm) conj(a~(N-s,N-t;N-n,N-m))
    with all indices reduced canonically.
    """
    f = twist_table(c)
    k, x = np.indices(f.shape)
    res_op = np.abs(f - f[-k, x - k].conj())[(x - k) % c.n, x]  # [i, j] at q = 0
    return {
        "hermiticity": _result("hermiticity", res_op, tol, lambda i, j: (0, 0, i, j)),
        "coeff_hermiticity": _result("coeff_hermiticity", hermiticity_residuals(c.values), tol, _on_support),
    }


def check_orthogonality(c, tol=DEFAULT_TOL):
    """Orthogonality/completeness: site-pair traces and coefficient sum rules.

    Operator level: Tr[D(q,p) D(q',p')^dag] = (1/N) delta delta over all
    site pairs. It is sum_k omega^((p-p')k) C[k, q'-q], C the circular
    autocorrelation of the twist table along x, so the row (q, p) = (0, 0)
    holds every value. Coefficient level: both Gram sums (over (s,t) and
    over (k,l)) equal (1/N^4) times identity.
    """
    spectrum = np.fft.fft(twist_table(c), axis=1)
    autocorrelation = np.fft.ifft(spectrum.real**2 + spectrum.imag**2, axis=1)  # [k, d]
    gram = np.fft.ifft(autocorrelation, axis=0, norm="forward")  # [e, d]
    row = gram.T[:, -np.arange(c.n) % c.n]  # [q', p'], e = -p'
    row[0, 0] -= 1.0 / c.n
    return {
        "orthogonality_site": _result("orthogonality_site", np.abs(row), tol, lambda q, p: (0, 0, q, p)),
        "orthogonality_index": _result("orthogonality_index", _coefficient_gram_residuals(c.values), tol,
                                       lambda a, b: (a, b, a, b)),
    }


def _coefficient_gram_residuals(values):
    """The coefficient Gram sums minus (1/N^4) identity, by their level-0 diagonal [n, m].

    Level 0 sums over (s,t), indexed [(n,m), (k,l)]; level 1 sums over
    (k,l), indexed [(s,t), (s',t')]. One support point meets each row, so
    both are diagonal, every other entry exactly zero: level 0 holds
    |v[s,t]|^2 at (n,m) = (t,s) and level 1 the same at (s,t). Level 1
    therefore fails exactly where level 0 does, after it, and never names
    the witness.
    """
    n = values.shape[0]
    return np.abs(values.real.T**2 + values.imag.T**2 - 1.0 / n**4)


# ---------------------------------------------------------------------------
# Covariance under SL(2, Z_N)
# ---------------------------------------------------------------------------

def _two_phi(entries, a, b, n):
    """The doubled covariance phase exponent 2*phi'(a,b) mod 2N.

    2*phi'(n,m) = nu*lam*n*(N-n) + mu*kappa*m*(N-m) + 2*mu*lam*n*m for
    canonical (n,m) = (a,b) and the lift entries (kappa, lam, mu, nu),
    Python ints or int64 arrays broadcast against ``a`` and ``b``. On
    Python ints the value is exact for lifts of any size. Where an int64
    array enters, the entries must lie below 2N in absolute value, as the
    residues of :func:`_lift_entries` do, so that no product overflows for
    N below 30,000. The exponent can be odd, so omega^(phi') a half-integer
    power, only when N is even.
    """
    kappa, lam, mu, nu = entries
    return (nu * lam * (a * (n - a)) + mu * kappa * (b * (n - b)) + mu * lam * (2 * a * b)) % (2 * n)


def _lift_entries(lifts, n):
    """int64 array [kappa|lam|mu|nu, lift] of the lifts' entries reduced mod 2N.

    The reduction keeps every index map mod N and every :func:`_two_phi`
    exponent, and bounds every product of the covariance scan.
    """
    return np.array([x % (2 * n) for g in lifts for x in g], dtype=np.int64).reshape(-1, 4).T


def _covariance_scan(values, lifts, tol):
    """Covariance audit of the table with support ``values`` under every lift in ``lifts``, in order.

    The residual at [s,t,n,m] is
    |a~(A(s,t); n, m) - omega^(phi'(n,m)) a~(s, t; B(n,m))| with the index
    bijections A(s,t) = (nu*s+lam*t, mu*s+kappa*t) and
    B(n,m) = (nu*n-mu*m, -lam*n+kappa*m) mod N. The first entry lies on the
    support only at (n,m) = (a,b) = (mu*s+kappa*t, nu*s+lam*t), the swap of
    A(s,t), and since the determinant is 1, B(a,b) = (t,s): the second
    entry lies on it there too. So the residual is zero except at
    (s,t,a,b), where it is |v[b,a] - omega^(phi'(a,b)) v[s,t]|. Each lift's
    residuals over (s,t) are one block of :func:`_scan`, so the witness is
    (s,t,a,b) at the first failing (s,t) of the first failing lift, as a
    dense scan would name it, followed by that lift's entries (kappa, lam,
    mu, nu) as passed in, and only one lift's arrays are held at a time.
    The product is written in real arithmetic: numpy's complex multiply
    rounds differently by array layout, and this way the residuals are
    those of a scalar loop.
    """
    n = values.shape[0]
    s, t = np.indices((n, n)).reshape(2, -1)
    half = _half_omega_table(n)
    rhs = values.ravel()

    def blocks():
        for lift, (k, l, m, v) in zip(lifts, _lift_entries(lifts, n).T):
            a, b = (m * s + k * t) % n, (v * s + l * t) % n
            phase = half[_two_phi((k, l, m, v), a, b, n)]
            lhs = values[b, a]
            re = lhs.real - (phase.real * rhs.real - phase.imag * rhs.imag)
            im = lhs.imag - (phase.real * rhs.imag + phase.imag * rhs.real)
            yield np.hypot(re, im), lambda i: (int(s[i]), int(t[i]), int(a[i]), int(b[i])) + lift
            del a, b, phase, lhs, re, im  # freed before the next lift's are built

    return _scan("covariance", blocks(), tol)


def check_covariance_group(c, tol=DEFAULT_TOL):
    """Covariance under every integer lift of every element of SL(2, Z_N).

    Decided on the two :data:`~latwig.lattice.GENERATORS`. A table passes
    the residual of :func:`_covariance_scan` at lift g exactly when it is
    fixed by (T_g a)(s,t; n,m) = omega^(phi'(n,m)) a(A^-1(s,t); B(n,m)).
    These maps form a right action of SL(2, Z), T_g1 T_g2 = T_(g2 g1), and
    T_g depends on g only mod 2N. A table fixed by S and T is therefore
    fixed by every integer matrix of determinant 1, and one that is not
    fails at S or T. The witness is S's when S fails.
    """
    return _covariance_scan(c.values, GENERATORS, tol)


# ---------------------------------------------------------------------------
# Line-by-line derivation and the uniqueness audit
# ---------------------------------------------------------------------------

def _route_phi(a, b, r, n):
    """The doubled exponent mod 2N of the route along the row (a, b) mod M at r.

    The row's direction unitary V = omega^((N-1)ab/2) S^a P^b has
    V^r = omega^(a*b*r*(N-r)/2) S^(ra) P^(rb), so the route maps
    (s,t) = (rb, ra) onto the s-slice with value (1/N^2) omega^(phi'(t,s)),
    2*phi' = a*b*r*(N-r) mod 2N, whichever lift completes the row. Python
    ints or int64 arrays with a, b < 2N: no product overflows for N below
    55,000.
    """
    return a * b * r * (n - r) % (2 * n)


def derived_table(n):
    """Table built from the axis conditions plus canonical line routes only.

    The canonical route of (s,t) = g*(sigma, tau), g = gcd(s,t), is the
    s-slice route at r = g through the primitive row (tau, sigma), which
    maps (s,t) onto the s-slice; the value, (1/N^2) omega^(phi'(t,s)), is
    read off the axis condition there with the exponent of
    :func:`_route_phi`. It is divided by N^2 componentwise, as Python's
    ``complex / int`` divides.
    """
    check_dim(n)
    s, t = np.indices((n - 1, n - 1)) + 1
    g = np.gcd(s, t)
    half = _half_omega_table(n)[_route_phi(t // g, s // g, g, n)]
    values = np.full((n, n), 1.0 / n**2, dtype=complex)  # the t = 0 and s = 0 slices
    values.real[1:, 1:] = half.real / n**2
    values.imag[1:, 1:] = half.imag / n**2
    return FanoCoefficients(n, values)


def _route_consistency(n, tol):
    """Route consistency: all routes agree at every (s,t) != (0,0), decided per point in closed form.

    A lift with first row (a, b) mod M maps (s,t) = (rb, ra), r = 1..N-1,
    onto the s-slice with the exponent x = a*b*r*(N-r) mod 2N of
    :func:`_route_phi` (its second row maps them onto the t-slice alike).
    As ra = t and rb = s (mod N), x = -st (mod N): (s,t) sees at most the
    classes c = -st mod N and c + N. No route reaches (0, 0), as
    gcd(a, b, N) = 1. Any other point is reached at r = g = gcd(s, t, N)
    by a row (t/g + jN/g, s/g + kN/g), primitive for some j, k, and by
    (-a, -b) at N - r, another route (r = N/2 needs a, b in {0, N}), so at
    a negative ``tol`` every point but (0, 0) fails.

    Odd N: r(N-r) is even, and so is x. Even N: with ra = t + N*alpha and
    rb = s + N*beta, x = -st + N(abr + t*beta + s*alpha) mod 2N. For s, t
    even that is fixed by abr, which is even: an odd r would make a and b
    even. If s or t is odd, so is g, and a + N (s odd) or b + N (t odd)
    moves the route at r = g to the other class: the row stays primitive,
    the point stays, alpha or beta moves by the odd r. So two classes meet
    exactly where s or t is odd, with the spread
    |omega^(c/2) - omega^((c+N)/2)| / N^2.

    ``max_violation`` is the largest spread; a point fails unless its spread
    is at most ``tol``. The witness is the first failing point, its lead, the
    first route in code order (rows in lexicographic order, then r), and
    its rival, the first later route whose spread from the lead is above
    ``tol``, each row with its first completion.
    """
    half = _half_omega_table(n)
    re, im = half.real / n**2, half.imag / n**2
    s, t = np.indices((n, n))
    spread = np.zeros((n, n))
    if n % 2 == 0:
        conflict = np.hypot(re[:n] - re[n:], im[:n] - im[n:])  # [c]
        spread = np.where((s | t) % 2 == 1, conflict[-s * t % n], 0.0)
    check = _result("route_consistency", spread.ravel()[1:], tol, lambda k: divmod(k + 1, n))  # no route reaches (0, 0)
    if check.passed:
        return check
    point = check.witness
    m = n if n % 2 else 2 * n
    rk = np.arange(n)[:, np.newaxis] * np.arange(m) % n
    on_t, on_s = rk == point[1], rk == point[0]  # [r, a]: r*a = t, r*a = s (mod N); r = 0 reaches only (0, 0)
    routes = []  # [a | b | r] of the routes onto the point, rows primitive mod M
    for r in np.flatnonzero(on_t.any(axis=1) & on_s.any(axis=1)):
        a, b = np.flatnonzero(on_t[r]), np.flatnonzero(on_s[r])
        a, b = np.repeat(a, len(b)), np.tile(b, len(a))
        keep = np.gcd(np.gcd(a, b), m) == 1
        routes.append(np.stack([a[keep], b[keep], np.full(keep.sum(), r)]))
    routes = np.concatenate(routes, axis=1)
    a, b, r = routes[:, np.lexsort(routes[::-1])]  # code order: rows, then r
    x = _route_phi(a, b, r, n)
    rival = int((np.hypot(re[x[1:]] - re[x[0]], im[x[1:]] - im[x[0]]) > tol).argmax()) + 1
    pair = np.array([[a[0], b[0]], [a[rival], b[rival]]])
    lifts = np.column_stack([pair, first_completions(pair, m)])  # [lead | rival, entry]
    return CheckResult("route_consistency", False, check.max_violation, point + tuple(lifts.ravel().tolist()))


def uniqueness_audit(n, tol=DEFAULT_TOL):
    """Route-consistency audit plus the two-condition sufficiency check.

    For every nonzero (s,t), the forced value is derived through every
    integer lift with determinant 1 that maps (s,t) onto an axis slice, as
    one route per primitive row mod M and r, decided per point in closed
    form; all routes must agree for the table to exist. The table derived
    through one canonical route per point is then checked against the
    closed form and against hermiticity and orthogonality, which were never
    imposed on it.
    """
    check_dim(n)
    route_check = _route_consistency(n, tol)

    derived = derived_table(n)
    match = np.abs(derived.values - coefficients_candidate(n).values)
    herm = hermiticity_residuals(derived.values)
    checks = {
        "route_consistency": route_check,
        "derived_matches_construction": _result("derived_matches_construction", match, tol, _on_support),
        "derived_hermiticity": _result("derived_hermiticity", herm, tol, _on_support),
        # The witness indexes the stacked Gram residuals [level, (n,m), (k,l)].
        "derived_orthogonality": _result("derived_orthogonality", _coefficient_gram_residuals(derived.values), tol,
                                         lambda a, b: (0, a * n + b, a * n + b)),
    }
    return checks, derived


# ---------------------------------------------------------------------------
# Full audit
# ---------------------------------------------------------------------------

INFEASIBILITY_CHECKS = ("hermiticity", "coeff_hermiticity", "covariance", "route_consistency")


def full_report(n, tol=DEFAULT_TOL):
    """Run every condition family on the dimension's candidate table.

    For odd N the candidate is the solution and everything is expected to
    pass; for even N at least one of hermiticity, covariance or route
    consistency is expected to fail. Returns the checks by name, in audit
    order: outcomes only, the verdict against that expectation is
    :func:`matches_parity_prediction`'s.
    """
    coeffs = coefficients_candidate(n)
    checks = {}
    checks.update(check_marginals(coeffs, tol))
    checks.update(check_coefficient_axes(coeffs, tol))
    checks.update(check_hermiticity(coeffs, tol))
    checks.update(check_orthogonality(coeffs, tol))
    checks["covariance"] = check_covariance_group(coeffs, tol)
    unique_checks, _ = uniqueness_audit(n, tol)
    checks.update(unique_checks)
    return checks


def infeasibility_witness(checks):
    """First failed check, of a dict of checks by name, among the ones that can witness non-existence."""
    for name in INFEASIBILITY_CHECKS:
        c = checks.get(name)
        if c is not None and not c.passed:
            return c
    return None


def matches_parity_prediction(n, checks):
    """True when the audit of dimension n, a dict of checks by name, reproduces the odd/even dichotomy."""
    if n % 2 == 1:
        return all(c.passed for c in checks.values())
    return infeasibility_witness(checks) is not None
