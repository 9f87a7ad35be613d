"""Phase-point operator tables on the lattice: construction and condition audits.

The central object is the rank-4 coefficient table a~(s,t;n,m) expanding the
phase-point operators D(q,p) over the clock/shift monomials S^n P^m. The
module builds the closed-form tables, assembles the operators, and audits
the defining condition families (axis marginals, hermiticity, orthogonality,
symplectic covariance) plus the line-by-line derivation that forces the
table uniquely. Audits never raise on mathematical failure; they return
reports, because failure is the expected outcome for even N.

Construction runs on ``numpy.fft``: the table-to-position transform and the
monomial expansion are FFTs over single axes of the N^4 table, so
``assemble`` costs O(N^4 log N) time and about three N^4 complex arrays of
memory (the table plus at most two work or output arrays at a time).

The group audits share one enumeration of SL(2, Z_N) with its integer
lifts (:func:`latwig.lattice.sl2_lifts`). The covariance audit evaluates
each lift only where a residual can be nonzero, O(nnz) positions for a
table with nnz nonzero entries, so it costs O(|G| nnz) rather than
O(|G| N^4); the route audit costs O(|G| N^2).
"""

from dataclasses import dataclass, replace

import numpy as np

from .lattice import (
    DEFAULT_AUDIT_BOUND,
    SL2Element,
    check_dim,
    gcd_decompose,
    sl2_complete,
    sl2_lifts,
)
from .operators import (
    DEFAULT_TOL,
    _half_omega_table,
    _omega_table,
    momentum_vector,
)

PHASE_CONVENTION = "exp(2*pi*i*x/N)"

# Candidate positions per batch of lifts in the covariance scan: each
# temporary of a batch holds at most this many entries (or one lift's
# candidates, if those are more).
COVARIANCE_BATCH = 4096


@dataclass(frozen=True)
class FanoCoefficients:
    """Coefficient table a~(s,t;n,m) stored on canonical residues [0,N)^4."""

    n: int
    table: np.ndarray  # complex, shape (n, n, n, n), indexed [s, t, n, m]

    def copy(self):
        return FanoCoefficients(self.n, self.table.copy())


@dataclass(frozen=True)
class FanoOperatorSet:
    """The N^2 phase-point operators, operators[q, p] an N x N matrix."""

    n: int
    operators: np.ndarray  # complex, shape (n, n, n, n), indexed [q, p, i, j]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one audited condition; max violation kept even on pass."""

    name: str
    passed: bool
    max_violation: float
    witness: tuple | None = None
    element: SL2Element | None = None

    def to_json_dict(self):
        witness = None
        if self.witness is not None:
            witness = [int(x) for x in self.witness]
            if self.element is not None:
                witness.extend(int(x) for x in self.element.as_tuple())
        return {"pass": self.passed, "max_violation": float(self.max_violation), "witness": witness}


@dataclass
class ConditionReport:
    """Named check results for one dimension, with the verdict left to callers."""

    n: int
    tolerance: float
    checks: dict

    @property
    def passed(self):
        return all(c.passed for c in self.checks.values())

    def failed_names(self):
        return [name for name, c in self.checks.items() if not c.passed]

    def to_json_dict(self):
        return {
            "n": self.n,
            "tolerance": self.tolerance,
            "phase_convention": PHASE_CONVENTION,
            "checks": {name: c.to_json_dict() for name, c in self.checks.items()},
        }


def _result(name, residuals, tol, element=None):
    """Build a CheckResult from a residual-magnitude array.

    The witness is the lexicographically first index whose violation
    exceeds tolerance, so parallel audit workers merging reports in index
    order agree on it.
    """
    res = np.asarray(residuals)
    max_violation = float(res.max()) if res.size else 0.0
    if max_violation <= tol:
        return CheckResult(name, True, max_violation, None, None)
    witness = tuple(int(i) for i in np.argwhere(res > tol)[0])
    return CheckResult(name, False, max_violation, witness, element)


# ---------------------------------------------------------------------------
# Table constructors
# ---------------------------------------------------------------------------

def coefficients_candidate(n):
    """The table forced by the axis conditions plus line covariance, any N.

    a~(s,t;n,m) = (1/N^2) * omega^(-s*t*(N+1)/2) * delta(m,s) * delta(t,n)
    on canonical s,t. For even N the exponent can be half-integer; it is
    resolved as omega^x = exp(2*pi*i*x/N) with the doubled exponent reduced
    mod 2N.
    """
    check_dim(n)
    s, t = np.indices((n, n))
    table = np.zeros((n, n, n, n), dtype=complex)
    table[s, t, t, s] = _half_omega_table(n)[(-s * t * (n + 1)) % (2 * n)] / n**2
    return FanoCoefficients(n, table)


def coefficients_odd(n):
    """The unique solution table for odd N: the candidate, with integer exponent -s*t*(N+1)/2."""
    check_dim(n)
    if n % 2 == 0:
        raise ValueError(f"no solution table exists for even N = {n}; use coefficients_candidate")
    return coefficients_candidate(n)


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
    table = np.zeros((n, n, n, n), dtype=complex)
    for s in range(n):
        for t in range(n):
            nn, mm = t, s
            if nn % 2 == 0:
                exp = (-(nn * mm) // 2) % n
            else:
                exp = (-((nn + n) * mm) // 2) % n
            table[s, t, nn, mm] = om[exp] / n**2
    return FanoCoefficients(n, table)


def coefficients_to_position(c):
    """Position-space coefficients a(q,p;n,m) = sum_st omega^(pt-qs) a~(s,t;n,m).

    A forward FFT over s and an unnormalised inverse FFT over t.
    """
    a = np.fft.fft(c.table, axis=0)
    return np.fft.ifft(a, axis=1, norm="forward")


def assemble(c):
    """Phase-point operators D(q,p) = sum_nm a(q,p;n,m) S^n P^m.

    (S^n P^m)[i,j] = delta(j, i+n) omega^(m*j), so an unnormalised inverse
    FFT over m gives b(q,p;n,j) = sum_m a(q,p;n,m) omega^(m*j), and
    D(q,p)[i,j] = b(q,p; j-i mod N, j) is a gather.
    """
    n = c.n
    b = coefficients_to_position(c)
    b = np.fft.ifft(b, axis=3, norm="forward")
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    ops = np.take(b.reshape(n, n, n * n), ((j - i) % n) * n + j, axis=2)
    return FanoOperatorSet(n, ops)


# ---------------------------------------------------------------------------
# Condition checks: operator level and coefficient level
# ---------------------------------------------------------------------------

def check_marginals(f, tol=DEFAULT_TOL):
    """Operator-level axis marginals: sum_p D(q,p) = |q><q|, sum_q D(q,p) = |p><p|."""
    n = f.n
    sum_p = f.operators.sum(axis=1)  # [q, i, j]
    target_q = np.zeros((n, n, n), dtype=complex)
    for q in range(n):
        target_q[q, q, q] = 1.0
    res_q = np.abs(sum_p - target_q)

    sum_q = f.operators.sum(axis=0)  # [p, i, j]
    target_p = np.empty((n, n, n), dtype=complex)
    for p in range(n):
        v = momentum_vector(p, n)
        target_p[p] = np.outer(v, v.conj())
    res_p = np.abs(sum_q - target_p)
    return {
        "marginal_q": _result("marginal_q", res_q, tol),
        "marginal_p": _result("marginal_p", res_p, tol),
    }


def check_coefficient_axes(c, tol=DEFAULT_TOL):
    """Coefficient-level axis conditions on the t=0 and s=0 slices.

    a~(s,0;n,m) = (1/N^2) delta(n,0) delta(m,s) and
    a~(0,t;n,m) = (1/N^2) delta(m,0) delta(n,t).
    """
    n = c.n
    target_s = np.zeros((n, n, n), dtype=complex)
    target_t = np.zeros((n, n, n), dtype=complex)
    for k in range(n):
        target_s[k, 0, k] = 1.0 / n**2
        target_t[k, k, 0] = 1.0 / n**2
    res_s = np.abs(c.table[:, 0, :, :] - target_s)
    res_t = np.abs(c.table[0, :, :, :] - target_t)
    return {
        "coeff_axis_s": _result("coeff_axis_s", res_s, tol),
        "coeff_axis_t": _result("coeff_axis_t", res_t, tol),
    }


def _hermiticity_phases(n):
    om = _omega_table(n)
    grid = np.arange(n)
    return om[(-np.outer(grid, grid)) % n]  # [n, m] = omega^(-nm)


def hermiticity_residuals(table):
    """Residuals |a~(s,t;n,m) - omega^(-nm) conj(a~(-s,-t;-n,-m))|, indices mod N."""
    n = table.shape[0]
    idx = (-np.arange(n)) % n
    flipped = table[np.ix_(idx, idx, idx, idx)].conj()
    return np.abs(table - _hermiticity_phases(n)[np.newaxis, np.newaxis, :, :] * flipped)


def check_hermiticity(c, f, tol=DEFAULT_TOL):
    """Hermiticity at both levels, reported separately.

    Operator level: D(q,p)^dag = D(q,p) sitewise. Coefficient level:
    a~(s,t;n,m) = omega^(-nm) conj(a~(N-s,N-t;N-n,N-m)) with all indices
    reduced canonically.
    """
    res_op = np.abs(f.operators - f.operators.conj().transpose(0, 1, 3, 2))
    res_coeff = hermiticity_residuals(c.table)
    return {
        "hermiticity": _result("hermiticity", res_op, tol),
        "coeff_hermiticity": _result("coeff_hermiticity", res_coeff, tol),
    }


def check_orthogonality(c, f, tol=DEFAULT_TOL):
    """Orthogonality/completeness: site-pair traces and coefficient sum rules.

    Operator level: Tr[D(q,p) D(q',p')^dag] = (1/N) delta delta over all
    site pairs. Coefficient level: both Gram sums (over (s,t) and over
    (k,l)) equal (1/N^4) times identity.
    """
    n = f.n
    # Reshaped so a witness names four lattice indices; the Gram level is dropped.
    site = _result("orthogonality_site", _site_gram_residuals(f).reshape(n, n, n, n), tol)
    index = _result("orthogonality_index", _coefficient_gram_residuals(c.table).reshape(2, n, n, n, n), tol)
    if index.witness is not None:
        index = replace(index, witness=index.witness[1:])
    return {"orthogonality_site": site, "orthogonality_index": index}


def _site_gram_residuals(f):
    """|Tr[D(q,p) D(q',p')^dag] - (1/N) delta delta| on [(q,p), (q',p')]."""
    n = f.n
    flat = f.operators.reshape(n * n, n * n)
    return np.abs(flat @ flat.conj().T - np.eye(n * n) / n)


def _coefficient_gram_residuals(table):
    """Both coefficient Gram sums minus (1/N^4) identity, stacked.

    Level 0 sums over (s,t), indexed [(n,m), (k,l)]; level 1 sums over
    (k,l), indexed [(s,t), (s',t')].
    """
    n = table.shape[0]
    flat = table.reshape(n * n, n * n)
    target = np.eye(n * n) / n**4
    return np.stack([np.abs(flat.conj().T @ flat - target), np.abs(flat @ flat.conj().T - target)])


# ---------------------------------------------------------------------------
# Covariance under SL(2, Z_N)
# ---------------------------------------------------------------------------

def _two_phi(entries, a, b, n):
    """The doubled covariance phase exponent 2*phi'(a,b) mod 2N.

    2*phi'(n,m) = nu*lam*n*(N-n) + mu*kappa*m*(N-m) + 2*mu*lam*n*m for
    canonical (n,m) = (a,b) and the lift entries (kappa, lam, mu, nu).
    Changing an entry by 2N changes each term by a multiple of 2N, so the
    entries are reduced mod 2N before multiplying: the value is exact for
    lifts of any size, and int64 arrays of entries cannot overflow. The
    entries are Python ints or int64 arrays, broadcast against ``a`` and
    ``b``. The exponent can be odd, so omega^(phi') a half-integer power,
    only when N is even.
    """
    kappa, lam, mu, nu = (x % (2 * n) for x in entries)
    return (nu * lam * (a * (n - a)) + mu * kappa * (b * (n - b)) + mu * lam * (2 * a * b)) % (2 * n)


def _lift_entries(lifts, n):
    """int64 array [kappa|lam|mu|nu, lift] of the lifts' entries reduced mod 2N.

    The reduction keeps every index map mod N and every :func:`_two_phi`
    exponent, and bounds every product of the vectorised audits.
    """
    entries = np.array([[x % (2 * n) for x in g.as_tuple()] for g in lifts], dtype=np.int64)
    return np.ascontiguousarray(entries.reshape(-1, 4).T)


def _covariance_scan(table, lifts, tol):
    """Covariance audit of ``table`` under every lift in ``lifts``, in order.

    The residual at [s,t,n,m] is
    |a~(A(s,t); n, m) - omega^(phi'(n,m)) a~(s, t; B(n,m))| with the index
    bijections A(s,t) = (nu*s+lam*t, mu*s+kappa*t) and
    B(n,m) = (nu*n-mu*m, -lam*n+kappa*m) mod N. It is exactly zero unless
    one of the two entries lies in the table's support, so each lift is
    evaluated only at the preimages of the support points under A and
    under B, plus the origin, which stands in for every other position
    (residual 0; it keeps an empty support and a negative tolerance exact).
    The witness is the lexicographically first index above tol of the
    first failing lift, as a dense scan would name it.
    """
    n = table.shape[0]
    ss, ts, ns, ms = np.nonzero(table)
    half = _half_omega_table(n)
    zero = np.zeros(1, dtype=np.int64)
    batch = max(1, COVARIANCE_BATCH // (2 * ss.size + 1))
    entries = _lift_entries(lifts, n)[:, :, np.newaxis]
    worst = 0.0
    first_fail = None
    for start in range(0, len(lifts), batch):
        chunk = lifts[start:start + batch]
        k, l, m, v = entries[:, start:start + batch]

        def candidates(*parts):
            return np.concatenate(
                [np.broadcast_to(p, (len(chunk), p.shape[-1])) for p in parts], axis=1) % n

        s = candidates(zero, k * ss - l * ts, ss)
        t = candidates(zero, v * ts - m * ss, ts)
        a = candidates(zero, ns, k * ns + m * ms)
        b = candidates(zero, ms, l * ns + v * ms)
        lhs = table[(v * s + l * t) % n, (m * s + k * t) % n, a, b]
        phases = half[_two_phi((k, l, m, v), a, b, n)]
        res = np.abs(lhs - phases * table[s, t, (v * a - m * b) % n, (k * b - l * a) % n])
        worst = max(worst, float(res.max()))
        if first_fail is None:
            failing = res > tol
            rows = np.flatnonzero(failing.any(axis=1))
            if rows.size:
                r = rows[0]
                flat = np.ravel_multi_index((s[r], t[r], a[r], b[r]), table.shape)
                witness = np.unravel_index(flat[failing[r]].min(), table.shape)
                first_fail = (tuple(int(i) for i in witness), chunk[r])
    if first_fail is None:
        return CheckResult("covariance", True, worst, None, None)
    return CheckResult("covariance", False, worst, *first_fail)


def check_covariance_group(c, tol=DEFAULT_TOL, elements=None, audit_bound=DEFAULT_AUDIT_BOUND):
    """Worst covariance violation over the whole group, base and shifted lifts.

    The phase exponent is quadratic in the integer lifts, so each residue
    class is tested with its base lift and a +N-shifted one; a genuinely
    covariant table must pass both. ``elements`` is a list of lift tuples
    from :func:`latwig.lattice.sl2_lifts` (then ``audit_bound`` is not
    used); by default it is built here. ``elements=[(g,)]`` audits the
    single lift g.
    """
    if elements is None:
        elements = sl2_lifts(c.n, audit_bound)
    return _covariance_scan(c.table, [lift for group in elements for lift in group], tol)


# ---------------------------------------------------------------------------
# Line-by-line derivation and the uniqueness audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedValue:
    """Value forced at the support point (n,m) = (t,s) by one derivation route."""

    value: complex
    support: tuple
    element: SL2Element


def _route_kind(g, s, t, n):
    """Which axis slice the element maps (s,t) onto, if any.

    's' means kappa*s - lam*t = 0 mod N (first index mapped to 0); 't'
    means nu*t - mu*s = 0 mod N (second index mapped to 0). At most one
    applies, because the index map is a bijection and (s,t) != (0,0).
    """
    if (g.kappa * s - g.lam * t) % n == 0:
        return "s"
    if (g.nu * t - g.mu * s) % n == 0:
        return "t"
    return None


def _route_value(g, s, t, n):
    """Forced value (1/N^2) omega^(phi'(t,s)) using the element's lifts."""
    return complex(_half_omega_table(n)[_two_phi(g.as_tuple(), t % n, s % n, n)]) / n**2


def derive_via_line(n, s, t):
    """Force a~(s,t;.,.) through the canonical line route.

    Decompose (s,t) = xi*(sigma,tau), take the direction (kappa,lam) =
    (tau,sigma) so the first transformed index vanishes exactly, complete
    deterministically, and read the value off the axis condition. The
    support sits at (n,m) = (t,s).
    """
    check_dim(n)
    s, t = s % n, t % n
    if s == 0 and t == 0:
        raise ValueError("(0, 0) is fixed by the axis conditions, not by a line route")
    dec = gcd_decompose(s, t, n)
    g = sl2_complete(dec.tau, dec.sigma)
    assert _route_kind(g, s, t, n) == "s"
    return DerivedValue(value=_route_value(g, s, t, n), support=(t, s), element=g)


def derived_table(n):
    """Table built from the axis conditions plus canonical line routes only."""
    check_dim(n)
    table = np.zeros((n, n, n, n), dtype=complex)
    for k in range(n):
        table[k, 0, 0, k] = 1.0 / n**2  # t = 0 slice
        table[0, k, k, 0] = 1.0 / n**2  # s = 0 slice
    for s in range(n):
        for t in range(n):
            if s == 0 or t == 0:
                continue
            d = derive_via_line(n, s, t)
            table[s, t, d.support[0], d.support[1]] = d.value
    return FanoCoefficients(n, table)


def _route_consistency(n, elements, tol):
    """Route-consistency check: all routes agree at every (s,t) != (0,0).

    The witness is the first (s,t) in lexicographic order with a conflict,
    then its first route's lift and the first lift that disagrees. The
    routes are the lifts, in order, for which :func:`_route_kind` is not
    None, and their values are those of :func:`_route_value`, computed with
    numpy over all lifts at once for each (s,t). A value's real and
    imaginary parts are divided by N^2 separately and spreads are taken
    with hypot, which is what the complex arithmetic of
    :func:`_route_value` and ``abs`` gives, to the last bit.
    """
    lifts = [lift for group in elements for lift in group]
    entries = _lift_entries(lifts, n)
    k, l, m, v = entries
    half = _half_omega_table(n)
    re, im = half.real / n**2, half.imag / n**2
    worst = 0.0
    witness = None
    for s in range(n):
        for t in range(n):
            if s == 0 and t == 0:
                continue
            on_axis = np.flatnonzero(((k * s - l * t) % n == 0) | ((v * t - m * s) % n == 0))
            two = _two_phi(entries[:, on_axis], t, s, n)
            spread = np.hypot(re[two[1:]] - re[two[0]], im[two[1:]] - im[two[0]])
            if spread.size:
                worst = max(worst, float(spread.max()))
            conflicts = np.flatnonzero(spread > tol)
            if witness is None and conflicts.size:
                first, other = lifts[on_axis[0]], lifts[on_axis[conflicts[0] + 1]]
                witness = (s, t) + first.as_tuple() + other.as_tuple()
    return CheckResult("route_consistency", witness is None, worst, witness, None)


def uniqueness_audit(n, tol=DEFAULT_TOL, audit_bound=DEFAULT_AUDIT_BOUND, elements=None):
    """Route-consistency audit plus the two-condition sufficiency check.

    For every nonzero (s,t), the forced value is derived through every
    group element that maps (s,t) onto an axis slice, with two lifts each;
    all routes must agree for the table to exist. The canonically derived
    table is then checked against the closed form and against hermiticity
    and orthogonality, which were never imposed on it. ``elements`` is a
    list of lift tuples from :func:`latwig.lattice.sl2_lifts`; by default
    it is built here.
    """
    check_dim(n)
    if elements is None:
        elements = sl2_lifts(n, audit_bound)
    route_check = _route_consistency(n, elements, tol)

    derived = derived_table(n)
    reference = coefficients_candidate(n)
    res_match = np.abs(derived.table - reference.table)
    match_check = _result("derived_matches_construction", res_match, tol)

    herm = hermiticity_residuals(derived.table)
    herm_check = _result("derived_hermiticity", herm, tol)

    orth_check = _result("derived_orthogonality", _coefficient_gram_residuals(derived.table), tol)

    checks = {
        "route_consistency": route_check,
        "derived_matches_construction": match_check,
        "derived_hermiticity": herm_check,
        "derived_orthogonality": orth_check,
    }
    return checks, derived


# ---------------------------------------------------------------------------
# Full audit
# ---------------------------------------------------------------------------

INFEASIBILITY_CHECKS = ("hermiticity", "coeff_hermiticity", "covariance", "route_consistency")


def full_report(n, tol=DEFAULT_TOL, audit_bound=DEFAULT_AUDIT_BOUND):
    """Run every condition family on the dimension's candidate table.

    For odd N the candidate is the solution and everything is expected to
    pass; for even N at least one of hermiticity, covariance or route
    consistency is expected to fail. The report records outcomes only;
    verdicts against that expectation belong to the caller. The group is
    enumerated first, so an N above ``audit_bound`` raises before any work.
    """
    elements = sl2_lifts(n, audit_bound)
    coeffs = coefficients_candidate(n)
    fset = assemble(coeffs)
    checks = {}
    checks.update(check_marginals(fset, tol))
    checks.update(check_coefficient_axes(coeffs, tol))
    checks.update(check_hermiticity(coeffs, fset, tol))
    checks.update(check_orthogonality(coeffs, fset, tol))
    checks["covariance"] = check_covariance_group(coeffs, tol, elements=elements)
    unique_checks, _ = uniqueness_audit(n, tol, elements=elements)
    checks.update(unique_checks)
    return ConditionReport(n=n, tolerance=tol, checks=checks)


def infeasibility_witness(report):
    """First failed check among the ones that can witness non-existence."""
    for name in INFEASIBILITY_CHECKS:
        c = report.checks.get(name)
        if c is not None and not c.passed:
            return c
    return None


def matches_parity_prediction(report):
    """True when the audit reproduces the odd/even dichotomy."""
    if report.n % 2 == 1:
        return report.passed
    return infeasibility_witness(report) is not None
