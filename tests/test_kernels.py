"""Audit kernels against dense and plain-loop oracles.

The coefficient audits evaluate each condition only on the table's N^2
support values, the operator audits on its N x N twist table, and the
route audit on one route per primitive row and r. The oracles here run on
the dense N^4 table of ``oracles.dense_table``: the dense covariance scan,
the plain-loop residuals, the term-by-term Gram sums, the per-(s,t) loop
over `derivation_routes` of every lift class, the loop over the first lift
of every primitive row, and the scans of the dense operator tensor that
the dense table assembles; the fast paths must agree with them field by
field, on lift lists chosen here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from latwig import fano
from latwig.fano import CheckResult, FanoCoefficients, _covariance_scan, _hermiticity_phases, _result
from latwig.lattice import GENERATORS, SL2Element
from latwig.operators import _omega_table
from oracles import (
    IDENTITY,
    assemble_dense,
    compose,
    covariance_phase_table,
    dense_table,
    derivation_routes,
    exact_lift,
    lift_classes,
    operator_residuals_dense,
    phase_phi,
    route_consistency_loop,
    route_consistency_scan,
    sl2_enumerate,
    sl2_lifts_search,
    sl2_second_lift_search,
)


def _random_table(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))


def _random_values(n, seed):
    """Support values with every entry random."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_sparse_values(n, seed):
    """Support values with about half the entries random and the rest zero."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, n)) < 0.5, _random_values(n, seed + 1), 0)


def _covariance_oracle(table, g, phases):
    """Plain-Python reference on Python complex numbers, independent of the numpy paths."""
    n = table.shape[0]
    table, phases = table.tolist(), phases.tolist()
    out = np.empty((n, n, n, n))
    for s in range(n):
        for t in range(n):
            for a in range(n):
                for b in range(n):
                    lhs = table[(g.nu * s + g.lam * t) % n][(g.mu * s + g.kappa * t) % n][a][b]
                    rhs = phases[a][b] * table[s][t][(g.nu * a - g.mu * b) % n][(-g.lam * a + g.kappa * b) % n]
                    out[s, t, a, b] = abs(lhs - rhs)
    return out


def _hermiticity_oracle(table, phases):
    """Plain-Python reference on Python complex numbers."""
    n = table.shape[0]
    table, phases = table.tolist(), phases.tolist()
    out = np.empty((n, n, n, n))
    for s in range(n):
        for t in range(n):
            for a in range(n):
                for b in range(n):
                    out[s, t, a, b] = abs(
                        table[s][t][a][b]
                        - phases[a][b] * table[(-s) % n][(-t) % n][(-a) % n][(-b) % n].conjugate()
                    )
    return out


def coefficient_gram_oracle(table):
    """Both coefficient Gram sums of a dense table minus (1/N^4) identity, stacked.

    Level 0 sums over (s,t), indexed [(n,m), (k,l)]; level 1 sums over
    (k,l), indexed [(s,t), (s',t')]. Each term conj(x) y is formed in real
    arithmetic, as Python's complex product forms it, and the terms are
    summed one row at a time. (Level 1's terms x conj(y) are the conjugates,
    whose modulus is the same.)
    """
    n = table.shape[0]
    flat = table.reshape(n * n, n * n)
    out = np.empty((2, n * n, n * n))
    target = np.eye(n * n) / n**4
    for level, rows in enumerate((flat.T, flat)):
        xr, xi = rows.real, rows.imag
        for i in range(n * n):
            re = (xr[i] * xr + xi[i] * xi).sum(axis=1)
            im = (xr[i] * xi - xi[i] * xr).sum(axis=1)
            out[level, i] = np.hypot(re - target[i], im)
    return out


def covariance_residuals_dense(table, g):
    """Dense residuals of the covariance identity for one lift, indexed [s, t, n, m].

    |a~(nu*s+lam*t, mu*s+kappa*t; n, m)
      - omega^(phi'(n,m)) a~(s, t; nu*n-mu*m, -lam*n+kappa*m)|, indices mod N.
    """
    n = table.shape[0]
    phases = covariance_phase_table(g, n)
    s = np.arange(n).reshape(n, 1, 1, 1)
    t = np.arange(n).reshape(1, n, 1, 1)
    a = np.arange(n).reshape(1, 1, n, 1)
    b = np.arange(n).reshape(1, 1, 1, n)
    lhs = table[(g.nu * s + g.lam * t) % n, (g.mu * s + g.kappa * t) % n, a, b]
    rhs = phases[np.newaxis, np.newaxis, :, :] * table[s, t, (g.nu * a - g.mu * b) % n,
                                                         (-g.lam * a + g.kappa * b) % n]
    return np.abs(lhs - rhs)


def _flat(elements):
    """The lifts of a list of lift tuples, in order."""
    return [lift for group in elements for lift in group]


def covariance_group_oracle(table, lifts, tol):
    """Dense scan of every lift in order; witness from the first failing lift."""
    worst = 0.0
    first_fail = None
    for lift in lifts:
        res = covariance_residuals_dense(table, lift)
        worst = max(worst, float(res.max()))
        if first_fail is None and res.max() > tol:
            first_fail = tuple(int(i) for i in np.argwhere(res > tol)[0]) + lift
    if first_fail is None:
        return CheckResult("covariance", True, worst)
    return CheckResult("covariance", False, worst, first_fail)


def route_consistency_oracle(n, elements, tol):
    """Loop over `derivation_routes` per (s,t), spreads by Python complex abs.

    ``elements`` is an array of lifts, one route per row that maps (s,t)
    onto an axis slice.
    """
    worst = 0.0
    witness = None
    lifts = elements.tolist()
    for s in range(n):
        for t in range(n):
            if s == 0 and t == 0:
                continue
            routes = derivation_routes(n, s, t, lifts)
            g0, v0 = routes[0]
            for g, v in routes[1:]:
                spread = abs(v - v0)
                worst = max(worst, spread)
                if spread > tol and witness is None:
                    witness = (s, t) + g0 + g
    return CheckResult("route_consistency", witness is None, worst, witness)


def assert_same_check(got, want, exact=False):
    assert got.name == want.name
    assert got.passed == want.passed
    assert got.witness == want.witness
    if exact:
        assert got.max_violation == want.max_violation
    else:
        assert abs(got.max_violation - want.max_violation) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_numpy_covariance_kernel_matches_oracle(n):
    table = _random_table(n, n)
    for g in (exact_lift(row, n) for row in sl2_enumerate(n)[:6]):
        got = covariance_residuals_dense(table, g)
        assert_allclose(got, _covariance_oracle(table, g, covariance_phase_table(g, n)), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_numpy_hermiticity_kernel_matches_oracle(n):
    """The support residuals equal, to the bit, the plain loop on the dense
    table, which is zero off the support."""
    c = FanoCoefficients(n, _random_values(n, 10 + n))
    want = _hermiticity_oracle(dense_table(c), _hermiticity_phases(n))
    s, t = np.indices((n, n))
    assert np.array_equal(fano.hermiticity_residuals(c.values), want[s, t, t, s])
    want[s, t, t, s] = 0
    assert not want.any()


@pytest.mark.parametrize("n", range(1, 31))
def test_hermiticity_residuals_equal_the_scalar_loop_to_the_bit(n):
    """The candidate and derived tables' support residuals against a loop on
    Python complex numbers, which rounds each product of the complex
    multiply once: numpy's complex multiply fuses a multiply-add where the
    CPU has FMA, and then the check artifact's max_violation would depend
    on the machine."""
    phases = _hermiticity_phases(n).tolist()
    for values in (fano.coefficients_candidate(n).values, fano.derived_table(n).values):
        v = values.tolist()
        want = [[abs(v[s][t] - phases[s][t] * v[-s % n][-t % n].conjugate()) for t in range(n)] for s in range(n)]
        assert np.array_equal(fano.hermiticity_residuals(values), np.array(want))


@pytest.mark.parametrize("n", range(1, 10))
def test_sparse_covariance_matches_dense_oracle_on_candidate_tables(n):
    lifts = _flat(sl2_lifts_search(n))
    c = fano.coefficients_candidate(n)
    assert_same_check(_covariance_scan(c.values, lifts, 1e-10), covariance_group_oracle(dense_table(c), lifts, 1e-10))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sparse_covariance_matches_dense_oracle_on_random_dense_tables(n):
    """Every support value random: the densest table the type can hold."""
    lifts = _flat(sl2_lifts_search(n))
    values = _random_values(n, 100 + n)
    got = _covariance_scan(values, lifts, 1e-10)
    want = covariance_group_oracle(dense_table(FanoCoefficients(n, values)), lifts, 1e-10)
    assert not want.passed
    assert_same_check(got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_sparse_covariance_matches_dense_oracle_on_random_sparse_tables(n):
    lifts = _flat(sl2_lifts_search(n))
    values = _random_sparse_values(n, 200 + n)
    want = covariance_group_oracle(dense_table(FanoCoefficients(n, values)), lifts, 1e-10)
    assert_same_check(_covariance_scan(values, lifts, 1e-10), want)
    # The solution table with one support value moved at a seeded position.
    if n % 2:
        moved = fano.coefficients_odd(n).values.copy()
        moved[tuple(np.random.default_rng(300 + n).integers(n, size=2))] += 1e-3
        want = covariance_group_oracle(dense_table(FanoCoefficients(n, moved)), lifts, 1e-10)
        assert not want.passed
        assert_same_check(_covariance_scan(moved, lifts, 1e-10), want)


@pytest.mark.parametrize("tol", [1e-10, 0.0, -1.0, 0.3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sparse_covariance_matches_dense_oracle_at_any_tolerance(n, tol):
    """Tolerance 0 fails on rounding noise; a negative one fails everywhere."""
    lifts = _flat(sl2_lifts_search(n))
    for values in (fano.coefficients_candidate(n).values, _random_sparse_values(n, 400 + n),
                   np.zeros((n, n), dtype=complex)):
        want = covariance_group_oracle(dense_table(FanoCoefficients(n, values)), lifts, tol)
        assert_same_check(_covariance_scan(values, lifts, tol), want)


def test_single_element_check_matches_dense_oracle():
    n = 4
    values = _random_sparse_values(n, 7)
    table = dense_table(FanoCoefficients(n, values))
    for group in sl2_lifts_search(n):
        for lift in group:
            assert_same_check(_covariance_scan(values, [lift], 1e-10), covariance_group_oracle(table, [lift], 1e-10))


def test_planted_violation_names_the_first_index_of_the_first_failing_lift():
    """A moved support value at (s,t) = (2,1) of the N = 3 solution.

    The identity passes (it maps each support point onto itself with phase
    1). The first element in enumeration order, (0,1,-1,0), compares
    v[t,-s] with v[s,t] at (s,t,-s,t), so the error shows at (s,t) = (2,1)
    and at (2,2); the lexicographically first is (2,1,1,1).
    """
    n = 3
    values = fano.coefficients_odd(n).values.copy()
    values[2, 1] += 0.05
    lifts = _flat(sl2_lifts_search(n))
    assert lifts[0] == SL2Element(0, 1, -1, 0)
    got = _covariance_scan(values, lifts, 1e-10)
    assert not got.passed
    assert got.witness == (2, 1, 1, 1, 0, 1, -1, 0)
    assert_same_check(got, covariance_group_oracle(dense_table(FanoCoefficients(n, values)), lifts, 1e-10))
    assert _covariance_scan(values, [IDENTITY], 1e-10).passed


def test_planted_violation_seen_only_by_a_second_lift():
    """N = 2: the second lift (1,2,0,1) of the identity class has phase -1 at n = 1.

    Both lifts map each support point (s,t,t,s) onto itself. The base lift
    passes any table; the second fails wherever n = t = 1 holds a nonzero,
    with residual 2|v[s,1]|. So the witness must name the second lift and
    the smaller of the two planted points with t = 1; the value at t = 0
    carries phase 1 and never fails.
    """
    n = 2
    second = sl2_second_lift_search(IDENTITY, n)
    assert second == SL2Element(1, 2, 0, 1)
    values = np.zeros((n, n), dtype=complex)
    values[1, 1] = 0.25
    values[0, 1] = 0.1
    values[1, 0] = 0.5
    lifts = [IDENTITY, second]
    got = _covariance_scan(values, lifts, 1e-10)
    assert not got.passed
    assert got.witness == (0, 1, 1, 0) + second
    assert got.max_violation == pytest.approx(0.5)
    assert_same_check(got, covariance_group_oracle(dense_table(FanoCoefficients(n, values)), lifts, 1e-10))


def assert_same_route_audit(got, n, tol):
    """The route audit against the plain loop over the first lift of each
    primitive row, whole and exactly, and against the loop over every lift
    class in verdict, worst spread and witness point: the classes run their
    routes in another order, so they name other lifts."""
    assert_same_check(got, route_consistency_loop(n, tol), exact=True)
    want = route_consistency_oracle(n, lift_classes(n), tol)
    assert (got.passed, got.witness and got.witness[:2]) == (want.passed, want.witness and want.witness[:2])
    assert abs(got.max_violation - want.max_violation) <= 1e-15


@pytest.mark.parametrize("n", range(1, 14))
def test_route_consistency_matches_loop_oracle(n):
    checks, _ = fano.uniqueness_audit(n)
    assert_same_route_audit(checks["route_consistency"], n, 1e-10)


@pytest.mark.parametrize("tol", [0.0, 0.3, -1.0])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_route_consistency_matches_loop_oracle_at_other_tolerances_and_one_lift(n, tol):
    for elements in (sl2_enumerate(n), lift_classes(n)):
        assert_same_check(route_consistency_scan(n, elements, tol), route_consistency_oracle(n, elements, tol))
    checks, _ = fano.uniqueness_audit(n, tol)
    assert_same_route_audit(checks["route_consistency"], n, tol)


def _elementary_product(x, y, z):
    """(1, x; 0, 1)(1, 0; y, 1)(1, z; 0, 1): determinant 1 for any integers."""
    return compose(compose(SL2Element(1, x, 0, 1), SL2Element(1, 0, y, 1)), SL2Element(1, z, 0, 1))


@settings(max_examples=500, deadline=None)
@given(st.integers(-2**80, 2**80), st.integers(-2**80, 2**80), st.integers(-2**80, 2**80),
       st.integers(1, 40), st.integers(0, 10**6), st.integers(0, 10**6))
def test_two_phi_matches_the_exact_phase_for_lifts_of_any_size(x, y, z, n, a, b):
    """The one exponent helper, with Python ints and with the reduced int64
    entries, against the Fraction-valued phi' of the unreduced lift."""
    g = _elementary_product(x, y, z)
    a, b = a % n, b % n
    want = (2 * phase_phi(g, a, b, n)) % (2 * n)
    assert fano._two_phi(g, a, b, n) == want
    entries = fano._lift_entries([g, IDENTITY], n)
    assert entries.dtype == np.int64
    assert fano._two_phi(entries, a, b, n)[0] == want


def _huge_odd_lifts():
    """(1, L; L, 1 + L^2) with L above 2^20 and 2^70, at N = 7."""
    return [SL2Element(1, big, big, 1 + big * big) for big in (2**20 + 1, 2**70 + 1)]


@pytest.mark.parametrize("lift", _huge_odd_lifts(), ids=["2^20+1", "2^70+1"])
def test_odd_solution_passes_covariance_under_a_huge_single_lift(lift):
    got = _covariance_scan(fano.coefficients_odd(7).values, [lift], 1e-10)
    assert got.passed, got
    assert got.max_violation < 1e-15


@pytest.mark.parametrize("k", [4096, 2**70], ids=["4096", "2^70"])
def test_odd_audits_pass_with_huge_second_lifts(k):
    """N = 5 with each second lift replaced by g composed with a matrix
    congruent to the identity mod N whose entries exceed 2^20 (or 2^70).
    The route scan takes every lift as its class mod 2N."""
    n = 5
    shift = SL2Element(1, n * k, n * k, 1 + n * n * k * k)
    elements = [(g, compose(g, shift)) for g in (exact_lift(row, n) for row in sl2_enumerate(n))]
    assert max(abs(x) for _, h in elements for x in h) > 2**20
    cov = _covariance_scan(fano.coefficients_odd(n).values, _flat(elements), 1e-10)
    assert cov.passed, cov
    classes = np.array([[x % (2 * n) for x in g] for g in _flat(elements)], dtype=np.int64)
    scan = route_consistency_scan(n, classes, 1e-10)
    assert scan.passed, scan
    assert scan.max_violation == 0.0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_even_audits_see_a_huge_lift_as_its_small_lift_mod_2n(n):
    """Lifts congruent mod 2N have the same phases and index maps, so the
    covariance audit gives the same outcome, worst violation and witness
    indices; the witness names the lift as it was passed in. The route
    audit runs on the classes mod 2N, which hold both."""
    k = 2**70
    shift = SL2Element(1 + 4 * n * n * k * k, 2 * n * k, 2 * n * k, 1)  # identity mod 2N
    small = sl2_lifts_search(n)
    huge = {g: compose(g, shift) for group in small for g in group}
    assert all(max(abs(x) for x in h) > 2**70 for h in huge.values())
    assert all(x % (2 * n) == y % (2 * n) for g, h in huge.items()
               for x, y in zip(g, h))
    big = [tuple(huge[g] for g in group) for group in small]
    for values in (fano.coefficients_candidate(n).values, _random_sparse_values(n, 500 + n)):
        want = _covariance_scan(values, _flat(small), 1e-10)
        got = _covariance_scan(values, _flat(big), 1e-10)
        assert not want.passed
        assert (got.passed, got.max_violation, got.witness[:4]) == (want.passed, want.max_violation, want.witness[:4])
        assert got.witness[4:] == tuple(huge[SL2Element(*want.witness[4:])])
    classes = {tuple(row) for row in lift_classes(n).tolist()}
    assert all(tuple(x % (2 * n) for x in h) in classes for h in huge.values())


def _support_cases(n):
    """Support values of the candidate and derived tables, random values, and
    the candidate with a planted phase error and with a zeroed entry."""
    candidate = fano.coefficients_candidate(n).values
    phase_error, zeroed = candidate.copy(), candidate.copy()
    phase_error[n // 2, n - 1] *= np.exp(0.1j)
    zeroed[n - 1, n // 2] = 0
    return {"candidate": candidate, "derived": fano.derived_table(n).values,
            "random": _random_values(n, 600 + n), "phase error": phase_error, "zeroed": zeroed}


def _lift_sets(n):
    """The generators, the identity, and the generators with four seeded lifts of the group."""
    lifts = _flat(sl2_lifts_search(n))
    sample = [lifts[i] for i in np.random.default_rng(n).integers(len(lifts), size=4)]
    return [list(GENERATORS), [IDENTITY], [*GENERATORS, *sample]]


def _scan_oracle(residuals, lifts, tol):
    """covariance_group_oracle on dense residual arrays computed beforehand, one per lift."""
    worst = max(float(res.max()) for res in residuals)
    for res, lift in zip(residuals, lifts):
        if res.max() > tol:
            return CheckResult("covariance", False, worst,
                               tuple(int(i) for i in np.argwhere(res > tol)[0]) + lift)
    return CheckResult("covariance", True, worst)


def _dense_residuals(table):
    """The residuals of each coefficient-level check of a dense table, as the dense audits indexed them."""
    n = table.shape[0]
    target_s = np.zeros((n, n, n), dtype=complex)
    target_t = np.zeros((n, n, n), dtype=complex)
    for k in range(n):
        target_s[k, 0, k] = target_t[k, k, 0] = 1.0 / n**2
    return {
        "coeff_axis_s": np.abs(table[:, 0, :, :] - target_s),
        "coeff_axis_t": np.abs(table[0, :, :, :] - target_t),
        "coeff_hermiticity": _hermiticity_oracle(table, _hermiticity_phases(n)),
        "orthogonality_index": coefficient_gram_oracle(table).reshape(2, n, n, n, n),
    }


def _dense_result(name, residuals, tol):
    """_result on dense residuals; the Gram level is dropped from an orthogonality_index witness."""
    check = _result(name, residuals, tol)
    if name == "orthogonality_index" and not check.passed:
        return CheckResult(name, False, check.max_violation, check.witness[1:])
    return check


@pytest.mark.parametrize("n", range(1, 14))
def test_support_formulas_match_the_dense_oracles(n):
    """Every coefficient-level audit on the support values against its oracle on
    the dense N^4 table: the same verdict and witness, and the same
    max_violation to the bit, at tolerances that pass, fail on round-off,
    pass a 2/N^2 violation and fail everywhere.

    Covariance, hermiticity and the Gram sums are compared with the plain
    loops, whose products are rounded as in the support formulas.
    """
    lift_sets = _lift_sets(n)
    reference = dense_table(fano.coefficients_candidate(n))
    for label, values in _support_cases(n).items():
        c = FanoCoefficients(n, values)
        table = dense_table(c)
        dense = _dense_residuals(table)
        covariance = {lift: _covariance_oracle(table, lift, covariance_phase_table(lift, n))
                      for lifts in lift_sets for lift in lifts}
        derived = {
            "derived_matches_construction": np.abs(table - reference),
            "derived_hermiticity": dense["coeff_hermiticity"],
            "derived_orthogonality": dense["orthogonality_index"].reshape(2, n * n, n * n),
        }
        for tol in (1e-10, 0.0, 0.3, -1.0):
            got = {**fano.check_coefficient_axes(c, tol), **fano.check_hermiticity(c, tol),
                   **fano.check_orthogonality(c, tol)}
            for name, residuals in dense.items():
                assert_same_check(got[name], _dense_result(name, residuals, tol), exact=True)
            for lifts in lift_sets:
                want = _scan_oracle([covariance[lift] for lift in lifts], lifts, tol)
                assert_same_check(_covariance_scan(values, lifts, tol), want, exact=True)
            if label == "derived":
                checks, _ = fano.uniqueness_audit(n, tol)
                for name, residuals in derived.items():
                    assert_same_check(checks[name], _result(name, residuals, tol), exact=True)


@pytest.mark.parametrize("n", range(1, 32))
def test_twist_table_checks_match_the_dense_operator_oracles(n):
    """The operator-level checks on the twist table F against the scans of
    the dense operators that the dense table assembles: the same verdict
    and witness, and the same max_violation to 1e-13 relative to its size
    (the random table's residuals reach 6e4).

    The tolerances pass, fail only the planted errors, and fail everywhere.
    None equals a residual to round-off: at such a tie the verdict is the
    rounding's, and the F formulas round apart from the dense sums. That
    rules out 0 (round-off left by one path and not the other), 0.1 at
    N = 10 (the even candidate's hermiticity residual 1/N) and 1e-3 at
    N = 10 (the zeroed entry's Gram residual 1/N^3).

    F itself: omega^(p(j-i)) F[j-i, j-q] rebuilds the assembled operators,
    to 1e-15 on the scale of the solution's entries 1/N^2, and for odd N
    it is delta(2x = k mod N) / N, the closed-form operators.
    """
    for values in _support_cases(n).values():
        c = FanoCoefficients(n, values)
        dense = assemble_dense(c)
        residuals = operator_residuals_dense(dense)
        for tol in (1e-10, 0.3, -1.0):
            got = {**fano.check_marginals(c, tol), **fano.check_hermiticity(c, tol),
                   **fano.check_orthogonality(c, tol)}
            for name, res in residuals.items():
                want = _result(name, res, tol)
                assert (got[name].passed, got[name].witness) == (want.passed, want.witness), (name, tol)
                assert abs(got[name].max_violation - want.max_violation) <= 1e-13 * max(1.0, want.max_violation)
        if n <= 17:
            q, p, i, j = np.indices((n,) * 4)
            rebuilt = _omega_table(n)[p * (j - i) % n] * fano.twist_table(c)[(j - i) % n, (j - q) % n]
            scale = max(1.0, n**2 * np.abs(values).max())
            assert np.abs(rebuilt - dense.operators).max() <= 1e-15 * scale
    if n % 2:
        f = fano.twist_table(fano.coefficients_odd(n))
        k, x = np.indices((n, n))
        on = (2 * x - k) % n == 0
        assert np.abs(f[~on]).max(initial=0.0) <= 1e-15
        assert np.abs(f[on] - 1 / n).max() <= 1e-15


def test_covariance_scan_does_not_depend_on_how_the_lifts_are_batched():
    """All lifts of SL(2, Z_7) in one pass, one at a time and 256 at a time
    give the same worst residual to the bit, that of the plain loop at the
    worst lift. numpy's complex multiply rounded the first differently
    (6.3138436112372006e-18 against 6.938893903907228e-18)."""
    n = 7
    values = fano.coefficients_candidate(n).values
    lifts = _flat(sl2_lifts_search(n))
    whole = _covariance_scan(values, lifts, 1e-10).max_violation
    single = [_covariance_scan(values, [lift], 1e-10).max_violation for lift in lifts]
    batched = max(_covariance_scan(values, lifts[i:i + 256], 1e-10).max_violation for i in range(0, len(lifts), 256))
    assert whole == max(single) == batched
    worst = lifts[int(np.argmax(single))]
    table = dense_table(fano.coefficients_candidate(n))
    assert _covariance_oracle(table, worst, covariance_phase_table(worst, n)).max() == whole
