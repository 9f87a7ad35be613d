"""Audit kernels against dense and plain-loop oracles.

The production covariance audit evaluates each lift only at the positions
where a residual can be nonzero, and the route audit is vectorised over the
lifts. The oracles here are the dense N^4 covariance scan, the plain-loop
residuals and the per-(s,t) loop over `derivation_routes`; the fast paths
must agree with them field by field.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from latwig import fano
from latwig.fano import CheckResult, FanoCoefficients, _hermiticity_phases
from latwig.lattice import IDENTITY, SL2Element, sl2_enumerate, sl2_lifts, sl2_second_lift
from oracles import covariance_phase_table, derivation_routes, phase_phi


def _random_table(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))


def _random_sparse_table(n, seed):
    """About N^2 nonzero entries at random positions."""
    rng = np.random.default_rng(seed)
    table = np.zeros(n**4, dtype=complex)
    where = rng.choice(n**4, size=n * n, replace=False)
    table[where] = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    return table.reshape(n, n, n, n)


def _covariance_oracle(table, g, phases):
    """Plain-Python reference, independent of the numpy paths."""
    n = table.shape[0]
    out = np.empty((n, n, n, n))
    for s in range(n):
        for t in range(n):
            for a in range(n):
                for b in range(n):
                    lhs = table[(g.nu * s + g.lam * t) % n, (g.mu * s + g.kappa * t) % n, a, b]
                    rhs = phases[a, b] * table[s, t, (g.nu * a - g.mu * b) % n, (-g.lam * a + g.kappa * b) % n]
                    out[s, t, a, b] = abs(lhs - rhs)
    return out


def _hermiticity_oracle(table, phases):
    n = table.shape[0]
    out = np.empty((n, n, n, n))
    for s in range(n):
        for t in range(n):
            for a in range(n):
                for b in range(n):
                    out[s, t, a, b] = abs(
                        table[s, t, a, b]
                        - phases[a, b] * np.conj(table[(-s) % n, (-t) % n, (-a) % n, (-b) % n])
                    )
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


def covariance_group_oracle(table, elements, tol):
    """Dense scan of every lift in order; witness from the first failing lift."""
    worst = 0.0
    first_fail = None
    for group in elements:
        for lift in group:
            res = covariance_residuals_dense(table, lift)
            worst = max(worst, float(res.max()))
            if first_fail is None and res.max() > tol:
                first_fail = (tuple(int(i) for i in np.argwhere(res > tol)[0]), lift)
    if first_fail is None:
        return CheckResult("covariance", True, worst, None, None)
    return CheckResult("covariance", False, worst, *first_fail)


def route_consistency_oracle(n, elements, tol):
    """Loop over `derivation_routes` per (s,t), spreads by Python complex abs."""
    worst = 0.0
    witness = None
    for s in range(n):
        for t in range(n):
            if s == 0 and t == 0:
                continue
            routes = derivation_routes(n, s, t, elements=elements)
            g0, v0 = routes[0]
            for g, v in routes[1:]:
                spread = abs(v - v0)
                worst = max(worst, spread)
                if spread > tol and witness is None:
                    witness = (s, t) + g0.as_tuple() + g.as_tuple()
    return CheckResult("route_consistency", witness is None, worst, witness, None)


def assert_same_check(got, want):
    assert got.name == want.name
    assert got.passed == want.passed
    assert got.witness == want.witness
    assert got.element == want.element
    assert abs(got.max_violation - want.max_violation) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_numpy_covariance_kernel_matches_oracle(n):
    table = _random_table(n, n)
    for g in sl2_enumerate(n)[:6]:
        got = covariance_residuals_dense(table, g)
        assert_allclose(got, _covariance_oracle(table, g, covariance_phase_table(g, n)), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_numpy_hermiticity_kernel_matches_oracle(n):
    table = _random_table(n, 10 + n)
    got = fano.hermiticity_residuals(table)
    assert_allclose(got, _hermiticity_oracle(table, _hermiticity_phases(n)), atol=1e-13)


@pytest.mark.parametrize("n", range(1, 10))
def test_sparse_covariance_matches_dense_oracle_on_candidate_tables(n):
    elements = sl2_lifts(n)
    table = fano.coefficients_candidate(n).table
    got = fano.check_covariance_group(FanoCoefficients(n, table), elements=elements)
    assert_same_check(got, covariance_group_oracle(table, elements, 1e-10))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sparse_covariance_matches_dense_oracle_on_random_dense_tables(n):
    elements = sl2_lifts(n)
    table = _random_table(n, 100 + n)
    got = fano.check_covariance_group(FanoCoefficients(n, table), elements=elements)
    want = covariance_group_oracle(table, elements, 1e-10)
    assert not want.passed
    assert_same_check(got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_sparse_covariance_matches_dense_oracle_on_random_sparse_tables(n):
    elements = sl2_lifts(n)
    table = _random_sparse_table(n, 200 + n)
    got = fano.check_covariance_group(FanoCoefficients(n, table), elements=elements)
    assert_same_check(got, covariance_group_oracle(table, elements, 1e-10))
    # The solution table with one leaked entry at a seeded position.
    if n % 2:
        leaky = fano.coefficients_odd(n).table.copy()
        leaky[tuple(np.random.default_rng(300 + n).integers(n, size=4))] += 1e-3
        got = fano.check_covariance_group(FanoCoefficients(n, leaky), elements=elements)
        assert_same_check(got, covariance_group_oracle(leaky, elements, 1e-10))


@pytest.mark.parametrize("tol", [1e-10, 0.0, -1.0, 0.3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sparse_covariance_matches_dense_oracle_at_any_tolerance(n, tol):
    """Tolerance 0 fails on rounding noise; a negative one fails everywhere."""
    elements = sl2_lifts(n)
    for table in (fano.coefficients_candidate(n).table, _random_sparse_table(n, 400 + n),
                  np.zeros((n, n, n, n), dtype=complex)):
        got = fano.check_covariance_group(FanoCoefficients(n, table), tol, elements=elements)
        assert_same_check(got, covariance_group_oracle(table, elements, tol))


def test_single_element_check_matches_dense_oracle():
    n = 4
    table = _random_sparse_table(n, 7)
    for g in sl2_enumerate(n):
        for lift in (g, sl2_second_lift(g, n)):
            got = fano.check_covariance_group(FanoCoefficients(n, table), elements=[(lift,)])
            assert_same_check(got, covariance_group_oracle(table, [(lift,)], 1e-10))


def test_planted_violation_names_the_first_index_of_the_first_failing_lift():
    """An off-support entry at (2,1,0,0) of the N = 3 solution.

    The identity passes (it maps the entry onto itself with phase 1). The
    first element in enumeration order, (0,1,-1,0), sends (s,t) to (t,-s),
    so the leak shows at (2,2,0,0) through the first index and at (2,1,0,0)
    through the second; the lexicographically first is (2,1,0,0).
    """
    n = 3
    table = fano.coefficients_odd(n).table.copy()
    table[2, 1, 0, 0] = 0.05
    elements = sl2_lifts(n)
    assert elements[0][0] == SL2Element(0, 1, -1, 0)
    got = fano.check_covariance_group(FanoCoefficients(n, table), elements=elements)
    assert not got.passed
    assert got.witness == (2, 1, 0, 0)
    assert got.element == SL2Element(0, 1, -1, 0)
    assert_same_check(got, covariance_group_oracle(table, elements, 1e-10))
    assert fano.check_covariance_group(FanoCoefficients(n, table), elements=[(IDENTITY,)]).passed


def test_planted_violation_seen_only_by_a_second_lift():
    """N = 2: the second lift (1,2,0,1) of the identity class has phase -1 at n = 1.

    Its base lift passes any table, so the witness must name the second
    lift and the smaller of the two planted indices with n = 1; the entry
    at n = 0 carries phase 1 and never fails.
    """
    n = 2
    second = sl2_second_lift(IDENTITY, n)
    assert second == SL2Element(1, 2, 0, 1)
    table = np.zeros((n, n, n, n), dtype=complex)
    table[1, 0, 1, 1] = 0.25
    table[0, 1, 1, 0] = 0.1
    table[0, 0, 0, 1] = 0.5
    elements = [(IDENTITY, second)]
    got = fano.check_covariance_group(FanoCoefficients(n, table), elements=elements)
    assert not got.passed
    assert got.witness == (0, 1, 1, 0)
    assert got.element == second
    assert got.max_violation == pytest.approx(0.5)
    assert_same_check(got, covariance_group_oracle(table, elements, 1e-10))


@pytest.mark.parametrize("n", range(1, 10))
def test_route_consistency_matches_loop_oracle(n):
    elements = sl2_lifts(n)
    checks, _ = fano.uniqueness_audit(n, elements=elements)
    assert_same_check(checks["route_consistency"], route_consistency_oracle(n, elements, 1e-10))


@pytest.mark.parametrize("tol", [0.0, 0.3])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_route_consistency_matches_loop_oracle_at_other_tolerances_and_one_lift(n, tol):
    for elements in ([(g,) for g in sl2_enumerate(n)], sl2_lifts(n)):
        checks, _ = fano.uniqueness_audit(n, tol, elements=elements)
        assert_same_check(checks["route_consistency"], route_consistency_oracle(n, elements, tol))


def _elementary_product(x, y, z):
    """(1, x; 0, 1)(1, 0; y, 1)(1, z; 0, 1): determinant 1 for any integers."""
    return SL2Element(1, x, 0, 1).compose(SL2Element(1, 0, y, 1)).compose(SL2Element(1, z, 0, 1))


@settings(max_examples=500, deadline=None)
@given(st.integers(-2**80, 2**80), st.integers(-2**80, 2**80), st.integers(-2**80, 2**80),
       st.integers(1, 40), st.integers(0, 10**6), st.integers(0, 10**6))
def test_two_phi_matches_the_exact_phase_for_lifts_of_any_size(x, y, z, n, a, b):
    """The one exponent helper, with Python ints and with the reduced int64
    entries, against the Fraction-valued phi' of the unreduced lift."""
    g = _elementary_product(x, y, z)
    a, b = a % n, b % n
    want = (2 * phase_phi(g, a, b, n)) % (2 * n)
    assert fano._two_phi(g.as_tuple(), a, b, n) == want
    entries = fano._lift_entries([g, IDENTITY], n)
    assert entries.dtype == np.int64
    assert fano._two_phi(entries, a, b, n)[0] == want


def _huge_odd_lifts():
    """(1, L; L, 1 + L^2) with L above 2^20 and 2^70, at N = 7."""
    return [SL2Element(1, big, big, 1 + big * big) for big in (2**20 + 1, 2**70 + 1)]


@pytest.mark.parametrize("lift", _huge_odd_lifts(), ids=["2^20+1", "2^70+1"])
def test_odd_solution_passes_covariance_under_a_huge_single_lift(lift):
    got = fano.check_covariance_group(fano.coefficients_odd(7), elements=[(lift,)])
    assert got.passed, got
    assert got.max_violation < 1e-15


@pytest.mark.parametrize("k", [4096, 2**70], ids=["4096", "2^70"])
def test_odd_audits_pass_with_huge_second_lifts(k):
    """N = 5 with each second lift replaced by g composed with a matrix
    congruent to the identity mod N whose entries exceed 2^20 (or 2^70)."""
    n = 5
    shift = SL2Element(1, n * k, n * k, 1 + n * n * k * k)
    elements = [(g, g.compose(shift)) for g in sl2_enumerate(n)]
    assert max(abs(x) for _, h in elements for x in h.as_tuple()) > 2**20
    cov = fano.check_covariance_group(fano.coefficients_odd(n), elements=elements)
    assert cov.passed, cov
    checks, _ = fano.uniqueness_audit(n, elements=elements)
    assert checks["route_consistency"].passed, checks["route_consistency"]
    assert checks["route_consistency"].max_violation == 0.0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_even_audits_see_a_huge_lift_as_its_small_lift_mod_2n(n):
    """Lifts congruent mod 2N have the same phases and index maps, so the
    audits give the same outcome, worst violation and witness indices; the
    witness names the lift as it was passed in."""
    k = 2**70
    shift = SL2Element(1 + 4 * n * n * k * k, 2 * n * k, 2 * n * k, 1)  # identity mod 2N
    small = sl2_lifts(n)
    huge = {g: g.compose(shift) for group in small for g in group}
    assert all(max(abs(x) for x in h.as_tuple()) > 2**70 for h in huge.values())
    assert all(x % (2 * n) == y % (2 * n) for g, h in huge.items()
               for x, y in zip(g.as_tuple(), h.as_tuple()))
    big = [tuple(huge[g] for g in group) for group in small]
    for table in (fano.coefficients_candidate(n).table, _random_sparse_table(n, 500 + n)):
        c = FanoCoefficients(n, table)
        want = fano.check_covariance_group(c, elements=small)
        got = fano.check_covariance_group(c, elements=big)
        assert not want.passed
        assert (got.passed, got.max_violation, got.witness) == (want.passed, want.max_violation, want.witness)
        assert got.element == huge[want.element]
    want = fano.uniqueness_audit(n, elements=small)[0]["route_consistency"]
    got = fano.uniqueness_audit(n, elements=big)[0]["route_consistency"]
    assert not want.passed
    assert (got.passed, got.max_violation, got.witness[:2]) == (want.passed, want.max_violation, want.witness[:2])
    by_tuple = {g.as_tuple(): h.as_tuple() for g, h in huge.items()}
    assert got.witness[2:] == by_tuple[want.witness[2:6]] + by_tuple[want.witness[6:]]
