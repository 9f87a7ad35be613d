"""Audit behavior on solution tables, corrupted tables, and even dimensions."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from latwig import fano
from latwig.fano import FanoCoefficients, _covariance_scan
from latwig.lattice import GENERATORS, SL2Element, first_completions
from latwig.operators import DEFAULT_TOL, _half_omega_table
from oracles import (
    IDENTITY,
    apply_covariance_transform,
    assemble,
    clock_matrix,
    compose,
    covariance_every_class,
    derivation_routes,
    expand_operators,
    lift_classes,
    monomial,
    omega_pow,
    phase_phi,
    primitive_rows,
    route_consistency_loop,
    route_consistency_scan,
    shift_matrix,
    sl2_enumerate,
    sl2_lifts_search,
)


def test_coefficients_hold_an_n_by_n_array_of_support_values():
    values = np.zeros((3, 3), dtype=complex)
    assert FanoCoefficients(3, values).n == 3
    for bad in (np.zeros((3, 3, 3, 3), dtype=complex), np.zeros((3, 4), dtype=complex), np.zeros(9, dtype=complex)):
        with pytest.raises(ValueError, match="shape"):
            FanoCoefficients(3, bad)
    for n in (0, -1, 2.0):
        with pytest.raises(ValueError):
            FanoCoefficients(n, values)


def _suite(c, tol=1e-10):
    checks = {}
    checks.update(fano.check_marginals(c, tol))
    checks.update(fano.check_coefficient_axes(c, tol))
    checks.update(fano.check_hermiticity(c, tol))
    checks.update(fano.check_orthogonality(c, tol))
    return checks


@pytest.mark.parametrize("n", [1, 3, 5])
def test_solution_passes_every_static_condition(n):
    checks = _suite(fano.coefficients_odd(n))
    for name, c in checks.items():
        assert c.passed, (name, c.max_violation)
        assert c.max_violation < 1e-10


def test_zeroing_an_axis_entry_breaks_the_matching_marginal():
    n = 3
    v = fano.coefficients_odd(n).values.copy()
    v[1, 0] = 0.0  # axis support entry of the t=0 slice
    checks = _suite(FanoCoefficients(n, v))
    assert not checks["marginal_q"].passed
    assert not checks["coeff_axis_s"].passed
    assert checks["coeff_axis_s"].witness == (1, 0, 1)  # corrupted frequency s = 1, at [s, n, m]
    assert checks["marginal_p"].passed
    assert checks["coeff_axis_t"].passed


def test_imaginary_perturbation_flips_operator_hermiticity():
    n = 3
    v = fano.coefficients_odd(n).values.copy()
    v[1, 1] += 1e-6j
    checks = _suite(FanoCoefficients(n, v))
    assert not checks["hermiticity"].passed
    assert not checks["coeff_hermiticity"].passed


def test_random_table_fails_orthogonality():
    n = 3
    rng = np.random.default_rng(5)
    c = FanoCoefficients(n, rng.standard_normal((n, n)) + 0j)
    checks = _suite(c)
    assert not checks["orthogonality_site"].passed
    assert not checks["orthogonality_index"].passed


def test_identity_element_covariance_holds_for_any_table():
    n = 4
    rng = np.random.default_rng(2)
    c = FanoCoefficients(n, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    res = _covariance_scan(c.values, [IDENTITY], DEFAULT_TOL)
    assert res.passed
    assert res.max_violation < 1e-15


@pytest.mark.parametrize("n", [3, 5])
def test_covariance_over_full_group_with_two_lifts(n):
    c = fano.coefficients_odd(n)
    res = _covariance_scan(c.values, [lift for group in sl2_lifts_search(n) for lift in group], DEFAULT_TOL)
    assert res.passed
    assert res.max_violation < 1e-10
    assert fano.check_covariance_group(c).passed


def test_covariance_fails_on_corrupted_table():
    n = 3
    v = fano.coefficients_odd(n).values.copy()
    v[1, 1] *= np.exp(0.1j)
    res = fano.check_covariance_group(FanoCoefficients(n, v))
    assert not res.passed
    assert len(res.witness) == 8  # indices, then the lift's entries


def test_phase_identity_element_is_trivial():
    for n in (2, 3, 5):
        for a in range(n):
            for b in range(n):
                assert phase_phi(IDENTITY, a, b, n) == 0


def test_phase_example_and_periodicity():
    g = SL2Element(1, 1, 0, 1)
    assert phase_phi(g, 1, 1, 3) == 1
    for n in (3, 5, 7):
        for shift in (n, 2 * n):
            lhs = omega_pow(phase_phi(g, 1 + shift, 2, n), n)
            assert lhs == pytest.approx(omega_pow(phase_phi(g, 1, 2, n), n))


@pytest.mark.parametrize("n", range(1, 41))
def test_derived_table_is_the_canonical_route_of_every_lift_class_to_the_bit(n):
    """Off the axes, the derived value at (s,t) = g*(sigma, tau), g = gcd(s,t),
    is bit for bit the value that the oracle forces through each lift class
    whose first row is (tau, sigma) mod M, on its s-slice route; the axes
    hold 1/N^2."""
    by_row = {}
    for lift in lift_classes(n).tolist():
        by_row.setdefault(tuple(lift[:2]), []).append(lift)
    got = fano.derived_table(n).values
    for s, t in product(range(1, n), repeat=2):
        g = math.gcd(s, t)
        lifts = by_row[t // g, s // g]
        routes = derivation_routes(n, s, t, lifts)
        assert [lift for lift, _ in routes] == [tuple(lift) for lift in lifts]
        want = np.array([value for _, value in routes])
        assert np.array_equal(np.full(len(want), got[s, t]).view(np.uint64), want.view(np.uint64)), (s, t)
    axes = np.concatenate([got[0], got[:, 0]])
    assert np.array_equal(axes.view(np.uint64), np.full(2 * n, 1 / n**2 + 0j).view(np.uint64))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_uniqueness_audit_consistent_for_odd_n(n):
    checks, derived = fano.uniqueness_audit(n)
    for name, c in checks.items():
        assert c.passed, (name, c.max_violation)
    assert np.abs(derived.values - fano.coefficients_odd(n).values).max() < 1e-12


def test_uniqueness_audit_conflicts_for_even_n():
    checks, _ = fano.uniqueness_audit(2)
    rc = checks["route_consistency"]
    assert not rc.passed
    assert rc.max_violation == pytest.approx(0.5)
    assert len(rc.witness) == 10  # (s, t) plus two conflicting elements
    # the derived table still matches the canonical construction
    assert checks["derived_matches_construction"].passed


def test_lift_shift_exposes_the_even_failure():
    """Same residue class, different integer lifts: only the shifted one fails.

    At N = 2 even the identity class is lift-sensitive: the base lift
    passes trivially while its +N-shifted representative violates the
    covariance identity, which is why the audits see lifts mod 2N, not
    elements mod N.
    """
    c2 = fano.coefficients_candidate(2)
    base = SL2Element(1, 0, 0, 1)
    shifted = SL2Element(1, 2, 0, 1)
    assert base.residues(2) == shifted.residues(2)
    assert _covariance_scan(c2.values, [base], DEFAULT_TOL).passed
    assert not _covariance_scan(c2.values, [shifted], DEFAULT_TOL).passed


def test_route_values_conflict_between_lifts_for_even_n():
    """The forced value at (s,t) = (1,1), N = 2 differs between two lifts
    of the same residue class: +i/4 versus -i/4."""
    lift_a = SL2Element(1, 1, 0, 1)
    lift_b = SL2Element(3, 1, 2, 1)
    assert lift_a.residues(2) == lift_b.residues(2)
    half = _half_omega_table(2)
    va, vb = (complex(half[fano._two_phi(g.as_tuple(), 1, 1, 2)]) / 4 for g in (lift_a, lift_b))
    assert va == pytest.approx(0.25j)
    assert vb == pytest.approx(-0.25j)


@pytest.mark.parametrize("n", range(1, 16))
def test_route_audit_on_the_lift_classes_equals_the_audit_on_every_class_mod_2n(n):
    """For odd N a route value depends only on the class mod N, so the
    scan over SL(2, Z_N) has the verdict and worst spread of the scan over
    all of SL(2, Z_2N); for even N the lift classes are SL(2, Z_2N)."""
    got = route_consistency_scan(n, lift_classes(n), DEFAULT_TOL)
    want = route_consistency_scan(n, sl2_enumerate(2 * n), DEFAULT_TOL)
    assert (got.passed, got.max_violation) == (want.passed, want.max_violation)
    assert got.passed == (n % 2 == 1)


def _verdict(c):
    """Verdict, worst violation and witness point of a route audit: what every order of its routes agrees on."""
    return c.passed, c.max_violation, c.witness and c.witness[:2]


@pytest.mark.parametrize("n", range(1, 25))
def test_route_audit_on_primitive_rows_equals_the_scan_of_every_lift_class(n):
    """The closed form gives the verdict, the worst spread to the bit and
    the witness point of the scan of every route of every lift class, at
    the tolerances 0, the default, 2/N^2 (the even-N spread) and 1, and at
    -1, where every second route conflicts. The whole report is that of the
    plain loop over the rows' first lifts there, and at 2/N^2 +- 1..4 ulp,
    where the spreads of the classes c = -st mod N differ in their last
    bits, so that the first failing point and its rival move."""
    x, classes = 2 / n**2, lift_classes(n)
    for tol in (0.0, DEFAULT_TOL, x, 1.0, -1.0):
        assert _verdict(fano._route_consistency(n, tol)) == _verdict(route_consistency_scan(n, classes, tol))
    for tol in (0.0, DEFAULT_TOL, x, 1.0, -1.0, *(x + k * np.spacing(x) for k in (-4, -3, -2, -1, 1, 2, 3, 4))):
        assert fano._route_consistency(n, tol) == route_consistency_loop(n, tol)


@pytest.mark.parametrize("n", [40, 41, 64])
def test_route_audit_equals_the_plain_loop_at_larger_n(n):
    """The whole report, at the default tolerance, of the plain loop over
    every primitive row mod M and r: 774,144 routes at N = 64."""
    assert fano._route_consistency(n, DEFAULT_TOL) == route_consistency_loop(n, DEFAULT_TOL)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 100])
def test_even_route_witness_names_the_first_row_lifts(n):
    """At even N the first conflict is at (s, t) = (0, 1), between the rows
    (1, 0) and (1, N) mod 2N, that is S and -S, each completed by (0, 1):
    they label the lines of one direction in opposite ways."""
    rc = fano._route_consistency(n, DEFAULT_TOL)
    assert not rc.passed
    assert rc.max_violation == pytest.approx(2 / n**2)
    assert rc.witness == (0, 1, 1, 0, 0, 1, 1, n, 0, 1)


@pytest.mark.parametrize("n", [*range(2, 61), 100, 101])
def test_negative_tolerance_witness_is_the_two_least_lifts_onto_zero_one(n):
    """At a negative tolerance every route after a point's first conflicts,
    so the witness is (0, 1) with its two least routes: the row (1, 0) at
    r = 1, lifted to (1, 0, 0, 1), then (1, N, 0, 1) for even N and the row
    (2, 0) at r = (N+1)/2, lifted to (2, 0, 0, (N+1)/2), for odd N."""
    rc = fano._route_consistency(n, -1.0)
    assert not rc.passed
    assert rc.witness == (0, 1, 1, 0, 0, 1) + ((2, 0, 0, (n + 1) // 2) if n % 2 else (1, n, 0, 1))


def test_route_audit_holds_no_table_per_point_and_exponent():
    """The route audit at N = 100 traces under 4 MiB (0.4 MiB measured):
    O(N^2) state, no N^2 x 2N table per point and exponent, no primitive
    rows and no completion of every row."""
    tracemalloc.start()
    try:
        fano._route_consistency(100, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _routes(n):
    """The rows (a, b) mod M, r and the route points (s, t) = (rb, ra), as flat arrays per r = 1..N-1."""
    rows = primitive_rows(n if n % 2 else 2 * n)
    for r in range(1, n):
        a, b = rows.T
        yield a, b, r, r * b % n, r * a % n


@pytest.mark.parametrize("n", range(1, 61))
def test_route_exponent_is_that_of_the_first_lift(n):
    """The closed form a*b*r*(N-r) mod 2N is the exponent ``_two_phi`` gives
    each route through its row's first lift."""
    m = n if n % 2 else 2 * n
    first = first_completions(primitive_rows(m), m).T
    for a, b, r, s, t in _routes(n):
        assert np.array_equal(fano._route_phi(a, b, r, n), fano._two_phi((a, b, *first), t, s, n))


@pytest.mark.parametrize("n", range(1, 11))
def test_route_exponent_is_the_phase_of_the_direction_unitary_power(n):
    """With V = omega^((N-1)ab/2) S^a P^b, the direction unitary of the row
    (a, b) mod M, V^r = omega^(a*b*r*(N-r)/2) S^(ra) P^(rb) for every
    primitive row and r = 1..N-1, as matrix powers of the shift and clock."""
    half, power = _half_omega_table(n), np.linalg.matrix_power
    shift, clock = shift_matrix(n), clock_matrix(n)
    for a, b, r, _, _ in _routes(n):
        for x, y in zip(a.tolist(), b.tolist()):
            v = half[(n - 1) * x * y % (2 * n)] * power(shift, x) @ power(clock, y)
            want = half[fano._route_phi(x, y, r, n)] * power(shift, r * x) @ power(clock, r * y)
            assert np.abs(power(v, r) - want).max() < 1e-9, (x, y, r)


@pytest.mark.parametrize("n", range(1, 41))
def test_route_exponents_are_minus_st_mod_n_with_two_per_point_only_at_even_n(n):
    """Every route exponent at (s,t) is -st mod N. Odd N have one exponent
    per point; even N have two at exactly 3N^2/4 points and three at none."""
    seen = np.zeros((n * n, 2 * n), dtype=bool)  # [s*N + t, exponent]
    for a, b, r, s, t in _routes(n):
        phi = fano._route_phi(a, b, r, n)
        assert not ((phi + s * t) % n).any()
        seen[s * n + t, phi] = True
    count = seen.sum(axis=1)[1:]  # (0, 0) has no route
    if n % 2:
        assert (count == 1).all()
    else:
        assert (count >= 1).all() and count.max() == 2 and (count == 2).sum() == 3 * n * n // 4


def test_group_action_composition_is_consistent():
    """g . (h . a) = (h g) . a on random tables, at both parities; the odd
    solution is a fixed point. Each image is again zero off the support."""
    rng = np.random.default_rng(1)
    for n in (3, 4):
        a = FanoCoefficients(n, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        lifts = [lift for group in sl2_lifts_search(n) for lift in group]
        for _ in range(20):
            g, h = (lifts[i] for i in rng.integers(len(lifts), size=2))
            via_two = apply_covariance_transform(apply_covariance_transform(a, h), g)
            via_product = apply_covariance_transform(a, compose(h, g))
            assert np.abs(via_two.values - via_product.values).max() < 1e-12
    sol = fano.coefficients_odd(3)
    for g in (lift for group in sl2_lifts_search(3) for lift in group):
        assert np.abs(apply_covariance_transform(sol, g).values - sol.values).max() < 1e-12


def _action(g, n):
    """Index maps and doubled phase exponent of the table map of ``apply_covariance_transform``.

    (g . a)[x; y] = omega^(two[y] / 2) a[src(x); dst(y)] on grid points x, y;
    each map is a pair of N x N residue arrays.
    """
    s, t = np.indices((n, n))
    src = ((g.kappa * s - g.lam * t) % n, (g.nu * t - g.mu * s) % n)
    dst = ((g.nu * s - g.mu * t) % n, (g.kappa * t - g.lam * s) % n)
    return src, dst, fano._two_phi(g.as_tuple(), s, t, n)


@pytest.mark.parametrize("n", range(1, 13))
def test_covariance_action_law_holds_exactly_on_integer_exponents(n):
    """g1 . (g2 . a) = (g2 g1) . a, with no float tolerance.

    Both index maps of g2 g1 are those of g2 after those of g1, and its
    doubled exponent is two_g1(y) + two_g2(dst_g1(y)) mod 2N. So a table
    fixed by the generators is fixed by every integer lift of every element.
    Every pair of generators and 200 random pairs of lifts are tested.
    """
    rng = np.random.default_rng(n)
    lifts = [lift for group in sl2_lifts_search(n) for lift in group]
    random_pairs = [(lifts[i], lifts[j]) for i, j in rng.integers(len(lifts), size=(200, 2))]
    for g1, g2 in [*product(GENERATORS, repeat=2), *random_pairs]:
        src1, dst1, two1 = _action(g1, n)
        src2, dst2, two2 = _action(g2, n)
        src, dst, two = _action(compose(g2, g1), n)
        for got, want in zip(src + dst, [x[src1] for x in src2] + [x[dst1] for x in dst2]):
            assert np.array_equal(got, want)
        assert np.array_equal(two, (two1 + two2[dst1]) % (2 * n))


def _dft_and_chirp(n):
    """The DFT omega^(ij)/sqrt(N) and the chirp diag(omega^((N+1) q^2 / 2)), for odd N."""
    om, i = np.exp(2j * np.pi * np.arange(n) / n), np.arange(n)
    return om[np.outer(i, i) % n] / np.sqrt(n), np.diag(om[(n + 1) // 2 * i * i % n])


def _table_action(g, u, values):
    """The image of support ``values`` under the table map T_g of ``_covariance_scan``, phases from matrices.

    The scan compares support value [s, t] with [b, a], (a, b) = (mu*s + kappa*t, nu*s + lam*t), under
    the phase omega^phi'(a, b). Here that phase is c in u^dag S^t P^s u = c S^a P^b, read off the
    monomials' matrices and the unitary u of g.
    """
    n = values.shape[0]
    kappa, lam, mu, nu = g.as_tuple()
    image = np.empty_like(values)
    for s, t in product(range(n), repeat=2):
        a, b = (mu * s + kappa * t) % n, (nu * s + lam * t) % n
        conjugated, target = u.conj().T @ monomial(t, s, n) @ u, monomial(a, b, n)
        phase = conjugated[0, a] / target[0, a]
        assert np.abs(conjugated - phase * target).max() < 1e-12
        image[b, a] = phase * values[s, t]
    return image


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
def test_dft_and_chirp_conjugate_operators_as_the_generators_act_on_tables(n):
    """Odd-N covariance from the operators' matrices, with no ``_two_phi`` or ``phase_phi``.

    The DFT and the chirp are unitaries of S and T, in the order of GENERATORS:
    each moves the closed-form operator at (q, p) to B(q, p) = (nu*q - mu*p, -lam*q + kappa*p),
    the index bijection of ``_covariance_scan``. On a random table, the
    operator that T_g puts at each site is the conjugated one,
    u^dag D(B(q, p)) u, and the solution table is a fixed point of T_g.
    """
    closed_form = expand_operators(n).operators
    rng = np.random.default_rng(n)
    table = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n**2
    operators = assemble(FanoCoefficients(n, table))
    solution = fano.coefficients_odd(n).values
    q, p = np.indices((n, n))
    for g, u in zip(GENERATORS, _dft_and_chirp(n)):
        kappa, lam, mu, nu = g.as_tuple()
        site = (nu * q - mu * p) % n, (-lam * q + kappa * p) % n
        assert np.abs(u @ closed_form @ u.conj().T - closed_form[site]).max() < 1e-12
        image = assemble(FanoCoefficients(n, _table_action(g, u, table)))
        assert np.abs(u.conj().T @ operators[site] @ u - image).max() < 1e-12
        assert np.abs(_table_action(g, u, solution) - solution).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 14))
def test_generators_decide_covariance_as_every_lift_class_does(n):
    """The production audit on S and T against a scan of every class of
    SL(2, Z_2N): the same verdict, and for even N the same witness (S)."""
    got = fano.check_covariance_group(fano.coefficients_candidate(n))
    want = covariance_every_class(fano.coefficients_candidate(n).values, DEFAULT_TOL)
    assert got.passed == want.passed == (n % 2 == 1)
    assert got.witness == want.witness
    if n % 2 == 0:
        assert got.witness[4:] == GENERATORS[0].as_tuple()


@pytest.mark.parametrize("n", range(2, 10))
def test_covariance_under_s_alone_is_not_enough(n):
    """A table with N random support values, summed over the orbit of S
    (S^4 = 1), is fixed by S; T and the scan of every class of SL(2, Z_2N)
    both fail it."""
    s, t = GENERATORS
    rng = np.random.default_rng(n)
    values = np.zeros(n * n, dtype=complex)
    values[rng.choice(n * n, size=n, replace=False)] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = FanoCoefficients(n, values.reshape(n, n))
    orbit = [a]
    for _ in range(3):
        orbit.append(apply_covariance_transform(orbit[-1], s))
    sym = FanoCoefficients(n, sum(x.values for x in orbit))
    assert _covariance_scan(sym.values, [s], DEFAULT_TOL).passed
    got = fano.check_covariance_group(sym)
    assert not got.passed and got.witness[4:] == t.as_tuple()
    assert not covariance_every_class(sym.values, DEFAULT_TOL).passed


@pytest.mark.parametrize("n,expected_witness", [(2, "covariance"), (4, "hermiticity"), (6, "hermiticity")])
def test_even_dimensions_are_witnessed_infeasible(n, expected_witness):
    report = fano.full_report(n)
    assert fano.matches_parity_prediction(report)
    witness = fano.infeasibility_witness(report)
    assert witness is not None
    assert witness.name == expected_witness
    assert witness.witness is not None


def test_even_two_passes_static_conditions_but_fails_covariance():
    """The smallest even dimension: hermiticity and orthogonality hold on
    canonical representatives; only the line-covariance audit (and route
    consistency) exposes non-existence."""
    report = fano.full_report(2)
    for name in ("marginal_q", "marginal_p", "hermiticity", "coeff_hermiticity",
                 "orthogonality_site", "orthogonality_index"):
        assert report.checks[name].passed, name
    assert not report.checks["covariance"].passed
    assert not report.checks["route_consistency"].passed


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_full_report_passes_for_odd_n(n):
    report = fano.full_report(n)
    assert report.passed, report.failed_names()
    assert fano.matches_parity_prediction(report)


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_dichotomy_holds_beyond_the_default_audit_bound(n):
    report = fano.full_report(n)
    assert fano.matches_parity_prediction(report)
    if n % 2:
        assert report.passed, report.failed_names()
    else:
        witness = fano.infeasibility_witness(report)
        assert witness.name == "hermiticity"
        assert witness.to_json_dict()["witness"] == [0, 0, 0, 1]


def test_full_report_has_no_size_bound():
    """The library takes no size limit; only the CLI's CHECK_MAX_N bounds `check`."""
    report = fano.full_report(11)
    assert report.passed, report.failed_names()
    assert fano.matches_parity_prediction(report)


@pytest.mark.parametrize("n", range(1, 10))
def test_full_report_builds_no_operator_tensor(n, monkeypatch):
    """The audit reads the operators from the twist table alone."""
    def no_tensor(*args, **kwargs):
        raise AssertionError("full_report built the candidate's operators")

    monkeypatch.setattr(fano, "candidate_operator_codes", no_tensor)
    assert fano.matches_parity_prediction(fano.full_report(n))


def test_operator_checks_hold_no_n4_array():
    """The three operator-level checks at N = 41 trace under 2 MiB; with the
    dense tensor and its site Gram product they traced about 129 MiB."""
    c = fano.coefficients_candidate(41)
    tracemalloc.start()
    try:
        fano.check_marginals(c)
        fano.check_hermiticity(c)
        fano.check_orthogonality(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_report_json_shape():
    report = fano.full_report(2)
    doc = report.to_json_dict()
    assert doc["n"] == 2
    assert doc["phase_convention"] == "exp(2*pi*i*x/N)"
    for name, entry in doc["checks"].items():
        assert set(entry) == {"pass", "max_violation", "witness"}
        assert isinstance(entry["pass"], bool)
        if entry["witness"] is not None:
            assert all(isinstance(x, int) for x in entry["witness"])
    cov = doc["checks"]["covariance"]
    assert cov["witness"] is not None and len(cov["witness"]) == 8  # indices + element
