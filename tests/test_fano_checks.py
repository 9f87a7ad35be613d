"""Audit behavior on solution tables, corrupted tables, and even dimensions."""

import numpy as np
import pytest

from latwig import fano
from latwig.fano import FanoCoefficients
from latwig.lattice import IDENTITY, SL2Element, sl2_enumerate, sl2_lifts
from oracles import apply_covariance_transform, omega_pow, phase_phi


def _suite(c, tol=1e-10):
    f = fano.assemble(c)
    checks = {}
    checks.update(fano.check_marginals(f, tol))
    checks.update(fano.check_coefficient_axes(c, tol))
    checks.update(fano.check_hermiticity(c, f, tol))
    checks.update(fano.check_orthogonality(c, f, tol))
    return checks


@pytest.mark.parametrize("n", [1, 3, 5])
def test_solution_passes_every_static_condition(n):
    checks = _suite(fano.coefficients_odd(n))
    for name, c in checks.items():
        assert c.passed, (name, c.max_violation)
        assert c.max_violation < 1e-10


def test_zeroing_an_axis_entry_breaks_the_matching_marginal():
    n = 3
    t = fano.coefficients_odd(n).table.copy()
    t[1, 0, 0, 1] = 0.0  # axis support entry of the t=0 slice
    checks = _suite(FanoCoefficients(n, t))
    assert not checks["marginal_q"].passed
    assert not checks["coeff_axis_s"].passed
    assert checks["coeff_axis_s"].witness[0] == 1  # corrupted frequency s = 1
    assert checks["marginal_p"].passed
    assert checks["coeff_axis_t"].passed


def test_imaginary_perturbation_flips_operator_hermiticity():
    n = 3
    t = fano.coefficients_odd(n).table.copy()
    t[1, 1, 1, 1] += 1e-6j
    checks = _suite(FanoCoefficients(n, t))
    assert not checks["hermiticity"].passed
    assert not checks["coeff_hermiticity"].passed


def test_random_table_fails_orthogonality():
    n = 3
    rng = np.random.default_rng(5)
    c = FanoCoefficients(n, rng.standard_normal((n, n, n, n)) + 0j)
    checks = _suite(c)
    assert not checks["orthogonality_site"].passed
    assert not checks["orthogonality_index"].passed


def test_identity_element_covariance_holds_for_any_table():
    n = 4
    rng = np.random.default_rng(2)
    c = FanoCoefficients(n, rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n)))
    res = fano.check_covariance_group(c, elements=[(IDENTITY,)])
    assert res.passed
    assert res.max_violation < 1e-15


@pytest.mark.parametrize("n", [3, 5])
def test_covariance_over_full_group_with_two_lifts(n):
    res = fano.check_covariance_group(fano.coefficients_odd(n))
    assert res.passed
    assert res.max_violation < 1e-10


def test_covariance_fails_on_corrupted_table():
    n = 3
    t = fano.coefficients_odd(n).table.copy()
    t[1, 1, 1, 1] *= np.exp(0.1j)
    res = fano.check_covariance_group(FanoCoefficients(n, t))
    assert not res.passed
    assert res.element is not None
    assert len(res.witness) == 4


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


def test_derive_via_line_examples():
    d = fano.derive_via_line(5, 2, 4)
    assert d.element == SL2Element(2, 1, 1, 1)
    assert d.support == (4, 2)
    d = fano.derive_via_line(3, 0, 2)
    assert d.element == SL2Element(1, 0, 0, 1)
    assert d.value == pytest.approx(1 / 9)
    with pytest.raises(ValueError):
        fano.derive_via_line(5, 0, 0)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_derive_via_line_reproduces_the_solution(n):
    sol = fano.coefficients_odd(n)
    for s in range(n):
        for t in range(n):
            if (s, t) == (0, 0):
                continue
            d = fano.derive_via_line(n, s, t)
            assert abs(d.value - sol.table[s, t, d.support[0], d.support[1]]) < 1e-12


@pytest.mark.parametrize("n", [1, 3, 5])
def test_uniqueness_audit_consistent_for_odd_n(n):
    checks, derived = fano.uniqueness_audit(n)
    for name, c in checks.items():
        assert c.passed, (name, c.max_violation)
    assert np.abs(derived.table - fano.coefficients_odd(n).table).max() < 1e-12


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
    covariance identity, which is why the audit always tests two lifts.
    """
    c2 = fano.coefficients_candidate(2)
    base = SL2Element(1, 0, 0, 1)
    shifted = SL2Element(1, 2, 0, 1)
    assert base.residues(2) == shifted.residues(2)
    assert fano.check_covariance_group(c2, elements=[(base,)]).passed
    assert not fano.check_covariance_group(c2, elements=[(shifted,)]).passed


def test_route_values_conflict_between_lifts_for_even_n():
    """The forced value at (s,t) = (1,1), N = 2 differs between two lifts
    of the same residue class: +i/4 versus -i/4."""
    lift_a = SL2Element(1, 1, 0, 1)
    lift_b = SL2Element(3, 1, 2, 1)
    assert lift_a.residues(2) == lift_b.residues(2)
    va = fano._route_value(lift_a, 1, 1, 2)
    vb = fano._route_value(lift_b, 1, 1, 2)
    assert va == pytest.approx(0.25j)
    assert vb == pytest.approx(-0.25j)


def test_group_action_composition_is_consistent():
    n = 3
    sol = fano.coefficients_odd(n)
    elems = sl2_enumerate(n)
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = elems[rng.integers(len(elems))]
        h = elems[rng.integers(len(elems))]
        via_two = apply_covariance_transform(apply_covariance_transform(sol, h), g)
        via_product = apply_covariance_transform(sol, g.compose(h))
        assert np.abs(via_two.table - via_product.table).max() < 1e-12
        assert np.abs(via_two.table - sol.table).max() < 1e-12


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


def test_full_report_has_no_size_bound_and_shares_the_given_group():
    """Above the CLI's default audit bound the library still audits, and a
    group list passed in gives the same report as the one built inside."""
    report = fano.full_report(11)
    assert report.passed, report.failed_names()
    assert fano.matches_parity_prediction(report)
    given = fano.full_report(11, elements=sl2_lifts(11))
    assert given.to_json_dict() == report.to_json_dict()


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
