from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latwig.operators import (
    basis_state_density,
    maximally_mixed,
    momentum_state_density,
    momentum_vector,
    omega,
    random_density_matrix,
    validate_density_matrix,
)
from oracles import clock_matrix, monomial, omega_pow, shift_matrix

DIMS = list(range(1, 10))


def test_clock_matrix_explicit():
    w3 = np.exp(2j * np.pi / 3)
    assert_allclose(clock_matrix(3), np.diag([1, w3, w3**2]), atol=1e-15)
    assert_allclose(clock_matrix(4), np.diag([1, 1j, -1, -1j]), atol=1e-15)
    assert_allclose(clock_matrix(1), [[1.0]], atol=0)


def test_shift_matrix_explicit():
    assert_allclose(shift_matrix(3), [[0, 1, 0], [0, 0, 1], [1, 0, 0]], atol=0)
    assert_allclose(shift_matrix(2), [[0, 1], [1, 0]], atol=0)


@pytest.mark.parametrize("n", DIMS)
def test_commutation_relation(n):
    s, p = shift_matrix(n), clock_matrix(n)
    assert_allclose(s @ p, omega(n) * p @ s, atol=1e-12)


@pytest.mark.parametrize("n", DIMS)
def test_shift_and_clock_have_period_n(n):
    s, p = shift_matrix(n), clock_matrix(n)
    assert_allclose(np.linalg.matrix_power(s, n), np.eye(n), atol=1e-12)
    assert_allclose(np.linalg.matrix_power(p, n), np.eye(n), atol=1e-12)


def test_momentum_vector_examples():
    assert_allclose(momentum_vector(0, 4), np.full(4, 0.5), atol=1e-15)
    assert_allclose(momentum_vector(1, 2), np.array([1, -1]) / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("n", DIMS)
def test_momentum_vectors_unitary_and_eigen(n):
    basis = np.column_stack([momentum_vector(p, n) for p in range(n)])
    assert_allclose(basis.conj().T @ basis, np.eye(n), atol=1e-12)
    s = shift_matrix(n)
    for p in range(n):
        v = momentum_vector(p, n)
        assert_allclose(s @ v, omega(n) ** (-p) * v, atol=1e-12)


def test_monomial_examples():
    n = 3
    assert_allclose(monomial(0, 0, n), np.eye(n), atol=0)
    assert_allclose(monomial(1, 1, n), shift_matrix(n) @ clock_matrix(n), atol=1e-15)


@pytest.mark.parametrize("n", DIMS)
def test_monomial_matches_matrix_power_oracle(n):
    s, p = shift_matrix(n), clock_matrix(n)
    for a in range(n):
        for b in range(n):
            oracle = np.linalg.matrix_power(s, a) @ np.linalg.matrix_power(p, b)
            assert_allclose(monomial(a, b, n), oracle, atol=1e-12)


@pytest.mark.parametrize("n", DIMS)
def test_monomial_traces(n):
    for a in range(n):
        for b in range(n):
            tr = monomial(a, b, n).trace()
            expected = n if (a, b) == (0, 0) else 0.0
            assert abs(tr - expected) < 1e-12


@pytest.mark.parametrize("n", DIMS)
def test_monomials_trace_orthogonal(n):
    stack = np.array([monomial(a, b, n).ravel() for a in range(n) for b in range(n)])
    gram = stack @ stack.conj().T
    assert_allclose(gram, n * np.eye(n * n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
def test_omega_pow_full_period_and_half(n):
    assert omega_pow(n, n) == pytest.approx(1.0)
    assert omega_pow(Fraction(n, 2), n) == pytest.approx(-1.0)
    assert omega_pow(0, n) == pytest.approx(1.0)


def test_omega_pow_half_integer_example():
    assert omega_pow(Fraction(3, 2), 2) == pytest.approx(-1j)


def test_omega_pow_periodic_in_exponent_class():
    for n in (2, 3, 4, 7):
        for x in (0, 1, Fraction(1, 2), Fraction(-7, 2), 5):
            assert omega_pow(x, n) == omega_pow(Fraction(x) + n, n)
            assert omega_pow(x, n) == omega_pow(Fraction(x) + 10**9 * n, n)


def test_omega_pow_rejects_other_denominators():
    with pytest.raises(ValueError):
        omega_pow(Fraction(1, 3), 5)


def test_validate_density_accepts_standard_states():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        validate_density_matrix(random_density_matrix(n, rng))
        validate_density_matrix(maximally_mixed(n))
        validate_density_matrix(basis_state_density(0, n))
        validate_density_matrix(momentum_state_density(n - 1, n))


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
