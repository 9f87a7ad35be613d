from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from latwig.operators import (
    _result,
    _scan,
    basis_state_density,
    maximally_mixed,
    momentum_state_density,
    momentum_vector,
    random_density_matrix,
    validate_density_matrix,
)
from oracles import clock_matrix, monomial, omega, omega_pow, shift_matrix

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_density_refuses_non_finite_entries(bad):
    rho = maximally_mixed(3)
    rho[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(rho)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (4, 1, 6), (2, 3, 4, 5), (6, 6, 6, 6)])
def test_result_witness_is_the_first_index_above_tolerance(shape):
    """The witness taken from the flattened mask's argmax is the first row of np.argwhere,
    the index a scan in C order meets first, at tolerances failing few or most entries."""
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    for _ in range(20):
        res = rng.random(shape) ** rng.integers(1, 8)
        for tol in (0.0, 0.5, float(np.quantile(res, 0.9)), float(res.max()) * (1 - 1e-12)):
            check = _result("r", res, tol)
            failing = np.argwhere(res > tol)
            if len(failing):
                assert check.witness == tuple(failing[0].tolist()), (shape, tol)
            else:
                assert check.passed and check.witness is None


def test_result_names_a_nan_residual_as_the_witness():
    check = _result("r", np.array([0.0, np.nan, 0.0]), 1e-10)
    assert not check.passed and np.isnan(check.max_violation) and check.witness == (1,)


TOL = 0.25
RESIDUALS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, TOL, np.nextafter(TOL, 1.0), np.nan, np.inf]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.lists(RESIDUALS, max_size=24), st.data())
def test_scan_over_consecutive_blocks_equals_result_on_the_whole(width, values, data):
    """Any split of the rows into consecutive blocks, each witness offset by its first row, gives the
    verdict, max_violation bits and witness of the whole array, and these follow the rule: a residual
    fails unless it is <= tol, the max propagates NaN, the witness is the first failing index."""
    res = np.array(values[:len(values) // width * width]).reshape(-1, width)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(res)), max_size=5)))
    bounds = [0, *cuts, len(res)]
    blocks = ((res[lo:hi], lambda r, c, lo=lo: (lo + r, c)) for lo, hi in zip(bounds, bounds[1:]))
    got, whole = _scan("r", blocks, TOL), _result("r", res, TOL)
    assert (got.passed, got.witness) == (whole.passed, whole.witness)
    assert np.float64(got.max_violation).tobytes() == np.float64(whole.max_violation).tobytes()
    failing = np.argwhere(~(res <= TOL))
    assert whole.witness == (tuple(failing[0].tolist()) if len(failing) else None)
    assert whole.passed == (whole.witness is None)
    want = np.nan if np.isnan(res).any() else (res.max() if res.size else 0.0)
    assert np.float64(whole.max_violation).tobytes() == np.float64(want).tobytes()
