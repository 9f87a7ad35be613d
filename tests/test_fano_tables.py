import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latwig import fano
from latwig.operators import _half_omega_table, _omega_table, monomial
from oracles import assemble_dense, coefficients_cohendet, coefficients_to_position, dense_table, position_to_coefficients


def _w(n, k):
    """Reference phase omega^k, written independently of the table code."""
    return np.exp(2j * np.pi * k / n)


def _random_coefficients(n):
    """Seeded complex support values on the scale of the solution's entries (1/N^2)."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return fano.FanoCoefficients(n, values / n**2)


def _position_reference(c):
    """a(q,p;n,m) = sum_st omega^(pt-qs) a~(s,t;n,m) as an explicit double sum."""
    n = c.n
    table = dense_table(c)
    a = np.zeros_like(table)
    for q, p, s, t in itertools.product(range(n), repeat=4):
        a[q, p] += _w(n, p * t - q * s) * table[s, t]
    return a


def _assemble_reference(c):
    """The dense monomial expansion D(q,p) = sum_nm a(q,p;n,m) S^n P^m, O(N^6)."""
    n = c.n
    stack = np.array([[monomial(nn, mm, n) for mm in range(n)] for nn in range(n)])
    return np.einsum("qpnm,nmij->qpij", _position_reference(c), stack)


def test_odd_table_examples():
    c3 = fano.coefficients_odd(3)
    assert c3.values[1, 1] == pytest.approx(_w(3, -2) / 9)  # a~(1,1;1,1)
    assert c3.values[1, 0] == pytest.approx(1 / 9)  # a~(1,0;0,1)
    c5 = fano.coefficients_odd(5)
    assert c5.values[2, 3] == pytest.approx(_w(5, -18) / 25)  # a~(2,3;3,2)
    assert c5.values[2, 3] == pytest.approx(_w(5, 2) / 25)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_odd_table_support_is_diagonal(n):
    """Each (s,t) slice of the dense table has its one nonzero, of modulus 1/N^2, at (n,m) = (t,s)."""
    table = dense_table(fano.coefficients_odd(n))
    for s in range(n):
        for t in range(n):
            slice_ = table[s, t]
            mask = np.abs(slice_) > 0
            assert mask.sum() == 1
            assert mask[t, s]
            assert abs(abs(slice_[t, s]) - 1 / n**2) < 1e-14


def test_odd_and_candidate_reject_or_accept_parity():
    with pytest.raises(ValueError):
        fano.coefficients_odd(4)
    with pytest.raises(ValueError):
        coefficients_cohendet(2)
    fano.coefficients_candidate(4)  # any N allowed


def test_split_parity_form_examples():
    c = coefficients_cohendet(3)
    assert c.values[1, 1] == pytest.approx(_w(3, -2) / 9)
    assert c.values[2, 2] == pytest.approx(_w(3, -2) / 9)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_split_parity_form_equals_odd_solution(n):
    d = np.abs(coefficients_cohendet(n).values - fano.coefficients_odd(n).values).max()
    assert d < 1e-12


def _candidate_loop(n):
    """The candidate's support values one by one, from the doubled exponent -s*t*(N+1)."""
    half = _half_omega_table(n)
    values = np.zeros((n, n), dtype=complex)
    for s, t in itertools.product(range(n), repeat=2):
        values[s, t] = half[(-s * t * (n + 1)) % (2 * n)] / n**2
    return values


def _odd_solution_loop(n):
    """The odd-N solution's support values one by one, from the integer exponent -s*t*(N+1)/2."""
    om = _omega_table(n)
    values = np.zeros((n, n), dtype=complex)
    for s, t in itertools.product(range(n), repeat=2):
        values[s, t] = om[(-s * t * (n + 1) // 2) % n] / n**2
    return values


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_candidate_equals_odd_solution_for_odd_n(n):
    """Bit for bit: omega^(k/2) at k = 2j and omega^j are the same double."""
    want = _odd_solution_loop(n)
    for c in (fano.coefficients_candidate(n), fano.coefficients_odd(n)):
        assert c.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_candidate_matches_the_per_entry_loop(n):
    assert fano.coefficients_candidate(n).values.tobytes() == _candidate_loop(n).tobytes()


def test_candidate_half_integer_phase_for_even_n():
    c2 = fano.coefficients_candidate(2)
    assert c2.values[1, 1] == pytest.approx(0.25j)


def test_candidate_axis_slices_for_even_n():
    c4 = fano.coefficients_candidate(4)
    table = dense_table(c4)
    for k in range(4):
        expected = np.zeros((4, 4))
        expected[k, 0] = 1 / 16
        assert_allclose(table[0, k], expected, atol=1e-15)


def test_position_table_closed_form_for_solution():
    n = 5
    c = fano.coefficients_odd(n)
    a = coefficients_to_position(c)
    for q in range(n):
        for p in range(n):
            for nn in range(n):
                for mm in range(n):
                    expected = _w(n, p * nn - q * mm) * _w(n, -nn * mm * (n + 1) // 2) / n**2
                    assert abs(a[q, p, nn, mm] - expected) < 1e-12


def test_position_table_uniform_component():
    for n in (3, 5):
        a = coefficients_to_position(fano.coefficients_odd(n))
        assert_allclose(a[:, :, 0, 0], np.full((n, n), 1 / n**2), atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_fourier_round_trip_on_random_tables(n):
    rng = np.random.default_rng(n)
    c = fano.FanoCoefficients(n, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    back = position_to_coefficients(coefficients_to_position(c), n)
    assert np.abs(back - dense_table(c)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_assembled_operators_have_trace_one_over_n(n):
    traces = np.trace(fano.assemble(fano.coefficients_odd(n)), axis1=2, axis2=3)
    assert_allclose(traces, np.full((n, n), 1 / n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_assembled_operators_sum_to_identity(n):
    assert_allclose(fano.assemble(fano.coefficients_odd(n)).sum(axis=(0, 1)), np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_position_transform_matches_double_sum(n):
    c = _random_coefficients(n)
    assert np.abs(coefficients_to_position(c) - _position_reference(c)).max() < 1e-12


ASSEMBLE_CASES = {
    **{f"odd{n}": (fano.coefficients_odd, n) for n in (1, 3, 5, 7)},
    **{f"candidate{n}": (fano.coefficients_candidate, n) for n in (2, 3, 4, 6)},
    **{f"cohendet{n}": (coefficients_cohendet, n) for n in (3, 5)},
    **{f"random{n}": (_random_coefficients, n) for n in (1, 2, 3, 4, 5, 8, 9, 11)},
}


@pytest.mark.parametrize("build,n", ASSEMBLE_CASES.values(), ids=ASSEMBLE_CASES.keys())
def test_assemble_matches_monomial_expansion_directly(build, n):
    c = build(n)
    values = c.values.copy()
    assert np.abs(fano.assemble(c) - _assemble_reference(c)).max() < 1e-12
    assert np.array_equal(c.values, values)  # the input table is left untouched


def test_dimension_one_is_the_trivial_operator():
    assert_allclose(fano.assemble(fano.coefficients_candidate(1))[0, 0], [[1.0]], atol=1e-15)


@pytest.mark.parametrize("n", [*range(1, 26), 31])
def test_slab_assemble_is_bit_identical_to_the_dense_path(n):
    """Each slab runs the dense path's FFTs on the same lines, so every bit agrees, signed zeros included."""
    for c in (fano.coefficients_candidate(n), _random_coefficients(n)):
        slab, dense = fano.assemble(c), assemble_dense(c).operators
        assert np.array_equal(slab.view(np.uint64), dense.view(np.uint64))


def test_assemble_holds_little_more_than_the_operator_tensor():
    """The traced peak of the slab path stays within 1.25 times the 16 N^4 bytes of the operator
    tensor; the dense path held the table and its work arrays, about three times as much."""
    n = 21
    c = fano.coefficients_candidate(n)
    tracemalloc.start()
    try:
        fano.assemble(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * n**4
