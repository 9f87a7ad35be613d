import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latwig import fano
from latwig.operators import _half_omega_table, _omega_table, monomial
from oracles import position_to_coefficients


def _w(n, k):
    """Reference phase omega^k, written independently of the table code."""
    return np.exp(2j * np.pi * k / n)


def _random_coefficients(n):
    """Seeded complex table on the scale of the solution's entries (1/N^2)."""
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))
    return fano.FanoCoefficients(n, table / n**2)


def _position_reference(c):
    """a(q,p;n,m) = sum_st omega^(pt-qs) a~(s,t;n,m) as an explicit double sum."""
    n = c.n
    a = np.zeros_like(c.table)
    for q, p, s, t in itertools.product(range(n), repeat=4):
        a[q, p] += _w(n, p * t - q * s) * c.table[s, t]
    return a


def _assemble_reference(c):
    """The dense monomial expansion D(q,p) = sum_nm a(q,p;n,m) S^n P^m, O(N^6)."""
    n = c.n
    stack = np.array([[monomial(nn, mm, n) for mm in range(n)] for nn in range(n)])
    return np.einsum("qpnm,nmij->qpij", _position_reference(c), stack)


def test_odd_table_examples():
    c3 = fano.coefficients_odd(3)
    assert c3.table[1, 1, 1, 1] == pytest.approx(_w(3, -2) / 9)
    assert c3.table[1, 0, 0, 1] == pytest.approx(1 / 9)
    c5 = fano.coefficients_odd(5)
    assert c5.table[2, 3, 3, 2] == pytest.approx(_w(5, -18) / 25)
    assert c5.table[2, 3, 3, 2] == pytest.approx(_w(5, 2) / 25)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_odd_table_support_is_diagonal(n):
    c = fano.coefficients_odd(n)
    for s in range(n):
        for t in range(n):
            slice_ = c.table[s, t]
            mask = np.abs(slice_) > 0
            assert mask.sum() == 1
            assert mask[t, s]
            assert abs(abs(slice_[t, s]) - 1 / n**2) < 1e-14


def test_odd_and_candidate_reject_or_accept_parity():
    with pytest.raises(ValueError):
        fano.coefficients_odd(4)
    with pytest.raises(ValueError):
        fano.coefficients_cohendet(2)
    fano.coefficients_candidate(4)  # any N allowed


def test_split_parity_form_examples():
    c = fano.coefficients_cohendet(3)
    assert c.table[1, 1, 1, 1] == pytest.approx(_w(3, -2) / 9)
    assert c.table[2, 2, 2, 2] == pytest.approx(_w(3, -2) / 9)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_split_parity_form_equals_odd_solution(n):
    d = np.abs(fano.coefficients_cohendet(n).table - fano.coefficients_odd(n).table).max()
    assert d < 1e-12


def _candidate_loop(n):
    """The candidate entry by entry, from the doubled exponent -s*t*(N+1)."""
    half = _half_omega_table(n)
    table = np.zeros((n, n, n, n), dtype=complex)
    for s, t in itertools.product(range(n), repeat=2):
        table[s, t, t, s] = half[(-s * t * (n + 1)) % (2 * n)] / n**2
    return table


def _odd_solution_loop(n):
    """The odd-N solution entry by entry, from the integer exponent -s*t*(N+1)/2."""
    om = _omega_table(n)
    table = np.zeros((n, n, n, n), dtype=complex)
    for s, t in itertools.product(range(n), repeat=2):
        table[s, t, t, s] = om[(-s * t * (n + 1) // 2) % n] / n**2
    return table


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_candidate_equals_odd_solution_for_odd_n(n):
    """Bit for bit: omega^(k/2) at k = 2j and omega^j are the same double."""
    want = _odd_solution_loop(n)
    for c in (fano.coefficients_candidate(n), fano.coefficients_odd(n)):
        assert c.table.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_candidate_matches_the_per_entry_loop(n):
    assert fano.coefficients_candidate(n).table.tobytes() == _candidate_loop(n).tobytes()


def test_candidate_half_integer_phase_for_even_n():
    c2 = fano.coefficients_candidate(2)
    assert c2.table[1, 1, 1, 1] == pytest.approx(0.25j)


def test_candidate_axis_slices_for_even_n():
    c4 = fano.coefficients_candidate(4)
    for k in range(4):
        expected = np.zeros((4, 4))
        expected[k, 0] = 1 / 16
        assert_allclose(c4.table[0, k], expected, atol=1e-15)


def test_position_table_closed_form_for_solution():
    n = 5
    c = fano.coefficients_odd(n)
    a = fano.coefficients_to_position(c)
    for q in range(n):
        for p in range(n):
            for nn in range(n):
                for mm in range(n):
                    expected = _w(n, p * nn - q * mm) * _w(n, -nn * mm * (n + 1) // 2) / n**2
                    assert abs(a[q, p, nn, mm] - expected) < 1e-12


def test_position_table_uniform_component():
    for n in (3, 5):
        a = fano.coefficients_to_position(fano.coefficients_odd(n))
        assert_allclose(a[:, :, 0, 0], np.full((n, n), 1 / n**2), atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_fourier_round_trip_on_random_tables(n):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))
    c = fano.FanoCoefficients(n, table)
    back = position_to_coefficients(fano.coefficients_to_position(c), n)
    assert np.abs(back - table).max() < 1e-12


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_assembled_operators_have_trace_one_over_n(n):
    fset = fano.assemble(fano.coefficients_odd(n))
    traces = np.trace(fset.operators, axis1=2, axis2=3)
    assert_allclose(traces, np.full((n, n), 1 / n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_assembled_operators_sum_to_identity(n):
    fset = fano.assemble(fano.coefficients_odd(n))
    assert_allclose(fset.operators.sum(axis=(0, 1)), np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_position_transform_matches_double_sum(n):
    c = _random_coefficients(n)
    assert np.abs(fano.coefficients_to_position(c) - _position_reference(c)).max() < 1e-12


ASSEMBLE_CASES = {
    **{f"odd{n}": (fano.coefficients_odd, n) for n in (1, 3, 5, 7)},
    **{f"candidate{n}": (fano.coefficients_candidate, n) for n in (2, 3, 4, 6)},
    **{f"cohendet{n}": (fano.coefficients_cohendet, n) for n in (3, 5)},
    **{f"random{n}": (_random_coefficients, n) for n in (1, 2, 3, 4, 5, 8, 9, 11)},
}


@pytest.mark.parametrize("build,n", ASSEMBLE_CASES.values(), ids=ASSEMBLE_CASES.keys())
def test_assemble_matches_monomial_expansion_directly(build, n):
    c = build(n)
    table = c.table.copy()
    fset = fano.assemble(c)
    assert np.abs(fset.operators - _assemble_reference(c)).max() < 1e-12
    assert np.array_equal(c.table, table)  # the input table is left untouched


def test_dimension_one_is_the_trivial_operator():
    fset = fano.assemble(fano.coefficients_candidate(1))
    assert_allclose(fset.operators[0, 0], [[1.0]], atol=1e-15)
