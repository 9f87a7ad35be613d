import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latwig import fano
from latwig.operators import _half_omega_table, _omega_table
from oracles import (
    assemble,
    assemble_dense,
    candidate_operator_codes,
    candidate_operators,
    coefficients_cohendet,
    coefficients_to_position,
    dense_table,
    expand_operators,
    monomial,
    position_to_coefficients,
)


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
    traces = np.trace(candidate_operators(n), axis1=2, axis2=3)
    assert_allclose(traces, np.full((n, n), 1 / n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_assembled_operators_sum_to_identity(n):
    assert_allclose(candidate_operators(n).sum(axis=(0, 1)), np.eye(n), atol=1e-12)


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
    assert np.abs(assemble(c) - _assemble_reference(c)).max() < 1e-12
    assert np.array_equal(c.values, values)  # the input table is left untouched


def test_dimension_one_is_the_trivial_operator():
    assert candidate_operators(1).tolist() == [[[[1.0]]]]
    assert_allclose(assemble(fano.coefficients_candidate(1))[0, 0], [[1.0]], atol=1e-15)


@pytest.mark.parametrize("n", [*range(1, 26), 31])
def test_slab_assemble_is_bit_identical_to_the_dense_path(n):
    """Each slab runs the dense path's FFTs on the same lines, so every bit agrees, signed zeros included."""
    for c in (fano.coefficients_candidate(n), _random_coefficients(n)):
        slab, dense = assemble(c), assemble_dense(c).operators
        assert np.array_equal(slab.view(np.uint64), dense.view(np.uint64))


def _traced_peak(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_holds_little_more_than_the_operator_tensor():
    """The traced peak of the slab path stays within 1.25 times the 16 N^4 bytes of the operator
    tensor; the dense path held the table and its work arrays, about three times as much."""
    n = 21
    assert _traced_peak(assemble, fano.coefficients_candidate(n)) <= 1.25 * 16 * n**4


@pytest.mark.parametrize("n", [20, 21])
def test_candidate_operators_hold_little_more_than_the_operator_tensor(n):
    """The oracle's work arrays are one diagonal's, O(N^3), beside the 16 N^4-byte tensor."""
    assert _traced_peak(candidate_operators, n) <= 1.25 * 16 * n**4


def _doubled_exponent_reference(n):
    """e[k, x] = 2x - k(N+1) mod 2N, the doubled exponent of the ratio of the twist table's geometric sum."""
    return np.array([[(2 * x - k * (n + 1)) % (2 * n) for x in range(n)] for k in range(n)])


@pytest.mark.parametrize("n", range(1, 32, 2))
def test_candidate_operators_are_the_displaced_parity_to_the_bit(n):
    """At odd N every nonzero is omega^(p*(j-i)) / N, the closed form the transforms run on."""
    got = candidate_operators(n)
    assert np.array_equal(got.view(np.uint64), expand_operators(n).operators.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 41))
def test_candidate_operators_match_the_fft_oracle(n):
    """The closed form against the slab FFTs of the candidate's support values, both parities."""
    assert np.abs(candidate_operators(n) - assemble(fano.coefficients_candidate(n))).max() < 1e-15


@pytest.mark.parametrize("n", [*range(1, 17), 24, 31, 32])
def test_candidate_operators_are_exactly_positive_zero_where_the_twist_table_vanishes(n):
    """F[k, x] is 0 where e is even and nonzero; there D(q,p)[i,j] is +0.0 in both parts, and
    nowhere else is an entry zero. Read at k = j - i and x = j - q for every (q, p)."""
    e = _doubled_exponent_reference(n)
    i, j = np.indices((n, n))
    q = np.arange(n)[:, np.newaxis, np.newaxis]
    vanishes = np.broadcast_to(((e % 2 == 0) & (e != 0))[(j - i) % n, (j - q) % n][:, np.newaxis], (n,) * 4)
    parts = candidate_operators(n).view(float).reshape(n, n, n, n, 2)
    assert np.array_equal(parts[vanishes].view(np.uint64), np.zeros((vanishes.sum(), 2), dtype=np.uint64))
    assert np.all(np.abs(parts[~vanishes]).max(axis=-1) > 0)
    assert vanishes.sum() == (n**4 - n**3 if n % 2 else n**4 // 2 - n**3 // 2)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 16, 32])
def test_candidate_twist_is_one_plus_i_cot_over_n_squared_on_odd_rows(n):
    """At even N an odd row k of F is (1 + i cot(pi e / 2N)) / N^2, read off D(0, 0)[i, i + k] at x = i + k."""
    e = _doubled_exponent_reference(n)
    d = candidate_operators(n)[0, 0]
    for k in range(1, n, 2):
        for x in range(n):
            got = d[(x - k) % n, x]
            want = (1 + 1j * math.cos(math.pi * e[k, x] / (2 * n)) / math.sin(math.pi * e[k, x] / (2 * n))) / n**2
            assert abs(got - want) < 1e-15, (k, x)


def _expand_codes(n):
    """The tensor [q, p, i, j] of ``candidate_operator_codes``: each entry's value by its code."""
    values, codes = candidate_operator_codes(n)
    return values[codes(slice(0, n * n))].reshape((n,) * 4)


@pytest.mark.parametrize("n", [*range(1, 25), 31, 32, 40, 41])
def test_operator_codes_expand_to_the_scattered_tensor_to_the_bit(n):
    """The code table and the oracle's scatter write the same floats, signed zeros included, so
    the artifact's operator texts are the oracle's."""
    assert np.array_equal(_expand_codes(n).view(np.uint64), candidate_operators(n).view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 39, 50, 51])
def test_operator_value_table_size_and_code_slices(n):
    """1 + N values at odd N, each the value of some entry past N = 1, and 1 + N + N^3 / 2 at even
    N; the codes of any slice of records are those of the whole."""
    values, codes = candidate_operator_codes(n)
    assert len(values) == (1 + n if n % 2 else 1 + n + n**3 // 2)
    rows = slice(n * n // 3, n * n // 3 + 5)
    whole = np.concatenate([codes(slice(k, k + n)) for k in range(0, n * n, n)])
    assert np.array_equal(codes(rows), whole[rows])
    assert 0 <= whole.min() and whole.max() < len(values)
    if n % 2 and n > 1:
        assert np.array_equal(np.unique(whole), np.arange(len(values)))
