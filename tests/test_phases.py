"""The plain-Python phase source: the omega tables, the candidate's exponents and its operator values,
checked bit for bit against the numpy formulas they replace."""

import numpy as np
import pytest

from latwig import fano, phases
from latwig.operators import _half_omega_table, _omega_table
from oracles import candidate_operator_codes, half_omega_reference, omega_reference

# The N the phase tables are checked at: every N up to WIGNER_MAX_N, the largest any subcommand takes.
PHASE_NS = range(1, 1002)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _hex(*parts):
    """The exact texts of floats, which tell -0.0 from 0.0."""
    return tuple(float(x).hex() for x in parts)


def test_the_phase_tables_are_numpys_exp_to_the_bit():
    """The omega tables, built from math.cos and math.sin of (pi*k)*(1/N), are the complex exps
    they were built with in numpy, for every N a subcommand takes."""
    try:
        for n in PHASE_NS:
            cos, sin = phases.half_omega(n)
            half, whole = half_omega_reference(n), omega_reference(n)
            assert np.array_equal(_bits(cos), _bits(half.real)) and np.array_equal(_bits(sin), _bits(half.imag)), n
            assert np.array_equal(_bits(_half_omega_table(n)), _bits(half)), n
            assert np.array_equal(_bits(_omega_table(n)), _bits(whole)), n
            assert not _half_omega_table(n).flags.writeable and not _omega_table(n).flags.writeable
    finally:  # 1001 cached tables take 16 MB
        _half_omega_table.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 50, 51, 500, 501])
def test_candidate_exponent_takes_ints_and_int64_arrays(n):
    s, t = np.indices((n, n))
    exponents = phases.candidate_exponent(s, t, n)
    assert exponents.dtype == np.int64
    assert exponents.tolist() == [[phases.candidate_exponent(a, b, n) for b in range(n)] for a in range(n)]
    assert exponents.tolist() == [[(-a * b * (n + 1)) % (2 * n) for b in range(n)] for a in range(n)]
    assert 0 <= exponents.min() and exponents.max() < 2 * n
    if n % 2:  # an integer power of omega: the doubled exponent is even
        assert not (exponents % 2).any()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 50, 51])
def test_the_candidate_is_its_exponents_phases_over_n_squared(n):
    """Each support value is omega^(k/2) at its exponent, each part times 1/N^2: numpy's complex division."""
    cos, sin = phases.half_omega(n)
    values = fano.coefficients_candidate(n).values
    for s in range(n):
        for t in range(n):
            k = phases.candidate_exponent(s, t, n)
            assert _hex(values[s, t].real, values[s, t].imag) == _hex(cos[k] * (1 / n**2), sin[k] * (1 / n**2))


@pytest.mark.parametrize("n", range(1, 21))
def test_twist_exponent_parity_and_zeros(n):
    """e is odd exactly on the odd rows of an even N; every other row has e = 0 at one x alone."""
    k, x = np.indices((n, n))
    e = phases.twist_exponent(k, x, n)
    assert e.tolist() == [[phases.twist_exponent(a, b, n) for b in range(n)] for a in range(n)]
    assert np.array_equal(e % 2 == 1, np.broadcast_to((k % 2 == 1) & (n % 2 == 0), e.shape))
    for row in e[e[:, 0] % 2 == 0]:
        assert (row == 0).sum() == 1


@pytest.mark.parametrize("n", range(1, 52))
def test_operator_values_are_the_numpy_code_tables_to_the_bit(n):
    """Every value omega^m F[k, x] is the numpy code table's value at the same (m, k, x), with
    both cot from libm's tan; the keys are (m, 0) and, at even N, (m, e) for every odd e."""
    values = phases.operator_values(n)
    table, _ = candidate_operator_codes(n)
    odd = range(1, 2 * n, 2) if n % 2 == 0 else ()
    assert set(values) == {(m, e) for m in range(n) for e in (0, *odd)}
    for m in range(n):
        assert _hex(*values[m, 0]) == _hex(table[1 + m].real, table[1 + m].imag)
        for k in range(1, n, 2) if odd else ():
            for x in range(n):
                want = table[1 + n + k // 2 * n * n + m * n + x]
                assert _hex(*values[m, phases.twist_exponent(k, x, n)]) == _hex(want.real, want.imag), (m, k, x)
