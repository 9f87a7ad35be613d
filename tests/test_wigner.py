import numpy as np
import pytest
from numpy.testing import assert_allclose

from latwig import fano, wigner
from latwig.fano import FanoOperatorSet
from latwig.lattice import IDENTITY, SL2Element, sl2_complete, sl2_second_lift
from latwig.operators import (
    basis_state_density,
    maximally_mixed,
    momentum_state_density,
    momentum_vector,
    random_density_matrix,
)
from oracles import line_points


def _solution_set(n):
    return fano.assemble(fano.coefficients_odd(n))


def marginal_oracle(w, g):
    """The per-line loop: a Python sum over each line's sites, in r order."""
    weights = np.empty(w.n, dtype=float)
    for p0 in range(w.n):
        weights[p0] = sum(w.values[q, p] for q, p in line_points(g, p0, w.n).points).real
    return weights


def line_sum_oracle(f, g, p0):
    """The per-site loop: D(q,p) added into a zero matrix along the line."""
    m = np.zeros((f.n, f.n), dtype=complex)
    for q, p in line_points(g, p0, f.n).points:
        m += f.operators[q, p]
    return m


def assert_bitwise_equal(got, want):
    """Same dtype, shape and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def oracle_directions(n):
    """Completed directions, their second lifts (large entries), the negated
    second lifts (negative entries) and a lift beyond 64-bit integers."""
    out = []
    for kappa, lam in [(1, 0), (0, 1), (1, 1), (2, 3), (1, 4), (3, -2)]:
        g = sl2_complete(kappa, lam)
        h = sl2_second_lift(g, n)
        out += [g, h, SL2Element(*(-x for x in h.as_tuple()))]
    return out + [g.compose(SL2Element(1, 0, n * 2**70, 1))]


ORACLE_DIMS = [1, 3, 5, 9, 11, 23]


def test_maximally_mixed_state_gives_uniform_grid():
    for n in (3, 5):
        grid = wigner.wigner_from_density(maximally_mixed(n), _solution_set(n))
        assert_allclose(grid.values, np.full((n, n), 1 / n**2), atol=1e-13)
        assert grid.total() == pytest.approx(1.0)


def test_position_eigenstate_grid():
    n = 3
    grid = wigner.wigner_from_density(basis_state_density(0, n), _solution_set(n))
    expected = np.zeros((n, n))
    expected[0, :] = 1 / 3
    assert_allclose(grid.values.real, expected, atol=1e-13)
    assert grid.max_imag() < 1e-13


@pytest.mark.parametrize("n", [3, 5, 7])
def test_grid_is_real_and_normalized_for_random_states(n):
    fset = _solution_set(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        rho = random_density_matrix(n, rng)
        grid = wigner.wigner_from_density(rho, fset)
        assert grid.max_imag() < 1e-10
        assert grid.total().real == pytest.approx(1.0, abs=1e-10)


def test_transform_is_linear_in_the_state():
    n = 5
    fset = _solution_set(n)
    rng = np.random.default_rng(0)
    a, b = random_density_matrix(n, rng), random_density_matrix(n, rng)
    lam = 0.3
    mixed = lam * a + (1 - lam) * b
    direct = wigner.wigner_from_density(mixed, fset).values
    combo = (
        lam * wigner.wigner_from_density(a, fset).values
        + (1 - lam) * wigner.wigner_from_density(b, fset).values
    )
    assert_allclose(direct, combo, atol=1e-13)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        wigner.wigner_from_density(maximally_mixed(4), _solution_set(3))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_round_trip_density_to_grid_to_density(n):
    fset = _solution_set(n)
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(20):
        rho = random_density_matrix(n, rng)
        grid = wigner.wigner_from_density(rho, fset)
        worst = max(worst, np.abs(wigner.density_from_wigner(grid, fset) - rho).max())
    assert worst < 1e-10


def test_round_trip_grid_to_density_to_grid():
    n = 3
    fset = _solution_set(n)
    rng = np.random.default_rng(8)
    values = rng.standard_normal((n, n))
    values = values / values.sum()
    grid = wigner.WignerGrid(n, values.astype(complex))
    rho = wigner.density_from_wigner(grid, fset)
    back = wigner.wigner_from_density(rho, fset)
    assert_allclose(back.values, grid.values, atol=1e-12)


def test_uniform_grid_inverts_to_maximally_mixed():
    n = 5
    fset = _solution_set(n)
    grid = wigner.WignerGrid(n, np.full((n, n), 1 / n**2, dtype=complex))
    assert_allclose(wigner.density_from_wigner(grid, fset), np.eye(n) / n, atol=1e-12)


def test_inverse_rejects_non_orthogonal_operator_sets():
    n = 3
    rng = np.random.default_rng(3)
    bad = FanoOperatorSet(n, rng.standard_normal((n, n, n, n)) + 0j)
    grid = wigner.WignerGrid(n, np.full((n, n), 1 / n**2, dtype=complex))
    with pytest.raises(ValueError):
        wigner.density_from_wigner(grid, bad)


def test_axis_marginals_match_basis_expectations():
    n = 5
    fset = _solution_set(n)
    rng = np.random.default_rng(4)
    rho = random_density_matrix(n, rng)
    grid = wigner.wigner_from_density(rho, fset)

    momentum = wigner.marginal_along_line(grid, IDENTITY)  # lines p = p0
    for p0 in range(n):
        v = momentum_vector(p0, n)
        assert momentum.weights[p0] == pytest.approx((v.conj() @ rho @ v).real, abs=1e-12)

    position = wigner.marginal_along_line(grid, SL2Element(0, 1, -1, 0))  # lines q = -p0
    for p0 in range(n):
        q = (-p0) % n
        assert position.weights[p0] == pytest.approx(rho[q, q].real, abs=1e-12)


def test_uniform_state_has_uniform_marginal_in_every_direction():
    n = 5
    fset = _solution_set(n)
    grid = wigner.wigner_from_density(maximally_mixed(n), fset)
    for kappa, lam in [(1, 0), (0, 1), (1, 1), (1, 4), (2, 3)]:
        marg = wigner.marginal_along_line(grid, sl2_complete(kappa, lam))
        assert_allclose(marg.weights, np.full(n, 1 / n), atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_tilted_marginals_are_probabilities_and_match_projectors(n):
    fset = _solution_set(n)
    rng = np.random.default_rng(30 + n)
    rho = random_density_matrix(n, rng)
    grid = wigner.wigner_from_density(rho, fset)
    directions = [(1, lam) for lam in range(n)] + [(0, 1), (2, 1), (3, 1)]
    for kappa, lam in directions:
        if np.gcd(kappa, lam) != 1:
            continue
        g = sl2_complete(kappa, lam)
        marg = wigner.marginal_along_line(grid, g)
        assert marg.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert marg.weights.min() > -1e-10
        for p0 in range(n):
            m = wigner.line_sum_operator(fset, g, p0)
            assert marg.weights[p0] == pytest.approx((m @ rho).trace().real, abs=1e-10)


@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_marginal_gather_matches_the_per_line_loop_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    grids = [
        wigner.wigner_from_density(random_density_matrix(n, rng), _solution_set(n)),
        wigner.WignerGrid(n, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
        wigner.WignerGrid(n, np.full((n, n), complex(-0.0, -0.0))),
    ]
    for grid in grids:
        for g in oracle_directions(n):
            got = wigner.marginal_along_line(grid, g)
            assert got.element == g
            assert_bitwise_equal(got.weights, marginal_oracle(grid, g))


@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_line_sum_operator_matches_the_per_site_loop_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    sets = [
        _solution_set(n),
        FanoOperatorSet(n, rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))),
    ]
    for fset in sets:
        for g in oracle_directions(n):
            for p0 in sorted({0, n - 1, n // 2, -1, n + 2}):
                assert_bitwise_equal(wigner.line_sum_operator(fset, g, p0), line_sum_oracle(fset, g, p0))


def test_direction_totals_equal_grid_total():
    n = 3
    fset = _solution_set(n)
    rho = random_density_matrix(n, np.random.default_rng(12))
    grid = wigner.wigner_from_density(rho, fset)
    for kappa, lam in [(1, 0), (0, 1), (1, 2)]:
        marg = wigner.marginal_along_line(grid, sl2_complete(kappa, lam))
        assert marg.weights.sum() == pytest.approx(grid.total().real, abs=1e-12)


def test_line_projector_identity_for_axis_direction():
    n = 3
    fset = _solution_set(n)
    m = wigner.line_sum_operator(fset, IDENTITY, 1)
    assert_allclose(m, momentum_state_density(1, n), atol=1e-12)
    rep = wigner.line_projector_check(fset, IDENTITY, 1)
    assert rep.passed


def test_line_projector_identity_for_diagonal_direction():
    n = 3
    fset = _solution_set(n)
    rep = wigner.line_projector_check(fset, SL2Element(1, 1, 0, 1), 0)
    assert rep.passed
    assert rep.eigenvalue_multiplicity == 1


@pytest.mark.parametrize("n", [3, 5])
def test_line_projector_identity_full_direction_sweep(n):
    fset = _solution_set(n)
    directions = [sl2_complete(1, lam) for lam in range(n)] + [sl2_complete(0, 1)]
    for g in directions:
        for p0 in range(n):
            rep = wigner.line_projector_check(fset, g, p0)
            assert rep.passed, (g.as_tuple(), p0, rep.max_violation)
            assert rep.max_violation < 1e-10


def test_line_projector_nondegenerate_for_composite_odd_direction():
    """Dimension nine, direction (1,3): the eigenvalue is still simple."""
    fset = _solution_set(9)
    rep = wigner.line_projector_check(fset, sl2_complete(1, 3), 2)
    assert rep.eigenvalue_multiplicity == 1
    assert rep.passed


def test_line_projector_rejects_even_dimensions():
    fset = fano.assemble(fano.coefficients_candidate(2))
    with pytest.raises(ValueError):
        wigner.line_projector_check(fset, IDENTITY, 0)


def test_grid_json_dict_tracks_imaginary_part():
    real_grid = wigner.WignerGrid(2, np.array([[0.5, 0.0], [0.25, 0.25]], dtype=complex))
    doc = real_grid.to_json_dict()
    assert doc["im"] is None
    assert doc["re"][0][0] == 0.5
    complex_grid = wigner.WignerGrid(2, np.array([[0.5, 0.1j], [0.25, 0.15]], dtype=complex))
    doc = complex_grid.to_json_dict()
    assert doc["im"][0][1] == pytest.approx(0.1)
