import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latwig import fano, wigner
from latwig.fano import _result
from latwig.lattice import SL2Element, first_completions, sl2_complete
from latwig.operators import (
    _half_omega_table,
    _omega_table,
    basis_state_density,
    maximally_mixed,
    momentum_state_density,
    momentum_vector,
    random_density_matrix,
)
from oracles import (
    IDENTITY,
    assemble,
    candidate_operators,
    clock_matrix,
    compose,
    density_einsum,
    direction_unitary,
    exact_lift,
    expand_operators,
    line_points,
    line_sum_operators,
    omega_int,
    primitive_rows,
    site_gram_residuals,
    shift_matrix,
    sl2_second_lift_search,
    wigner_einsum,
)

# Bound on the tracemalloc peak of `line_projector_check` at N = 101, where
# the stack of line sums alone takes 16 MiB: 1.28 MiB measured with numpy
# 2.4, one line of 163 kB a block and its temporaries.
PROJECTOR_CHECK_PEAK_BYTES = 2 << 20


def marginal_oracle(w, g):
    """The per-line loop: a Python sum over each line's sites, in r order."""
    weights = np.empty(w.n, dtype=float)
    for p0 in range(w.n):
        weights[p0] = sum(w.values[q, p] for q, p in line_points(g, p0, w.n).points).real
    return weights


def line_sum_oracle(ops, g, p0):
    """The per-site loop: dense D(q,p) added into a zero matrix along the line."""
    m = np.zeros((ops.n, ops.n), dtype=complex)
    for q, p in line_points(g, p0, ops.n).points:
        m += ops.operators[q, p]
    return m


def projector_check_oracle(stack, g, tol):
    """The dense per-label loop: each line's residuals formed on its own with
    dense products, then stacked."""
    n = len(stack)
    v = direction_unitary(g, n)
    res = {"hermitian": [], "idempotent": [], "trace": [], "eigen_relation": []}
    for p0, m in enumerate(stack):
        res["hermitian"].append(np.abs(m - m.conj().T))
        res["idempotent"].append(np.abs(m @ m - m))
        res["trace"].append(np.abs(m.trace() - 1.0))
        res["eigen_relation"].append(np.abs(v @ m - omega_int(-p0, n) * m))
    return {k: _result(f"projector_{k}", np.array(r), tol) for k, r in res.items()}


def dense_direction_unitary(g, n):
    """omega^((N-1)*kappa*lam/2) S^kappa P^lam from matrix powers of the shift and clock."""
    power = np.linalg.matrix_power
    scalar = _half_omega_table(n)[(n - 1) * g.kappa * g.lam % (2 * n)]
    return scalar * power(shift_matrix(n), g.kappa % n) @ power(clock_matrix(n), g.lam % n)


def projector_oracle(g, n):
    """Pi[p0] = (1/N) sum_k omega^(k*p0) V^k for every label p0, from matrix
    powers of the dense direction unitary; any N."""
    v = dense_direction_unitary(g, n)
    powers = [np.linalg.matrix_power(v, k) for k in range(n)]
    return np.array([sum(omega_int(k * p0, n) * powers[k] for k in range(n)) / n for p0 in range(n)])


def projector_residual_oracle(stack, g, tol):
    """The dense per-label loop: |M - Pi[p0]| formed for each line on its own, then stacked."""
    pi = projector_oracle(g, len(stack))
    return _result("projector", np.array([np.abs(m - pi[p0]) for p0, m in enumerate(stack)]), tol)


def assert_same_verdicts(rep, dense):
    """The verdict of the four dense residuals, and the first line any of them fails on."""
    failing = [w.witness[0] for w in dense.values() if not w.passed]
    assert rep.projector.passed == (not failing)
    if failing:
        assert rep.projector.witness[0] == min(failing), (rep.projector.witness, failing)


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
        h = sl2_second_lift_search(g, n)
        out += [g, h, SL2Element(*(-x for x in h))]
    return out + [compose(g, SL2Element(1, 0, n * 2**70, 1))]


ORACLE_DIMS = [1, 3, 5, 9, 11, 23]


def test_maximally_mixed_state_gives_uniform_grid():
    for n in (3, 5):
        grid = wigner.wigner_from_density(maximally_mixed(n))
        assert_allclose(grid.values, np.full((n, n), 1 / n**2), atol=1e-13)
        assert grid.total() == pytest.approx(1.0)


def test_position_eigenstate_grid():
    n = 3
    grid = wigner.wigner_from_density(basis_state_density(0, n))
    expected = np.zeros((n, n))
    expected[0, :] = 1 / 3
    assert_allclose(grid.values.real, expected, atol=1e-13)
    assert grid.max_imag() < 1e-13


@pytest.mark.parametrize("n", [3, 5, 7])
def test_grid_is_real_and_normalized_for_random_states(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        rho = random_density_matrix(n, rng)
        grid = wigner.wigner_from_density(rho)
        assert grid.max_imag() < 1e-10
        assert grid.total().real == pytest.approx(1.0, abs=1e-10)


def test_transform_is_linear_in_the_state():
    n = 5
    rng = np.random.default_rng(0)
    a, b = random_density_matrix(n, rng), random_density_matrix(n, rng)
    lam = 0.3
    mixed = lam * a + (1 - lam) * b
    direct = wigner.wigner_from_density(mixed).values
    combo = (
        lam * wigner.wigner_from_density(a).values
        + (1 - lam) * wigner.wigner_from_density(b).values
    )
    assert_allclose(direct, combo, atol=1e-13)


def test_dimension_mismatch_rejected():
    """N is read from rho, so a rho that is not N x N has none."""
    for rho in (np.eye(3, 4), np.ones(3), np.ones((3, 3, 3)), np.ones((0, 0))):
        with pytest.raises(ValueError):
            wigner.wigner_from_density(rho)


@pytest.mark.parametrize("shape", [(3,), (3, 5)])
def test_grid_values_must_be_n_by_n(shape):
    """Values that would broadcast into the N x N scatter are refused, not inverted."""
    with pytest.raises(ValueError, match=rf"\(3, 3\).*{re.escape(str(shape))}"):
        wigner.WignerGrid(3, np.ones(shape) / 9)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_round_trip_density_to_grid_to_density(n):
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(20):
        rho = random_density_matrix(n, rng)
        grid = wigner.wigner_from_density(rho)
        worst = max(worst, np.abs(wigner.density_from_wigner(grid) - rho).max())
    assert worst < 1e-10


def test_round_trip_grid_to_density_to_grid():
    n = 3
    rng = np.random.default_rng(8)
    values = rng.standard_normal((n, n))
    values = values / values.sum()
    grid = wigner.WignerGrid(n, values.astype(complex))
    rho = wigner.density_from_wigner(grid)
    back = wigner.wigner_from_density(rho)
    assert_allclose(back.values, grid.values, atol=1e-12)


def test_uniform_grid_inverts_to_maximally_mixed():
    n = 5
    grid = wigner.WignerGrid(n, np.full((n, n), 1 / n**2, dtype=complex))
    assert_allclose(wigner.density_from_wigner(grid), np.eye(n) / n, atol=1e-12)


def test_inverse_rejects_non_orthogonal_operator_sets():
    """The closed form at even N: its dense site Gram misses (1/N) I by 1/N."""
    for n in (2, 4, 6):
        assert site_gram_residuals(expand_operators(n)).max() == pytest.approx(1 / n)
        grid = wigner.WignerGrid(n, np.full((n, n), 1 / n**2, dtype=complex))
        with pytest.raises(ValueError, match="not trace-orthogonal"):
            wigner.density_from_wigner(grid)


@pytest.mark.parametrize("n", range(1, 16))
def test_structural_orthogonality_guard_matches_the_dense_site_gram(n):
    """The inverse refuses exactly the N whose expanded operators fail the dense site Gram."""
    gram = site_gram_residuals(expand_operators(n)).max()
    assert gram < 1e-15 if n % 2 else gram == pytest.approx(1 / n)
    grid = wigner.WignerGrid(n, np.full((n, n), 1 / n**2, dtype=complex))
    if gram < 1e-8:
        assert_allclose(wigner.density_from_wigner(grid), np.eye(n) / n, atol=1e-12)
    else:
        with pytest.raises(ValueError, match="not trace-orthogonal"):
            wigner.density_from_wigner(grid)


@pytest.mark.parametrize("n", range(1, 32, 2))
def test_closed_form_expands_to_the_assembled_solution(n):
    closed = expand_operators(n).operators
    assembled = assemble(fano.coefficients_odd(n))
    assert np.abs(closed - assembled).max() < 1e-15


@pytest.mark.parametrize("n", range(1, 32, 2))
def test_fft_transforms_match_the_einsum_oracles(n):
    """Forward on a density matrix and on a non-hermitian matrix, inverse on a
    random complex grid; entries are O(1/N), so 1e-14 is ~100 ulp."""
    ops = expand_operators(n)
    rng = np.random.default_rng(500 + n)
    for rho in (random_density_matrix(n, rng), (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n):
        assert_allclose(wigner.wigner_from_density(rho).values, wigner_einsum(rho, ops), rtol=0, atol=1e-14)
    values = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n**2
    got = wigner.density_from_wigner(wigner.WignerGrid(n, values))
    assert_allclose(got, density_einsum(values, ops), rtol=0, atol=1e-14)


def test_axis_marginals_match_basis_expectations():
    n = 5
    rng = np.random.default_rng(4)
    rho = random_density_matrix(n, rng)
    grid = wigner.wigner_from_density(rho)

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
    grid = wigner.wigner_from_density(maximally_mixed(n))
    for kappa, lam in [(1, 0), (0, 1), (1, 1), (1, 4), (2, 3)]:
        marg = wigner.marginal_along_line(grid, sl2_complete(kappa, lam))
        assert_allclose(marg.weights, np.full(n, 1 / n), atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_tilted_marginals_are_probabilities_and_match_projectors(n):
    rng = np.random.default_rng(30 + n)
    rho = random_density_matrix(n, rng)
    grid = wigner.wigner_from_density(rho)
    directions = [(1, lam) for lam in range(n)] + [(0, 1), (2, 1), (3, 1)]
    for kappa, lam in directions:
        if np.gcd(kappa, lam) != 1:
            continue
        g = sl2_complete(kappa, lam)
        marg = wigner.marginal_along_line(grid, g)
        assert marg.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert marg.weights.min() > -1e-10
        for p0, m in enumerate(line_sum_operators(n, g)):
            assert marg.weights[p0] == pytest.approx((m @ rho).trace().real, abs=1e-10)


@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_marginal_gather_matches_the_per_line_loop_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    grids = [
        wigner.wigner_from_density(random_density_matrix(n, rng)),
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
    """The oracle directions include (0, 1), whose lines' sites all share one support."""
    ops = expand_operators(n)
    for g in oracle_directions(n):
        got = line_sum_operators(n, g)
        assert got.shape == (n, n, n)
        for p0 in range(n):
            assert_bitwise_equal(got[p0], line_sum_oracle(ops, g, p0))


@pytest.mark.parametrize("n", [1, 3, 5, 9, 11])
def test_line_projector_check_matches_the_per_label_loop_bit_for_bit(n):
    """The check run one line a block, a per-label loop, is the same report
    to the bit as in blocks of two lines or of all N. Its residual is the
    dense per-label loop's |M - Pi| in verdict and witness, and in its
    largest value to 1e-14 relative on random line-sum stacks (failing).
    On the solution set (passing) both are round-off and agree to 1e-13,
    above the dense matrix powers' own 2e-14 at N = 11 (direction (0, 10)).
    The four dense residuals M = M^dag, M^2 = M, Tr M = 1 and
    V M = omega^(-p0) M give the same verdict and fail first on the same line."""
    rng = np.random.default_rng(400 + n)
    ops = expand_operators(n)
    for g in oracle_directions(n):
        stack = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))  # fails
        sums = np.array([line_sum_oracle(ops, g, p0) for p0 in range(n)])
        for sample, passes in ((sums, True), (stack, False)):
            rep = wigner._projector_report(n, g, 1e-10, [(p0, sample[p0:p0 + 1]) for p0 in range(n)])
            for step in (2, n):
                blocks = [(start, sample[start:start + step]) for start in range(0, n, step)]
                assert wigner._projector_report(n, g, 1e-10, blocks) == rep
            want = projector_residual_oracle(sample, g, 1e-10)
            assert (rep.projector.passed, rep.projector.witness) == (want.passed, want.witness)
            assert rep.max_violation == pytest.approx(want.max_violation, rel=1e-14, abs=1e-13)
            assert_same_verdicts(rep, projector_check_oracle(sample, g, 1e-10))
            assert rep.eigenvalue_multiplicity == 1
            assert rep.passed == passes
            if passes:
                assert wigner.line_projector_check(n, g) == rep


@pytest.mark.parametrize("n", [3, 5, 11, 23, 101])
def test_line_projector_check_is_exact_where_kappa_is_a_unit(n):
    """Where kappa is a unit mod N, each entry of M and of Pi is one read of
    the same omega table at congruent exponents, so the residual is 0.0."""
    units = [g for g in oracle_directions(n) if math.gcd(g.kappa, n) == 1]
    assert len(units) >= 10
    for g in units:
        assert wigner.line_projector_check(n, g).max_violation == 0.0, g


# (failing, all) primitive rows mod M whose candidate line sums miss the dense
# projectors: none fail at odd N. At even N the row (1, 0) of S passes and the
# row (1, N) of -S fails: the route audit's witness rows.
CANDIDATE_ROW_FAILURES = {1: (0, 1), 2: (6, 12), 3: (0, 8), 4: (32, 48), 5: (0, 24), 6: (80, 96), 7: (0, 48),
                          8: (160, 192), 9: (0, 72)}


@pytest.mark.parametrize("n", sorted(CANDIDATE_ROW_FAILURES))
def test_candidate_line_sums_are_the_direction_projectors_exactly_for_odd_n(n):
    """For every primitive row mod M (M = N for odd N, 2N for even), the
    candidate table's assembled operators summed along each line of one
    integer lift, against Pi = (1/N) sum_k omega^(k*p0) V^k from matrix
    powers of the shift and clock. No phase here comes from `fano._two_phi`
    or `fano._route_phi`."""
    m = n if n % 2 else 2 * n
    ops = candidate_operators(n)
    rows = primitive_rows(m)
    failing = set()
    for row in np.column_stack([rows, first_completions(rows, m)]):
        g = exact_lift(row, m)
        pi = projector_oracle(g, n)
        sums = np.array([sum(ops[q, p] for q, p in line_points(g, p0, n)) for p0 in range(n)])
        if np.abs(sums - pi).max() > 1e-10:
            failing.add((int(row[0]), int(row[1])))
    assert (len(failing), len(rows)) == CANDIDATE_ROW_FAILURES[n]
    if n % 2 == 0:
        assert (1, 0) not in failing and (1, n) in failing


@pytest.mark.parametrize("n, step", [(5, 1), (9, 2), (23, 5), (45, None)])
def test_line_projector_check_is_the_same_in_blocks_of_any_size(n, step, monkeypatch):
    """N = 45 runs in blocks of two lines, the last of one, at the default BLOCK_BYTES."""
    for g in oracle_directions(n)[:6]:
        whole = wigner._projector_report(n, g, 1e-10, [(0, line_sum_operators(n, g))])
        if step is not None:
            monkeypatch.setattr(wigner, "BLOCK_BYTES", 16 * n * n * step)
        assert wigner.line_projector_check(n, g) == whole
        assert whole.passed


@pytest.mark.parametrize("n, kappa, lam", [(15, 5, 2), (21, 7, 3), (45, 9, 4), (9, 3, 1), (15, 0, 1)])
def test_line_projector_check_where_sites_of_a_line_share_entries(n, kappa, lam):
    """kappa is not a unit mod N, so gcd(kappa, N) sites of each line put
    their nonzeros on the same entries."""
    g = sl2_complete(kappa, lam)
    stack = line_sum_operators(n, g)
    rep = wigner.line_projector_check(n, g)
    assert rep.passed and rep.max_violation < 1e-12, rep
    assert rep.eigenvalue_multiplicity == 1
    assert_same_verdicts(rep, projector_check_oracle(stack, g, 1e-10))
    assert np.abs(stack - projector_oracle(g, n)).max() < 1e-12
    for p0 in (0, n // 2, n - 1):
        assert np.abs(stack[p0] @ stack[p0] - stack[p0]).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 46, 2))
def test_eigenvalue_multiplicities_are_the_counts_of_the_eigenvalues(n, monkeypatch):
    """The cycle count equals the eigenvalues that np.linalg.eigvals finds
    within 1e-6 of omega^(-p0), label by label, and the direction unitary
    the matrix powers of the shift and clock. Random exponents on V's
    nonzeros repeat some eigenvalues and miss others."""
    target = np.array([omega_int(-p0, n) for p0 in range(n)])

    def counts(v):
        return (np.abs(np.linalg.eigvals(v) - target[:, np.newaxis]) < 1e-6).sum(axis=1)

    for g in oracle_directions(n):
        v = direction_unitary(g, n)
        assert np.abs(v - dense_direction_unitary(g, n)).max() < 1e-12
        assert np.array_equal(wigner._eigenvalue_multiplicities(g, n), counts(v)), g
    rng = np.random.default_rng(700 + n)
    for g in oracle_directions(n)[:6]:
        exponents = rng.integers(0, n, n)
        v = np.zeros((n, n), dtype=complex)
        v[np.arange(n), (np.arange(n) + g.kappa % n) % n] = _omega_table(n)[exponents]
        with monkeypatch.context() as patch:
            patch.setattr(wigner, "_direction_monomial", lambda *_: exponents)
            assert np.array_equal(wigner._eigenvalue_multiplicities(g, n), counts(v)), g


def test_line_projector_check_holds_no_stack_of_line_sums():
    """At N = 101 the stack of line sums alone takes 16 MiB."""
    n, g = 101, sl2_complete(2, 3)
    wigner.line_projector_check(n, g)  # tables and caches
    tracemalloc.start()
    try:
        rep = wigner.line_projector_check(n, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < PROJECTOR_CHECK_PEAK_BYTES, peak


def test_direction_totals_equal_grid_total():
    n = 3
    rho = random_density_matrix(n, np.random.default_rng(12))
    grid = wigner.wigner_from_density(rho)
    for kappa, lam in [(1, 0), (0, 1), (1, 2)]:
        marg = wigner.marginal_along_line(grid, sl2_complete(kappa, lam))
        assert marg.weights.sum() == pytest.approx(grid.total().real, abs=1e-12)


def test_line_projector_identity_for_axis_direction():
    n = 3
    for p0, m in enumerate(line_sum_operators(n, IDENTITY)):
        assert_allclose(m, momentum_state_density(p0, n), atol=1e-12)
    rep = wigner.line_projector_check(n, IDENTITY)
    assert rep.passed


def test_line_projector_identity_for_diagonal_direction():
    n = 3
    rep = wigner.line_projector_check(n, SL2Element(1, 1, 0, 1))
    assert rep.passed
    assert rep.eigenvalue_multiplicity == 1


@pytest.mark.parametrize("n", [3, 5])
def test_line_projector_identity_full_direction_sweep(n):
    directions = [sl2_complete(1, lam) for lam in range(n)] + [sl2_complete(0, 1)]
    for g in directions:
        rep = wigner.line_projector_check(n, g)
        assert rep.passed, (tuple(g), rep.max_violation)
        assert rep.max_violation < 1e-10


@pytest.mark.parametrize("n, message", [(0, "lattice dimension"), (2.0, "lattice dimension"),
                                        (True, "lattice dimension"), (4, "even N")])
def test_line_projector_check_refuses_a_bad_or_even_dimension(n, message):
    with pytest.raises(ValueError, match=message):
        wigner.line_projector_check(n, IDENTITY)


def test_line_projector_nondegenerate_for_composite_odd_direction():
    """Dimension nine, direction (1,3): the eigenvalue is still simple."""
    rep = wigner.line_projector_check(9, sl2_complete(1, 3))
    assert rep.eigenvalue_multiplicity == 1
    assert rep.passed


def test_line_projector_check_names_the_line_of_a_planted_defect():
    """Line p0 = 2 of (2, 3) at N = 5 is perturbed in row 0, on and off the
    diagonal: the residual fails at (2, 0, 0), as the dense loop's does, and
    every one of the four dense residuals fails on line 2, whether line 2 is
    checked alone or with others."""
    n = 5
    g = sl2_complete(2, 3)
    stack = line_sum_operators(n, g)
    stack[2, 0, :2] += 1e-6  # as if one operator on line 2 were perturbed there
    dense = projector_check_oracle(stack, g, 1e-10)
    assert all(not r.passed and r.witness[0] == 2 for r in dense.values()), dense
    want = projector_residual_oracle(stack, g, 1e-10)
    for blocks in ([(0, stack)], [(0, stack[:2]), (2, stack[2:3]), (3, stack[3:])]):
        rep = wigner._projector_report(n, g, 1e-10, blocks)
        assert not rep.passed
        assert rep.projector.witness == want.witness == (2, 0, 0)
        assert rep.max_violation == pytest.approx(want.max_violation, rel=1e-14, abs=1e-14)
        assert rep.eigenvalue_multiplicity == 1
        assert_same_verdicts(rep, dense)


def test_line_projector_report_keeps_a_nan_in_a_later_block():
    """A NaN in block 3 of 7 fails the check at its line with max_violation NaN, not the other blocks' 0.0."""
    n, g = 7, sl2_complete(2, 3)
    stack = line_sum_operators(n, g)
    stack[3, 0, 0] = np.nan
    rep = wigner._projector_report(n, g, 1e-10, [(p0, stack[p0:p0 + 1]) for p0 in range(n)])
    assert not rep.passed and np.isnan(rep.max_violation)
    assert rep.projector.witness == (3, 0, 0)


def test_line_projector_rejects_even_dimensions():
    for n in (2, 4):
        with pytest.raises(ValueError):
            wigner.line_projector_check(n, IDENTITY)
