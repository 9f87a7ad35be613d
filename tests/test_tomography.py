import numpy as np
import pytest
from numpy.testing import assert_allclose

from latwig import tomography, wigner
from latwig.fano import DisplacedParitySet
from latwig.lattice import SL2Element
from latwig.operators import basis_state_density, maximally_mixed, random_density_matrix
from oracles import IDENTITY, compose, incidence_ok, line_label, random_pure_density, sl2_second_lift_search


def reconstruct_wigner_oracle(d):
    """The per-site, per-family loop over line labels."""
    n = d.n
    values = np.zeros((n, n), dtype=complex)
    for q in range(n):
        for p in range(n):
            acc = 0.0
            for fam in d.families:
                acc += fam.weights[line_label(fam.element, q, p, n)]
            values[q, p] = (acc - 1.0) / n
    return values


@pytest.mark.parametrize("n,count", [(2, 3), (3, 4), (5, 6), (7, 8)])
def test_family_counts(n, count):
    assert len(tomography.mub_line_families(n)) == count


def test_families_reject_composite_dimensions():
    for n in (4, 6, 9):
        with pytest.raises(ValueError):
            tomography.mub_line_families(n)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_every_point_pair_shares_exactly_one_line(n):
    assert incidence_ok(n)


def test_exact_marginals_of_maximally_mixed_state():
    n = 3
    ds = tomography.simulate_marginals(maximally_mixed(n), DisplacedParitySet(n), shots=0)
    for fam in ds.families:
        assert_allclose(fam.weights, np.full(n, 1 / n), atol=1e-12)


def test_exact_position_family_of_basis_state():
    n = 3
    ds = tomography.simulate_marginals(basis_state_density(0, n), DisplacedParitySet(n), shots=0)
    vertical = ds.families[-1]  # direction (0, 1): lines q = -p0
    assert vertical.element.as_tuple() == (0, 1, -1, 0)
    assert_allclose(vertical.weights, [1.0, 0.0, 0.0], atol=1e-12)


def test_simulation_rejects_even_or_composite_dimensions():
    with pytest.raises(ValueError):
        tomography.simulate_marginals(maximally_mixed(2), DisplacedParitySet(2))
    with pytest.raises(ValueError):
        tomography.simulate_marginals(maximally_mixed(9), DisplacedParitySet(9))


def test_sampled_weights_close_to_exact_at_one_million_shots():
    n = 3
    fset = DisplacedParitySet(n)
    rho = random_density_matrix(n, np.random.default_rng(42))
    exact = tomography.simulate_marginals(rho, fset, shots=0, seed=11)
    sampled = tomography.simulate_marginals(rho, fset, shots=10**6, seed=11)
    for fa, fb in zip(exact.families, sampled.families):
        assert np.abs(fa.weights - fb.weights).max() < 5e-3


def test_sampling_is_deterministic_per_seed():
    n = 3
    fset = DisplacedParitySet(n)
    rho = random_density_matrix(n, np.random.default_rng(1))
    a = tomography.simulate_marginals(rho, fset, shots=1000, seed=5)
    b = tomography.simulate_marginals(rho, fset, shots=1000, seed=5)
    c = tomography.simulate_marginals(rho, fset, shots=1000, seed=6)
    for fa, fb in zip(a.families, b.families):
        assert np.array_equal(fa.weights, fb.weights)
    assert any(
        not np.array_equal(fa.weights, fc.weights) for fa, fc in zip(a.families, c.families)
    )


def test_reconstructed_grid_matches_direct_transform_exactly():
    """Brute-force validation of the affine inversion formula."""
    for n in (3, 5):
        fset = DisplacedParitySet(n)
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            rho = random_density_matrix(n, rng)
            ds = tomography.simulate_marginals(rho, fset, shots=0)
            grid = tomography.reconstruct_wigner(ds)
            direct = wigner.wigner_from_density(rho, fset)
            assert np.abs(grid.values - direct.values).max() < 1e-10


def _relifted(d, shift):
    """The same dataset with every family's element replaced by another
    integer lift of its class: its second lift, times a matrix congruent to
    the identity whose entries are multiples of N (negative ones included)."""
    n = d.n
    families = [
        wigner.MarginalDistribution(compose(sl2_second_lift_search(fam.element, n), shift), fam.weights)
        for fam in d.families
    ]
    return tomography.MarginalDataset(n=n, shots=d.shots, seed=d.seed, families=families)


@pytest.mark.parametrize("n", [3, 5, 11, 23])
def test_reconstruct_wigner_matches_the_per_site_loop_bit_for_bit(n):
    fset = DisplacedParitySet(n)
    rho = random_density_matrix(n, np.random.default_rng(400 + n))
    large = compose(SL2Element(1, 0, -3 * n, 1), SL2Element(1, 5 * n, 0, 1))
    shifts = (IDENTITY, SL2Element(1, -n, 0, 1), large, SL2Element(1, n * 2**70, 0, 1))
    for shots in (0, 1000):
        ds = tomography.simulate_marginals(rho, fset, shots=shots, seed=n)
        for d in (ds, *(_relifted(ds, shift) for shift in shifts)):
            got = tomography.reconstruct_wigner(d).values
            want = reconstruct_wigner_oracle(d)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


def test_reconstruct_uniform_grid_from_exact_mixed_marginals():
    n = 3
    ds = tomography.simulate_marginals(maximally_mixed(n), DisplacedParitySet(n), shots=0)
    grid = tomography.reconstruct_wigner(ds)
    assert_allclose(grid.values.real, np.full((n, n), 1 / 9), atol=1e-12)


def test_reconstructed_grid_normalization_follows_weights():
    n = 3
    fset = DisplacedParitySet(n)
    rho = random_density_matrix(n, np.random.default_rng(9))
    ds = tomography.simulate_marginals(rho, fset, shots=2000, seed=3)
    grid = tomography.reconstruct_wigner(ds)
    assert grid.total().real == pytest.approx(1.0, abs=1e-12)


def test_sampled_grid_close_to_exact_at_one_million_shots():
    n = 3
    fset = DisplacedParitySet(n)
    rho = random_density_matrix(n, np.random.default_rng(42))
    exact = wigner.wigner_from_density(rho, fset)
    ds = tomography.simulate_marginals(rho, fset, shots=10**6, seed=11)
    grid = tomography.reconstruct_wigner(ds)
    assert np.abs(grid.values - exact.values).max() < 1e-2


def test_reconstruction_is_linear_in_the_dataset():
    n = 3
    fset = DisplacedParitySet(n)
    rng = np.random.default_rng(17)
    a = tomography.simulate_marginals(random_density_matrix(n, rng), fset, shots=0)
    b = tomography.simulate_marginals(random_density_matrix(n, rng), fset, shots=0)
    lam = 0.25
    mixed_families = [
        wigner.MarginalDistribution(fa.element, lam * fa.weights + (1 - lam) * fb.weights)
        for fa, fb in zip(a.families, b.families)
    ]
    mixed = tomography.MarginalDataset(n=n, shots=0, seed=0, families=mixed_families)
    combo = lam * tomography.reconstruct_wigner(a).values + (1 - lam) * tomography.reconstruct_wigner(b).values
    assert_allclose(tomography.reconstruct_wigner(mixed).values, combo, atol=1e-13)


def test_incomplete_dataset_rejected():
    n = 3
    ds = tomography.simulate_marginals(maximally_mixed(n), DisplacedParitySet(n), shots=0)
    truncated = tomography.MarginalDataset(n=n, shots=0, seed=0, families=ds.families[:-1])
    with pytest.raises(ValueError):
        tomography.reconstruct_wigner(truncated)


def test_repeated_family_rejected():
    """N + 2 families with one direction twice cover the right set of
    directions, but every line sum would count that family twice."""
    n = 5
    fset = DisplacedParitySet(n)
    rho = random_pure_density(n, np.random.default_rng(5))
    ds = tomography.simulate_marginals(rho, fset, shots=0)
    for families in (ds.families + ds.families[:1], ds.families[:-1] + ds.families[:1]):
        repeated = tomography.MarginalDataset(n=n, shots=0, seed=0, families=families)
        with pytest.raises(ValueError, match="exactly once"):
            tomography.reconstruct_wigner(repeated)
        with pytest.raises(ValueError, match="exactly once"):
            tomography.reconstruct_density(repeated, fset, rho_true=rho)


@pytest.mark.parametrize("size", [4, 6, 10])
def test_family_with_other_than_n_weights_rejected(size):
    n = 5
    fset = DisplacedParitySet(n)
    ds = tomography.simulate_marginals(maximally_mixed(n), fset, shots=0)
    families = list(ds.families)
    weights = np.resize(families[2].weights, size)
    families[2] = wigner.MarginalDistribution(element=families[2].element, weights=weights)
    bad = tomography.MarginalDataset(n=n, shots=0, seed=0, families=families)
    with pytest.raises(ValueError, match=rf"shape \({size},\), expected \(5,\)"):
        tomography.reconstruct_wigner(bad)
    with pytest.raises(ValueError, match="expected"):
        tomography.reconstruct_density(bad, fset)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_exact_round_trip_recovers_the_state(n):
    fset = DisplacedParitySet(n)
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        rho = random_pure_density(n, rng)
        ds = tomography.simulate_marginals(rho, fset, shots=0)
        res = tomography.reconstruct_density(ds, fset, rho_true=rho)
        assert res.fidelity_error < 1e-10
        assert res.rho.trace().real == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_round_trip_is_exact():
    n = 5
    fset = DisplacedParitySet(n)
    ds = tomography.simulate_marginals(maximally_mixed(n), fset, shots=0)
    res = tomography.reconstruct_density(ds, fset, rho_true=maximally_mixed(n))
    assert res.fidelity_error < 1e-12


def test_sampled_round_trip_error_bound_and_shot_monotonicity():
    n = 3
    fset = DisplacedParitySet(n)
    rho = random_density_matrix(n, np.random.default_rng(42))
    errors = {}
    for shots in (10**4, 10**6):
        ds = tomography.simulate_marginals(rho, fset, shots=shots, seed=11)
        errors[shots] = tomography.reconstruct_density(ds, fset, rho_true=rho).fidelity_error
    assert errors[10**6] < 5e-2
    assert errors[10**6] < errors[10**4]


def test_dataset_json_schema():
    n = 3
    ds = tomography.simulate_marginals(maximally_mixed(n), DisplacedParitySet(n), shots=100, seed=4)
    doc = ds.to_json_dict()
    assert list(doc) == ["n", "shots", "seed", "families"]
    assert len(doc["families"]) == n + 1
    for fam in doc["families"]:
        assert list(fam) == ["kappa", "lambda", "mu", "nu", "weights"]
        assert len(fam["weights"]) == n


def _not_hermitian(n):
    rho = maximally_mixed(n)
    rho[0, 1] = 0.1
    return rho


def _negative_eigenvalue(n):
    return np.diag([1.5, -0.5] + [0.0] * (n - 2)).astype(complex)


@pytest.mark.parametrize("bad,message", [
    (_not_hermitian, "not hermitian"),
    (lambda n: 2 * maximally_mixed(n), "trace"),
    (_negative_eigenvalue, "negative eigenvalue"),
], ids=["non-hermitian", "trace-2", "negative-eigenvalue"])
@pytest.mark.parametrize("shots", [0, 100])
def test_simulate_marginals_rejects_non_density_matrices(bad, message, shots):
    n = 3
    with pytest.raises(ValueError, match=message):
        tomography.simulate_marginals(bad(n), DisplacedParitySet(n), shots=shots, seed=1)
