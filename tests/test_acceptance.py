"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import json

import numpy as np
import pytest

from latwig import fano, tomography, wigner
from latwig.cli import main
from latwig.fano import DisplacedParitySet, FanoCoefficients
from latwig.lattice import sl2_complete
from latwig.operators import random_density_matrix
from oracles import coefficients_cohendet, sl2_lifts_search

TOL = 1e-10


def _passline(k, text):
    print(f"ACCEPTANCE {k:02d} PASS: {text}")


def _static_checks(c, tol=TOL):
    checks = {}
    checks.update(fano.check_marginals(c, tol))
    checks.update(fano.check_coefficient_axes(c, tol))
    checks.update(fano.check_hermiticity(c, tol))
    checks.update(fano.check_orthogonality(c, tol))
    return checks


def test_criterion_01_odd_dimension_existence():
    worst = 0.0
    for n in (3, 5, 7, 9):
        checks = _static_checks(fano.coefficients_odd(n))
        for name in ("marginal_q", "marginal_p", "hermiticity", "coeff_hermiticity",
                     "orthogonality_site", "orthogonality_index"):
            assert checks[name].passed, (n, name, checks[name].max_violation)
            worst = max(worst, checks[name].max_violation)
    assert worst < TOL
    _passline(1, f"odd N in {{3,5,7,9}} satisfy all conditions, worst violation {worst:.2e}")


def test_criterion_02_solution_equivalence():
    worst = 0.0
    for n in (1, 3, 5, 7, 9):
        dev = np.abs(fano.coefficients_odd(n).values - coefficients_cohendet(n).values).max()
        worst = max(worst, dev)
    assert worst < 1e-12
    _passline(2, f"closed form equals split-parity form entrywise, worst {worst:.2e}")


def test_criterion_03_covariance_over_full_group():
    worst = 0.0
    for n in (3, 5):
        c = fano.coefficients_odd(n)
        for g, second in sl2_lifts_search(n):
            for lift in (g, second):
                res = fano._covariance_scan(c.values, [lift], TOL)
                assert res.passed, (n, lift.as_tuple(), res.max_violation)
                worst = max(worst, res.max_violation)
    assert worst < TOL
    _passline(3, f"covariance holds for every group element and two lifts, worst {worst:.2e}")


def test_criterion_04_uniqueness_from_two_conditions():
    for n in (3, 5, 7):
        checks, derived = fano.uniqueness_audit(n, tol=TOL)
        assert checks["route_consistency"].passed, checks["route_consistency"].max_violation
        dev = np.abs(derived.values - fano.coefficients_odd(n).values).max()
        assert dev < TOL, (n, dev)
        # hermiticity and orthogonality were never imposed on the derived table
        assert checks["derived_hermiticity"].passed, (n, checks["derived_hermiticity"].max_violation)
        assert checks["derived_orthogonality"].passed, (n, checks["derived_orthogonality"].max_violation)
    _passline(4, "axis conditions + line covariance force the closed form; "
                 "hermiticity and orthogonality follow unimposed for N in {3,5,7}")


EVEN_WITNESSES = {
    2: ("covariance", [1, 1, 1, 1, 0, 1, -1, 0]),
    4: ("hermiticity", [0, 0, 0, 1]),
    6: ("hermiticity", [0, 0, 0, 1]),
    8: ("hermiticity", [0, 0, 0, 1]),
}


def test_criterion_05_even_dimension_nonexistence():
    witnesses = {}
    for n, expected in EVEN_WITNESSES.items():
        report = fano.full_report(n, tol=TOL)
        witness = fano.infeasibility_witness(report)
        assert witness is not None, f"N={n}: no failing check recorded"
        assert witness.name in {"hermiticity", "coeff_hermiticity", "covariance", "route_consistency"}
        assert witness.witness is not None
        assert (witness.name, witness.to_json_dict()["witness"]) == expected, n
        witnesses[n] = f"{witness.name}@{witness.witness}"
    _passline(5, f"even N infeasible with named witnesses: {witnesses}")


def test_criterion_06_tilted_line_projector_identity():
    worst = 0.0
    for n in (3, 5):
        fset = DisplacedParitySet(n)
        directions = [sl2_complete(1, lam) for lam in range(n)] + [sl2_complete(0, 1)]
        for g in directions:
            rep = wigner.line_projector_check(fset, g, tol=TOL)
            assert rep.passed, (n, g.as_tuple(), rep.max_violation)
            assert rep.eigenvalue_multiplicity == 1
            worst = max(worst, rep.max_violation)
    assert worst < TOL
    _passline(6, f"line sums are rank-1 spectral projectors in every direction, worst {worst:.2e}")


def test_criterion_07_transform_round_trip():
    worst_rt = worst_sum = worst_im = 0.0
    for n in (3, 5, 7):
        fset = DisplacedParitySet(n)
        rng = np.random.default_rng(1000 + n)
        for _ in range(20):
            rho = random_density_matrix(n, rng)
            grid = wigner.wigner_from_density(rho, fset)
            back = wigner.density_from_wigner(grid, fset)
            worst_rt = max(worst_rt, np.abs(back - rho).max())
            worst_sum = max(worst_sum, abs(grid.total().real - 1.0))
            worst_im = max(worst_im, grid.max_imag())
    assert worst_rt < TOL and worst_sum < TOL and worst_im < TOL
    _passline(7, f"20 random states per N round-trip (err {worst_rt:.2e}), "
                 f"grids normalized ({worst_sum:.2e}) and real ({worst_im:.2e})")


def test_criterion_08_tomography():
    for n in (3, 5, 7):
        fset = DisplacedParitySet(n)
        rho = random_density_matrix(n, np.random.default_rng(2000 + n))
        exact = tomography.simulate_marginals(rho, fset, shots=0, seed=11)
        res = tomography.reconstruct_density(exact, fset, rho_true=rho)
        assert res.fidelity_error < TOL, (n, res.fidelity_error)

    n = 3
    fset = DisplacedParitySet(n)
    rho = random_density_matrix(n, np.random.default_rng(42))
    errors = {}
    for shots in (10**4, 10**6):
        ds = tomography.simulate_marginals(rho, fset, shots=shots, seed=11)
        errors[shots] = tomography.reconstruct_density(ds, fset, rho_true=rho).fidelity_error
    assert errors[10**6] < 5e-2
    assert errors[10**6] < errors[10**4]
    _passline(8, f"exact reconstruction exact to {TOL:g}; sampled errors "
                 f"1e4->{errors[10**4]:.2e}, 1e6->{errors[10**6]:.2e} (monotone)")


CHECK_PAIRS = [
    ("marginal_q", "coeff_axis_s"),
    ("marginal_p", "coeff_axis_t"),
    ("hermiticity", "coeff_hermiticity"),
    ("orthogonality_site", "orthogonality_index"),
]


def _assert_paths_agree(checks, context):
    floor = 1e-13  # below this both paths are rounding noise; ratios are meaningless
    for op_name, coeff_name in CHECK_PAIRS:
        op, coeff = checks[op_name], checks[coeff_name]
        assert op.passed == coeff.passed, (context, op_name, coeff_name)
        a = max(op.max_violation, floor)
        b = max(coeff.max_violation, floor)
        assert max(a / b, b / a) <= 10.0, (context, op_name, a, coeff_name, b)


def test_criterion_09_oracle_cross_validation():
    for n in (3, 5):
        _assert_paths_agree(_static_checks(fano.coefficients_odd(n)), f"solution N={n}")

    n = 3
    base = fano.coefficients_odd(n).values
    corruptions = {
        "zeroed axis entry": lambda v: v.__setitem__((1, 0), 0.0),
        "phase error on support": lambda v: v.__setitem__((1, 1), v[1, 1] * np.exp(1j * np.pi / 5)),
        "modulus error on support": lambda v: v.__setitem__((1, 1), v[1, 1] * 1.003),
    }
    failing = 0
    for label, corrupt in corruptions.items():
        v = base.copy()
        corrupt(v)
        checks = _static_checks(FanoCoefficients(n, v))
        _assert_paths_agree(checks, label)
        failing += sum(1 for c in checks.values() if not c.passed)
    assert failing > 0
    _passline(9, "operator-level and coefficient-level audits agree in verdict "
                 "and magnitude on solution and corrupted tables")


@pytest.mark.parametrize(
    "argv",
    [
        ["fano", "--n", "3"],
        ["check", "--n", "3"],
        ["check", "--n", "4"],
        ["wigner", "--n", "5", "--state", "random", "--seed", "42"],
        ["marginal", "--n", "5", "--kappa", "1", "--lambda", "2", "--state", "random", "--seed", "3"],
        ["tomo", "--n", "3", "--shots", "200000", "--seed", "7"],
    ],
    ids=["fano3", "check3", "check4", "wigner5", "marginal5", "tomo3"],
)
def test_criterion_10_cli_determinism(tmp_path, argv, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # artifact is machine-readable
    capsys.readouterr()
    _passline(10, f"byte-identical artifacts for `{' '.join(argv)}`")
