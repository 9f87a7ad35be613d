"""Discrete Wigner functions on an N x N lattice phase space.

Library layout:

- ``lattice``: exact modular arithmetic, SL(2, Z_N) lifts, lines as index arrays
- ``operators``: clock/shift pair, momentum basis, exact phase arithmetic
- ``fano``: coefficient tables, phase-point operators, condition audits
- ``wigner``: density matrix <-> grid transforms, tilted-line marginals
- ``tomography``: prime-N marginal simulation and Radon-style inversion
- ``cli``: the ``latwig`` command

The exact and plain-loop references the tests check these against (the
Fraction-valued covariance phase, the group action on tables, lines as
tuples of sites, the per-(s,t) route list, the incidence check) live in
``tests/oracles.py``, not in the package.
"""

from .fano import (
    ConditionReport,
    FanoCoefficients,
    FanoOperatorSet,
    assemble,
    check_covariance_group,
    check_hermiticity,
    check_marginals,
    check_orthogonality,
    coefficients_candidate,
    coefficients_cohendet,
    coefficients_odd,
    full_report,
    uniqueness_audit,
)
from .lattice import SL2Element, gcd_decompose, sl2_complete, sl2_enumerate
from .operators import clock_matrix, momentum_vector, omega_pow, shift_matrix
from .tomography import mub_line_families, reconstruct_density, simulate_marginals
from .wigner import WignerGrid, density_from_wigner, marginal_along_line, wigner_from_density

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "FanoCoefficients",
    "FanoOperatorSet",
    "SL2Element",
    "WignerGrid",
    "assemble",
    "check_covariance_group",
    "check_hermiticity",
    "check_marginals",
    "check_orthogonality",
    "clock_matrix",
    "coefficients_candidate",
    "coefficients_cohendet",
    "coefficients_odd",
    "density_from_wigner",
    "full_report",
    "gcd_decompose",
    "marginal_along_line",
    "momentum_vector",
    "mub_line_families",
    "omega_pow",
    "reconstruct_density",
    "shift_matrix",
    "simulate_marginals",
    "sl2_complete",
    "sl2_enumerate",
    "uniqueness_audit",
    "wigner_from_density",
]
