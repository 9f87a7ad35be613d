"""Discrete Wigner functions on an N x N lattice phase space.

Library layout:

- ``lattice``: exact modular arithmetic, SL(2, Z_M) as residue arrays and
  the route audit's lift classes, lines as index arrays
- ``operators``: clock/shift pair, momentum basis, exact phase arithmetic
- ``fano``: coefficient tables, phase-point operators (the N x N twist
  table, the dense tensor), condition audits
- ``wigner``: density matrix <-> grid transforms and tilted-line marginals
  on the odd-N closed-form operators
- ``tomography``: prime-N marginal simulation and Radon-style inversion
- ``cli``: the ``latwig`` command

The exact and plain-loop references the tests check these against (the
dense N^4 table with the position transform and operator assembly run on
the whole of it, the dense operator checks, the Fraction-valued
covariance phase, the group action
on tables, the order of SL(2, Z_N) and its determinant filter, integer
lifts found by search and their exact product, lines as tuples of sites,
the invariant label of the line through a site, the per-(s,t) route
list, the incidence check, the dense einsum transforms, the split-parity
table, the clock and shift matrices) live in ``tests/oracles.py``, not
in the package.
"""

from .fano import (
    ConditionReport,
    FanoCoefficients,
    assemble,
    check_covariance_group,
    check_hermiticity,
    check_marginals,
    check_orthogonality,
    coefficients_candidate,
    coefficients_odd,
    full_report,
    uniqueness_audit,
)
from .lattice import SL2Element, gcd_decompose, sl2_complete, sl2_enumerate
from .operators import momentum_vector
from .tomography import mub_line_families, reconstruct_density, simulate_marginals
from .wigner import WignerGrid, density_from_wigner, marginal_along_line, wigner_from_density

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "FanoCoefficients",
    "SL2Element",
    "WignerGrid",
    "assemble",
    "check_covariance_group",
    "check_hermiticity",
    "check_marginals",
    "check_orthogonality",
    "coefficients_candidate",
    "coefficients_odd",
    "density_from_wigner",
    "full_report",
    "gcd_decompose",
    "marginal_along_line",
    "momentum_vector",
    "mub_line_families",
    "reconstruct_density",
    "simulate_marginals",
    "sl2_complete",
    "sl2_enumerate",
    "uniqueness_audit",
    "wigner_from_density",
]
