"""Discrete Wigner functions on an N x N lattice phase space.

Library layout:

- ``lattice``: exact modular arithmetic, first completions of rows mod M,
  lines as index arrays
- ``phases``: the omega^(k/2) table as plain Python floats, the
  candidate's doubled exponents and its operators' closed-form values,
  with no numpy: the ``fano`` artifact is rendered from them alone
- ``operators``: momentum basis, states, the phase tables as numpy arrays,
  and ``CheckResult``/``_scan``, the outcome of an audit, which both
  ``fano`` and ``wigner`` return (``fano`` re-exports them)
- ``fano``: coefficient tables, phase-point operators (the N x N twist
  table), condition audits
- ``wigner``: density matrix <-> grid transforms and tilted-line marginals
  on the odd-N closed-form operators
- ``tomography``: prime-N marginal simulation and Radon-style inversion
- ``cli``: the ``latwig`` command, which imports only the layers its
  subcommand runs

The records the layers pass between them (``SL2Element``, ``CheckResult``,
``FanoCoefficients``, the ``wigner`` grid, marginal and projector report,
and the ``tomography`` dataset and result) are ``collections.namedtuple``
subclasses: immutable tuples of their fields, which compare, hash and
unpack as those tuples.

The exact and plain-loop references the tests check these against (the
dense N^4 table with the position transform and operator assembly run on
the whole of it, the operator tensor of any table by slab FFTs, the
candidate's operator tensor, its operators as values and codes in numpy,
the records rendered from them and the whole ``fano`` text, the numpy
formulas of the phase tables, the dense operator checks, the
Fraction-valued covariance phase, the group action on tables, the route
scan of every lift class, primitive rows and SL(2, Z_M) as residue arrays
and the determinant filter, integer lifts found by search and their
exact product, lines as tuples of sites, the invariant label of the line
through a site, the per-(s,t) route list, the incidence check, the dense
einsum transforms, the split-parity table, the clock and shift matrices
and their monomials) live in ``tests/oracles.py``, not in the package.

The names in ``__all__`` are re-exported lazily (PEP 562): ``latwig.X``
imports the submodule that defines X on first access, so ``import
latwig`` loads no numpy and ``latwig.cli`` can set its one-thread BLAS
default before numpy starts.
"""

import importlib

# Each re-exported name -> the submodule that defines it.
_EXPORTS = {
    "FanoCoefficients": "fano",
    "check_covariance_group": "fano",
    "check_hermiticity": "fano",
    "check_marginals": "fano",
    "check_orthogonality": "fano",
    "coefficients_candidate": "fano",
    "coefficients_odd": "fano",
    "full_report": "fano",
    "uniqueness_audit": "fano",
    "SL2Element": "lattice",
    "sl2_complete": "lattice",
    "momentum_vector": "operators",
    "mub_line_families": "tomography",
    "reconstruct_density": "tomography",
    "simulate_marginals": "tomography",
    "WignerGrid": "wigner",
    "density_from_wigner": "wigner",
    "marginal_along_line": "wigner",
    "wigner_from_density": "wigner",
}

__version__ = "0.1.0"

# The tolerance of every check unless a caller gives one. It is defined here,
# not in operators, so that the command line's option table reads it
# without loading numpy.
DEFAULT_TOL = 1e-10

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
