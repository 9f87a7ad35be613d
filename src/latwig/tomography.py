"""Prime-N state tomography from tilted-line marginals.

For prime N the N+1 direction classes (1, lam) for lam = 0..N-1 plus
(0, 1) have the incidence property that every pair of distinct lattice
sites shares exactly one line, which makes the affine inversion
W(q,p) = (sum of the N+1 line marginals through (q,p) - 1)/N exact.
The grids are those of the closed-form operators of :mod:`latwig.wigner`,
and N is read from the state or the dataset.
"""

from collections import namedtuple

import numpy as np

from .lattice import SL2Element, check_dim, is_prime
from .operators import STATE_STREAM_KEY, square_dim, validate_density_matrix  # noqa: F401 (the key is re-exported)
from .wigner import MarginalDistribution, WignerGrid, density_from_wigner, marginal_along_line, wigner_from_density


def family_rng(seed, family_index):
    """The generator of one family: its own substream of the seed, so each
    family draws the same counts whatever order the families are simulated in."""
    return np.random.default_rng([int(seed), int(family_index)])


def mub_line_families(n):
    """The N+1 direction classes (1, lam) for lam = 0..N-1, plus (0, 1)."""
    check_dim(n)
    if not is_prime(n):
        raise ValueError(f"complete line families require prime N, got {n}")
    families = [SL2Element(1, lam, 0, 1) for lam in range(n)]
    families.append(SL2Element(0, 1, -1, 0))
    return families


class MarginalDataset(namedtuple("MarginalDataset", "n families")):
    """Measured (or exact) marginals of every direction family, a list of MarginalDistribution."""

    __slots__ = ()


class ReconstructionResult(namedtuple("ReconstructionResult", "wigner rho")):
    """A reconstructed WignerGrid and the density matrix rho it inverts to."""

    __slots__ = ()


def simulate_marginals(rho, shots=0, seed=0):
    """Exact (shots=0) or multinomially sampled line marginals of rho.

    Sampling uses one substream per family derived from the seed, so the
    dataset is reproducible regardless of evaluation order. rho must be a
    density matrix (hermitian, unit trace, PSD): the marginals of anything
    else are not probability distributions, and sampling them would clip
    and renormalise silently. shots must be a non-negative integer: a
    fractional count would be truncated by the draw but not by the division.
    """
    if not isinstance(shots, (int, np.integer)) or isinstance(shots, bool) or shots < 0:
        raise ValueError(f"shots must be a non-negative integer, got {shots!r}")
    n = square_dim(np.asarray(rho))
    if n % 2 == 0 or not is_prime(n):
        raise ValueError(f"tomography requires an odd prime N, got {n}")
    validate_density_matrix(rho)
    grid = wigner_from_density(rho)
    families = []
    for k, g in enumerate(mub_line_families(n)):
        exact = marginal_along_line(grid, g).weights
        if shots == 0:
            families.append(MarginalDistribution(element=g, weights=exact))
            continue
        probs = np.clip(exact, 0.0, None)
        probs = probs / probs.sum()
        counts = family_rng(seed, k).multinomial(shots, probs)
        families.append(MarginalDistribution(element=g, weights=counts / shots))
    return MarginalDataset(n=n, families=families)


def _validate_complete(d):
    """Each of the N + 1 direction families exactly once, each with N finite weights.

    A repeated family would be counted twice in every line sum through its
    lines, weights beyond the N line labels would be ignored silently, and
    one non-finite weight would turn all of rho into NaN.
    """
    directions = [(f.element.kappa % d.n, f.element.lam % d.n) for f in d.families]
    expected = {(1, lam) for lam in range(d.n)} | {(0, 1)}
    if len(directions) != len(expected) or set(directions) != expected:
        raise ValueError("dataset must hold each of the N + 1 direction families exactly once")
    for f in d.families:
        if np.shape(f.weights) != (d.n,):
            raise ValueError(f"family {tuple(f.element)} has weights of shape "
                             f"{np.shape(f.weights)}, expected ({d.n},)")
        if not np.isfinite(f.weights).all():
            raise ValueError(f"family {tuple(f.element)} has a non-finite weight")


def reconstruct_wigner(d):
    """Invert the line marginals: W(q,p) = (sum of marginals through (q,p) - 1)/N.

    Site (q, p) lies on line (kappa*p - lam*q) mod N of the direction
    (kappa, lam), so each family's weights are gathered through one label
    grid, refilled in place from the reduced 1-D terms with no N x N
    division, and the families are summed in their order.
    """
    _validate_complete(d)
    n = d.n
    sites = np.arange(n)
    labels = np.empty((n, n), dtype=np.intp)  # [q, p]
    acc = 0
    for fam in d.families:
        kappa, lam, _, _ = fam.element.residues(n)
        np.subtract(kappa * sites % n, (lam * sites % n)[:, np.newaxis], out=labels)
        np.add(labels, n, out=labels, where=labels < 0)
        acc = acc + fam.weights.take(labels)
    return WignerGrid(n, ((acc - 1.0) / n).astype(complex))


def reconstruct_density(d):
    """Recover the density matrix from a marginal dataset.

    The linear inverse is hermitized and trace-renormalized; it is NOT
    projected onto the PSD cone, so sampled reconstructions stay linear
    and auditable.
    """
    grid = reconstruct_wigner(d)
    rho = density_from_wigner(grid)
    rho = (rho + rho.conj().T) / 2
    return ReconstructionResult(wigner=grid, rho=rho / rho.trace().real)

