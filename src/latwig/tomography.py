"""Prime-N state tomography from tilted-line marginals.

For prime N the N+1 direction classes (1, lam) for lam = 0..N-1 plus
(0, 1) have the incidence property that every pair of distinct lattice
sites shares exactly one line, which makes the affine inversion
W(q,p) = (sum of the N+1 line marginals through (q,p) - 1)/N exact.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import SL2Element, check_dim, line_sites
from .operators import validate_density_matrix
from .wigner import MarginalDistribution, WignerGrid, density_from_wigner, marginal_along_line, wigner_from_density

STATE_STREAM_KEY = 0x5747  # substream tag for state generation, clear of family indices


def is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def family_rng(seed, family_index):
    """Per-family generator; parallel and serial runs draw identical streams."""
    return np.random.default_rng([int(seed), int(family_index)])


def mub_line_families(n):
    """The N+1 direction classes (1, lam) for lam = 0..N-1, plus (0, 1)."""
    check_dim(n)
    if not is_prime(n):
        raise ValueError(f"complete line families require prime N, got {n}")
    families = [SL2Element(1, lam, 0, 1) for lam in range(n)]
    families.append(SL2Element(0, 1, -1, 0))
    return families


@dataclass(frozen=True)
class MarginalDataset:
    """Measured (or exact) marginals of every direction family."""

    n: int
    shots: int
    seed: int
    families: list  # of MarginalDistribution

    def to_json_dict(self):
        return {
            "n": self.n,
            "shots": self.shots,
            "seed": self.seed,
            "families": [f.to_json_dict() for f in self.families],
        }


@dataclass(frozen=True)
class ReconstructionResult:
    wigner: WignerGrid
    rho: np.ndarray
    fidelity_error: float | None


def simulate_marginals(rho, f, shots=0, seed=0):
    """Exact (shots=0) or multinomially sampled line marginals of rho.

    Sampling uses one substream per family derived from the seed, so the
    dataset is reproducible regardless of evaluation order. rho must be a
    density matrix (hermitian, unit trace, PSD): the marginals of anything
    else are not probability distributions, and sampling them would clip
    and renormalise silently.
    """
    n = f.n
    if n % 2 == 0 or not is_prime(n):
        raise ValueError(f"tomography requires an odd prime N, got {n}")
    validate_density_matrix(rho)
    grid = wigner_from_density(rho, f)
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
    return MarginalDataset(n=n, shots=shots, seed=seed, families=families)


def _validate_complete(d):
    """Each of the N + 1 direction families exactly once, each with N weights.

    A repeated family would be counted twice in every line sum through its
    lines, and weights beyond the N line labels would be ignored silently.
    """
    directions = [(f.element.kappa % d.n, f.element.lam % d.n) for f in d.families]
    expected = {(1, lam) for lam in range(d.n)} | {(0, 1)}
    if len(directions) != len(expected) or set(directions) != expected:
        raise ValueError("dataset must hold each of the N + 1 direction families exactly once")
    for f in d.families:
        if np.shape(f.weights) != (d.n,):
            raise ValueError(f"family {f.element.as_tuple()} has weights of shape "
                             f"{np.shape(f.weights)}, expected ({d.n},)")


def reconstruct_wigner(d):
    """Invert the line marginals: W(q,p) = (sum of marginals through (q,p) - 1)/N."""
    _validate_complete(d)
    n = d.n
    acc = sum(_on_grid(fam, n) for fam in d.families)
    return WignerGrid(n, ((acc - 1.0) / n).astype(complex))


def _on_grid(fam, n):
    """The family's weight of line p0 written onto each site of that line."""
    grid = np.empty_like(fam.weights, shape=(n, n))
    q, p = line_sites(fam.element, n)
    grid[q, p] = fam.weights[:, None]
    return grid


def reconstruct_density(d, f, rho_true=None):
    """Recover the density matrix from a marginal dataset.

    The linear inverse is hermitized and trace-renormalized; it is NOT
    projected onto the PSD cone, so sampled reconstructions stay linear
    and auditable.
    """
    grid = reconstruct_wigner(d)
    rho = density_from_wigner(grid, f)
    rho = (rho + rho.conj().T) / 2
    rho = rho / rho.trace().real
    err = None
    if rho_true is not None:
        err = float(np.abs(rho - np.asarray(rho_true)).max())
    return ReconstructionResult(wigner=grid, rho=rho, fidelity_error=err)

