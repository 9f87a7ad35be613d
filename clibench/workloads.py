"""Workload definitions and artifact verification for the CLI benchmark.

Each workload is an endless, seed-determined sequence of cycles; a cycle is
a short list of ``Op``: the ``latwig`` arguments of one invocation (without
``--out``) and the check its artifact must pass. Cycles keep every workload
balanced between its operation kinds whatever the run length.

The checks compare artifacts against values computed here with numpy
alone, never with ``latwig`` code, so a wrong transform cannot vouch for
itself. They raise ``Mismatch`` on the first disagreement.
"""

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

WORKLOADS = ("audit", "transform", "tomo", "emit")

AUDIT_DIMS = (7, 8, 9)    # both parities at the default audit bound
TRANSFORM_N = 23
TOMO_N = 23
TOMO_SHOTS = (0, 100_000)
EMIT_N = 17

TOL = 1e-9                # for quantities of order 1/N computed two ways
EXACT_TOMO_TOL = 1e-10    # |rho_rec - rho_true| for --shots 0
SIGMAS = 6.0              # statistical bound on sampled marginal weights
STATE_STREAM_KEY = 0x5747  # the CLI draws --state random from rng([seed, this])
STATE_KINDS = ("random", "basis", "momentum", "mixed")
EVEN_WITNESS = "hermiticity"  # first failing family for even N >= 4


class Mismatch(Exception):
    """An artifact disagrees with the benchmark's own reference values."""


@dataclass(frozen=True)
class Op:
    args: tuple
    check: Callable  # check(path) raises Mismatch when the artifact is wrong


def cycles(workload, seed):
    """Yield the workload's cycles of ops forever; same seed, same ops."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"audit": _audit_cycle, "transform": _transform_cycle,
            "tomo": _tomo_cycle, "emit": _emit_cycle}[workload]
    while True:
        yield make(rng)


def _audit_cycle(rng):
    return [Op(("check", "--n", str(n)), partial(check_audit, n))
            for n in rng.sample(AUDIT_DIMS, len(AUDIT_DIMS))]


def _state(rng, n):
    kind = rng.choice(STATE_KINDS)
    spec = f"{kind}:{rng.randrange(n)}" if kind in ("basis", "momentum") else kind
    return spec, rng.randrange(2**31)


def _transform_cycle(rng):
    n = TRANSFORM_N
    spec, seed = _state(rng, n)
    wigner = Op(("wigner", "--n", str(n), "--state", spec, "--seed", str(seed)),
                partial(check_wigner, n, spec, seed))
    spec, seed = _state(rng, n)
    while True:
        kappa, lam = rng.randrange(2 * n), rng.randrange(2 * n)
        if math.gcd(kappa, lam) == 1:
            break
    marginal = Op(("marginal", "--n", str(n), "--kappa", str(kappa), "--lambda", str(lam),
                   "--state", spec, "--seed", str(seed)),
                  partial(check_marginal, n, spec, seed, kappa, lam))
    return [wigner, marginal]


def _tomo_cycle(rng):
    ops = []
    for shots in TOMO_SHOTS:
        seed = rng.randrange(2**31)
        ops.append(Op(("tomo", "--n", str(TOMO_N), "--shots", str(shots), "--seed", str(seed)),
                      partial(check_tomo, TOMO_N, shots, seed)))
    return ops


def _emit_cycle(_rng):
    return [Op(("fano", "--n", str(EMIT_N)), partial(check_fano, EMIT_N))]


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

def omega(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def momentum_basis(n):
    """Rows are the momentum states, component q of |p> = omega^(-qp)/sqrt(N)."""
    grid = np.arange(n)
    return omega(n)[(-np.outer(grid, grid)) % n] / np.sqrt(n)


def density(n, spec, seed):
    """The density matrix the CLI builds for ``--state spec --seed seed``."""
    if spec == "mixed":
        return np.eye(n, dtype=complex) / n
    if spec == "random":
        rng = np.random.default_rng([seed, STATE_STREAM_KEY])
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = x @ x.conj().T
        return rho / rho.trace()
    kind, idx = spec.split(":")
    v = np.eye(n, dtype=complex)[int(idx)] if kind == "basis" else momentum_basis(n)[int(idx)]
    return np.outer(v, v.conj())


def line_projectors(n, kappa, lam):
    """Projectors [p0, i, j] onto the omega^(-p0) eigenspaces of the direction unitary.

    V = omega^((N-1)*kappa*lam/2) S^kappa P^lam, with (S^a P^b)[i, i+a] =
    omega^(b*(i+a)); for odd N, V^N = 1 and Pi_p0 = (1/N) sum_k (omega^p0 V)^k.
    """
    om = omega(n)
    v = np.zeros((n, n), dtype=complex)
    for i in range(n):
        j = (i + kappa) % n
        v[i, j] = om[((n - 1) * kappa * lam // 2 + lam * j) % n]
    projectors = np.empty((n, n, n), dtype=complex)
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ v)
    for p0 in range(n):
        projectors[p0] = sum(om[(p0 * k) % n] * vk for k, vk in enumerate(powers)) / n
    return projectors


def line_weights(rho, projectors):
    return np.einsum("kij,ji->k", projectors, rho).real


def _matrix(d):
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _close(actual, expected, tol, what):
    err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)), initial=0.0))
    _expect(err <= tol, f"{what}: max deviation {err:.3e} > {tol:.0e}")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sl2_order(n):
    order, m = n**3, n
    for p in range(2, n + 1):
        if m % p == 0:
            order = order * (p * p - 1) // (p * p)
            while m % p == 0:
                m //= p
    return order


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------

def check_audit(n, path):
    doc = _load(path)
    _expect(doc["n"] == n, "wrong dimension")
    _expect(doc["matches_prediction"] is True, "audit contradicts the parity dichotomy")
    _expect(doc["group_order"] == sl2_order(n), "group order differs from |SL(2, Z_N)|")
    witness = doc["infeasibility_witness"]
    if n % 2:
        _expect(doc["expected"] == "all_pass", "odd N must expect all_pass")
        _expect(witness is None, "odd N reports an infeasibility witness")
        _expect(all(c["pass"] for c in doc["checks"].values()), "odd N has a failing check")
    else:
        _expect(doc["expected"] == "infeasible", "even N must expect infeasible")
        _expect(witness is not None and witness["check"] == EVEN_WITNESS,
                f"even N must be witnessed by {EVEN_WITNESS}")
        _expect(witness["witness"] is not None, "witness names no index")


def check_wigner(n, spec, seed, path):
    doc = _load(path)
    grid = np.asarray(doc["re"], dtype=float)
    _expect(grid.shape == (n, n), "grid has the wrong shape")
    if doc["im"] is not None:
        _close(doc["im"], 0.0, TOL, "grid imaginary part")
    _close(grid.sum(), 1.0, TOL, "grid total")
    rho = density(n, spec, seed)
    position = np.diag(rho).real
    basis = momentum_basis(n)
    momentum = np.einsum("pq,qr,pr->p", basis.conj(), rho, basis).real
    _close(doc["position_marginal"], position, TOL, "position marginal vs <q|rho|q>")
    _close(doc["momentum_marginal"], momentum, TOL, "momentum marginal vs <p|rho|p>")
    _close(grid.sum(axis=1), position, TOL, "grid row sums vs <q|rho|q>")
    _close(grid.sum(axis=0), momentum, TOL, "grid column sums vs <p|rho|p>")


def check_marginal(n, spec, seed, kappa, lam, path):
    doc = _load(path)
    _expect((doc["kappa"], doc["lambda"]) == (kappa, lam), "wrong direction")
    weights = np.asarray(doc["weights"], dtype=float)
    _expect(weights.shape == (n,), "wrong number of weights")
    _expect(weights.min() >= -TOL, "negative marginal weight")
    _close(weights.sum(), 1.0, TOL, "weights total")
    proj = doc["projector_check"]
    _expect(proj["pass"] is True and proj["eigenvalue_multiplicity"] == 1,
            "line sum is not a rank-1 spectral projector")
    expected = line_weights(density(n, spec, seed), line_projectors(n, kappa, lam))
    _close(weights, expected, TOL, "weights vs Tr[Pi_p0 rho]")


def check_tomo(n, shots, seed, path):
    doc = _load(path)
    _expect((doc["n"], doc["shots"], doc["seed"]) == (n, shots, seed), "wrong parameters")
    rho_true = _matrix(doc["rho_true"])
    rho_rec = _matrix(doc["rho_reconstructed"])
    _close(rho_true, density(n, "random", seed), 1e-12, "rho_true vs the seeded state")
    if shots == 0:
        _close(rho_rec, rho_true, EXACT_TOMO_TOL, "exact reconstruction")
        return
    # Sampled: each weight is a binomial frequency, so it lies within SIGMAS
    # standard deviations (plus SIGMAS counts, for weights near 0) of the
    # exact line weight; and rho_rec must be the exact linear inverse of
    # the sampled weights: sum over families and labels of w * Pi - I.
    families = doc["dataset"]["families"]
    _expect(len(families) == n + 1, "dataset does not hold N+1 families")
    inverse = -np.eye(n, dtype=complex)
    for fam in families:
        weights = np.asarray(fam["weights"], dtype=float)
        counts = weights * shots
        _close(counts, np.round(counts), 1e-6, "weights are not count frequencies")
        _close(weights.sum(), 1.0, TOL, "family weights total")
        projectors = line_projectors(n, fam["kappa"], fam["lambda"])
        exact = line_weights(rho_true, projectors)
        bound = SIGMAS * np.sqrt(np.clip(exact * (1 - exact), 0.0, None) / shots) + SIGMAS / shots
        _expect(np.all(np.abs(weights - exact) <= bound),
                f"family ({fam['kappa']},{fam['lambda']}) outside the {SIGMAS:g}-sigma bound")
        inverse += np.einsum("k,kij->ij", weights, projectors)
    _close(rho_rec, inverse, TOL, "rho_reconstructed vs the linear inverse of the dataset")


def check_fano(n, path):
    doc = _load(path)
    _expect(doc["candidate"] is (n % 2 == 0), "wrong candidate flag")
    _expect(len(doc["coefficients"]) == n**4, "coefficient table does not hold N^4 entries")
    _expect(len(doc["operators"]) == n * n, "operator set does not hold N^2 operators")
    ops = np.zeros((n, n, n, n), dtype=complex)
    for entry in doc["operators"]:
        ops[entry["q"], entry["p"]] = _matrix(entry)
    projectors = np.zeros((n, n, n), dtype=complex)
    projectors[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    _close(ops.sum(axis=1), projectors, TOL, "sum_p D(q,p) vs |q><q|")
