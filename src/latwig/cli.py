"""Command-line front end: construction, audits, transforms, and tomography.

Subcommands write one machine-readable artifact each (JSON by default,
CSV where it makes sense) and keep the human-readable summary on stdout.
Exit codes: 0 success, 1 a tolerance violation or an audit outcome that
contradicts the expected parity dichotomy, 2 usage error (bad arguments,
an --n above the subcommand's limit (FANO_MAX_N, CHECK_MAX_N,
WIGNER_MAX_N, MARGINAL_MAX_N, TOMO_MAX_N), an --out that is a directory
or lies in one that does not exist, or a CSV companion that is a
directory or whose name exceeds NAME_MAX; rejected before any work is
done; or an artifact that cannot be written, reported as
``error: cannot write PATH: REASON``; or standard output that cannot be
written, such as a pipe whose reader has gone or a full disk, reported as
``error: cannot write standard output: REASON`` with the artifact kept,
or closed, reported the same way before any work),
3 internal error (an invariant of the package failed; a bug, not a mistake
in the invocation).

``python -m latwig.cli`` and the ``latwig`` script run :func:`run`, which
pauses the cyclic garbage collector, runs :func:`main` and ends the
process with ``os._exit`` once stdout and stderr are flushed: the
interpreter's teardown, 30-45 ms of a run with numpy loaded, would produce
nothing. In-process callers use :func:`main`, which returns the exit code
and leaves the collector as it found it.

Importing this module loads no numpy and no layer, only the standard
library modules below: ``argparse``, numpy, :mod:`~latwig.lattice` and
:mod:`~latwig.operators` are imported by the functions that use them, so
that in a run they load after :func:`run` has paused the collector. A run
imports only the layers its subcommand executes: ``fano`` and ``check``
load :mod:`~latwig.fano`, ``wigner`` and ``marginal`` load
:mod:`~latwig.wigner`, ``tomo`` loads :mod:`~latwig.tomography` and
``wigner``, and each loads :mod:`~latwig.serialize` to write its artifact.
"""

import errno
import gc
import math
import os
import sys

# Thread-count variables of the BLAS libraries numpy may be built on. A
# pthreads OpenBLAS starts its worker threads when numpy loads, about 70 ms
# of a run on a 2-CPU machine, more than most runs' products gain from
# them. With one thread a product's bits do not depend on how many CPUs
# the machine has; with one per CPU they do, from N = 201 on. A value the
# caller exported wins. The defaults are set only before numpy loads:
# afterwards they would change nothing in this process and only reach its
# children.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

USAGE_ERROR = 2
INTERNAL_ERROR = 3
TOLERANCE_FAILURE = 1
CONTRADICTION = 1

# Largest N `check` accepts. Every audit holds O(N^2) arrays, so memory binds,
# mostly the covariance scan's [2, N^2] temporaries: peak RSS 73 MiB at N = 500,
# 74 MiB at 501 and 92 MiB at 600 (0.47 s at 500; medians of 3, wait4, 2-CPU VM).
# `fano._route_phi`'s int64 products fit up to N = 55,000, `_two_phi`'s to 30,000.
CHECK_MAX_N = 501

# Largest N `marginal` accepts. Its projector check builds the direction's
# line sums a block of lines at a time and compares each with its spectral
# projector, O(N^2) memory, so its O(N^3) time binds: `--kappa 1 --lambda 2`
# took 0.57 s / 36 MiB at N = 201, 4.1 s / 54 MiB at 401 and 11.5 s / 83 MiB
# at 601 (medians of 5 runs, peak RSS from wait4, on a 2-CPU VM).
MARGINAL_MAX_N = 601

# Largest N `fano` accepts. It renders the operators from a few closed-form
# values and a block of codes at a time, so memory no longer binds: peak RSS
# 40 MiB at N = 39, 38 MiB at 41, 41 MiB at 49, 48 MiB at 50 and 41 MiB at
# 51, in 0.32, 0.48, 0.69, 1.24 and 0.93 s (medians of 3, wait4, 2-CPU VM).
# The artifact's size binds: about 48*N^4 bytes at odd N and 66*N^4 at
# even N, 325 MB at N = 51 and 430 MB at 50.
FANO_MAX_N = 51

# Largest N `wigner` accepts. It holds a few N x N complex matrices and the
# grid's texts: peak RSS 134 MiB at N = 1001 and 133 MiB at the prime
# N = 997.
WIGNER_MAX_N = 1001

# Largest N `tomo` accepts. It holds the N + 1 line families' N x N site
# arrays next to the state and grids: peak RSS 70 MiB at N = 401 and
# 83 MiB at N = 601 (both prime; `tomo` refuses composite N).
TOMO_MAX_N = 601


class CliError(Exception):
    pass


def parse_state(spec, n, seed):
    """State specs: 'mixed', 'basis:q', 'momentum:p', 'random'."""
    import numpy as np

    from .operators import (
        STATE_STREAM_KEY,
        basis_state_density,
        maximally_mixed,
        momentum_state_density,
        random_density_matrix,
    )

    if spec == "mixed":
        return maximally_mixed(n)
    if spec == "random":
        if seed < 0:
            raise CliError(f"--seed must be non-negative, got {seed}")
        return random_density_matrix(n, np.random.default_rng([int(seed), STATE_STREAM_KEY]))
    if spec.startswith("basis:"):
        return basis_state_density(_state_index(spec, n), n)
    if spec.startswith("momentum:"):
        return momentum_state_density(_state_index(spec, n), n)
    raise CliError(f"unknown state spec {spec!r}; use mixed, random, basis:q or momentum:p")


def _state_index(spec, n):
    try:
        idx = int(spec.split(":", 1)[1])
    except ValueError:
        raise CliError(f"state spec {spec!r} needs an integer index") from None
    if not 0 <= idx < n:
        raise CliError(f"state index {idx} out of range [0, {n})")
    return idx


def _require_odd(n):
    if n % 2 == 0:
        raise CliError(
            f"N = {n} is even: no operator set satisfies the marginal, hermiticity "
            "and line-covariance conditions simultaneously, so there is nothing to transform"
        )


def _require_at_most(n, limit, what):
    if n > limit:
        raise CliError(f"--n {n} exceeds {limit}, the largest N {what}")


def cmd_fano(args):
    """Write the candidate table's N^4 coefficients and its N^2 dense operators.

    The coefficients are rendered from the table's N^2 support values
    (:class:`serialize.SupportRecords`), which is all a
    :class:`fano.FanoCoefficients` holds, and the operators from the few
    values and the codes of :func:`fano.candidate_operator_codes`
    (:class:`serialize.OperatorRecords`): each value is formatted once and
    the records are taken from the texts a block at a time, with no N^4
    array.
    """
    from . import serialize

    n = args.n
    _require_at_most(n, FANO_MAX_N, "whose N^4-entry artifact `fano` writes")
    serialize.write_json(args.out, _fano_document(n))
    tag = "candidate (even N)" if n % 2 == 0 else "solution"
    print(f"wrote {n**4} coefficients and {n * n} operators ({tag}) to {args.out}")
    return 0


def _fano_document(n):
    """The ``fano`` artifact's document: the candidate table and its operators."""
    from . import fano, serialize

    coeffs = fano.coefficients_candidate(n)
    return {
        "n": n,
        "candidate": n % 2 == 0,
        "phase_convention": fano.PHASE_CONVENTION,
        "coefficients": serialize.SupportRecords(coeffs.values.real, coeffs.values.imag),
        "operators": serialize.OperatorRecords(n, *fano.candidate_operator_codes(n)),
    }


def cmd_check(args):
    """Audit every condition family on the candidate table and write the report.

    The route audit covers every integer lift of SL(2, Z_N), one route per
    primitive row mod M (N or 2N) and r, decided per point in closed form.
    ``group_order`` is |SL(2, Z_N)|. ``lifts_per_element`` describes the
    reference scan of every lift class in ``tests/oracles.py``: the lift
    classes mod M above each element that a route value tells apart, 1 for
    odd N, 8 for even N. N is limited to :data:`CHECK_MAX_N` before any work.

    An even N's structural residuals are 1/N for operator hermiticity and
    2/N^2 for covariance and the route spreads. A --tolerance above all of
    them leaves no check to witness infeasibility, so the run reports
    CONTRADICTS and exits 1; at a tolerance equal to one of them the
    verdict depends on round-off.
    """
    from . import fano, serialize
    from .lattice import sl2_order

    n = args.n
    _require_at_most(n, CHECK_MAX_N, "whose O(N^2) audit tables `check` holds")
    report = fano.full_report(n, tol=args.tolerance)
    matches = fano.matches_parity_prediction(report)
    witness = fano.infeasibility_witness(report)
    doc = report.to_json_dict()
    doc["parity"] = "odd" if n % 2 else "even"
    doc["expected"] = "all_pass" if n % 2 else "infeasible"
    doc["matches_prediction"] = matches
    doc["group_order"] = sl2_order(n)
    doc["lifts_per_element"] = 1 if n % 2 else 8
    doc["infeasibility_witness"] = (
        None if witness is None else {"check": witness.name, **witness.to_json_dict()}
    )
    serialize.write_json(args.out, doc)
    for name, c in report.checks.items():
        print(f"{'PASS' if c.passed else 'FAIL'} {name:30s} max_violation={c.max_violation:.3e}")
    if matches:
        verdict = "all conditions hold" if n % 2 else f"infeasibility witnessed by {witness.name}"
        print(f"outcome matches the odd/even dichotomy: {verdict}")
        return 0
    print("outcome CONTRADICTS the expected odd/even dichotomy")
    return CONTRADICTION


def cmd_wigner(args):
    from . import serialize, wigner

    n = args.n
    _require_odd(n)
    _require_at_most(n, WIGNER_MAX_N, "whose N x N grid `wigner` builds and writes")
    rho = parse_state(args.state, n, args.seed)
    grid = wigner.wigner_from_density(rho)
    marg_q = grid.values.real.sum(axis=1)  # position marginal, sums over p
    marg_p = grid.values.real.sum(axis=0)  # momentum marginal, sums over q
    if args.format == "json":
        doc = grid.to_json_dict(tol=args.tolerance)
        doc["state"] = args.state
        doc["seed"] = args.seed
        doc["position_marginal"] = marg_q
        doc["momentum_marginal"] = marg_p
        serialize.write_json(args.out, doc)
    else:
        imag, path_q, path_p = _companions(args)
        serialize.write_atomic(args.out, serialize.grid_csv(grid.values.real))
        if grid.max_imag() > args.tolerance:
            serialize.write_atomic(imag, serialize.grid_csv(grid.values.imag))
        serialize.write_atomic(path_q, serialize.marginal_csv(marg_q))
        serialize.write_atomic(path_p, serialize.marginal_csv(marg_p))
    print(f"wigner grid for state {args.state}: sum={grid.total().real:.12f} -> {args.out}")
    if abs(grid.total().real - 1.0) > args.tolerance or grid.max_imag() > args.tolerance:
        print("tolerance violation: grid not normalized/real", file=sys.stderr)
        return TOLERANCE_FAILURE
    return 0


def _companions(args):
    """The files a CSV `wigner` may write next to --out: imag (only if the
    grid's imaginary part exceeds --tolerance), marginal_q and marginal_p."""
    if args.command != "wigner" or args.format != "csv":
        return []
    stem, ext = os.path.splitext(args.out)
    return [f"{stem}_{tag}{ext}" for tag in ("imag", "marginal_q", "marginal_p")]


def _name_max(directory):
    """The NAME_MAX of ``directory`` in bytes, 255 if unknown."""
    try:
        return os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        return 255


def cmd_marginal(args):
    from . import serialize, wigner
    from .lattice import sl2_complete

    n = args.n
    _require_odd(n)
    _require_at_most(n, MARGINAL_MAX_N, "whose N^3 line-sum entries `marginal` checks")
    try:
        g = sl2_complete(args.kappa, args.lam)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    rho = parse_state(args.state, n, args.seed)
    grid = wigner.wigner_from_density(rho)
    marg = wigner.marginal_along_line(grid, g)
    rep = wigner.line_projector_check(n, g, tol=args.tolerance)
    if args.format == "json":
        doc = marg.to_json_dict()
        doc = {"n": n, **doc, "state": args.state, "seed": args.seed,
               "projector_check": rep.to_json_dict()}
        serialize.write_json(args.out, doc)
    else:
        serialize.write_atomic(args.out, serialize.marginal_csv(marg.weights))
    status = "ok" if rep.passed else "FAILED"
    print(f"marginal along ({args.kappa},{args.lam}): projector check {status}, "
          f"weights sum {marg.weights.sum():.12f} -> {args.out}")
    return 0 if rep.passed else TOLERANCE_FAILURE


def cmd_tomo(args):
    import numpy as np

    from . import serialize, tomography

    n = args.n
    # Before the primality test, whose trial division grows as sqrt(N).
    _require_at_most(n, TOMO_MAX_N, "whose N + 1 line families `tomo` simulates and inverts")
    if n % 2 == 0 or not tomography.is_prime(n):
        raise CliError(f"tomography requires an odd prime N, got {n}")
    if args.shots < 0:
        raise CliError(f"--shots must be non-negative, got {args.shots}")
    if args.shots > np.iinfo(np.int64).max:
        raise CliError(f"--shots must be at most 2^63 - 1, got {args.shots}")
    rho_true = parse_state("random", n, args.seed)
    dataset = tomography.simulate_marginals(rho_true, shots=args.shots, seed=args.seed)
    result = tomography.reconstruct_density(dataset, rho_true=rho_true)
    doc = {
        "n": n,
        "shots": args.shots,
        "seed": args.seed,
        "fidelity_error": result.fidelity_error,
        "dataset": dataset.to_json_dict(),
        "wigner": result.wigner.to_json_dict(tol=args.tolerance),
        "rho_true": serialize.complex_matrix_dict(rho_true),
        "rho_reconstructed": serialize.complex_matrix_dict(result.rho),
    }
    serialize.write_json(args.out, doc)
    print(f"tomography n={n} shots={args.shots}: fidelity_error={result.fidelity_error:.3e} -> {args.out}")
    if args.shots == 0 and result.fidelity_error > args.tolerance:
        print("tolerance violation: exact reconstruction did not recover the state", file=sys.stderr)
        return TOLERANCE_FAILURE
    return 0


def build_parser():
    import argparse

    from .operators import DEFAULT_TOL

    parser = argparse.ArgumentParser(
        prog="latwig",
        description="Discrete Wigner functions on the N x N lattice: "
                    "construction, condition audits, transforms, and tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default, with_format=False):
        p.add_argument("--n", type=int, required=True, help="lattice dimension N")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
        p.add_argument("--out", default=out_default, help="output artifact path")
        if with_format:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("fano", help="write the coefficient table and operators")
    common(p, "fano.json")
    p.set_defaults(func=cmd_fano)

    p = sub.add_parser("check", help="audit all condition families")
    common(p, "check.json")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("wigner", help="Wigner grid of a state (odd N)")
    common(p, "wigner.json", with_format=True)
    p.add_argument("--state", default="mixed")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("marginal", help="tilted-line marginal of a state (odd N)")
    common(p, "marginal.json", with_format=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--state", default="mixed")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("tomo", help="simulate and invert line marginals (odd prime N)")
    common(p, "tomo.json")
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tomo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.exit(USAGE_ERROR, "error: --n must be a positive integer\n")
    if not 0 <= args.tolerance < math.inf:
        parser.exit(USAGE_ERROR, f"error: --tolerance must be finite and >= 0, got {args.tolerance}\n")
    out = os.path.abspath(args.out)
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out)):
        parser.exit(USAGE_ERROR, f"error: --out {args.out} must name a file in an existing directory\n")
    for path in _companions(args):
        if os.path.isdir(path):
            parser.exit(USAGE_ERROR, f"error: {path}, written next to --out, is a directory\n")
        if len(os.fsencode(os.path.basename(path))) > _name_max(os.path.dirname(out)):
            parser.exit(USAGE_ERROR, f"error: {path}, written next to --out, has too long a name\n")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except OSError as exc:
        if exc.filename is None:  # not the artifact: a print to stdout (see run)
            raise
        # Raised by serialize, naming the artifact; its temp file is gone.
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR


def run(argv=None):
    """The process entry point of ``python -m latwig.cli`` and the ``latwig`` script.

    Runs :func:`main`, flushes stdout and stderr and ends the process with
    ``os._exit``, skipping module teardown, its GC passes and ``atexit``
    handlers: every artifact is closed and renamed before ``main``
    returns. An exception ``main`` does not handle (a bug,
    ``KeyboardInterrupt``) propagates, with the usual traceback and
    teardown. ``main`` reports an artifact it cannot write itself, so an
    OSError here is a failed print to stdout: in ``main`` when stdout is
    unbuffered, in the flush when it is buffered. It is reported on stderr,
    fd 1 is pointed at ``os.devnull`` as Python's docs on SIGPIPE do, so
    that no later write fails again, and the run exits 2. A run started
    with fd 1 closed, where Python sets ``sys.stdout`` to None and a print
    would vanish, is refused the same way before ``main`` runs, so that no
    file the run opens lands on fd 1.

    The cyclic garbage collector is paused first, so that numpy, the
    layers and the work load and run without it: ``import numpy`` alone
    triggers about 30 collections, 4-5 ms, that free some 300 objects.
    Reference counting still frees every object outside a cycle, and the
    few cycles left go with the process at ``os._exit``.
    """
    gc.disable()
    try:
        if sys.stdout is None:  # the run started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = USAGE_ERROR
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code or 0)


if __name__ == "__main__":
    run()
