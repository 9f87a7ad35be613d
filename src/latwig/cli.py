"""Command-line front end: construction, audits, transforms, and tomography.

Subcommands write one machine-readable artifact each (JSON by default,
CSV where it makes sense) and keep the human-readable summary on stdout.
Exit codes: 0 success, 1 a tolerance violation or an audit outcome that
contradicts the expected parity dichotomy, 2 usage error (bad arguments,
an --n above the subcommand's limit (FANO_MAX_N, CHECK_MAX_N,
WIGNER_MAX_N, MARGINAL_MAX_N, TOMO_MAX_N), an --out that is a directory
or lies in one that does not exist, a CSV companion that is a directory
or whose name exceeds NAME_MAX, or an --out or companion that exists and
is not a regular file (a symlink, a FIFO, a device), which the artifact's
rename would replace; rejected before any work is done; or an artifact
that cannot be written, reported as
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
library modules below: numpy, :mod:`~latwig.lattice` and
:mod:`~latwig.operators` are imported by the functions that use them, so
that in a run they load after :func:`run` has paused the collector, and
``--help`` or a usage error loads none of them. :func:`parse_args` reads
the command line from the table :data:`COMMANDS`, not with argparse. A run
imports only the layers its subcommand executes: ``check`` loads
:mod:`~latwig.fano`, ``wigner`` and ``marginal`` load
:mod:`~latwig.wigner`, ``tomo`` loads :mod:`~latwig.tomography` and
``wigner``, and each loads :mod:`~latwig.serialize` to write its artifact.
``fano`` loads :mod:`~latwig.serialize` and :mod:`~latwig.phases` alone,
and no numpy: its artifact is rendered from plain-Python phases.

This module alone decides each artifact's keys, their order and how the
layers' results become JSON values (:func:`_check_dict`,
:func:`_grid_dict`, :func:`_marginal_dict`); the layers return data and
hold no JSON.
"""

import errno
import gc
import math
import os
import stat
import sys
import types

from . import DEFAULT_TOL

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

# Largest N `check` accepts. Every audit holds O(N^2) arrays, so memory binds;
# the covariance scan holds one generator's N^2 temporaries at a time: peak RSS
# 57 MiB at N = 500 and 501 (0.29 and 0.31 s; medians of 3, wait4, 2-CPU VM)
# and 68 MiB at 600 with the limit lifted.
# `fano._route_phi`'s int64 products fit up to N = 55,000, `_two_phi`'s to 30,000.
CHECK_MAX_N = 501

# Largest N `marginal` accepts. Its projector check builds the direction's
# line sums a block of lines at a time and compares each with its spectral
# projector, O(N^2) memory, so its O(N^3) time binds: `--kappa 1 --lambda 2`
# took 0.57 s / 36 MiB at N = 201, 4.1 s / 54 MiB at 401 and 11.5 s / 83 MiB
# at 601 (medians of 5 runs, peak RSS from wait4, on a 2-CPU VM).
MARGINAL_MAX_N = 601

# Largest N `fano` accepts. It renders its artifact from plain-Python phases,
# with no numpy, and the operators from O(N^3) text strips a block of records
# at a time, so memory does not bind: peak RSS 16.8 MiB at N = 39, 17.2 MiB
# at 41, 17.7 MiB at 49, 23.7 MiB at 50 and 18.9 MiB at 51, in 0.29, 0.32,
# 0.48, 0.67 and 0.58 s (medians of 3, wait4, 2-CPU VM).
# The artifact's size binds: about 48*N^4 bytes at odd N and 66*N^4 at
# even N, 325 MB at N = 51 and 430 MB at 50.
FANO_MAX_N = 51

# Largest N `wigner` accepts. It holds a few N x N complex matrices and one
# block of the grid's texts: peak RSS 126 MiB and 1.4 s at N = 1001 and
# 125 MiB at the prime N = 997 (medians of 7 and 3, wait4, 2-CPU VM).
WIGNER_MAX_N = 1001

# Largest N `tomo` accepts. It holds the N + 1 line families' weights and
# one N x N label grid next to the state and grids: peak RSS 56 MiB at
# N = 401 and 78 MiB at N = 601, in 2.4 and 6.7 s (medians of 3 and 5,
# wait4, 2-CPU VM; both prime, `tomo` refuses composite N).
TOMO_MAX_N = 601


# The convention of every phase the artifacts' complex numbers hold.
PHASE_CONVENTION = "exp(2*pi*i*x/N)"


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
    kind, colon, index = spec.partition(":")
    if not colon or kind not in ("basis", "momentum"):
        raise CliError(f"unknown state spec {spec!r}; use mixed, random, basis:q or momentum:p")
    try:
        idx = int(index)
    except ValueError:
        raise CliError(f"state spec {spec!r} needs an integer index") from None
    if not 0 <= idx < n:
        raise CliError(f"state index {idx} out of range [0, {n})")
    return (basis_state_density if kind == "basis" else momentum_state_density)(idx, n)


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
    (:func:`serialize.support_records`), which is all a
    :class:`fano.FanoCoefficients` holds, and the operators from one text
    strip per (i - q, p) (:func:`serialize.operator_records`), both from the
    plain-Python phases of :mod:`latwig.phases`: each value is formatted
    once, the records are taken from the texts a block at a time, and no
    numpy loads.
    """
    from . import serialize

    n = args.n
    _require_at_most(n, FANO_MAX_N, "whose N^4-entry artifact `fano` writes")
    serialize.write_json(args.out, _fano_document(n))
    tag = "candidate (even N)" if n % 2 == 0 else "solution"
    print(f"wrote {n**4} coefficients and {n * n} operators ({tag}) to {args.out}")
    return 0


def _fano_document(n):
    """The ``fano`` artifact's document: the candidate table and its operators, rendered with no numpy."""
    from . import serialize

    return {
        "n": n,
        "candidate": n % 2 == 0,
        "phase_convention": PHASE_CONVENTION,
        "coefficients": serialize.support_records(n),
        "operators": serialize.operator_records(n),
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
    checks = fano.full_report(n, tol=args.tolerance)
    matches = fano.matches_parity_prediction(n, checks)
    witness = fano.infeasibility_witness(checks)
    doc = {"n": n, "tolerance": args.tolerance, "phase_convention": PHASE_CONVENTION,
           "checks": {name: _check_dict(c) for name, c in checks.items()},
           "parity": "odd" if n % 2 else "even", "expected": "all_pass" if n % 2 else "infeasible",
           "matches_prediction": matches, "group_order": sl2_order(n), "lifts_per_element": 1 if n % 2 else 8,
           "infeasibility_witness": None if witness is None else {"check": witness.name, **_check_dict(witness)}}
    serialize.write_json(args.out, doc)
    for name, c in checks.items():
        print(f"{'PASS' if c.passed else 'FAIL'} {name:30s} max_violation={c.max_violation:.3e}")
    if matches:
        verdict = "all conditions hold" if n % 2 else f"infeasibility witnessed by {witness.name}"
        print(f"outcome matches the odd/even dichotomy: {verdict}")
        return 0
    print("outcome CONTRADICTS the expected odd/even dichotomy")
    return CONTRADICTION


def _check_dict(c):
    """A check result's object: its verdict, its largest violation and its witness, null on a pass."""
    return {"pass": c.passed, "max_violation": c.max_violation, "witness": c.witness}


def _grid_dict(grid, tol):
    """A Wigner grid's object, with its imaginary part only where that exceeds tol and else null."""
    return {"n": grid.n, "re": grid.values.real, "im": grid.values.imag if grid.max_imag() > tol else None}


def _marginal_dict(marginal):
    """A line family's object: the integer lift of its direction, then its line weights."""
    g = marginal.element
    return {"kappa": g.kappa, "lambda": g.lam, "mu": g.mu, "nu": g.nu, "weights": marginal.weights}


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
        doc = {**_grid_dict(grid, args.tolerance), "state": args.state, "seed": args.seed,
               "position_marginal": marg_q, "momentum_marginal": marg_p}
        serialize.write_json(args.out, doc)
    else:
        imag, path_q, path_p = _companions(args)
        serialize.write_grid_csv(args.out, grid.values.real)
        if grid.max_imag() > args.tolerance:
            serialize.write_grid_csv(imag, grid.values.imag)
        serialize.write_marginal_csv(path_q, marg_q)
        serialize.write_marginal_csv(path_p, marg_p)
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


def _replaced_by_rename(path):
    """Whether path exists and is not a regular file: a symlink, a FIFO or a
    device, which renaming the artifact's temp file onto it would replace."""
    try:
        return not stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # no such file, or a name the writer reports
        return False


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
    lam = getattr(args, "lambda")  # a Python keyword
    try:
        g = sl2_complete(args.kappa, lam)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    rho = parse_state(args.state, n, args.seed)
    grid = wigner.wigner_from_density(rho)
    marg = wigner.marginal_along_line(grid, g)
    rep = wigner.line_projector_check(n, g, tol=args.tolerance)
    if args.format == "json":
        doc = {"n": n, **_marginal_dict(marg), "state": args.state, "seed": args.seed,
               "projector_check": {"pass": rep.passed, "max_violation": rep.max_violation,
                                   "eigenvalue_multiplicity": rep.eigenvalue_multiplicity}}
        serialize.write_json(args.out, doc)
    else:
        serialize.write_marginal_csv(args.out, marg.weights)
    status = "ok" if rep.passed else "FAILED"
    print(f"marginal along ({args.kappa},{lam}): projector check {status}, "
          f"weights sum {marg.weights.sum():.12f} -> {args.out}")
    return 0 if rep.passed else TOLERANCE_FAILURE


def cmd_tomo(args):
    import numpy as np

    from . import serialize, tomography
    from .lattice import is_prime

    n = args.n
    # Before the primality test, whose trial division grows as sqrt(N).
    _require_at_most(n, TOMO_MAX_N, "whose N + 1 line families `tomo` simulates and inverts")
    if n % 2 == 0 or not is_prime(n):
        raise CliError(f"tomography requires an odd prime N, got {n}")
    if args.shots < 0:
        raise CliError(f"--shots must be non-negative, got {args.shots}")
    if args.shots > np.iinfo(np.int64).max:
        raise CliError(f"--shots must be at most 2^63 - 1, got {args.shots}")
    rho_true = parse_state("random", n, args.seed)
    dataset = tomography.simulate_marginals(rho_true, shots=args.shots, seed=args.seed)
    result = tomography.reconstruct_density(dataset)
    error = float(np.abs(result.rho - rho_true).max())
    doc = {
        "n": n,
        "shots": args.shots,
        "seed": args.seed,
        "fidelity_error": error,
        "dataset": {"n": n, "shots": args.shots, "seed": args.seed,
                    "families": [_marginal_dict(f) for f in dataset.families]},
        "wigner": _grid_dict(result.wigner, args.tolerance),
        "rho_true": {"re": rho_true.real, "im": rho_true.imag},
        "rho_reconstructed": {"re": result.rho.real, "im": result.rho.imag},
    }
    serialize.write_json(args.out, doc)
    print(f"tomography n={n} shots={args.shots}: fidelity_error={error:.3e} -> {args.out}")
    if args.shots == 0 and error > args.tolerance:
        print("tolerance violation: exact reconstruction did not recover the state", file=sys.stderr)
        return TOLERANCE_FAILURE
    return 0


# The command line: each subcommand's help line and its options, each flag's
# (type or choices, default) in the order of its usage line. An option with
# no default is required; its value is the attribute its flag names. `main`
# runs ``cmd_<subcommand>``, looked up when it runs.
_COMMON = {"--n": (int, None), "--tolerance": (float, DEFAULT_TOL)}
_STATE = {"--format": (("json", "csv"), "json"), "--state": (str, "mixed"), "--seed": (int, 0)}
COMMANDS = {
    "fano": ("write the coefficient table and operators", {"--n": (int, None), "--out": (str, "fano.json")}),
    "check": ("audit all condition families", {**_COMMON, "--out": (str, "check.json")}),
    "wigner": ("Wigner grid of a state (odd N)", {**_COMMON, "--out": (str, "wigner.json"), **_STATE}),
    "marginal": ("tilted-line marginal of a state (odd N)", {
        **_COMMON, "--out": (str, "marginal.json"), "--kappa": (int, None), "--lambda": (int, None), **_STATE}),
    "tomo": ("simulate and invert line marginals (odd prime N)", {
        **_COMMON, "--out": (str, "tomo.json"), "--shots": (int, 0), "--seed": (int, 0)}),
}


def parse_args(argv=None):
    """The subcommand and option values of a command line, read from :data:`COMMANDS`.

    Reads ``--opt value``, ``--opt=value``, a unique prefix of an option
    (``--tol``), an option given again (the last value wins) and negative
    numbers as values (``--kappa -1``). ``-h`` or ``--help`` prints help
    and exits 0; the first bad token from the left, or else a missing
    option, is a usage error (:func:`_exit`).
    """
    command, options, tokens = None, {}, iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        flag, value = _option(token, options, command)
        if flag == "" and command is None:
            if token not in COMMANDS:
                _exit(None, f"argument command: invalid choice: {token!r}")
            command, options = token, COMMANDS[token][1]
            args = types.SimpleNamespace(command=token, **{key[2:]: default for key, (_, default) in options.items()})
        elif flag in ("-h", "--help"):
            _exit(command)
        elif not flag:
            _exit(command, f"unrecognized arguments: {token}")
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _option(value, options, command)[0] != "":
                    _exit(command, f"argument {flag}: expected one argument")
            kind = options[flag][0]
            if type(kind) is tuple and value not in kind:
                _exit(command, f"argument {flag}: invalid choice: {value!r}")
            try:
                setattr(args, flag[2:], value if type(kind) is tuple else kind(value))
            except ValueError:
                _exit(command, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
    missing = [flag for flag in options if getattr(args, flag[2:]) is None]
    if command is None or missing:
        _exit(command, f"the following arguments are required: {', '.join(missing) or 'command'}")
    return args


def _option(token, options, command):
    """``(flag, value after "=" or None)`` if ``token`` names an option, itself or
    by a unique prefix; ``("", token)`` if it is a value; ``(None, None)`` if not known."""
    name, eq, value = token.partition("=")
    flags = ("-h", "--help", *options)
    matches = [name] if name in flags else [flag for flag in flags if len(name) > 2 and flag.startswith(name)]
    if len(matches) > 1:
        _exit(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    if token[:1] != "-" or token[1:2] in ".0123456789" or " " in token:
        return "", token  # not an option: a value, a negative number or a text with a space
    return None, None


def _exit(command, error=None):
    """Print the help of the command line (command None) or of a subcommand and
    exit 0, or, given an ``error``, its usage and ``PROG: error: ERROR`` to
    stderr and exit 2."""
    if command is None:
        prog, usage = "latwig", f"[-h] {{{','.join(COMMANDS)}}} ..."
        lines = ["Discrete Wigner functions on the N x N lattice: construction,",
                 "condition audits, transforms, and tomography.", ""]
        for name, (line, _) in COMMANDS.items():
            lines.append(f"  {name:22}  {line}")
    else:
        prog, usage, (line, options) = f"latwig {command}", "[-h]", COMMANDS[command]
        lines = [line, ""]
        for flag, (kind, default) in options.items():
            arg = f"{flag} {{{','.join(kind)}}}" if type(kind) is tuple else f"{flag} {flag[2:].upper()}"
            usage += f" {arg}" if default is None else f" [{arg}]"
            lines.append(f"  {arg:22}  {'required' if default is None else f'default: {default}'}")
    if error is None:
        print(f"usage: {prog} {usage}", "", *lines, sep="\n")
        raise SystemExit(0)
    print(f"usage: {prog} {usage}\n{prog}: error: {error}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def main(argv=None):
    args = parse_args(argv)
    if args.n < 1:
        _exit(args.command, "--n must be a positive integer")
    if hasattr(args, "tolerance") and not 0 <= args.tolerance < math.inf:
        _exit(args.command, f"--tolerance must be finite and >= 0, got {args.tolerance}")
    out = os.path.abspath(args.out)
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out)):
        _exit(args.command, f"--out {args.out} must name a file in an existing directory")
    for path in _companions(args):
        if os.path.isdir(path):
            _exit(args.command, f"{path}, written next to --out, is a directory")
        if len(os.fsencode(os.path.basename(path))) > _name_max(os.path.dirname(out)):
            _exit(args.command, f"{path}, written next to --out, has too long a name")
    for path in (args.out, *_companions(args)):
        if _replaced_by_rename(path):
            _exit(args.command, f"{path} exists and is not a regular file")
    try:
        return globals()[f"cmd_{args.command}"](args)
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
        except SystemExit as exc:  # --help and usage errors
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
