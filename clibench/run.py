#!/usr/bin/env python3
"""End-to-end benchmark of the ``latwig`` command line.

    python3 clibench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/latwig`` present). Each
workload is a closed loop with one client: every operation is one
``python -m latwig.cli`` invocation in a fresh child process, timed from
spawn to exit, with its peak RSS taken from the ``wait4`` rusage. The
artifact is checked after the child exits, outside the timed region.

Operations are started in whole cycles (see ``workloads.py``) until
``--seconds`` of wall time have passed. ``setup_s`` is the median time of
fresh children that only ``import latwig``, one every two seconds of the
same window.

A shared machine's speed can drift by 1.7x over tens of seconds to minutes
(measured on a 2-CPU VM, in CPU time as well as wall time), so a fixed
reference task (``reference_task``, no ``latwig`` code) is timed in this
process before and after every child. Each child's wall time is scaled by REF_S over the
mean of its two neighbouring reference times; ``op_s_p50``, ``ops_per_s``
and ``setup_s`` are computed from the scaled times, i.e. in seconds at the
speed where the reference task takes REF_S. The unscaled wall-clock values
are in the result file under ``wall``.

With ``--trace 1`` every operation runs twice in a row: untraced, then
through ``tracer.py``, which times every public layer function. The
per-layer metrics are medians over the traced operations that called the
layer; ``trace.overhead_s`` is the median traced-minus-untraced difference.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result, with per-operation records and
the environment stamp, is written under ``clibench/out/``.
"""

import argparse
import fnmatch
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRACER = BENCH / "tracer.py"

SETUP_EVERY_S = 2.0
REF_S = 0.1  # nominal duration of reference_task(); scaled times are relative to it
TAIL_BEYOND = 10  # op_s_tail is the highest percentile with this many samples above it
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {  # name -> unit; op_s_tail is reported in the result file only
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

SELF, CALLS = "self_s", "calls"
# name -> (unit, what to take, span-name patterns or a counter name). Layer
# ``_kernels`` is reported as ``kernels``: metric names start with a letter.
PER_LAYER = {
    "operators.monomial_table.self_s": ("s", SELF, ("operators.monomial_table",)),
    "fano.coefficients_to_position.self_s": ("s", SELF, ("fano.coefficients_to_position",)),
    "fano.assemble.self_s": ("s", SELF, ("fano.assemble",)),
    "fano.coefficients.self_s": ("s", SELF, ("fano.coefficients_candidate", "fano.coefficients_odd",
                                             "fano.coefficients_cohendet")),
    "lattice.sl2_enumerate.self_s": ("s", SELF, ("lattice.sl2_enumerate",)),
    "lattice.sl2_second_lift.self_s": ("s", SELF, ("lattice.sl2_second_lift",)),
    "lattice.sl2_second_lift.calls": ("count", CALLS, ("lattice.sl2_second_lift",)),
    "lattice.group_elements": ("count", "lattice.group_elements", ("lattice.sl2_enumerate",)),
    "fano.check_covariance_group.self_s": ("s", SELF, ("fano.check_covariance_group",)),
    "fano.uniqueness_audit.self_s": ("s", SELF, ("fano.uniqueness_audit",)),
    "fano.derivation_routes.self_s": ("s", SELF, ("fano.derivation_routes",)),
    "fano.derivation_routes.calls": ("count", CALLS, ("fano.derivation_routes",)),
    "fano.check_marginals.self_s": ("s", SELF, ("fano.check_marginals",)),
    "fano.check_hermiticity.self_s": ("s", SELF, ("fano.check_hermiticity",)),
    "fano.check_orthogonality.self_s": ("s", SELF, ("fano.check_orthogonality",)),
    "fano.full_report.self_s": ("s", SELF, ("fano.full_report",)),
    # The kernel dispatchers plus whichever backend implementation they call.
    "kernels.covariance_residuals.self_s": ("s", SELF, ("_kernels.covariance_residuals*",)),
    "kernels.covariance_residuals.calls": ("count", CALLS, ("_kernels.covariance_residuals",)),
    "kernels.hermiticity_residuals.self_s": ("s", SELF, ("_kernels.hermiticity_residuals*",)),
    "kernels.hermiticity_residuals.calls": ("count", CALLS, ("_kernels.hermiticity_residuals",)),
    "kernels.index_positions": ("count", "_kernels.index_positions", ("_kernels.*_residuals",)),
    "wigner.wigner_from_density.self_s": ("s", SELF, ("wigner.wigner_from_density",)),
    "wigner.marginal_along_line.self_s": ("s", SELF, ("wigner.marginal_along_line",)),
    "wigner.line_projector_check.self_s": ("s", SELF, ("wigner.line_projector_check",)),
    "lattice.line_points.self_s": ("s", SELF, ("lattice.line_points",)),
    "lattice.line_points.calls": ("count", CALLS, ("lattice.line_points",)),
    "wigner.density_from_wigner.self_s": ("s", SELF, ("wigner.density_from_wigner",)),
    "tomography.simulate_marginals.self_s": ("s", SELF, ("tomography.simulate_marginals",)),
    "tomography.reconstruct_wigner.self_s": ("s", SELF, ("tomography.reconstruct_wigner",)),
    "tomography.reconstruct_density.self_s": ("s", SELF, ("tomography.reconstruct_density",)),
    "serialize.dumps_json.self_s": ("s", SELF, ("serialize.dumps_json",)),
    "serialize.write_atomic.self_s": ("s", SELF, ("serialize.write_atomic",)),
    "serialize.bytes_written": ("bytes", "serialize.bytes_written", ("serialize.write_atomic",)),
    "cli.command.self_s": ("s", SELF, ("cli.cmd_*",)),
}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.unattributed_s": "s"}


@dataclass
class OpRecord:
    args: tuple
    traced: bool
    seconds: float
    rc: int
    maxrss_kb: int
    error: str | None = None
    trace: dict = field(default_factory=dict)
    ref_s: float = REF_S  # mean reference-task time just before and after the op

    @property
    def ok(self):
        return self.error is None

    @property
    def scaled(self):
        return scaled(self.seconds, self.ref_s)


def scaled(seconds, ref_s):
    """Wall time at the machine speed where reference_task() takes REF_S."""
    return seconds * REF_S / ref_s


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal(200_000)
_REF_M = _REF_RNG.standard_normal((64, 64))


def reference_task():
    """Fixed CPU work in the CLI's mix: a Python loop, then small numpy kernels.

    No BLAS call, so it runs on one thread whatever the thread variables say.
    """
    s, d = 0, {}
    for i in range(450_000):
        s += i * i % 7
        d[i & 1023] = s
    y = _REF_X
    for _ in range(36):
        y = np.tanh(y * 0.5) + np.sqrt(np.abs(y))
    z = _REF_M
    for _ in range(120):
        z = np.einsum("ij,jk->ik", z, _REF_M) * 1e-2
    return s + float(y.sum() + z.sum())


def time_reference():
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Runs in a bare interpreter (``python -S``); reads one JSON [argv, stderr path]
# per line, runs ``python argv`` and answers [wall seconds, exit code, maxrss KiB].
SPAWNER = r"""
import json, os, signal, sys, time
child = 0
def stop(*_):
    if child:
        try:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
        except OSError:
            pass
    os._exit(1)
signal.signal(signal.SIGTERM, stop)
for line in sys.stdin:
    argv, stderr_path = json.loads(line)
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    child = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    _, status, usage = os.wait4(child, 0)
    seconds = time.perf_counter() - start
    child = 0
    print(json.dumps([seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """Starts the measured children from a small helper process.

    A child spawned straight from this process would inherit this process's
    peak RSS as the floor of its own ``ru_maxrss``: Linux carries the high-water
    mark of the address space that called exec into the child's rusage. The
    helper is a bare interpreter of about 9 MiB, below any ``latwig`` child, so
    the reported peak is the child's. Use as a context manager; on an error or
    SIGTERM the helper kills and reaps the running child.
    """

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", SPAWNER], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stderr_path):
        """Run ``python argv`` to completion; return (wall seconds, exit code, maxrss KiB)."""
        self.proc.stdin.write(json.dumps([list(argv), str(stderr_path)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with {self.proc.wait()}")
        seconds, rc, maxrss = json.loads(line)
        return seconds, rc, maxrss

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_op(op, index, traced, spawner, workdir):
    artifact = workdir / f"op{index}.json"
    stderr = workdir / f"op{index}.err"
    spans = workdir / f"op{index}.spans.json"
    cli_args = [*op.args, "--out", str(artifact)]
    argv = ([str(TRACER), str(spans), str(index), "--", *cli_args] if traced
            else ["-m", "latwig.cli", *cli_args])
    seconds, rc, maxrss = spawner.run(argv, stderr)
    rec = OpRecord(tuple(op.args), traced, seconds, rc, maxrss)
    if rc != 0:
        rec.error = f"exit {rc}: {stderr.read_text(errors='replace').strip()[-300:]}"
    else:
        try:
            op.check(artifact)
        except (workloads.Mismatch, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
    if traced and spans.exists():
        rec.trace = summarize_spans(json.loads(spans.read_text()))
        spans.replace(workdir / "spans" / f"op{index}.json")
    for path in (artifact, stderr):
        path.unlink(missing_ok=True)
    return rec


def summarize_spans(doc):
    """Per-name self time and calls, counters and root-span time of one op."""
    spans = doc["spans"]
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = defaultdict(lambda: [0.0, 0])
    root = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        by_name[name][0] += end - start - child_time[i]
        by_name[name][1] += 1
        if parent < 0:
            root += end - start
    return {"self": dict(by_name), "counts": doc["counts"], "root_s": root, "wrapped": doc["wrapped"]}


def measure(workload, seed, seconds, traced, spawner, workdir):
    """Run whole cycles of ops until ``seconds`` of wall time have passed.

    Checks run inside that window but outside each op's timed region. An
    import-only child is timed every SETUP_EVERY_S seconds, so the set-up
    samples see the same machine conditions as the ops around them. The
    reference task runs after every child; returns the op records and the
    set-up samples as (wall seconds, reference seconds) pairs.
    """
    records, setup = [], []
    cycles = workloads.cycles(workload, seed)
    ref_before = time_reference()
    start = time.perf_counter()
    next_setup = start
    while time.perf_counter() - start < seconds:
        if time.perf_counter() >= next_setup:
            setup_s = time_import(spawner, workdir)
            ref_after = time_reference()
            setup.append((setup_s, (ref_before + ref_after) / 2))
            ref_before = ref_after
            next_setup = time.perf_counter() + SETUP_EVERY_S
        for op in next(cycles):
            for with_trace in ((False, True) if traced else (False,)):
                rec = run_op(op, len(records), with_trace, spawner, workdir)
                ref_after = time_reference()
                rec.ref_s = (ref_before + ref_after) / 2
                ref_before = ref_after
                records.append(rec)
    return records, setup


def time_import(spawner, workdir):
    """Wall time of a fresh child that only imports the package."""
    seconds, rc, _ = spawner.run(["-c", "import latwig"], workdir / "setup.err")
    if rc != 0:
        raise SystemExit(f"`import latwig` failed:\n{(workdir / 'setup.err').read_text()}")
    return seconds


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(values)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(records, setup):
    """End-to-end metrics from scaled times, and the same from wall times beside them.

    ``setup`` holds (wall seconds, reference seconds) pairs of import-only children.
    """
    verified = sum(r.ok for r in records)
    times = [r.scaled for r in records]
    wall = [r.seconds for r in records]
    tail_s, tail_pct = tail(times)
    metrics = {
        "op_s_p50": statistics.median(times),
        "ops_per_s": verified / sum(times),
        "peak_rss_mb": max(r.maxrss_kb for r in records) / 1024.0,
        "setup_s": statistics.median(scaled(s, ref) for s, ref in setup),
    }
    return metrics, {
        "samples": len(times), "op_s_tail": tail_s, "op_s_tail_percentile": tail_pct,
        "fail_ratio": (len(records) - verified) / len(records),
        "ref_s_p50": statistics.median(r.ref_s for r in records),
        "wall": {"op_s_p50": statistics.median(wall), "op_s_tail": tail(wall)[0],
                 "ops_per_s": verified / sum(wall),
                 "setup_s": statistics.median(s for s, _ in setup)},
    }


def per_layer(records):
    """Median per-op value of each layer metric over the traced ops that ran it.

    Times are scaled to reference speed with the op's own reference time, as
    the end-to-end metrics are.
    """
    pairs = list(zip([r for r in records if not r.traced], [r for r in records if r.traced]))
    traced = [r for r in records if r.traced and r.trace]
    wrapped = set().union(*(r.trace["wrapped"] for r in traced)) if traced else set()
    metrics, missing, idle = {}, [], []
    for name, (_, take, patterns) in PER_LAYER.items():
        if not any(fnmatch.fnmatchcase(w, p) for w in wrapped for p in patterns):
            missing.append(name)
            metrics[name] = 0.0
            continue
        values = []
        for r in traced:
            hits = [v for n, v in r.trace["self"].items()
                    if any(fnmatch.fnmatchcase(n, p) for p in patterns)]
            if not hits:
                continue
            if take == SELF:
                values.append(scaled(sum(v[0] for v in hits), r.ref_s))
            elif take == CALLS:
                values.append(sum(v[1] for v in hits))
            else:
                values.append(r.trace["counts"].get(take, 0))
        if not values:
            idle.append(name)
        metrics[name] = float(statistics.median(values)) if values else 0.0
    if traced:
        # Each op ran untraced then traced, back to back: the median of the
        # paired differences estimates traced minus untraced op_s_p50 with
        # the machine's drift between ops cancelled.
        metrics["trace.overhead_s"] = statistics.median(t.scaled - u.scaled for u, t in pairs)
        metrics["trace.unattributed_s"] = statistics.median(
            scaled(r.seconds - r.trace["root_s"], r.ref_s) for r in traced)
    else:
        metrics.update(dict.fromkeys(TRACE_METRICS, 0.0))
        missing.extend(TRACE_METRICS)
    return metrics, {"missing": missing, "not_exercised": idle}


def environment(env):
    """Facts that decide whether two result files may be compared."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import latwig; f = getattr(latwig, 'kernel_backend', None); print(f() if f else 'none')"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "kernel_backend": probe.stdout.strip() if probe.returncode == 0 else "unavailable",
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "latwig" / "__init__.py").is_file():
        print(f"error: no latwig sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so the Spawner kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = child_env()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "spans").mkdir(parents=True)

    stamp = environment(env)  # its probe child also compiles the bytecode before timing
    with Spawner(env) as spawner:
        records, setup_samples = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                         spawner, workdir)

    e2e, e2e_info = end_to_end([r for r in records if not r.traced], setup_samples)
    if args.trace:
        metrics, info = per_layer(records)
        units = {**{k: v[0] for k, v in PER_LAYER.items()}, **TRACE_METRICS}
    else:
        metrics, info = e2e, {}
        units = END_TO_END
    failed = sum(not r.ok for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": stamp, **result, **e2e_info, **info,
        "end_to_end": e2e, "setup_samples": [{"seconds": w, "ref_s": ref} for w, ref in setup_samples],
        "ops": [{"args": r.args, "traced": r.traced, "seconds": r.seconds, "ref_s": r.ref_s, "rc": r.rc,
                 "maxrss_kb": r.maxrss_kb, "error": r.error} for r in records],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    for r in records:
        if r.error:
            print(f"FAILED {' '.join(r.args)}: {r.error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
