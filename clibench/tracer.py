"""Run one ``latwig`` CLI invocation with timing wrappers on every layer.

Usage (from the benchmark, in a fresh child process):

    python3 clibench/tracer.py SPANS_OUT OP_ID -- <latwig cli arguments>

Before the CLI runs, every public function defined in a layer module is
replaced, under every name a caller resolves it by (``fano.sl2_enumerate``
as well as ``lattice.sl2_enumerate``), with a wrapper that records a span
``(name, start, end, parent)``. A few counters are taken at the same
boundaries. Spans stay in memory and are written to SPANS_OUT as one JSON
document when the CLI returns; the exit code is the CLI's.

Nothing under ``src/`` is modified: the wrappers live only in this process.
"""

import importlib
import json
import sys
import time

LAYERS = ("lattice", "operators", "_kernels", "fano", "wigner", "tomography", "serialize", "cli")

# Scalar helpers called once per index or per group element. Wrapping them
# would multiply the span count by ~10 and the tracing overhead with it;
# their cost is attributed to the caller's self time instead.
SCALAR_HELPERS = frozenset({
    "lattice.check_dim", "lattice.canonical", "lattice.egcd", "lattice.gcd_decompose",
    "lattice.sl2_complete", "lattice.line_label",
    "operators.omega", "operators.omega_int", "operators.omega_half", "operators.omega_pow",
    "fano.phase_phi", "tomography.is_prime", "tomography.family_rng",
    "serialize.format_float",
})


def _size_of_first(args, _result):
    return getattr(args[0], "size", 0) if args else 0


def _bytes_of_text(args, _result):
    return len(args[1].encode("utf-8")) if len(args) > 1 else 0


# span name -> (counter name, amount taken from the call's args and result)
COUNTERS = {
    "lattice.sl2_enumerate": ("lattice.group_elements", lambda _args, result: len(result)),
    "_kernels.covariance_residuals": ("_kernels.index_positions", _size_of_first),
    "_kernels.hermiticity_residuals": ("_kernels.index_positions", _size_of_first),
    "serialize.write_atomic": ("serialize.bytes_written", _bytes_of_text),
}


class Tracer:
    """Span recorder shared by all wrappers of one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = {}

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                key, amount = counter
                counts[key] = counts.get(key, 0) + int(amount(args, result))
            return result

        return wrapper


def install(tracer):
    """Wrap the layers' public functions; return the wrapped span names."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"latwig.{layer}")
        except ModuleNotFoundError as exc:
            if exc.name != f"latwig.{layer}":
                raise
    wrappers = {}  # id(original) -> wrapper
    names = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in SCALAR_HELPERS:
                wrappers[id(obj)] = tracer.wrap(name, obj)
                names.append(name)
    package = importlib.import_module("latwig")
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return sorted(names)


def main(argv):
    spans_out, op_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT OP_ID -- <latwig arguments>")
    tracer = Tracer()
    wrapped = install(tracer)
    from latwig import cli

    try:
        rc = cli.main(cli_argv)
    finally:
        doc = {"op": int(op_id), "wrapped": wrapped, "counts": tracer.counts,
               "spans": [s for s in tracer.spans if s is not None]}
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
