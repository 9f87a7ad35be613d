"""Start-up and exit: the lazy package, the CLI's one-thread BLAS default,
the modules each subcommand loads, the collector the entry point pauses,
its exit without interpreter teardown, and the package's records, which are
namedtuples rather than dataclasses.

Each check of what an import does runs in a fresh interpreter, since this
one has numpy and the package loaded already.
"""

import ast
import errno
import gc
import importlib
import importlib.machinery
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import latwig
from latwig import cli, fano, lattice, operators, tomography, wigner

SRC = Path(latwig.__file__).resolve().parents[1]


def child_env(**exported):
    """This environment without any BLAS thread variable, plus `exported`."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **exported}


def run_python(code, **exported):
    done = subprocess.run([sys.executable, "-c", code], env=child_env(**exported),
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_latwig_loads_no_numpy_and_leaves_the_environment():
    run_python(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import latwig\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        "assert dict(os.environ) == before\n"
    )


def test_every_export_is_its_submodules_object():
    for name in latwig.__all__:
        obj = getattr(latwig, name)
        assert obj.__module__.startswith("latwig."), (name, obj.__module__)
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_star_import_binds_all_exports():
    namespace = {}
    exec("from latwig import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(latwig.__all__)
    assert all(namespace[name] is getattr(latwig, name) for name in latwig.__all__)


def test_dir_lists_all_exports():
    assert set(latwig.__all__) <= set(dir(latwig))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="kernel_backend"):
        latwig.kernel_backend
    assert getattr(latwig, "kernel_backend", None) is None


def test_import_cli_loads_no_numpy_and_no_layer():
    run_python(
        "import sys, latwig.cli\n"
        "loaded = {m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'latwig.'))}\n"
        "assert loaded == {'latwig.cli'}, sorted(loaded)\n"
    )


def test_cli_defaults_every_blas_variable_to_one_thread():
    out = run_python("import os, latwig.cli as c; print(*(os.environ.get(v) for v in c.BLAS_THREAD_VARS))")
    assert out.split() == ["1"] * len(cli.BLAS_THREAD_VARS)


def test_an_exported_thread_count_wins():
    out = run_python("import os, latwig.cli; print(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["2"]


def test_cli_imported_after_numpy_leaves_the_environment():
    run_python(
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import latwig.cli\n"
        "assert dict(os.environ) == before\n"
    )


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads are counted in /proc")
def test_cli_starts_no_blas_worker_thread():
    """numpy loads after `latwig.cli`, as in a run, and starts no BLAS thread."""
    out = run_python("import os, latwig.cli, numpy; print(len(os.listdir('/proc/self/task')))")
    assert out.split() == ["1"]


def test_artifact_does_not_depend_on_the_default_thread_count(tmp_path):
    """From N = 201 on, a multithreaded OpenBLAS rounds the transform's
    products apart from a single-threaded one."""
    args = ["wigner", "--n", "201", "--state", "random", "--seed", "3"]
    texts = []
    for label, exported in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"{label}.json"
        subprocess.run([sys.executable, "-m", "latwig.cli", *args, "--out", str(out)], env=child_env(**exported),
                       capture_output=True, timeout=120, check=True)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


# The latwig modules a run writes its artifact with: the package, the
# writer and the plain-Python phases it renders `fano` from. `python -m
# latwig.cli` runs cli as __main__, so latwig.cli is not among them.
WRITER_MODULES = {"latwig", "latwig.phases", "latwig.serialize"}

# The modules every subcommand that computes in numpy loads besides:
# lattice and operators, which every numpy layer imports.
NUMPY_MODULES = WRITER_MODULES | {"latwig.lattice", "latwig.operators"}

# Each subcommand's exact module set, and whether it loads numpy. `fano`
# renders its artifact from the phases alone.
SUBCOMMAND_MODULES = [
    (["fano", "--n", "3"], WRITER_MODULES, False),
    (["check", "--n", "3"], NUMPY_MODULES | {"latwig.fano"}, True),
    (["wigner", "--n", "5"], NUMPY_MODULES | {"latwig.wigner"}, True),
    (["marginal", "--n", "5", "--kappa", "1", "--lambda", "2"], NUMPY_MODULES | {"latwig.wigner"}, True),
    (["tomo", "--n", "5"], NUMPY_MODULES | {"latwig.wigner", "latwig.tomography"}, True),
]

# The entry point ends the process with os._exit, which would end this child
# before its report: the harness makes os._exit raise SystemExit instead.
# Its first lines count the collections of the cyclic garbage collector
# from an empty young generation on, so that an import of numpy before the
# entry point pauses the collector, about 30 collections, shows. The child
# runs from bytecode (the `bytecode` fixture): compiling the package and
# cli.py from source makes about 460 allocations, most of the young
# generation's threshold of 700, and tips one collection before the entry
# point runs once cli.py grows a few functions, though the run is the same.
# It imports json only after reading what the run loaded, and reports which
# of the standard library modules a run must not load it found.
RUN_CLI = """
import gc
gc.collect()
collected = []  # the generation of each collection
gc.callbacks.append(lambda phase, info: phase == "start" and collected.append(info["generation"]))
import os, runpy, sys
exits = []
def record_exit(code):
    exits.append(code)
    raise SystemExit(code)
os._exit = record_exit
sys.argv = ["latwig", *sys.argv[1:]]
try:
    runpy.run_module("latwig.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
loaded = sorted(sys.modules)
import json
print(json.dumps({"exits": exits, "collections": collected,
                  "unwanted": [m for m in ("json", "argparse", "gettext", "locale") if m in loaded],
                  "numpy": "numpy" in loaded,
                  "dataclasses": "dataclasses" in loaded,
                  "modules": [m for m in loaded if m.split(".")[0] == "latwig"]}))
"""


@pytest.fixture(scope="module")
def bytecode(tmp_path_factory):
    """A PYTHONPYCACHEPREFIX holding the bytecode of latwig and of the two modules
    RUN_CLI imports before the entry point, which need not be frozen."""
    prefix = str(tmp_path_factory.mktemp("pycache"))
    sources = [str(SRC / "latwig"), runpy.__file__, importlib.machinery.__file__]
    subprocess.run([sys.executable, "-m", "compileall", "-q", *sources], env=child_env(PYTHONPYCACHEPREFIX=prefix),
                   capture_output=True, timeout=120, check=True)
    return prefix


@pytest.fixture(scope="module")
def numpy_loads_dataclasses():
    """Whether a bare `import numpy` loads dataclasses (numpy 1.24 may)."""
    return run_python("import sys, numpy; print('dataclasses' in sys.modules)").split() == ["True"]


@pytest.mark.parametrize("argv, modules, numpy", SUBCOMMAND_MODULES, ids=[argv[0] for argv, *_ in SUBCOMMAND_MODULES])
def test_each_subcommand_loads_only_its_layers(tmp_path, bytecode, numpy_loads_dataclasses, argv, modules, numpy):
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv, "--out", str(tmp_path / "a.json")],
                          env=child_env(PYTHONPYCACHEPREFIX=bytecode), capture_output=True, text=True, timeout=120,
                          check=False)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["exits"] == [0]
    assert set(report["modules"]) == modules
    assert report["numpy"] is numpy
    assert report["dataclasses"] == (numpy and numpy_loads_dataclasses)
    assert report["collections"] == []
    assert report["unwanted"] == []


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["tomo", "-h"], 0), (["check", "--n", "x"], 2),
                                        (["wigner", "--n", "0"], 2)], ids=["help", "tomo_help", "bad_int", "n0"])
def test_help_and_usage_errors_load_no_layer_and_no_numpy(argv, code):
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], env=child_env(), capture_output=True, text=True,
                          timeout=120, check=False)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["exits"] == [code]
    assert report["modules"] == ["latwig"]
    assert not report["numpy"]
    assert report["unwanted"] == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    """`run` pauses the collector for its process; an in-process caller of `main` keeps its own setting."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["check", "--n", "3", "--out", str(tmp_path / "a.json")]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def run_cli_child(argv, unbuffered, code=None, stdout=subprocess.PIPE, preexec_fn=None):
    """``python -m latwig.cli ARGV``, or ``python -c CODE ARGV``, with stdout buffered or not."""
    env = child_env(COLUMNS="20")  # a narrow terminal, to which the help is not wrapped
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = ["-m", "latwig.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *command, *argv], env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=False, preexec_fn=preexec_fn)


def run_main(argv, capsys):
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


EXIT_CASES = [
    (["check", "--n", "9", "--out", "OUT"], 0),
    (["check", "--n", "10", "--tolerance", "0.1", "--out", "OUT"], 1),  # CONTRADICTS
    (["check", "--n", "0", "--out", "OUT"], 2),
    (["check", "--n", "3", "--frobnicate", "--out", "OUT"], 2),
    (["check", "--n", "3", "--out", "LONG"], 2),  # a 300-character name cannot be written
    (["--help"], 0),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", EXIT_CASES, ids=["pass", "contradicts", "n0", "unknown_flag", "unwritable",
                                                         "help"])
def test_a_process_exits_and_prints_as_main_returns_and_prints(tmp_path, capsys, argv, code, unbuffered):
    paths = {"OUT": str(tmp_path / "a.json"), "LONG": str(tmp_path / ("c" * 295 + ".json"))}
    argv = [paths.get(arg, arg) for arg in argv]
    expected = run_main(argv, capsys)
    assert expected[0] == code
    done = run_cli_child(argv, unbuffered)
    assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stdout_whose_reader_is_gone_exits_two_and_keeps_the_artifact(tmp_path, capsys, unbuffered):
    """Unbuffered, the print in main fails; buffered, the flush in the entry point does."""
    out, expected = tmp_path / "a.json", tmp_path / "expected.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_cli_child(["check", "--n", "9", "--out", str(out)], unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"
    assert run_main(["check", "--n", "9", "--out", str(expected)], capsys)[0] == 0
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_run_started_with_stdout_closed_exits_two_before_any_work(tmp_path, unbuffered):
    """With fd 1 closed Python sets sys.stdout to None, where a print would vanish."""
    out = tmp_path / "a.json"
    done = run_cli_child(["check", "--n", "9", "--out", str(out)], unbuffered, stdout=None,
                         preexec_fn=lambda: os.close(1))
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n"
    assert os.listdir(tmp_path) == []


# Registers an atexit handler that writes to fd 1, then runs `python -m
# latwig.cli check --n 3 --out ARGV[1]`, with fano.full_report raising if
# ARGV[2] is "raise".
RUN_WITH_ATEXIT = """
import atexit, os, runpy, sys
import latwig.fano
def boom(*args, **kwargs):
    raise RuntimeError("boom")
if sys.argv[2] == "raise":
    latwig.fano.full_report = boom
atexit.register(os.write, 1, b"teardown ran\\n")
sys.argv = ["latwig", "check", "--n", "3", "--out", sys.argv[1]]
runpy.run_module("latwig.cli", run_name="__main__", alter_sys=True)
"""


def test_the_entry_point_skips_the_interpreter_teardown(tmp_path):
    done = run_cli_child([str(tmp_path / "a.json"), "ok"], False, code=RUN_WITH_ATEXIT)
    assert done.returncode == 0, done.stderr
    assert "outcome matches the odd/even dichotomy" in done.stdout
    assert "teardown ran" not in done.stdout


def test_an_exception_main_does_not_handle_prints_its_traceback_and_exits_one(tmp_path):
    done = run_cli_child([str(tmp_path / "a.json"), "raise"], False, code=RUN_WITH_ATEXIT)
    assert done.returncode == 1
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("RuntimeError: boom\n")
    assert done.stdout == "teardown ran\n"


def test_the_console_script_runs_the_function_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["latwig"].partition(":")
    tree = ast.parse(Path(cli.__file__).read_text())
    [guard] = [node for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    [call] = guard.body
    assert ast.unparse(call) == f"{name}()"
    assert getattr(importlib.import_module(module), name) is cli.run


def test_wigner_does_not_import_fano():
    run_python("import sys, latwig.wigner; assert 'latwig.fano' not in sys.modules, sorted(sys.modules)")


def test_moved_names_stay_importable_from_their_old_modules():
    assert fano.CheckResult is wigner.CheckResult is operators.CheckResult
    assert fano._result is operators._result
    assert fano._scan is wigner._scan is operators._scan
    assert tomography.STATE_STREAM_KEY is operators.STATE_STREAM_KEY


CHECK = operators.CheckResult("projector", False, 0.5, (1, 0, 2))
GRID = wigner.WignerGrid(2, operators.maximally_mixed(2))
LINE = wigner.MarginalDistribution(lattice.SL2Element(1, 0, 0, 1), operators.maximally_mixed(2)[0].real)

# Each package record with the fields of one instance. A record holds its
# fields themselves, so two records built from the same array objects are
# equal, and a record hashes only where every field does.
PACKAGE_RECORDS = [
    (lattice.SL2Element, (1, 2, 0, 1)),
    (fano.CheckResult, CHECK),
    (fano.FanoCoefficients, (2, GRID.values)),
    (wigner.WignerGrid, GRID),
    (wigner.MarginalDistribution, LINE),
    (wigner.LineProjectorReport, (CHECK, 1)),
    (tomography.MarginalDataset, (2, [LINE])),
    (tomography.ReconstructionResult, (GRID, GRID.values)),
]
RECORD_IDS = [cls.__name__ for cls, _ in PACKAGE_RECORDS]


@pytest.mark.parametrize("cls, fields", PACKAGE_RECORDS, ids=RECORD_IDS)
def test_package_records_are_namedtuples(cls, fields):
    [base] = cls.__bases__
    assert base.__bases__ == (tuple,) and base._fields == cls._fields and len(cls._fields) == len(fields)
    assert cls.__slots__ == ()
    assert not hasattr(cls(*fields), "__dict__")
    assert not hasattr(cls, "__dataclass_fields__")


@pytest.mark.parametrize("cls, fields", PACKAGE_RECORDS, ids=RECORD_IDS)
def test_package_records_take_fields_by_position_and_keyword(cls, fields):
    by_keyword = cls(**dict(zip(cls._fields, fields)))
    for record in (cls(*fields), by_keyword, cls(fields[0], **dict(zip(cls._fields[1:], fields[1:])))):
        assert type(record) is cls
        assert all(getattr(record, name) is value for name, value in zip(cls._fields, fields))
        assert all(x is y for x, y in zip(record, fields))


def test_check_result_witness_defaults_to_none():
    passed = fano.CheckResult("c", True, 0.0)
    assert passed.witness is None
    assert passed == fano.CheckResult(name="c", passed=True, max_violation=0.0, witness=None)


@pytest.mark.parametrize("cls, fields", PACKAGE_RECORDS, ids=RECORD_IDS)
def test_package_records_compare_hash_and_print_as_their_fields(cls, fields):
    record = cls(*fields)
    assert record == cls(*fields) == tuple(fields)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(cls._fields, fields))})"
    try:
        want = hash(tuple(fields))
    except TypeError:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == want


@pytest.mark.parametrize("cls, fields", PACKAGE_RECORDS, ids=RECORD_IDS)
def test_package_records_refuse_assignment_deletion_and_new_attributes(cls, fields):
    record = cls(*fields)
    name = cls._fields[0]
    for mutate in (lambda: setattr(record, name, 3), lambda: delattr(record, name), lambda: setattr(record, "z", 3)):
        with pytest.raises(AttributeError):
            mutate()
    assert getattr(record, name) is fields[0]


@pytest.mark.parametrize("cls, fields", PACKAGE_RECORDS, ids=RECORD_IDS)
def test_package_records_replace_and_make_build_records(cls, fields):
    record = cls(*fields)
    for rebuilt in (record._replace(), cls._make(fields), cls._make(iter(fields))):
        assert type(rebuilt) is cls and rebuilt == record


# The three validating records, each with valid fields and a bad value of one of them.
BAD_FIELDS = {
    "SL2Element-determinant": (lattice.SL2Element, (1, -1, 0, 1), {"mu": 5}, "determinant must be exactly 1, got 6"),
    "FanoCoefficients-dimension": (fano.FanoCoefficients, (2, GRID.values), {"n": 2.0}, "lattice dimension"),
    "FanoCoefficients-shape": (fano.FanoCoefficients, (2, GRID.values), {"values": operators.maximally_mixed(3)},
                               "must have shape"),
    "WignerGrid-shape": (wigner.WignerGrid, GRID, {"values": operators.maximally_mixed(3)}, "must have shape"),
}


@pytest.mark.parametrize("cls, fields, bad, message", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_validating_records_refuse_bad_fields_on_every_path(cls, fields, bad, message):
    record = cls(*fields)
    bad_fields = tuple(bad.get(name, value) for name, value in zip(cls._fields, fields))
    for build in (lambda: cls(*bad_fields), lambda: cls(**dict(zip(cls._fields, bad_fields))),
                  lambda: record._replace(**bad), lambda: cls._make(bad_fields)):
        with pytest.raises(ValueError, match=message):
            build()
