"""Start-up: the lazy package and the CLI's one-thread BLAS default.

Each check of what an import does runs in a fresh interpreter, since this
one has numpy and the package loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import latwig
from latwig import cli

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
    out = run_python("import os, latwig.cli; print(len(os.listdir('/proc/self/task')))")
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
