import errno
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from latwig import cli, fano, lattice, serialize, wigner
from latwig.cli import main
from latwig.serialize import format_float
from oracles import assemble_dense, reference_parser, sl2_enumerate


def run(tmp_path, *argv):
    return main(list(argv))


def test_fano_writes_full_coefficient_table(tmp_path):
    out = tmp_path / "fano3.json"
    assert main(["fano", "--n", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["candidate"] is False
    assert len(doc["coefficients"]) == 81
    assert len(doc["operators"]) == 9
    assert doc["phase_convention"] == "exp(2*pi*i*x/N)"


def test_fano_flags_even_candidate(tmp_path):
    out = tmp_path / "fano4.json"
    assert main(["fano", "--n", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["candidate"] is True


def test_fano_trivial_dimension(tmp_path):
    out = tmp_path / "fano1.json"
    assert main(["fano", "--n", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["operators"]) == 1
    assert doc["operators"][0]["re"] == [[1.0]]
    assert doc["operators"][0]["im"] == [[0.0]]


@pytest.mark.parametrize("n", [1, 2, 4, 16, 17, 21])
def test_fano_operators_expand_to_the_dense_table_operators(tmp_path, n):
    """The artifact's operators, written from the closed form, against the FFTs of the dense N^4 table."""
    out = tmp_path / f"fano{n}.json"
    assert main(["fano", "--n", str(n), "--out", str(out)]) == 0
    records = json.loads(out.read_text())["operators"]
    ops = np.array([np.array(r["re"]) + 1j * np.array(r["im"]) for r in records]).reshape(n, n, n, n)
    assert [(r["q"], r["p"]) for r in records] == [(q, p) for q in range(n) for p in range(n)]
    assert np.abs(ops - assemble_dense(fano.coefficients_candidate(n)).operators).max() < 1e-15



# Runs `fano` in a child interpreter in which every import of numpy fails.
FANO_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from latwig import cli
assert cli.main(["fano", "--n", sys.argv[1], "--out", sys.argv[2]]) == 0
"""


@pytest.mark.parametrize("n", [20, 21])
def test_a_fano_run_needs_no_numpy(tmp_path, n):
    """`fano` renders its N^4 coefficients and N^2 operators from plain-Python phases: a run in
    which `import numpy` fails writes the same artifact as one in this process."""
    out, expected = tmp_path / "fano.json", tmp_path / "expected.json"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", FANO_WITHOUT_NUMPY, str(n), str(out)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert main(["fano", "--n", str(n), "--out", str(expected)]) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_check_odd_passes_with_exit_zero(tmp_path):
    out = tmp_path / "check5.json"
    assert main(["check", "--n", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["matches_prediction"] is True
    assert doc["infeasibility_witness"] is None
    assert all(entry["pass"] for entry in doc["checks"].values())


def test_check_even_witnesses_infeasibility_with_exit_zero(tmp_path):
    out = tmp_path / "check4.json"
    assert main(["check", "--n", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["parity"] == "even"
    assert doc["expected"] == "infeasible"
    assert doc["matches_prediction"] is True
    witness = doc["infeasibility_witness"]
    assert witness["check"] in {"hermiticity", "coeff_hermiticity", "covariance", "route_consistency"}
    assert witness["witness"] is not None


def test_check_tolerance_propagates_to_metadata(tmp_path):
    out = tmp_path / "check3.json"
    main(["check", "--n", "3", "--tolerance", "1e-15", "--out", str(out)])
    assert json.loads(out.read_text())["tolerance"] == 1e-15


def test_wigner_mixed_state_uniform_grid(tmp_path):
    out = tmp_path / "w.json"
    assert main(["wigner", "--n", "3", "--state", "mixed", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    grid = np.array(doc["re"])
    assert np.abs(grid - 1 / 9).max() < 1e-12
    assert doc["im"] is None
    assert doc["position_marginal"] == pytest.approx([1 / 3] * 3)


def test_wigner_basis_state_grid(tmp_path):
    out = tmp_path / "w0.json"
    assert main(["wigner", "--n", "3", "--state", "basis:0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    grid = np.array(doc["re"])
    assert grid[0] == pytest.approx([1 / 3] * 3)
    assert np.abs(grid[1:]).max() < 1e-12
    assert doc["position_marginal"][0] == pytest.approx(1.0)


def test_wigner_momentum_state_grid(tmp_path):
    out = tmp_path / "wm.json"
    assert main(["wigner", "--n", "3", "--state", "momentum:2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    grid = np.array(doc["re"])
    assert grid[:, 2] == pytest.approx([1 / 3] * 3)  # column p = 2 carries the state
    assert np.abs(grid[:, :2]).max() < 1e-12
    assert doc["momentum_marginal"][2] == pytest.approx(1.0)


def test_wigner_random_state_normalized(tmp_path):
    out = tmp_path / "wr.json"
    assert main(["wigner", "--n", "5", "--state", "random", "--seed", "42", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(np.array(doc["re"]).sum() - 1.0) < 1e-10


def test_wigner_rejects_even_dimension(tmp_path, capsys):
    out = tmp_path / "we.json"
    assert main(["wigner", "--n", "4", "--out", str(out)]) == 2
    assert "even" in capsys.readouterr().err
    assert not out.exists()


def test_wigner_csv_format(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--n", "3", "--state", "basis:1", "--format", "csv", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    grid = np.array([[float(x) for x in row] for row in rows])
    assert grid.shape == (3, 3)
    assert grid[1] == pytest.approx([1 / 3] * 3)
    marg = (tmp_path / "w_marginal_q.csv").read_text().splitlines()
    assert marg[0] == "p0,weight"
    assert len(marg) == 4


def test_wigner_csv_companions_stay_in_a_dotted_directory(tmp_path):
    """The companion tag goes before the file's extension, not before the
    last dot of the whole path."""
    (tmp_path / "out.d").mkdir()
    out = tmp_path / "out.d" / "grid"
    assert main(["wigner", "--n", "3", "--format", "csv", "--out", str(out)]) == 0
    assert sorted(os.listdir(tmp_path / "out.d")) == ["grid", "grid_marginal_p", "grid_marginal_q"]
    assert os.listdir(tmp_path) == ["out.d"]


@pytest.mark.parametrize("tag", ["imag", "marginal_q", "marginal_p"])
def test_wigner_csv_companion_that_is_a_directory_is_a_usage_error(tmp_path, capsys, tag):
    """Every companion the run may write (imag only above --tolerance) is
    checked like --out, before any file is written."""
    (tmp_path / f"w_{tag}.csv").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--n", "3", "--format", "csv", "--tolerance", "0",
              "--out", str(tmp_path / "w.csv")])
    assert exc.value.code == 2
    assert f"w_{tag}.csv, written next to --out, is a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [f"w_{tag}.csv"]
    assert os.listdir(tmp_path / f"w_{tag}.csv") == []


def test_wigner_csv_companion_name_too_long_is_a_usage_error_before_any_work(tmp_path, capsys):
    """A 250-byte --out is a legal name, but its `_marginal_q` companion
    (261 bytes) is not: the run exits 2 before it writes the grid."""
    out = tmp_path / ("g" * 250)
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--n", "5", "--format", "csv", "--out", str(out)])
    assert exc.value.code == 2
    assert f"{out}_marginal_q, written next to --out, has too long a name" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_wigner_csv_companion_names_up_to_name_max_are_written(tmp_path):
    """`_marginal_q` and `_marginal_p` after a 244-byte --out end at 255 bytes."""
    out = tmp_path / ("g" * 244)
    assert main(["wigner", "--n", "3", "--format", "csv", "--out", str(out)]) == 0
    assert sorted(os.listdir(tmp_path)) == [out.name, out.name + "_marginal_p", out.name + "_marginal_q"]


def test_wigner_bad_state_spec(tmp_path, capsys):
    assert main(["wigner", "--n", "3", "--state", "nope", "--out", str(tmp_path / "x.json")]) == 2
    assert "state spec" in capsys.readouterr().err
    assert main(["wigner", "--n", "3", "--state", "basis:7", "--out", str(tmp_path / "x.json")]) == 2


def test_marginal_momentum_direction_of_basis_state(tmp_path):
    out = tmp_path / "m.json"
    assert main(["marginal", "--n", "3", "--kappa", "1", "--lambda", "0",
                 "--state", "basis:0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["weights"] == pytest.approx([1 / 3] * 3)
    assert doc["projector_check"]["pass"] is True


def test_marginal_position_direction_of_basis_state(tmp_path):
    out = tmp_path / "m2.json"
    assert main(["marginal", "--n", "3", "--kappa", "0", "--lambda", "1",
                 "--state", "basis:0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["weights"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_marginal_tilted_direction_of_mixed_state(tmp_path):
    out = tmp_path / "m3.json"
    assert main(["marginal", "--n", "5", "--kappa", "1", "--lambda", "2",
                 "--state", "mixed", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["weights"] == pytest.approx([1 / 5] * 5)
    assert (doc["kappa"], doc["lambda"]) == (1, 2)


def test_marginal_where_sites_of_a_line_share_entries(tmp_path):
    """gcd(5, 15) = 5 sites of each line share every nonzero entry they touch."""
    out = tmp_path / "m15.json"
    assert main(["marginal", "--n", "15", "--kappa", "5", "--lambda", "2",
                 "--state", "random", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["projector_check"]["pass"] is True
    assert doc["projector_check"]["eigenvalue_multiplicity"] == 1
    assert doc["projector_check"]["max_violation"] < 1e-12
    assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-12)


def test_marginal_csv_format(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["marginal", "--n", "3", "--kappa", "1", "--lambda", "1",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p0,weight"
    assert len(lines) == 4


def test_marginal_rejects_noncoprime_direction(tmp_path):
    assert main(["marginal", "--n", "9", "--kappa", "3", "--lambda", "6",
                 "--out", str(tmp_path / "bad.json")]) == 2


def test_tomo_exact_round_trip(tmp_path):
    out = tmp_path / "t.json"
    assert main(["tomo", "--n", "3", "--shots", "0", "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["fidelity_error"] < 1e-10
    assert len(doc["dataset"]["families"]) == 4
    assert doc["wigner"]["im"] is None


def test_tomo_sampled(tmp_path):
    out = tmp_path / "ts.json"
    assert main(["tomo", "--n", "5", "--shots", "100000", "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0 < doc["fidelity_error"] < 5e-2


def test_tomo_rejects_even_and_composite(tmp_path):
    assert main(["tomo", "--n", "4", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["tomo", "--n", "9", "--out", str(tmp_path / "y.json")]) == 2


def _key_paths(obj, path=""):
    """The key paths of a JSON document in order: ``a.b`` for a key of a nested
    object, ``a[].b`` for one of a list's first object, ``=null`` after a null."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _key_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        yield from _key_paths(obj[0], path + "[]")
    else:
        yield path + "=null" if obj is None else path


AUDIT_CHECKS = ("marginal_q", "marginal_p", "coeff_axis_s", "coeff_axis_t", "hermiticity", "coeff_hermiticity",
                "orthogonality_site", "orthogonality_index", "covariance", "route_consistency",
                "derived_matches_construction", "derived_hermiticity", "derived_orthogonality")
FAMILY_KEYS = ("kappa", "lambda", "mu", "nu", "weights")


def _check_layout(witnessed):
    """The key paths of a `check` report whose checks in `witnessed` name a witness."""
    checks = [f"checks.{name}.{key}" for name in AUDIT_CHECKS
              for key in ("pass", "max_violation", "witness" if name in witnessed else "witness=null")]
    head = ["n", "tolerance", "phase_convention", *checks, "parity", "expected", "matches_prediction",
            "group_order", "lifts_per_element"]
    if not witnessed:
        return [*head, "infeasibility_witness=null"]
    return [*head, *(f"infeasibility_witness.{key}" for key in ("check", "pass", "max_violation", "witness"))]


ARTIFACT_LAYOUTS = [
    (["fano", "--n", "2"], 0, ["n", "candidate", "phase_convention",
                               *(f"coefficients[].{key}" for key in ("s", "t", "n", "m", "re", "im")),
                               *(f"operators[].{key}" for key in ("q", "p", "re", "im"))]),
    (["check", "--n", "2"], 0, _check_layout({"covariance", "route_consistency"})),
    (["check", "--n", "3"], 0, _check_layout(set())),
    (["wigner", "--n", "5"], 0, ["n", "re", "im=null", "state", "seed", "position_marginal", "momentum_marginal"]),
    (["wigner", "--n", "5", "--state", "random", "--tolerance", "0"], 1,
     ["n", "re", "im", "state", "seed", "position_marginal", "momentum_marginal"]),
    (["marginal", "--n", "5", "--kappa", "1", "--lambda", "2"], 0,
     ["n", *FAMILY_KEYS, "state", "seed",
      *(f"projector_check.{key}" for key in ("pass", "max_violation", "eigenvalue_multiplicity"))]),
    (["tomo", "--n", "5"], 0,
     ["n", "shots", "seed", "fidelity_error", "dataset.n", "dataset.shots", "dataset.seed",
      *(f"dataset.families[].{key}" for key in FAMILY_KEYS), "wigner.n", "wigner.re", "wigner.im=null",
      "rho_true.re", "rho_true.im", "rho_reconstructed.re", "rho_reconstructed.im"]),
]


@pytest.mark.parametrize("argv, code, paths", ARTIFACT_LAYOUTS,
                         ids=["fano", "check2", "check3", "wigner", "wigner_im", "marginal", "tomo"])
def test_each_artifact_keeps_its_key_layout(tmp_path, argv, code, paths):
    out = tmp_path / "a.json"
    assert main([*argv, "--out", str(out)]) == code
    assert list(_key_paths(json.loads(out.read_text()))) == paths


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


# Command lines read by the option table and by the argparse parser it
# replaced: every subcommand, --opt=value, prefixes, repeated options,
# negative values, and usage errors and help at both levels.
PARSE_CORPUS = [
    ["fano", "--n", "3"],
    ["check", "--n", "7", "--tolerance", "1e-8", "--out", "c.json"],
    ["wigner", "--n", "5", "--format", "csv", "--state", "random", "--seed", "4"],
    ["marginal", "--n", "5", "--kappa", "1", "--lambda", "2", "--state", "basis:1"],
    ["tomo", "--n", "5", "--shots", "100", "--seed", "3"],
    ["check", "--n=9", "--out=x=y.json", "--tolerance=0.5"],
    ["marginal", "--n=5", "--kappa=-2", "--lambda=3", "--format=csv"],
    ["check", "--tolerance", "inf", "--n", "3"],
    ["fano", "--out", "-", "--n", "3"],
    ["check", "--n", "3", "--out", "a file.json"],
    ["fano", "--n", "3", "--out", "-a b.json"],
    ["check", "--n", "3", "--tol", "1e-3"],
    ["wigner", "--n", "3", "--form", "csv", "--st", "basis:1", "--se", "2"],
    ["marginal", "--n", "3", "--k", "1", "--la", "2", "--tol=0"],
    ["tomo", "--n", "3", "--sh", "5", "--o", "t.json"],
    ["check", "--n", "3", "--n", "5"],
    ["wigner", "--n", "3", "--format", "csv", "--format", "json", "--seed", "1", "--seed=2"],
    ["marginal", "--n", "5", "--kappa", "-1", "--lambda", "-3"],
    ["check", "--n", "-3"],
    ["tomo", "--n", "5", "--seed", "-1", "--shots", "-5"],
    ["check", "--n", "3", "--tolerance", "-.5"],
    ["check", "--n", "3", "--tolerance", "-0.5"],
    ["check"],
    ["check", "--out", "c.json"],
    ["marginal", "--n", "3", "--kappa", "1"],
    ["check", "--n", "x"],
    ["check", "--n", "3.0"],
    ["check", "--n="],
    ["tomo", "--n", "3", "--shots", "1e3"],
    ["check", "--n", "3", "--tolerance", "abc"],
    ["wigner", "--n", "3", "--format", "xml"],
    ["wigner", "--n", "3", "--format=JSON"],
    ["check", "--n", "3", "--frobnicate"],
    ["check", "--n", "3", "--frobnicate", "4"],
    ["check", "--n", "3", "extra"],
    ["check", "--n", "3", "--format", "csv"],
    ["wigner", "--n", "3", "--s", "1"],
    ["check", "--n"],
    ["check", "--out", "--n", "3"],
    ["fano", "--n", "3", "--out", "--tol"],
    ["fano", "--n", "3", "--tolerance", "7"],
    ["marginal", "--n", "3", "--lambda", "1", "--kappa", "-x"],
    ["unknown-command"],
    ["--n", "3", "check"],
    ["--frobnicate", "check", "--n", "3"],
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["check", "-h"],
    ["marginal", "--help"],
    ["tomo", "--n", "3", "--h"],
    ["wigner", "--help", "--n", "x"],
]


def _reference_parse(argv):
    try:
        values = vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code, None
    return 0, {"lambda" if key == "lam" else key: value for key, value in values.items()}


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_the_option_table_reads_what_the_argparse_parser_read(argv, capsys):
    """Same option values and the same exit code; usage errors print a usage and an error line."""
    want = _reference_parse(argv)
    capsys.readouterr()
    try:
        got = 0, vars(cli.parse_args(argv))
    except SystemExit as exc:
        got = exc.code, None
    assert got == want
    out, err = capsys.readouterr()
    if got[0] == 2:
        usage, error = err.splitlines()
        assert usage.startswith("usage: latwig")
        assert error.startswith(("latwig: error: ", f"latwig {argv[0] if argv else ''}: error: "))
        assert out == ""
    elif got[1] is None:
        assert out.startswith("usage: latwig") and err == ""


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_lists_the_table(command, capsys):
    """The help of the command line names every subcommand and its help line; a
    subcommand's names every option, its default or that it is required."""
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--help"] if command is None else [command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if command is None:
        assert all(f"  {name} " in out and line in out for name, (line, _) in cli.COMMANDS.items())
        return
    line, options = cli.COMMANDS[command]
    assert line in out
    for flag, (_, default) in options.items():
        assert f"{flag} " in out.splitlines()[0]
        assert any(f"  {flag} " in row and ("required" if default is None else f"default: {default}") in row
                   for row in out.splitlines())


def test_negative_numbers_in_exponent_form_are_values(capsys):
    """argparse took only -1, -1.5 and -.5 as negative numbers; the table takes any
    token of a minus and a digit or point, so that main refuses the value itself."""
    assert cli.parse_args(["check", "--n", "3", "--tolerance", "-1e-3"]).tolerance == -1e-3
    with pytest.raises(SystemExit) as exc:
        main(["check", "--n", "3", "--tolerance", "-1e-3", "--out", "unused.json"])
    assert exc.value.code == 2
    assert "--tolerance must be finite and >= 0, got -0.001" in capsys.readouterr().err


def test_main_runs_the_cmd_function_bound_when_it_runs(tmp_path, monkeypatch):
    """The table names no function: main looks up cmd_<subcommand> in the module when it
    runs, so a wrapper bound in its place (the benchmark's tracer) is what runs."""
    seen = []

    def patched(args):
        seen.append((args.command, args.n))
        return 0

    monkeypatch.setattr(cli, "cmd_check", patched)
    out = tmp_path / "c.json"
    assert main(["check", "--n", "3", "--out", str(out)]) == 0
    assert seen == [("check", 3)]
    assert not out.exists()


def test_nonpositive_dimension_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["fano", "--n", "0", "--out", "zzz.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fano", "--n", "3"],
        ["check", "--n", "3"],
        ["wigner", "--n", "3", "--format", "csv"],
        ["marginal", "--n", "3", "--kappa", "1", "--lambda", "1"],
        ["tomo", "--n", "3"],
    ],
)
def test_unusable_out_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys, argv):
    """An --out in a directory that does not exist, or naming a directory
    (the empty path names the working directory)."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(serialize, "support_records", no_work)
    monkeypatch.setattr(serialize, "operator_records", no_work)
    monkeypatch.setattr(fano, "full_report", no_work)
    monkeypatch.setattr(wigner, "wigner_from_density", no_work)
    for out in (tmp_path / "missing" / "x.json", tmp_path, ""):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"--out {out} must name a file in an existing directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kind", ["symlink", "fifo"])
@pytest.mark.parametrize("argv, name", [
    (["fano", "--n", "3"], "a.json"),
    (["check", "--n", "3"], "a.json"),
    (["wigner", "--n", "3"], "a.json"),
    (["marginal", "--n", "3", "--kappa", "1", "--lambda", "1"], "a.json"),
    (["tomo", "--n", "3"], "a.json"),
    *((["wigner", "--n", "3", "--format", "csv"], f"a_{tag}.json") for tag in ("imag", "marginal_q", "marginal_p")),
], ids=["fano", "check", "wigner", "marginal", "tomo", "imag", "marginal_q", "marginal_p"])
def test_an_out_that_is_not_a_regular_file_is_refused_and_left_in_place(tmp_path, monkeypatch, capsys, argv, name,
                                                                        kind):
    """Renaming the artifact onto a symlink or a FIFO, --out or a CSV companion,
    would replace it, as it would replace the symlink /dev/stdout for a run as root."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for module, attr in ((fano, "coefficients_candidate"), (fano, "full_report"), (cli, "parse_state")):
        monkeypatch.setattr(module, attr, no_work)
    target, path = tmp_path / "target", tmp_path / name
    target.write_text("kept\n")
    if kind == "symlink":
        path.symlink_to(target)
    else:
        os.mkfifo(path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "a.json")])
    assert exc.value.code == 2
    assert f"{path} exists and is not a regular file" in capsys.readouterr().err
    assert path.is_symlink() if kind == "symlink" else stat.S_ISFIFO(os.lstat(path).st_mode)
    assert target.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == sorted([name, "target"])


def test_float_serialization_is_17_digit_round_trip_exact(tmp_path):
    out = tmp_path / "f.json"
    main(["fano", "--n", "3", "--out", str(out)])
    text = out.read_text()
    assert format_float(1 / 9) in text
    # 17 significant digits (trailing zeros trimmed) round-trip every double
    assert format_float(2 / 3) == "0.66666666666666663"
    for x in (1 / 9, 2 / 3, 0.1, 1e-300, 123456.789):
        assert float(format_float(x)) == x


@pytest.mark.parametrize(
    "argv",
    [
        ["fano", "--n", "3"],
        ["check", "--n", "4"],
        ["wigner", "--n", "5", "--state", "random", "--seed", "42"],
        ["marginal", "--n", "3", "--kappa", "1", "--lambda", "1", "--state", "random", "--seed", "9"],
        ["tomo", "--n", "3", "--shots", "50000", "--seed", "7"],
    ],
)
def test_repeated_runs_are_byte_identical(tmp_path, argv):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_above_audit_bound_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """Above CHECK_MAX_N the run exits 2 before the audit starts, and no
    option raises the limit: `--audit-bound` is an unknown argument."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started above the check limit")

    monkeypatch.setattr(fano, "full_report", no_work)
    out = tmp_path / "c.json"
    n = cli.CHECK_MAX_N + 1
    assert main(["check", "--n", str(n), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--n {n} exceeds {cli.CHECK_MAX_N}" in err
    assert "internal" not in err
    with pytest.raises(SystemExit) as exc:
        main(["check", "--n", "3", "--audit-bound", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "--audit-bound" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--n", str(n)] for n in range(1, 11)])
def test_check_reports_the_group_it_audited(tmp_path, argv):
    out = tmp_path / "c.json"
    assert main(["check", *argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["group_order"] == len(sl2_enumerate(doc["n"]))
    assert doc["lifts_per_element"] == (1 if doc["n"] % 2 else 8)


def test_check_covariance_is_decided_on_the_generators_and_reports_the_whole_group(tmp_path):
    """At N = 4 covariance fails first at S = (0, 1, -1, 0), whose entries
    end the witness; at N = 9 the group fields count SL(2, Z_9) with one
    lift class per element, the classes the reference route scan runs, and
    at N = 8 the eight classes mod 16 above each element of SL(2, Z_8)."""
    out = tmp_path / "c.json"
    assert main(["check", "--n", "4", "--out", str(out)]) == 0
    cov = json.loads(out.read_text())["checks"]["covariance"]
    assert not cov["pass"]
    assert cov["witness"][4:] == [0, 1, -1, 0]
    assert main(["check", "--n", "9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["checks"]["covariance"]["pass"]
    assert (doc["group_order"], doc["lifts_per_element"]) == (648, 1)
    assert main(["check", "--n", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["group_order"], doc["lifts_per_element"]) == (384, 8)


def test_marginal_above_its_limit_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started above the marginal limit")

    monkeypatch.setattr(cli, "parse_state", no_work)
    monkeypatch.setattr(wigner, "_line_blocks", no_work)
    out = tmp_path / "m.json"
    n = cli.MARGINAL_MAX_N + 2
    assert main(["marginal", "--n", str(n), "--kappa", "1", "--lambda", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--n {n} exceeds {cli.MARGINAL_MAX_N}" in err
    assert "internal" not in err
    assert not out.exists()


class _WorkStarted(Exception):
    pass


@pytest.mark.parametrize("command, limit", [("fano", "FANO_MAX_N"), ("check", "CHECK_MAX_N"),
                                            ("wigner", "WIGNER_MAX_N"), ("tomo", "TOMO_MAX_N")])
def test_size_limits_admit_their_n_and_refuse_larger_before_any_work(tmp_path, monkeypatch, capsys,
                                                                      command, limit):
    """The first step of each subcommand's work is stubbed to raise: at the
    limit it is reached, above it the run exits 2 first (tomo also before
    its primality test), so nothing large is allocated."""
    def work(*args, **kwargs):
        raise _WorkStarted

    for module, name in ((serialize, "support_records"), (fano, "coefficients_candidate"), (cli, "parse_state"),
                         (lattice, "is_prime")):
        monkeypatch.setattr(module, name, work)
    out = tmp_path / "a.json"
    n = getattr(cli, limit)
    with pytest.raises(_WorkStarted):
        main([command, "--n", str(n), "--out", str(out)])
    for above in (n + 2, 10**30 + 1):
        assert main([command, "--n", str(above), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--n {above} exceeds {n}" in err
        assert "internal" not in err
    assert not out.exists()


def test_check_at_n_eleven_passes_every_check(tmp_path, capsys):
    out = tmp_path / "check11.json"
    assert main(["check", "--n", "11", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["matches_prediction"] is True
    assert all(entry["pass"] for entry in doc["checks"].values())
    capsys.readouterr()


def test_check_tolerance_above_the_even_residuals_contradicts_the_dichotomy(tmp_path, capsys):
    """At N = 10 the structural residuals are 1/N (operator hermiticity) and
    2/N^2 (covariance, route spreads). A tolerance above all of them passes
    every check, so none can witness infeasibility and the run exits 1."""
    out = tmp_path / "c.json"
    assert main(["check", "--n", "10", "--tolerance", "0.5", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["matches_prediction"] is False
    assert doc["infeasibility_witness"] is None
    assert all(c["pass"] for c in doc["checks"].values())
    assert "CONTRADICTS" in capsys.readouterr().out


def test_negative_shots_and_seed_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["tomo", "--n", "3", "--shots", "-1", "--out", str(out)]) == 2
    assert "--shots" in capsys.readouterr().err
    assert main(["tomo", "--n", "3", "--seed", "-1", "--out", str(out)]) == 2
    assert main(["wigner", "--n", "3", "--state", "random", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_shots_beyond_int64_are_a_usage_error(tmp_path, capsys):
    out = tmp_path / "t.json"
    for shots in (2**63, 99999999999999999999):
        assert main(["tomo", "--n", "3", "--shots", str(shots), "--out", str(out)]) == 2
        assert "--shots must be at most 2^63 - 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["tomo", "--n", "3", "--shots", str(2**63 - 1), "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--n", "2", "--tolerance", "nan"],
        ["check", "--n", "3", "--tolerance", "-1"],
        ["wigner", "--n", "3", "--tolerance", "nan"],
        ["tomo", "--n", "3", "--tolerance", "inf"],
        ["marginal", "--n", "3", "--kappa", "1", "--lambda", "1", "--tolerance", "-1"],
        ["check", "--n", "2", "--tolerance=-inf"],
    ],
)
def test_non_finite_or_negative_tolerance_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_zero_tolerance_is_accepted(tmp_path):
    argv = ["marginal", "--n", "23", "--kappa", "2", "--lambda", "3", "--tolerance", "0"]
    assert main(argv + ["--out", str(tmp_path / "m.json")]) == 0


def test_internal_value_error_exits_three(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("no second lift found")

    monkeypatch.setattr(fano, "full_report", broken)
    assert main(["check", "--n", "3", "--out", str(tmp_path / "c.json")]) == 3
    assert "internal error: no second lift found" in capsys.readouterr().err



def test_an_out_name_of_250_characters_is_written(tmp_path, capsys):
    """The temp file's name is bounded: mkstemp's 8 characters and `.tmp`
    around a 250-byte name would pass NAME_MAX (255) if it were not."""
    name = "b" * 245 + ".json"
    assert main(["check", "--n", "3", "--out", str(tmp_path / name)]) == 0
    assert os.listdir(tmp_path) == [name]
    assert json.loads((tmp_path / name).read_text())["n"] == 3
    capsys.readouterr()


def test_an_artifact_that_cannot_be_written_exits_two_and_leaves_no_temp_file(tmp_path, capsys):
    """A 300-character name passes NAME_MAX even for root; exit 1 would read as a verdict."""
    out = tmp_path / ("c" * 295 + ".json")
    assert main(["check", "--n", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_a_failed_print_propagates_and_is_not_reported_as_the_artifact(tmp_path, monkeypatch):
    """main reports only the artifact's OSError, which names its file; a
    failed print to stdout is left to the entry point, `cli.run`."""
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    out = tmp_path / "c.json"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["check", "--n", "3", "--out", str(out)])
    assert json.loads(out.read_text())["n"] == 3
