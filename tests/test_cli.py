import errno
import json
import os
import sys

import numpy as np
import pytest

from latwig import cli, fano, operators, serialize, tomography, wigner
from latwig.cli import main
from latwig.serialize import format_float
from oracles import assemble_dense, sl2_enumerate


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



class _ArraySizes:
    """numpy as a module sees it, recording the size of every array a numpy function takes or returns."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            result = attr(*args, **kwargs)
            for a in (*args, *kwargs.values(), *(result if isinstance(result, tuple) else (result,))):
                if isinstance(a, np.ndarray):
                    self.sizes.append(a.size)
            return result

        return call


@pytest.mark.parametrize("n", [20, 21])
def test_a_fano_run_builds_no_n4_array(tmp_path, monkeypatch, n):
    """No numpy call of `fano`, `serialize` or `operators` in a `fano` run takes or returns an
    array of N^4 elements: the operators reach the writer as a few values and a block of codes
    at a time, never as their tensor."""
    numpy = _ArraySizes()
    for module in (fano, serialize, operators):
        monkeypatch.setattr(module, "np", numpy)
    out = tmp_path / "fano.json"
    assert main(["fano", "--n", str(n), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["operators"]) == n * n
    assert numpy.sizes and max(numpy.sizes) < n**4

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


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


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

    monkeypatch.setattr(fano, "candidate_operator_codes", no_work)
    monkeypatch.setattr(fano, "full_report", no_work)
    monkeypatch.setattr(wigner, "wigner_from_density", no_work)
    for out in (tmp_path / "missing" / "x.json", tmp_path, ""):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"--out {out} must name a file in an existing directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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

    for module, name in ((fano, "coefficients_candidate"), (cli, "parse_state"), (tomography, "is_prime")):
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
        ["fano", "--n", "2", "--tolerance=-inf"],
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
    assert main(["fano", "--n", "2", "--tolerance", "0", "--out", str(tmp_path / "f.json")]) == 0


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
