"""Self-test of the CLI benchmark: metric names, verification, failure accounting.

    python -m pytest clibench/tests -q

Runs every workload briefly in both modes, then shows that a tampered
artifact and a nonzero exit are each counted as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((BENCH / "out" / f"{workload}-s3-t{trace}.json").read_text())
    return line, full


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_end_to_end_metric(workload):
    line, full = bench(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
    assert full["fail_ratio"] == 0.0
    assert full["op_s_tail"] > 0 and 0 < full["op_s_tail_percentile"] <= 100
    assert full["ref_s_p50"] > 0 and full["wall"]["op_s_p50"] > 0
    assert {"nproc", "python", "numpy", "blas_threads", "kernel_backend"} <= set(full["environment"])


# Layers each workload must exercise, so a renamed or bypassed layer shows.
EXERCISED = {
    "audit": ["kernels.covariance_residuals.calls", "fano.derivation_routes.calls",
              "lattice.group_elements", "kernels.index_positions", "fano.full_report.self_s"],
    "transform": ["fano.coefficients_to_position.self_s", "wigner.marginal_along_line.self_s",
                  "wigner.line_projector_check.self_s", "lattice.line_points.calls"],
    "tomo": ["wigner.density_from_wigner.self_s", "tomography.reconstruct_wigner.self_s",
             "tomography.simulate_marginals.self_s"],
    "emit": ["serialize.dumps_json.self_s", "serialize.bytes_written", "cli.command.self_s"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    line, full = bench(workload, 1)
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert full["missing"] == []
    for name in EXERCISED[workload]:
        assert line["metrics"][name]["value"] > 0, name


def _edit(mutate):
    def tamper(path):
        doc = json.loads(Path(path).read_text())
        mutate(doc)
        Path(path).write_text(json.dumps(doc))
    return tamper


def _swap_diagonal(doc):
    grid = doc["re"]
    grid[0][0], grid[1][1] = grid[1][1], grid[0][0]


def _swap_weights(doc):
    w = doc["weights"]
    w[0], w[1] = w[1], w[0]


def _nudge_rho(doc):
    doc["rho_reconstructed"]["re"][0][0] += 1e-6


def _move_counts(doc):
    w = doc["dataset"]["families"][0]["weights"]
    w[0], w[1] = w[0] + 0.01, w[1] - 0.01


# (CLI arguments, check, tamper): small N keeps each op well under a second.
CASES = {
    "check": (("check", "--n", "4"), (workloads.check_audit, 4),
              _edit(lambda d: d.update(group_order=d["group_order"] + 1))),
    "wigner": (("wigner", "--n", "5", "--state", "random", "--seed", "3"),
               (workloads.check_wigner, 5, "random", 3), _edit(_swap_diagonal)),
    "marginal": (("marginal", "--n", "5", "--kappa", "2", "--lambda", "3", "--state", "random", "--seed", "3"),
                 (workloads.check_marginal, 5, "random", 3, 2, 3), _edit(_swap_weights)),
    "tomo-exact": (("tomo", "--n", "5", "--shots", "0", "--seed", "3"),
                   (workloads.check_tomo, 5, 0, 3), _edit(_nudge_rho)),
    "tomo-sampled": (("tomo", "--n", "5", "--shots", "1000", "--seed", "3"),
                     (workloads.check_tomo, 5, 1000, 3), _edit(_move_counts)),
    "fano": (("fano", "--n", "3"), (workloads.check_fano, 3),
             _edit(lambda d: d["coefficients"].pop())),
}


def _op(args, check, tamper=None):
    fn, *bound = check

    def checked(path):
        if tamper is not None:
            tamper(path)
        fn(*bound, path)

    return Op(args, checked)


@pytest.fixture
def spawner():
    with run.Spawner(run.child_env()) as spawner:
        yield spawner


@pytest.mark.parametrize("case", CASES)
def test_tampered_artifact_counts_as_failure(case, spawner, tmp_path):
    args, check, tamper = CASES[case]
    (tmp_path / "spans").mkdir()
    good = run.run_op(_op(args, check), 0, False, spawner, tmp_path)
    bad = run.run_op(_op(args, check, tamper), 1, False, spawner, tmp_path)
    assert good.ok, good.error
    assert bad.rc == 0 and not bad.ok
    _, info = run.end_to_end([good, bad], [(0.1, run.REF_S)])
    assert info["fail_ratio"] == 0.5


def test_nonzero_exit_counts_as_failure(spawner, tmp_path):
    (tmp_path / "spans").mkdir()
    rec = run.run_op(_op(("check", "--n", "0"), (workloads.check_audit, 0)), 0, False,
                     spawner, tmp_path)
    assert rec.rc != 0 and not rec.ok
    metrics, info = run.end_to_end([rec], [(0.1, run.REF_S)])
    assert info["fail_ratio"] == 1.0 and metrics["ops_per_s"] == 0.0


def test_peak_rss_is_the_childs_own(spawner, tmp_path):
    # This process's peak RSS must not become the floor of the child's.
    ballast = np.ones(256 * 2**20 // 8)
    _, rc, maxrss_kb = spawner.run(["-c", "pass"], tmp_path / "err")
    del ballast
    assert rc == 0 and maxrss_kb < 64 * 1024


def test_time_metrics_are_scaled_to_reference_speed():
    # The reference task took twice REF_S around every child: the machine ran
    # at half the reference speed, so every scaled time is half the wall time.
    slow = 2 * run.REF_S
    recs = [run.OpRecord(("check",), False, t, 0, 1000, ref_s=slow) for t in (2.0, 4.0, 6.0)]
    metrics, info = run.end_to_end(recs, [(0.4, slow)])
    assert metrics["op_s_p50"] == pytest.approx(2.0)
    assert metrics["ops_per_s"] == pytest.approx(3 / 6.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert info["wall"]["op_s_p50"] == pytest.approx(4.0)
    assert info["wall"]["setup_s"] == pytest.approx(0.4)
    traced = run.OpRecord(("check",), True, 3.0, 0, 1000, ref_s=slow, trace={
        "self": {"fano.assemble": [0.4, 1]}, "counts": {}, "root_s": 2.0,
        "wrapped": ["fano.assemble"]})
    layers, _ = run.per_layer([recs[0], traced])
    assert layers["fano.assemble.self_s"] == pytest.approx(0.2)
    assert layers["trace.overhead_s"] == pytest.approx((3.0 - 2.0) / 2)
    assert layers["trace.unattributed_s"] == pytest.approx((3.0 - 2.0) / 2)


def test_tracer_wraps_the_names_callers_resolve(tmp_path):
    def spans_of(*args):
        out = tmp_path / "spans.json"
        subprocess.run([sys.executable, str(run.TRACER), str(out), "0", "--", *args,
                        "--out", str(tmp_path / "artifact.json")],
                       env=run.child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120)
        doc = json.loads(out.read_text())
        names = [s[0] for s in doc["spans"]]
        return doc, {(n, names[p] if p >= 0 else None) for n, _, _, p in doc["spans"]}

    doc, edges = spans_of("check", "--n", "3")
    # fano imported sl2_enumerate by name; its binding must be the wrapped one.
    assert ("lattice.sl2_enumerate", "fano.check_covariance_group") in edges
    assert ("cli.cmd_check", "cli.main") in edges
    assert doc["counts"]["lattice.group_elements"] == 2 * 24  # |SL(2, Z_3)|, enumerated twice
    _, edges = spans_of("tomo", "--n", "3")
    assert ("wigner.wigner_from_density", "tomography.simulate_marginals") in edges


def test_removed_layer_is_reported_missing():
    rec = run.OpRecord(("check",), True, 1.0, 0, 1000, trace={
        "self": {"fano.assemble": [0.2, 1], "cli.cmd_check": [0.1, 1]},
        "counts": {}, "root_s": 0.5, "wrapped": ["fano.assemble", "cli.cmd_check"]})
    base = run.OpRecord(("check",), False, 0.9, 0, 1000)
    metrics, info = run.per_layer([base, rec])
    assert set(metrics) == set(run.PER_LAYER) | set(run.TRACE_METRICS)
    assert "kernels.covariance_residuals.self_s" in info["missing"]
    assert metrics["kernels.covariance_residuals.self_s"] == 0.0
    assert metrics["fano.assemble.self_s"] == pytest.approx(0.2)
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)
    assert metrics["trace.unattributed_s"] == pytest.approx(0.5)
