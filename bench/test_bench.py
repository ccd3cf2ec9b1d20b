"""Self-test of the benchmark at tiny sizes (Ising N=4, lattice N=3).

    python3 -m pytest -q bench/test_bench.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the recorded predictions match what the traced runs reach, and that the
correctness gates flag results this file perturbs on purpose.
"""
from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import ssdual as sd  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())["per_layer"]


@pytest.fixture(scope="module")
def tiny():
    """Every workload at tiny size, untraced and traced: {(name, trace): values}."""
    return {
        (name, trace): run.run(name, 3, 0, trace, params=workloads.TINY_PARAMS[name], probes=1)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


def test_every_metric_is_emitted_with_its_unit(tiny):
    for (name, trace), values in tiny.items():
        result = run.result_line(SPEC, values, trace)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, (name, trace)
        assert {k: e["unit"] for k, e in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
        for key, entry in result["metrics"].items():
            assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (name, key)
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values()), name
        json.loads(json.dumps(result))


def test_benchmark_json_matches_the_workloads():
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert set(workloads.TINY_PARAMS) == set(workloads.WORKLOADS)
    for name, params in workloads.TINY_PARAMS.items():
        assert set(params) <= set(workloads.WORKLOADS[name].params)


def test_predictions_match_what_traced_runs_reach(tiny):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(PREDICTIONS) == {m["name"] for m in SPEC["per_layer"]}
    for metric, prediction in PREDICTIONS.items():
        assert prediction["moves"] is None or prediction["moves"] in end_to_end, metric
        assert set(prediction["on"]) <= set(prediction["reached_by"]) <= set(workloads.WORKLOADS), metric
        health = prediction["moves"] is None and not metric.startswith("trace.")
        for name in workloads.WORKLOADS:
            value = run.result_line(SPEC, tiny[(name, True)], True)["metrics"][metric]["value"]
            if name not in prediction["reached_by"]:
                assert value == 0, (metric, name)
            elif not health:
                assert value != 0, (metric, name)


def test_traced_self_times_account_for_the_traced_solve_time(tiny):
    for name in workloads.WORKLOADS:
        values = tiny[(name, True)]
        layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert values["trace.unattributed_s"] >= 0
        assert layers <= values["trace.traced_solve_s"]
        assert 0 < values["trace.overhead_s"] < values["trace.traced_solve_s"]


def test_call_cost_predicts_the_cost_of_traced_calls():
    """A loop of cheap public calls slows under the tracer by about calls times call_cost()."""
    calls, costs = 2_000, []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            sd.default_horizon(1.0)
        plain = time.perf_counter() - start
        with tracing.Tracer("t").installed():
            start = time.perf_counter()
            for _ in range(calls):
                sd.default_horizon(1.0)
            traced = time.perf_counter() - start
        costs.append((traced - plain) / calls)
    cost = tracing.call_cost()
    assert cost > 0
    assert cost / 3 < statistics.median(costs) < 3 * cost


def test_tracer_restores_the_package():
    original = sd.mobius_pair
    tracer = tracing.Tracer("t", memory=True)
    with tracer.installed():
        assert sd.mobius_pair is not original
        sd.build_dual(sd.ising_circle(3, 0.5))
    assert sd.mobius_pair is original and sd.duality.mobius_pair is original
    names = [span.name for span in tracer.spans]
    assert "mobius_pair" in names and names[-1] == "build_dual"
    metrics = tracer.metrics()
    assert metrics["poset.states"] == 8 and metrics["poset.mobius_nnz"] > 8
    assert metrics["poset.mobius_pair_peak_mb"] > 0


def _dual_inputs(P_star=None):
    chain = sd.ising_circle(4, 0.5)
    dual = sd.build_dual(chain)
    if P_star is not None:
        dual = sd.DualChain(chain.poset, P_star, dual.nu_star, dual.absorbing_index)
    link = sd.build_link(chain.poset, chain.pi)
    law = sd.absorption_survival(dual)
    return (*sd.intertwining_residuals(chain, dual, link), sd.verify_sharpness(chain, dual, law.horizon), law.survival)


def _failed(checks):
    return {name for name, ok in checks if not ok}


def test_dual_gate_flags_a_perturbed_dual():
    assert _failed(gates.dual_checks(*_dual_inputs())) == set()
    P = np.array(sd.build_dual(sd.ising_circle(4, 0.5)).P_star)
    big, small = np.argsort(P[0])[::-1][:2]  # move a little mass between two moves out of the bottom state
    P[0, big] -= 1e-6
    P[0, small] += 1e-6
    assert "intertwining_kernel" in _failed(gates.dual_checks(*_dual_inputs(P)))


def test_dual_gate_flags_a_bad_survival_curve():
    kernel, initial, sharpness, survival = _dual_inputs()
    rising = np.array(survival)
    rising[5] = rising[4] + 1e-6
    assert "survival_non_increasing" in _failed(gates.dual_checks(kernel, initial, sharpness, rising))
    assert "survival_in_unit_interval" in _failed(gates.dual_checks(kernel, initial, sharpness, survival * 1.01))
    assert "sharpness" in _failed(gates.dual_checks(kernel, initial, float("nan"), survival))


def test_cli_gate_flags_exit_codes_failed_verify_and_a_wrong_mean():
    codes = {"model_gen": 0, "dual": 0, "verify": 0, "absorb": 0}
    assert _failed(gates.cli_checks(codes, {"passed": True}, 414.0, 414.0)) == set()
    assert _failed(gates.cli_checks({**codes, "dual": 2}, {"passed": True}, 414.0, 414.0)) == {"exit_dual"}
    assert _failed(gates.cli_checks(codes, {"passed": False}, 414.0, 414.0)) == {"verify_passed"}
    assert _failed(gates.cli_checks(codes, {"passed": True}, 414.0 * (1 + 1e-6), 414.0)) == {"absorb_mean"}


def test_a_failed_check_reports_no_timing(monkeypatch):
    monkeypatch.setattr(workloads.IsingDual, "check", lambda self, out: [("forced", False)])
    values = run.run("ising-dual", 1, 0, False, params=workloads.TINY_PARAMS["ising-dual"], probes=1)
    result = run.result_line(SPEC, values, False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert "solve_s" not in result["metrics"]


def test_a_tree_without_the_package_exits_nonzero_without_a_result():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        command = SPEC["command"] + ["--workload", "ising-dual", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
