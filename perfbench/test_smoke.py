"""Smoke tests of the benchmark itself, on a few ops per workload.

    python3 -m pytest perfbench/test_smoke.py

They check the output contract (every metric printed by name with its
unit, no failed op), that BENCHMARK.json and run.py name the same metrics,
that a missing call site is reported as absent, that recursive calls are
counted once, and that the benchmark refuses to run without the package
sources.

Nystrom eigenvalues change in their last bits with the BLAS thread count,
so on a multi-core machine spectral_l2 reports those ops as failed (while
``correct`` stays true); its smoke test accepts exactly those failures and
no other.
"""
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracer

ROOT = run.ROOT
SMOKE_OPS = 4


def _bench(tmp_root, workload, trace, ops=SMOKE_OPS):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--ops", str(ops)]
    return subprocess.run(cmd, cwd=tmp_root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_what_run_prints(spec):
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _u in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _n, u in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: u for n, (u, _s, _w) in run.LAYER_METRICS.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_metric(workload, spec):
    res = _bench(ROOT, workload, 0)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1
    failed = [line for line in lines if line.startswith("# FAILED")]
    assert len(failed) == out["failed"]
    if workload == "spectral_l2":
        assert all("with the BLAS thread count alone" in line for line in failed)
    else:
        assert out["failed"] == 0
        assert "# ops_failed_frac 0 ratio" in res.stdout
    for m in spec["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(f"# {m['name']} ") and f" {m['unit']}" in line for line in lines)
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_reports_every_layer(spec):
    # a whole cycle, so that every site the workload is built for is entered
    res = _bench(ROOT, "mc_curves", 1, ops=0)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert "ABSENT" not in res.stdout
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert out["metrics"]["processes.sample.elems"]["value"] > 0


def test_missing_call_site_is_absent_not_zero():
    t = tracer.Tracer()
    fake = types.ModuleType("smallball.estimation")
    t.wrap(fake, "_gaussian_chunk", "processes.sample")
    assert t.missing == ["smallball.estimation._gaussian_chunk"]
    values = dict.fromkeys(run.LAYER_METRICS, 1.0)
    absent = run.absent_reasons("mc_curves", values, set(t.missing))
    assert "processes.sample.elems" in absent
    assert "smallball.estimation._gaussian_chunk" in absent["processes.sample.elems"]
    values["processes.cholesky.calls"] = 0
    absent = run.absent_reasons("mc_curves", values, set())
    assert absent == {"processes.cholesky.calls": "call site never entered: "
                      "smallball.processes.np.linalg.cholesky"}


def test_recursive_call_is_one_span():
    t = tracer.Tracer()
    mod = types.ModuleType("fake")
    mod.f = lambda n: n if n == 0 else mod.f(n - 1) + 1
    t.wrap(mod, "f", "fake.f", outermost=True)
    assert t.span("op", mod.f, (3,), {}) == 3
    t.uninstall()
    assert t.layer_totals()["fake.f"]["calls"] == 1


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([1.0] * 5 + [2.0]) == (2.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench(tmp_path, "mc_curves", 0)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
