"""The benchmark's own tests: every check can fail, the layer map holds.

Run from the repository root:  python3 -m pytest perfbench -q
Each test drives perfbench/run.py in a subprocess with a tiny --seconds,
so every run is one repetition (two, untraced then traced, with --trace 1).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def one_run(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", str(trace), *extra)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in run.WORKLOADS:
        proc, result = one_run(workload, 1)
        out[workload] = (proc, result)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_input_is_caught(workload):
    proc, result = one_run(workload, 0, "--corrupt", workload)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert result["correct"] is False
    assert result["failed"] > 0 and result["attempted"] > 0
    assert "fail_frac 0.0000" not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_meets_the_contract(workload):
    proc, result = one_run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_runs_reproduce_the_untraced_digest(traced):
    for workload, (proc, result) in traced.items():
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert result["correct"] is True, workload
        digests = [ln for ln in proc.stdout.splitlines() if ln.strip().startswith("digest ")]
        assert len(digests) == 1 and len(digests[0].split(": ")[1].split()) == 1


def test_traced_runs_print_every_per_layer_metric(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for _, result in traced.values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_layer_map(traced):
    """The bypasses each workload is chosen for hold in the traced run."""
    metrics = {w: {k: v["value"] for k, v in r["metrics"].items()}
               for w, (_, r) in traced.items()}
    m = metrics["modules"]
    for name, value in m.items():
        if name.startswith(("coeff.", "linalg.elim.", "cache.", "tensor.",
                            "parabolic.", "bundle.")):
            assert value == 0, name
    assert m["uqrep.build_module.calls"] > 0 and m["uqrep.check_serre.calls"] > 0
    assert m["linalg.matmul.calls"] > 0 and m["cartan.oracle.calls"] > 0
    for workload in ("modules", "hopf", "sections"):
        for name, value in metrics[workload].items():
            if name.startswith("cache."):
                assert value == 0, (workload, name)
    for workload in ("hopf", "sections"):
        assert metrics[workload]["tensor.decompose.calls"] > 0
    assert metrics["sections"]["linalg.elim.calls"] > metrics["hopf"]["linalg.elim.calls"]
    assert metrics["sections"]["bundle.sections_direct.calls"] > 0
    assert metrics["hopf"]["coeff.word_matrix.calls"] > 0
    c = metrics["cli"]
    assert c["cache.load.calls"] > 0 and c["cache.store.calls"] > 0
    assert c["cache.bytes_written"] > 0 and 0 < c["cache.hit_ratio"] < 1


def test_tracer_reaches_rebound_names_and_skips_absent_ones():
    code = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import qgroups.cli
import tracer
tracer.LAYERS["linalg.elim"].append("linalg:no_such_function")
store = tracer.install(tracer.SpanStore())
from qgroups import bundle, coeff, parabolic, tensor, linalg, scalar, cache
assert store.absent == ["linalg:no_such_function"], store.absent
for mod in (coeff, tensor, parabolic, bundle, linalg):
    assert hasattr(mod.kernel_basis, "__wrapped__"), mod.__name__
assert hasattr(coeff.decompose, "__wrapped__") and hasattr(coeff.invert, "__wrapped__")
assert hasattr(qgroups.cli.irrep_from_json, "__wrapped__")
assert hasattr(scalar.RationalFunction.__add__, "__wrapped__")
assert hasattr(cache.ResultCache.load, "__wrapped__")
assert hasattr(coeff.CoeffAlgebra.word_matrix, "__wrapped__")
print("ok")
""".format(src=os.path.join(ROOT, "src"), here=HERE)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=run.child_env(), timeout=120)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_run_without_sources_fails_without_a_result():
    bare = os.path.join(HERE, "_runs", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc, result = bench("--workload", "modules", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare,
                             script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert result is None and proc.stdout.strip() == ""


def test_tail_needs_ten_samples_above_it():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail(list(range(15))) == (14, 100.0)


def test_scaling_to_the_reference_speed():
    nominal = run.calib.NOMINAL_S
    rep = {"latencies_s": [1.0, 2.0], "refs_s": [nominal, 2 * nominal],
           "setups_s": [0.1, 0.4], "setup_refs_s": [nominal, 4 * nominal]}
    # the second item ran while the reference task took twice its nominal time
    assert run.scaled_wall(rep) == 2.0
    # set-up is scaled by a power of the same ratio
    assert run.scaled_setups([rep]) == [0.1, 0.4 * 0.25 ** run.SETUP_ELASTICITY]
    assert run.calib.task() == run.calib.task()
