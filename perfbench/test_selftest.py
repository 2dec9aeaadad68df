"""Self-test of the benchmark: python3 -m pytest perfbench -q

One op per workload at a fixed seed prints every metric BENCHMARK.json names,
with its unit; and every oracle rejects a deliberately corrupted result, so
a passing op means something.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_op_prints_every_metric(workload, trace, monkeypatch, capsys):
    # one set-up and no scaling scan keep the one-op run short
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "SCAN_SIZES", ())
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace), "--max-ops", "1"])
    out = capsys.readouterr().out
    assert code == 0, out[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_empty_checkout_fails(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "modal-n200",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# --- oracles reject corrupted results ---------------------------------------

@pytest.fixture(scope="module")
def modal_result():
    graph = gen.random_digraph(np.random.default_rng(SEED), 50)
    wl = workloads.ModalN200({"graphs": [graph], "scan": []}, None, None)
    wl.setup()
    return workloads.modal_arrays(wl.op(0))


def _corrupt(arrays, key, fn):
    out = dict(arrays)
    out[key] = fn(np.array(arrays[key]) if isinstance(arrays[key], np.ndarray)
                  else arrays[key])
    return out


def test_modal_oracle_accepts_a_correct_op(modal_result):
    assert workloads.check_modal(modal_result) == []


@pytest.mark.parametrize("key, fn, expect", [
    ("traj", lambda t: t + np.where(np.arange(t.size).reshape(t.shape) == t.size // 2,
                                    1.0, 0.0), "Verlet"),
    ("energy", lambda e: e * (1 + 1e-6), "energy series"),
    ("eps_star", lambda e: e + 3 * workloads.TOL, "non-real at eps* - tol"),
    ("eps_star", lambda e: e - 3 * workloads.TOL, "real at eps* + tol"),
    ("one", lambda m: m + 1e-3 * np.eye(m.shape[0]), "recompose"),
    ("spectrum", lambda b: b * 1.01, "normalized"),
])
def test_modal_oracle_rejects(modal_result, key, fn, expect):
    problems = workloads.check_modal(_corrupt(modal_result, key, fn))
    assert any(expect in p for p in problems), problems


@pytest.fixture
def cli(tmp_path):
    inputs = gen.generate("cli-readme", SEED)
    return workloads.CliReadme(inputs, tmp_path, None), inputs["expect"]


def _index(key):
    return [k for k, _ in workloads.CLI_COMMANDS].index(key)


def _record(summary, digests=None):
    return {"returncode": 0, "stdout": json.dumps(summary), "digests": digests or {}}


@pytest.mark.parametrize("key, summary, expect", [
    ("critical-eps", {"eps_star": 1.67}, "outside"),
    ("beat-demo", {"peak_bins": {"a": 65, "b": 71, "c": 65, "d": 137, "e": 7}}, "peak bins"),
    ("fuse-trends", {"segments": 3, "length": 456, "max": 100.5}, "max"),
    ("analyze-graph", {"symmetrizable": True, "mass": [3, 4, 1, 2, 5]}, "mass"),
])
def test_cli_oracle_rejects_wrong_results(cli, key, summary, expect):
    wl, _ = cli
    problems = wl.check(_index(key), _record(summary))
    assert any(expect in p for p in problems), problems


def test_cli_oracle_rejects_large_verlet_error(cli):
    wl, exp = cli
    bad = {"spectrum_real": True, "modal_numeric_max_error": 2 * exp["simulate_error_bound"]}
    assert wl.check(_index("simulate"), _record(bad))


def test_cli_oracle_rejects_exit_code_and_bad_json(cli):
    wl, _ = cli
    assert wl.check(0, {"returncode": 3, "stdout": "{}"})
    assert wl.check(0, {"returncode": 0, "stdout": "not json"})


def test_cli_oracle_rejects_changed_artifacts(cli):
    wl, _ = cli
    i = _index("critical-eps")
    assert wl.check(i, _record({"eps_star": 1.655}, {"a.csv": "1"})) == []
    problems = wl.check(i, _record({"eps_star": 1.655}, {"a.csv": "2"}))
    assert any("artifacts differ" in p for p in problems), problems
