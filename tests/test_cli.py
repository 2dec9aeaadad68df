import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, MODEL_X0, seeded_digraph, strict_json
from netosc import dynamics, signal
from netosc.cli import _CSV_BLOCK_ROWS, _block_csv, _csv, _Files, run
from netosc.dynamics import oscillation_centrality
from netosc.errors import DefectiveMatrix, NotSymmetrizableError, ParseError, Unstable
from netosc.graph import (
    MAX_NODES,
    LaplacianMatrix,
    WeightedDigraph,
    canonical_split,
    check_symmetrizable,
    compose_epsilon,
    laplacian_of,
    undirected_graph,
)
from netosc.ingest import parse_trend_csv
from netosc.spectral import critical_epsilon, eigendecompose


@pytest.fixture
def model_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "lap0": MODEL_L0.tolist(),
        "lapI": MODEL_LI.tolist(),
    }))
    return path


@pytest.fixture
def ring_json(tmp_path):
    edges = []
    for k in range(4):
        edges.append([k, (k + 1) % 4, 1.0])
        edges.append([(k + 1) % 4, k, 1.0])
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"n": 4, "edges": edges}))
    return path


@pytest.fixture
def cycle_json(tmp_path):
    """The one-way 3-cycle: connected, with positive masses, but no pair in
    detailed balance."""
    path = tmp_path / "cycle.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]}')
    return path


# every pair ties; the first in row-major order is named
CYCLE_DETAIL = "m_i*w_ij = 1.000000e+00 vs m_j*w_ji = 0.000000e+00"


def summary_of(result):
    return strict_json(result.summary)


class TestCriticalEps:
    def test_model_fixture(self, model_json):
        result = run(["critical-eps", "--graph", str(model_json),
                      "--lo", "0", "--hi", "3", "--tol", "1e-3"])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert 1.65 < doc["eps_star"] < 1.66
        lo, hi = doc["final_bracket"]
        assert doc["bracket"] == [0.0, 3.0]
        assert lo < doc["eps_star"] < hi and hi - lo <= 1e-3
        assert isinstance(doc["solves"], int) and 0 < doc["solves"] <= 6

    def test_no_transition_exit_code(self, ring_json):
        result = run(["critical-eps", "--graph", str(ring_json),
                      "--lo", "0", "--hi", "3", "--tol", "1e-3"])
        assert result.exit_code == 3
        doc = summary_of(result)
        assert doc["error"]["type"] == "NoTransition"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_refused(self, model_json, capsys, tol):
        # not exit 0 with eps_star Infinity after one solve: a usage error
        result = run(["critical-eps", "--graph", str(model_json),
                      "--lo", "0", "--hi", "3", "--tol", tol])
        assert (result.exit_code, result.summary) == (1, "")
        assert f"argument --tol: '{tol}' is not a finite number" in capsys.readouterr().err

    def test_infinite_hi_reports_solved_bracket(self, model_json, capsys):
        # an infinite bracket end is a usage error; the library refuses one too
        result = run(["critical-eps", "--graph", str(model_json),
                      "--lo", "0", "--hi", "inf", "--tol", "1e-3"])
        assert (result.exit_code, result.summary) == (1, "")
        assert "argument --hi: 'inf' is not a finite number" in capsys.readouterr().err


class TestBeatDemo:
    def test_writes_ten_csvs_with_expected_peaks(self, tmp_path):
        out = tmp_path / "demo"
        result = run(["beat-demo", "--w1", "0.10", "--w2", "0.11",
                      "--n", "4096", "--out", str(out)])
        assert result.exit_code == 0
        assert len(result.outputs) == 10
        for key in "abcde":
            assert (out / f"signal_{key}.csv").exists()
            assert (out / f"spectrum_{key}.csv").exists()
        peaks = summary_of(result)["peak_bins"]
        assert abs(peaks["a"] - 65) <= 1
        assert abs(peaks["b"] - 72) <= 1
        assert abs(peaks["d"] - 137) <= 1 or 6 <= peaks["d"] <= 7
        assert peaks["e"] <= 20

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("NETOSC_N", "512")
        monkeypatch.setenv("NETOSC_W1", "0.2")
        result = run(["beat-demo", "--w2", "0.25"])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["params"]["n"] == 512
        assert doc["params"]["w1"] == 0.2
        assert doc["params"]["w2"] == 0.25

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("NETOSC_N", "512")
        result = run(["beat-demo", "--w1", "0.1", "--w2", "0.11", "--n", "1024"])
        assert summary_of(result)["params"]["n"] == 1024


class TestSpectrum:
    def test_empty_input_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = run(["spectrum", "--in", str(empty)])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["type"] == "EmptyInput"

    def test_constant_series_all_zero(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("t,value\n" + "\n".join(
            f"{t},5.0" for t in range(64)) + "\n")
        result = run(["spectrum", "--in", str(path)])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["type"] == "AllZero"

    def test_tone_spectrum(self, tmp_path):
        n = 256
        vals = np.cos(2 * np.pi * 32 * np.arange(n) / n)
        path = tmp_path / "tone.csv"
        path.write_text("t,value\n" + "\n".join(
            f"{t},{v}" for t, v in enumerate(vals)) + "\n")
        out = tmp_path / "out"
        result = run(["spectrum", "--in", str(path), "--window", "1",
                      "--out", str(out), "--log-bins"])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["peak_frequency_index"] == 32
        assert (out / "spectrum.csv").exists()
        assert (out / "spectrum_logbins.csv").exists()


    def test_decisecond_epoch_axis(self, tmp_path):
        # times near 1.6e9 parse to within an ulp (2.4e-7 s) of k * 0.1
        path = tmp_path / "epoch.csv"
        path.write_text("t,value\n" + "".join(
            f"{1600000000 + k / 10:.1f},{np.cos(2 * np.pi * 8 * k / 256)}\n"
            for k in range(256)))
        result = run(["spectrum", "--in", str(path), "--window", "1"])
        assert result.exit_code == 0, result.summary
        assert summary_of(result)["peak_frequency_index"] == 8


class TestAnalyzeGraph:
    def test_model_symmetrizable_at_eps0(self, model_json, tmp_path):
        out = tmp_path / "out"
        result = run(["analyze-graph", "--graph", str(model_json),
                      "--eps", "0", "--out", str(out)])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["symmetrizable"] is True
        assert np.allclose(doc["mass"], [3, 4, 1, 2, 4], atol=1e-8)
        assert doc["gershgorin"] == {"center": 23.0, "radius": 23.0}
        assert (out / "laplacian.csv").exists()
        assert (out / "spectrum.csv").exists()
        assert (out / "laplacian_sym.csv").exists()

    def test_spectrum_csv_sorted_and_consistent(self, model_json, tmp_path):
        out = tmp_path / "out"
        result = run(["analyze-graph", "--graph", str(model_json),
                      "--eps", "1.66", "--out", str(out)])
        assert result.exit_code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "mu,re_lambda,im_lambda,re_omega,im_omega"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [line.split(",")[0] for line in lines[1:]] == [str(mu) for mu in range(5)]
        assert [[rl, il] for _, rl, il, _, _ in rows] == summary_of(result)["eigenvalues"]
        res = [r[1] for r in rows]
        assert res == sorted(res)
        for _, rl, il, rw, iw in rows:
            w = complex(rw, iw)
            if w != 0:
                assert abs(w * w - complex(rl, il)) <= 1e-8 * (1 + abs(complex(rl, il)))

    @pytest.mark.parametrize("eps", ["0", "1.5"])
    def test_matrix_csvs_match_the_reference(self, model_json, tmp_path, eps):
        out = tmp_path / "out"
        assert run(["analyze-graph", "--graph", str(model_json),
                    "--eps", eps, "--out", str(out)]).exit_code == 0
        lap = compose_epsilon((LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)),
                              float(eps))
        assert (out / "laplacian.csv").read_bytes() == _reference_matrix_csv(lap).encode()
        try:
            dec = check_symmetrizable(lap)
        except NotSymmetrizableError:
            dec = None
        assert (out / "laplacian_sym.csv").exists() == (dec is not None)
        if dec is not None:
            assert ((out / "laplacian_sym.csv").read_bytes()
                    == _reference_matrix_csv(dec.lap_sym).encode())

    def test_digraph_laplacian_csv_parses_back_exactly(self, tmp_path):
        g = seeded_digraph(0, 12)
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}))
        out = tmp_path / "out"
        assert run(["analyze-graph", "--graph", str(path), "--out", str(out)]).exit_code == 0
        text = (out / "laplacian.csv").read_text()
        lap = laplacian_of(g)
        assert text == _reference_matrix_csv(lap)
        back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
        assert np.array_equal(back, lap.entries)

    @pytest.mark.parametrize("text, message", [
        ("", "edge CSV is empty"), ("src,dst,w\n", "edge CSV contains no edges")],
        ids=["empty", "header-only"])
    def test_edge_csv_without_edges_is_empty_input(self, tmp_path, text, message):
        path = tmp_path / "e.csv"
        path.write_text(text)
        result = run(["analyze-graph", "--graph", str(path)])
        assert result.exit_code == 2
        assert summary_of(result)["error"] == {"type": "EmptyInput", "message": message}

    def test_model_not_symmetrizable_at_eps1(self, model_json):
        result = run(["analyze-graph", "--graph", str(model_json), "--eps", "1"])
        doc = summary_of(result)
        assert doc["symmetrizable"] is False
        assert doc["spectrum_real"] is True

    def test_one_way_cycle_summary(self, cycle_json, tmp_path):
        out = tmp_path / "out"
        result = run(["analyze-graph", "--graph", str(cycle_json), "--out", str(out)])
        assert result.exit_code == 0
        doc = summary_of(result)
        eigenvalues = doc.pop("eigenvalues")
        assert np.allclose(eigenvalues, [[0.0, 0.0], [1.5, -0.75 ** 0.5], [1.5, 0.75 ** 0.5]],
                           rtol=0.0, atol=1e-12)
        assert doc.pop("basis_condition") == pytest.approx(1.0, rel=1e-12)
        digest = hashlib.sha256(cycle_json.read_bytes()).hexdigest()
        assert doc == {
            "command": "analyze-graph",
            "d_max": 1.0,
            "gershgorin": {"center": 1.0, "radius": 1.0},
            "inputs": {str(cycle_json): digest},
            "n": 3,
            "outputs": [str(out / "laplacian.csv"), str(out / "spectrum.csv")],
            "params": {"eps": 1.0, "graph": str(cycle_json), "out": str(out)},
            "spectrum_real": False,
            "symmetrizable": False,
            "verdict": {"detail": CYCLE_DETAIL, "pair": [0, 1], "reason": "detailed_balance"},
        }
        assert sorted(p.name for p in out.iterdir()) == ["laplacian.csv", "spectrum.csv"]


class TestSimulate:
    def test_model_fixture(self, model_json, tmp_path):
        out = tmp_path / "sim"
        result = run(["simulate", "--graph", str(model_json),
                      "--x0", ",".join(str(v) for v in MODEL_X0),
                      "--eps", "0", "--t-end", "10", "--dt", "0.01",
                      "--out", str(out)])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["spectrum_real"] is True
        assert doc["modal_numeric_max_error"] <= 1e-4
        assert (out / "trajectory_modal.csv").exists()
        assert (out / "trajectory_numeric.csv").exists()
        assert (out / "energy.csv").exists()

    def test_one_decomposition(self, model_json, eigendecompose_calls):
        result = run(["simulate", "--graph", str(model_json),
                      "--x0", ",".join(str(v) for v in MODEL_X0),
                      "--eps", "1.5", "--t-end", "1", "--dt", "0.01"])
        assert result.exit_code == 0
        assert len(eigendecompose_calls) == 1

    def test_cross_check_memory(self, model_json, tmp_path):
        # README grid, 10,001 x 5: no history and no energy series is held,
        # only the times (0.08 MiB), a block of each producer and one CSV
        # piece; 0.30 MiB measured, and 0.3 MiB of margin stays below one
        # more (10,001, 5) history (0.38 MiB)
        argv = ["simulate", "--graph", str(model_json), "--eps", "1.5",
                "--x0", ",".join(str(v) for v in MODEL_X0), "--out", str(tmp_path)]
        run(argv)
        tracemalloc.start()
        try:
            result = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert peak <= 0.6 * 2**20

    def test_bad_vector_usage_error(self, model_json):
        result = run(["simulate", "--graph", str(model_json), "--x0", "1,2"])
        assert result.exit_code == 1

    def test_large_initial_state_is_not_divergent(self, model_json):
        # the divergence cutoff scales with max(1, |x0|, |v0|): a bounded run
        # from 1e13 is cross-checked, where an absolute 1e12 had exited 3
        result = run(["simulate", "--graph", str(model_json), "--x0", "1e13,0,0,0,0",
                      "--t-end", "1"])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["spectrum_real"] is True
        assert doc["modal_numeric_max_error"] <= 1e-5 * doc["peak_amplitude"]

    def test_divergence_message_names_its_threshold(self, model_json):
        result = run(["simulate", "--graph", str(model_json), "--eps", "3",
                      "--x0=-2,0,0,0,0", "--t-end", "200", "--dt", "0.02"])
        assert result.exit_code == 3
        err = summary_of(result)["error"]
        assert err["type"] == "Unstable"
        assert err["message"] == f"|x| crossed 2e+12 at t = {err['t_diverge']:.6g}"

    def test_failed_run_writes_no_artifact(self, model_json, tmp_path):
        # the divergent run above, into a previous run's --out: artifacts
        # move into place only once every check has passed
        out = tmp_path / "sim"
        assert run(["simulate", "--graph", str(model_json), "--x0", "1,0,0,0,0",
                    "--t-end", "1", "--out", str(out)]).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["energy.csv", "trajectory_modal.csv",
                                  "trajectory_numeric.csv"]
        result = run(["simulate", "--graph", str(model_json), "--eps", "3",
                      "--x0=-2,0,0,0,0", "--t-end", "200", "--dt", "0.02", "--out", str(out)])
        assert result.exit_code == 3
        assert summary_of(result)["error"]["type"] == "Unstable"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_out_runs_each_producer_once(self, model_json, tmp_path, monkeypatch):
        # the checks, both trajectory CSVs and the energy series come from one
        # pass that evaluates each block's phases once: 501 times, 4 blocks, at
        # eps 1.5 (a real spectrum) and 1.7 (growing modes)
        calls = []
        for name in ("state_blocks", "verlet_blocks", "_phases"):
            def counted(*args, _name=name, _producer=getattr(dynamics, name), **kwargs):
                calls.append(_name)
                return _producer(*args, **kwargs)
            monkeypatch.setattr(dynamics, name, counted)
        times = dynamics.time_grid(5.0, 0.01)
        for eps in (1.5, 1.7):
            calls.clear()
            out = tmp_path / f"sim{eps}"
            result = run(["simulate", "--graph", str(model_json), "--x0", "1,2,3,4,5",
                          "--eps", str(eps), "--t-end", "5", "--out", str(out)])
            assert result.exit_code == 0
            assert "modal_numeric_max_error" in summary_of(result)
            assert sorted(calls) == ["_phases"] * len(dynamics._time_blocks(times.size)) + [
                "state_blocks", "verlet_blocks"]
            assert sorted(p.name for p in out.iterdir()) == [
                "energy.csv", "trajectory_modal.csv", "trajectory_numeric.csv"]
            # bit for bit the series of the separate energy pass
            lap = compose_epsilon((LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)), eps)
            sol = dynamics.modal_solve(lap, dynamics.InitialCondition.at_rest([1.0, 2, 3, 4, 5]))
            assert sol.spectrum_real == (eps == 1.5)
            series = dynamics.total_energy_series(sol, times).series
            assert (out / "energy.csv").read_text() == "".join(
                _csv("t,E", series.times, series.values))

    def test_half_step_grid_matches_numeric(self, model_json, tmp_path):
        # t_end / dt = 1.5: the modal and the Verlet grid must agree in length
        out = tmp_path / "sim"
        result = run(["simulate", "--graph", str(model_json),
                      "--x0", ",".join(str(v) for v in MODEL_X0),
                      "--eps", "1.5", "--t-end", "0.015", "--dt", "0.01",
                      "--out", str(out)])
        assert result.exit_code == 0
        modal = (out / "trajectory_modal.csv").read_text().splitlines()
        numeric = (out / "trajectory_numeric.csv").read_text().splitlines()
        assert len(modal) == len(numeric) == 4
        assert [r.split(",")[0] for r in modal] == [r.split(",")[0] for r in numeric]

    @pytest.mark.parametrize("graph, x0, t_end, dt", [
        # a weak pair keeps the Verlet guard above dt = 0.1: 100,001 times
        ({"n": 2, "edges": [[0, 1, 1e-4], [1, 0, 1e-4]]}, "1,2", "10000", "0.1"),
        # the README model over 1,000,001 times
        ({"lap0": MODEL_L0.tolist(), "lapI": MODEL_LI.tolist()}, "10,2,7,5,6", "10000", "0.01"),
    ])
    def test_long_grid(self, tmp_path, graph, x0, t_end, dt):
        # the steps of k * dt differ by ~1.5e-12 at t ~ 1e4
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        result = run(["simulate", "--graph", str(path), "--eps", "1.5", "--x0", x0,
                      "--t-end", t_end, "--dt", dt])
        assert result.exit_code == 0
        assert "modal_numeric_max_error" in summary_of(result)

    def test_one_point_grid_has_no_energy_csv(self, model_json, tmp_path):
        # a single time has no energy series
        out = tmp_path / "sim"
        result = run(["simulate", "--graph", str(model_json),
                      "--x0", ",".join(str(v) for v in MODEL_X0),
                      "--t-end", "0", "--out", str(out)])
        assert result.exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == ["trajectory_modal.csv",
                                                         "trajectory_numeric.csv"]
        assert len((out / "trajectory_modal.csv").read_text().splitlines()) == 2


class TestMemoryIndependentOfGridLength:
    """simulate and sweep fold the state blocks of their producers as they
    come: a grid of 20,001 times instead of 1,001 adds only series of T
    floats, less than one (T, n) history.  sweep holds the times and node
    0's series; simulate streams its energies too, and holds only the times."""

    N = 50

    @pytest.fixture(scope="class")
    def case(self, tmp_path_factory):
        g = seeded_digraph(3, self.N)
        path = tmp_path_factory.mktemp("graph") / "digraph.json"
        path.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}))
        split = canonical_split(laplacian_of(g))
        eps_star = critical_epsilon(split.lap_sym_part, split.lap_oneway, (0.0, 1.0), 1e-3)
        # the guard shrinks as eps grows: this dt is stable on both sides
        dt = 0.9 * dynamics.verlet_step_limit(compose_epsilon(split, 1.5 * eps_star).d_max)
        x0 = ",".join(str(v) for v in np.random.default_rng(3).normal(size=self.N))
        return str(path), eps_star, dt, x0

    def argv(self, case, command, length, out):
        graph, eps_star, dt, x0 = case
        eps = [0.5 * eps_star] + [1.5 * eps_star] * (command == "sweep")
        return [command, "--graph", graph, "--eps", ",".join(map(repr, eps)), f"--x0={x0}",
                "--t-end", repr((length - 1) * dt), "--dt", repr(dt)] + out

    @pytest.mark.parametrize("command, out", [("simulate", False), ("simulate", True),
                                              ("sweep", False)])
    def test_peak_grows_less_than_one_history(self, case, tmp_path, monkeypatch, command, out):
        if out:
            # the CSV text is pinned elsewhere; a row count per piece spares
            # formatting 2 x 20,001 x 51 cells, and the producers still run
            monkeypatch.setattr("netosc.cli._csv", lambda header, *cols: [f"{len(cols[0])}\n"])
        out = ["--out", str(tmp_path)] if out else []
        run(self.argv(case, command, 1001, out))
        peaks = {}
        for length in (1001, 20001):
            tracemalloc.start()
            try:
                result = run(self.argv(case, command, length, out))
                peaks[length] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0
            if command == "sweep":
                assert [r["spectrum_real"] for r in summary_of(result)["records"]] == [True, False]
        assert peaks[20001] - peaks[1001] < 20001 * self.N * 8
        if command == "simulate":   # the times' 8 B per time; 10-11 B measured
            assert peaks[20001] - peaks[1001] < (20001 - 1001) * 16


class TestSweep:
    def test_model_regimes(self, model_json, tmp_path):
        out = tmp_path / "sweep"
        result = run(["sweep", "--graph", str(model_json),
                      "--eps", "0,1.5,1.65,1.66",
                      "--x0", ",".join(str(v) for v in MODEL_X0),
                      "--t-end", "50", "--dt", "0.05", "--out", str(out)])
        assert result.exit_code == 0
        records = summary_of(result)["records"]
        assert [r["spectrum_real"] for r in records] == [True, True, True, False]
        assert (out / "sweep.json").exists()

    @pytest.mark.parametrize("eps", ["1,inf", "nan", "0,-inf"])
    def test_non_finite_eps_is_usage_error(self, model_json, tmp_path, eps):
        # not exit 0 with "eps": Infinity in the summary and sweep.json
        out = tmp_path / "sweep"
        result = run(["sweep", "--graph", str(model_json), f"--eps={eps}",
                      "--x0", ",".join(str(v) for v in MODEL_X0), "--out", str(out)])
        assert result.exit_code == 1
        assert summary_of(result)["error"] == {"type": "ValueError",
                                               "message": "eps must be finite"}
        assert not out.exists()

    def test_overflowing_eps_is_a_record_error(self, model_json):
        result = run(["sweep", "--graph", str(model_json), "--eps", "1,1e308",
                      "--x0", ",".join(str(v) for v in MODEL_X0), "--t-end", "1"])
        assert result.exit_code == 0
        records = summary_of(result)["records"]
        assert records[0]["error"] is None
        assert records[1]["error"] == "InvalidGraph: Laplacian entries must be finite"

    def test_graph_without_a_nonzero_mode(self, tmp_path):
        # eigen_gap has no pair of modes to compare, so the record has no gap;
        # the run itself is still recorded
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 3, "edges": []}))
        result = run(["sweep", "--graph", str(path), "--eps", "0,1", "--x0", "1,0,0",
                      "--t-end", "10", "--dt", "0.5"])
        assert result.exit_code == 0
        for record in summary_of(result)["records"]:
            assert record["error"] is None
            assert record["eigen_gap"] is None
            assert record["peak_amplitude"] == 1.0
            assert record["beat_frequency"] == 0.0

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("vectors", [["--x0=1e308,0,0,0,0"],
                                         ["--x0=1,0,0,0,0", "--v0=1,1,1,1,-2e150"]])
    def test_oversized_initial_condition_is_out_of_range(self, model_json, command, vectors):
        # not a numpy warning from the mode expansion or the beat estimate
        result = run([command, "--graph", str(model_json), "--eps", "0", "--t-end", "1",
                      *vectors])
        assert result.exit_code == 2
        assert summary_of(result)["error"] == {
            "type": "OutOfRange",
            "message": "initial condition entries above 1e+150 in magnitude"}


# lapI of a Jordan chain, and of a chain whose eigenbasis is nearly dependent
JORDAN_CHAIN = [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]]
NEAR_CHAIN = [[1.0, -1.0, 0.0], [0.0, 1.0 + 1e-10, -1.0 - 1e-10], [0.0, 0.0, 0.0]]


class TestDefectiveModels:
    """simulate refuses a defective model (exit 3); sweep falls back to Verlet."""

    def _run(self, tmp_path, command, lap_i, x0):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"lap0": np.zeros((3, 3)).tolist(), "lapI": lap_i}))
        return run([command, "--graph", str(path), f"--x0={x0}",
                    "--eps", "1", "--t-end", "5", "--dt", "0.05"])

    def _verlet_peak(self, lap_i, x0):
        ic = dynamics.InitialCondition.at_rest(x0)
        states = dynamics.integrate_numeric(LaplacianMatrix(np.array(lap_i)), ic,
                                            0.05, 5.0).states
        return float(np.max(np.abs(states)))

    def test_jordan_chain_simulate_exits_3(self, tmp_path):
        result = self._run(tmp_path, "simulate", JORDAN_CHAIN, "1,0,0")
        assert result.exit_code == 3
        err = summary_of(result)["error"]
        assert err["type"] == "DefectiveMatrix"
        assert err["message"].startswith("eigenvector basis condition ")
        assert err["message"].endswith(" exceeds 1e+12")
        assert err["basis_condition"] > 1e12

    def test_jordan_chain_sweep_records_verlet(self, tmp_path):
        result = self._run(tmp_path, "sweep", JORDAN_CHAIN, "1,0,0")
        assert result.exit_code == 0
        [record] = summary_of(result)["records"]
        assert record == {"eps": 1.0, "spectrum_real": None, "max_im_omega": None,
                          "eigen_gap": None, "peak_amplitude": 1.0,
                          "beat_frequency": None, "error": None}

    def test_near_chain_simulate_exits_3(self, tmp_path):
        # the basis passes eigendecompose's 1e12 limit; the expansion check refuses it
        result = self._run(tmp_path, "simulate", NEAR_CHAIN, "0.3,-1,2")
        assert result.exit_code == 3
        err = summary_of(result)["error"]
        assert err["type"] == "DefectiveMatrix"
        assert err["message"] == "initial condition not reproduced by the mode expansion"
        assert 1.0 < err["basis_condition"] <= 1e12

    def test_near_chain_sweep_records_verlet(self, tmp_path):
        result = self._run(tmp_path, "sweep", NEAR_CHAIN, "0.3,-1,2")
        assert result.exit_code == 0
        [record] = summary_of(result)["records"]
        assert record["spectrum_real"] is True
        assert record["error"] is None
        assert record["peak_amplitude"] == self._verlet_peak(NEAR_CHAIN, [0.3, -1.0, 2.0])


class TestBadTimeFlags:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("flag, value", [
        ("--dt", "0"), ("--dt", "nan"), ("--dt", "inf"),
        ("--t-end", "nan"), ("--t-end", "inf"), ("--t-end", "-1"),
    ])
    def test_usage_error_before_any_solve(self, model_json, capsys, eigendecompose_calls,
                                          command, flag, value):
        argv = [command, "--graph", str(model_json),
                "--x0", ",".join(str(v) for v in MODEL_X0), flag, value]
        if command == "sweep":
            argv += ["--eps", "0,1.5"]
        result = run(argv)
        assert result.exit_code == 1
        assert eigendecompose_calls == []
        err = capsys.readouterr().err
        if not np.isfinite(float(value)):   # refused by the flag's type, nothing read
            assert result.summary == ""
            assert f"argument {flag}: '{value}' is not a finite number" in err
            return
        assert err.strip() == result.summary
        error = summary_of(result)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(
            "dt must be positive and t_end nonnegative, both finite")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("lap0, lap_i", [
        (MODEL_L0.tolist(), MODEL_LI.tolist()),
        (np.zeros((3, 3)).tolist(), JORDAN_CHAIN),
    ], ids=["readme-model", "jordan-chain"])
    def test_wrong_size_x0_is_usage_error_before_any_solve(
            self, tmp_path, capsys, eigendecompose_calls, command, lap0, lap_i):
        # the Jordan chain's eigensolve would refuse its basis with exit 3
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"lap0": lap0, "lapI": lap_i}))
        argv = [command, "--graph", str(path), "--x0", "1,2", "--t-end", "5", "--dt", "0.05"]
        if command == "sweep":
            argv += ["--eps", "0,1.5"]
        result = run(argv)
        assert result.exit_code == 1
        assert capsys.readouterr().err.strip() == result.summary
        assert summary_of(result)["error"] == {
            "type": "ValueError", "message": f"initial condition size 2 != n = {len(lap0)}"}
        assert eigendecompose_calls == []

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("dt", ["1e-320", "1e-9"])
    def test_oversized_grid_is_usage_error(self, model_json, capsys, eigendecompose_calls,
                                           command, dt):
        # 1 / 1e-320 overflows; 1 / 1e-9 asks for 1e9 + 1 points
        argv = [command, "--graph", str(model_json),
                "--x0", ",".join(str(v) for v in MODEL_X0), "--t-end", "1", "--dt", dt]
        if command == "sweep":
            argv += ["--eps", "0,1.5"]
        result = run(argv)
        assert result.exit_code == 1
        assert capsys.readouterr().err.strip() == result.summary
        error = summary_of(result)["error"]
        assert error["type"] == "ValueError"
        assert "time points a grid may hold" in error["message"]
        assert eigendecompose_calls == []


class TestCentrality:
    def test_ring_degree(self, ring_json):
        result = run(["centrality", "--graph", str(ring_json)])
        doc = summary_of(result)
        assert np.allclose(doc["centrality"], 2.0, atol=1e-9)

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_weight_is_named(self, tmp_path, token):
        path = tmp_path / "g.json"
        path.write_text('{"n": 2, "edges": [[0, 1, %s], [1, 0, 1]]}' % token)
        result = run(["centrality", "--graph", str(path)])
        assert result.exit_code == 2
        error = summary_of(result)["error"]
        assert error["type"] == "InvalidGraph"
        assert error["message"] == f"edge (0,1) has non-finite weight {float(token)}"

    def test_non_finite_edge_csv_weight_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,w\n0,1,1\n1,0,1\n1,2,nan\n")
        result = run(["centrality", "--graph", str(path)])
        assert result.exit_code == 2
        assert capsys.readouterr().out.strip() == result.summary
        assert summary_of(result)["error"] == {
            "type": "ParseError", "message": "line 4: non-finite value in '1,2,nan'"}

    def test_one_way_cycle_is_numeric_exit(self, cycle_json):
        result = run(["centrality", "--graph", str(cycle_json)])
        assert result.exit_code == 3
        assert result.summary == (
            '{\n  "command": "centrality",\n  "error": {\n'
            f'    "message": "detailed_balance: {CYCLE_DETAIL}",\n'
            '    "type": "NotSymmetrizableError"\n  }\n}')

    @pytest.mark.parametrize("command, key, value", [("centrality", "centrality", [0.0]),
                                                     ("analyze-graph", "mass", [1.0])])
    def test_one_node_graph(self, tmp_path, command, key, value):
        # a single node is symmetrizable with mass [1]
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "edges": []}))
        result = run([command, "--graph", str(path)])
        assert result.exit_code == 0
        assert summary_of(result)[key] == value

    def test_betweenness_star(self, tmp_path):
        edges = []
        for leaf in (1, 2, 3, 4):
            edges.append([0, leaf, 1.0])
            edges.append([leaf, 0, 1.0])
        path = tmp_path / "star.json"
        path.write_text(json.dumps({"n": 5, "edges": edges}))
        result = run(["centrality", "--graph", str(path), "--betweenness"])
        doc = summary_of(result)
        assert doc["ranking"][0] == 0

    def test_betweenness_takes_every_model_form(self, tmp_path):
        # one unit graph, a 6-ring with a chord, as each form parse_model reads
        g = undirected_graph(6, [(k, (k + 1) % 6) for k in range(6)] + [(0, 3)])
        lap = laplacian_of(g).entries.tolist()
        texts = {
            "g.json": json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}),
            "g.csv": "src,dst,w\n" + "".join(f"{s},{d},{w}\n" for s, d, w in g.edges),
            "lap.json": json.dumps({"laplacian": lap}),
            "pair.json": json.dumps({"lap0": lap, "lapI": np.zeros((g.n, g.n)).tolist()}),
        }
        written = set()
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
            out = tmp_path / f"out-{name}"
            result = run(["centrality", "--graph", str(tmp_path / name), "--betweenness",
                          "--out", str(out)])
            assert result.exit_code == 0
            written.add((out / "centrality.csv").read_bytes())
        assert len(written) == 1

    @pytest.mark.slow
    def test_betweenness_overflow_is_out_of_range(self, tmp_path, capsys):
        # 1,026 layers of two nodes, each node linked to both of the next
        # layer's: 2^1025 shortest paths end to end, past the float range
        layers = 1026
        edges = [[2 * k + a, 2 * k + 2 + b, 1.0] for k in range(layers - 1)
                 for a in (0, 1) for b in (0, 1)]
        edges += [[d, s, w] for s, d, w in edges]
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps({"n": 2 * layers, "edges": edges}))
        result = run(["centrality", "--graph", str(path), "--betweenness"])
        assert result.exit_code == 2
        assert capsys.readouterr().err == ""
        assert summary_of(result)["error"] == {
            "type": "OutOfRange", "message": "Laplacian entries above 1e+150 in magnitude"}


class TestBinAndFuse:
    def test_bin_counts(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("timestamp\n" + "\n".join(
            str(60.0 * k) for k in range(32)) + "\n")
        out = tmp_path / "binned"
        result = run(["bin", "--events", str(events), "--bin-seconds", "120",
                      "--t0", "0", "--n-bins", "8", "--out", str(out)])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["binned"] == 16.0
        assert doc["out_of_range"] == 16
        assert (out / "series.csv").exists()

    def test_shuffled_log_bins_as_the_sorted_log(self, tmp_path):
        # rows are binned in file order; the default t0 is the earliest event
        stamps = 1_700_000_000 + np.arange(0, 3000, 7)
        shuffled = np.random.default_rng(5).permutation(stamps)
        assert shuffled[0] != stamps[0]
        docs, series = [], []
        for name, rows in (("sorted", stamps), ("shuffled", shuffled)):
            events, out = tmp_path / f"{name}.csv", tmp_path / name
            events.write_text("timestamp\n" + "\n".join(map(str, rows)) + "\n")
            result = run(["bin", "--events", str(events), "--bin-seconds", "60",
                          "--n-bins", "32", "--out", str(out)])
            assert result.exit_code == 0
            doc = summary_of(result)
            docs.append({key: doc[key] for key in ("events", "binned", "out_of_range",
                                                   "mean_count")} | {"t0": doc["params"]["t0"]})
            series.append((out / "series.csv").read_bytes())
        assert docs[0] == docs[1]
        assert docs[0]["t0"] == 1_700_000_000 and docs[0]["out_of_range"] > 0
        assert series[0] == series[1]

    def test_bins_above_the_time_point_cap_refused(self, tmp_path, capsys):
        # refused before np.bincount allocates them: a usage error, not a
        # MemoryError (exit 3) or an 80 MB series
        events = tmp_path / "events.csv"
        events.write_text("timestamp\n0\n60\n")
        n_bins = dynamics.MAX_TIME_POINTS + 1
        result = run(["bin", "--events", str(events), "--n-bins", str(n_bins)])
        assert result.exit_code == 1
        assert summary_of(result)["error"] == {
            "type": "ValueError", "message": f"need 2 to {n_bins - 1} bins, got {n_bins}"}
        assert capsys.readouterr().err.strip() == result.summary

    @pytest.mark.parametrize("t0", ["nan", "inf", "-inf"])
    def test_non_finite_t0_refused(self, tmp_path, capsys, t0):
        # not exit 0 with every event silently out of range: a usage error,
        # raised before the log is read
        events = tmp_path / "events.csv"
        events.write_text("timestamp\n0\n60\n")
        result = run(["bin", "--events", str(events), f"--t0={t0}"])
        assert (result.exit_code, result.summary) == (1, "")
        assert f"argument --t0: '{t0}' is not a finite number" in capsys.readouterr().err

    def test_fuse_trends_80_40(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("datetime,value\n"
                     "2019-01-06T22:00:00,100\n"
                     "2019-01-06T23:00:00,90\n"
                     "2019-01-07T00:00:00,80\n")
        b = tmp_path / "b.csv"
        b.write_text("datetime,value\n"
                     "2019-01-07T00:00:00,40\n"
                     "2019-01-07T01:00:00,100\n")
        out = tmp_path / "fused"
        result = run(["fuse-trends", str(a), str(b), "--out", str(out)])
        assert result.exit_code == 0
        text = (out / "fused.csv").read_text()
        values = [float(ln.split(",")[1]) for ln in text.splitlines()[1:]]
        assert values == [50.0, 45.0, 40.0, 100.0]

    def test_fuse_decisecond_epoch_segments(self, tmp_path):
        # the first parsed step, 0.09999990463 s, puts the 5 s start distance
        # 4.8e-5 steps off the grid
        paths = []
        for first in (0, 50):
            paths.append(tmp_path / f"from{first}.csv")
            paths[-1].write_text("datetime,value\n" + "".join(
                f"{1600000000 + k / 10:.1f},{100 if k == first + 10 else 50}\n"
                for k in range(first, first + 100)))
        result = run(["fuse-trends", *map(str, paths)])
        assert result.exit_code == 0, result.summary
        assert summary_of(result)["length"] == 150

    # epoch times in units of 0.1 ms: decisecond steps from 1.6e9 s, hourly
    # ones from 2019-01-06T22:00:00Z; the step tolerance is about 1e-6 s at
    # the first and 5e-6 s at the second
    @pytest.mark.parametrize("origin, step, start_off, step_off", [
        (16_000_000_000_000, 1_000, 500, 0),
        (16_000_000_000_000, 1_000, 0, 1),
        (15_468_120_000_000, 36_000_000, 18_000_000, 0),
        (15_468_120_000_000, 36_000_000, 0, 10),
        (15_468_120_000_000, 36_000_000, 10, 0),
    ], ids=["decisecond-half-step-start", "decisecond-step-0.1001", "hourly-half-step-start",
            "hourly-step-3600.001", "hourly-start-1ms-off"])
    def test_fuse_refuses_segments_off_the_step_rule(self, tmp_path, origin, step, start_off,
                                                     step_off):
        # the second segment starts 50 steps in, shifted by start_off, and
        # steps by step + step_off
        texts = []
        for first, off, seg_step in ((0, 0, step), (50, start_off, step + step_off)):
            times = (origin + first * step + off + k * seg_step for k in range(100))
            texts.append("datetime,value\n" + "".join(
                f"{t // 10**4}.{t % 10**4:04d},{100 if k == 10 else 50}\n"
                for k, t in enumerate(times)))
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, text in zip(paths, texts):
            path.write_text(text)
        a, b = map(parse_trend_csv, texts)
        message = (f"segment step {b.dt} != {a.dt}" if step_off
                   else "segment start is not aligned to the sample grid")
        result = run(["fuse-trends", *map(str, paths)])
        assert result.exit_code == 2
        assert summary_of(result)["error"] == {"type": "NoOverlap", "message": message}

    @pytest.mark.parametrize("rows, message", [
        ("2019-01-06T22:00:00,nan\n2019-01-06T23:00:00,100\n",
         "line 2: non-finite value in '2019-01-06T22:00:00,nan'"),
        ("0,100\ninf,50\n", "line 3: non-finite value in 'inf,50'"),
    ], ids=["nan-value", "inf-epoch"])
    def test_non_finite_trend_row_is_parse_error(self, tmp_path, rows, message):
        # not exit 1 with a raw ValueError, nor exit 0 with "step": Infinity
        path = tmp_path / "trend.csv"
        path.write_text("datetime,value\n" + rows)
        result = run(["fuse-trends", str(path)])
        assert result.exit_code == 2
        assert summary_of(result)["error"] == {"type": "ParseError", "message": message}


class TestCsvRuleOutcomes:
    """Inputs that the shared CSV rules refuse: a typed data error (exit 2) in
    the stdout summary, naming the line where there is one."""

    @pytest.mark.parametrize("argv, inputs, error_type, message", [
        (["fuse-trends", "trend.csv"],
         {"trend.csv": "datetime,value\n0,100\n2019-01-01T01:00:00,50\n"},
         "ParseError", "line 3: timestamp format changed from epoch to iso"),
        (["bin", "--events", "events.csv"], {"events.csv": "timestamp\n0\nnan\n60\n"},
         "ParseError", "line 3: non-finite value in 'nan'"),
        (["bin", "--events", "events.csv"], {"events.csv": "timestamp\n0\ninf\n60\n"},
         "ParseError", "line 3: non-finite value in 'inf'"),
        (["bin", "--events", "events.csv"], {"events.csv": "timestamp\n0\n1e400\n60\n"},
         "ParseError", "line 3: non-finite value in '1e400'"),
        (["fuse-trends", "trend.csv"],
         {"trend.csv": "datetime,value,isPartial\n2019-01-01T00:00:00,100,False\n"
                       "2019-01-01T01:00:00,50,True\n"},
         "ParseError", 'line 1: expected header "datetime,value", '
                       'got "datetime,value,isPartial"'),
        (["centrality", "--graph", "g.csv"], {"g.csv": "src,dst,w,label\n0,1,1\n1,0,1\n"},
         "ParseError", 'line 1: expected header "src,dst,w", got "src,dst,w,label"'),
        (["fuse-trends", "trend.csv"], {"trend.csv": "datetime,value\n0,100\n60,50\n125,20\n"},
         "ParseError", "time column is not uniformly spaced"),
        (["fuse-trends", "trend.csv"], {"trend.csv": "datetime,value\n-1e308,100\n1e308,50\n"},
         "ParseError", "time column must step forward by a finite amount, "
                       "got a first step of inf"),
        # segment starts whose distance overflows: not a raw OverflowError (exit 1)
        (["fuse-trends", "a.csv", "b.csv"],
         {"a.csv": "datetime,value\n-1.7e308,100\n-1.6e308,50\n",
          "b.csv": "datetime,value\n1.6e308,100\n1.7e308,50\n"},
         "NoOverlap", "segment start 1.6e+308 is too far from -1.7e+308 to align"),
    ], ids=["trend-mixed-kinds", "event-nan", "event-inf", "event-overflow",
            "trend-extra-column", "edge-extra-column", "trend-uneven-step",
            "trend-step-overflow", "fuse-start-overflow"])
    def test_exit_code_stream_type_and_line(self, tmp_path, monkeypatch, capsys, argv,
                                            inputs, error_type, message):
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        result = run(argv)
        captured = capsys.readouterr()
        assert result.exit_code == 2
        assert (captured.out.strip(), captured.err) == (result.summary, "")
        assert summary_of(result)["error"] == {"type": error_type, "message": message}


class TestComparePeriods:
    def test_two_periods(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 512
        t = np.arange(n, dtype=float)
        # first half noisy high-frequency, second half slow oscillation
        vals = np.concatenate([
            np.cos(2.8 * t[:256]) + 0.1 * rng.normal(size=256) + 5.0,
            np.cos(0.05 * t[:256]) + 0.1 * rng.normal(size=256) + 5.0,
        ])
        path = tmp_path / "series.csv"
        path.write_text("t,value\n" + "\n".join(
            f"{tt},{v}" for tt, v in zip(t, vals)) + "\n")
        out = tmp_path / "cmp"
        result = run(["compare-periods", "--in", str(path),
                      "--periods", "0:256,256:256", "--window", "20",
                      "--out", str(out)])
        assert result.exit_code == 0
        table = summary_of(result)["table"]
        assert len(table) == 2
        assert table[1]["low_freq_share"] > table[0]["low_freq_share"]
        assert (out / "shares.csv").exists()
        assert (out / "spectrum_0.csv").exists()
        assert (out / "spectrum_1.csv").exists()

    def test_cutoff_env(self, tmp_path, monkeypatch):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n" + "".join(
            f"{t},{5.0 + float(np.cos(0.3 * t))!r}\n" for t in range(512)))
        argv = ["compare-periods", "--in", str(path), "--periods", "0:256,256:128"]

        def cutoffs(*flags):
            doc = summary_of(run(argv + list(flags)))
            return doc["params"]["cutoff"], [row["cutoff"] for row in doc["table"]]

        assert cutoffs() == (None, [16, 8])
        monkeypatch.setenv("NETOSC_CUTOFF", "5")
        assert cutoffs() == (5, [5, 5])
        assert cutoffs("--cutoff", "7") == (7, [7, 7])


class TestPipelineInterop:
    def test_energy_csv_feeds_spectrum(self, model_json, tmp_path):
        sim_out = tmp_path / "sim"
        result = run(["simulate", "--graph", str(model_json),
                      "--x0", ",".join(str(v) for v in MODEL_X0),
                      "--eps", "1.5", "--t-end", "255", "--dt", "1.0",
                      "--out", str(sim_out)])
        assert result.exit_code == 0
        result = run(["spectrum", "--in", str(sim_out / "energy.csv"),
                      "--window", "20", "--cutoff", "16"])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["low_freq_share"] > 0.2


class TestDeterminism:
    def test_identical_runs_identical_outputs(self, model_json, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            result = run(["beat-demo", "--w1", "0.10", "--w2", "0.11",
                          "--n", "1024", "--out", str(out)])
            doc = summary_of(result)
            doc["outputs"] = [p.split("/")[-1] for p in doc["outputs"]]
            doc["params"]["out"] = ""
            files = {p.name: p.read_text() for p in sorted(out.iterdir())}
            outs.append((doc, files))
        assert outs[0] == outs[1]

    def test_usage_error_exit_1(self):
        result = run(["no-such-command"])
        assert result.exit_code == 1


class TestErrorTable:
    @pytest.mark.parametrize("exc, code, stream, extra", [
        (ParseError("bad row", line=3), 2, "out", {}),
        (Unstable("diverged", t_diverge=4.5), 3, "out", {"t_diverge": 4.5}),
        (DefectiveMatrix("defective", basis_condition=1e14), 3, "out",
         {"basis_condition": 1e14}),
        (ValueError("bad value"), 1, "err", {}),
        (FileNotFoundError("missing"), 1, "err", {}),
        (np.linalg.LinAlgError("eig did not converge"), 3, "out", {}),
        (IsADirectoryError("a directory"), 1, "err", {}),
        # a non-finite diagnostic is written as its name, so the JSON stays strict
        (DefectiveMatrix("singular", basis_condition=np.inf), 3, "out",
         {"basis_condition": "inf"}),
    ])
    def test_exit_code_and_stream(self, monkeypatch, capsys, exc, code, stream, extra):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(signal, "beat_demo", fail)
        result = run(["beat-demo"])
        captured = capsys.readouterr()
        assert result.exit_code == code
        assert result.outputs == []
        assert getattr(captured, stream).strip() == result.summary
        assert getattr(captured, "err" if stream == "out" else "out") == ""
        assert summary_of(result) == {
            "command": "beat-demo",
            "error": {"type": type(exc).__name__, "message": str(exc), **extra},
        }

    def test_memory_error_is_numeric_exit(self, tmp_path, monkeypatch, model_json, capsys):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(dynamics, "state_blocks", fail)
        out = tmp_path / "out"
        result = run(["simulate", "--graph", str(model_json), "--x0", "1,2,3,4,5",
                      "--out", str(out)])
        assert result.exit_code == 3
        assert capsys.readouterr().out.strip() == result.summary
        assert summary_of(result)["error"] == {"type": "MemoryError",
                                               "message": "Unable to allocate 74.5 GiB"}
        assert not list(tmp_path.rglob("*.tmp"))

    def test_programming_error_propagates(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(signal, "beat_demo", fail)
        with pytest.raises(RuntimeError, match="unexpected"):
            run(["beat-demo"])
        assert capsys.readouterr().out == ""

    def test_directory_input_is_usage_error(self, tmp_path, capsys):
        result = run(["spectrum", "--in", str(tmp_path)])
        assert result.exit_code == 1
        assert capsys.readouterr().err.strip() == result.summary
        assert summary_of(result)["error"]["type"] == "IsADirectoryError"

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_series_is_data_error(self, tmp_path, token):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1\n1,2\n2," + token + "\n3,1\n")
        result = run(["spectrum", "--in", str(path)])
        assert result.exit_code == 2
        error = summary_of(result)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith("line 4:")

    @pytest.mark.parametrize("command, doc, error_type", [
        ("centrality", {"n": 2.5, "edges": [[0, 1, 1], [1, 0, 1]]}, "ParseError"),
        ("analyze-graph", {"laplacian": [[1, -1], [0]]}, "InvalidGraph"),
        ("analyze-graph", {"lap0": [[1, -1], [-1, 1]], "lapI": [[1, -1], [0]]},
         "InvalidGraph"),
        ("analyze-graph", {"laplacian": [[10**400, 0], [0, 0]]}, "InvalidGraph"),
    ])
    def test_malformed_graph_is_data_error(self, tmp_path, command, doc, error_type):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        result = run([command, "--graph", str(path)])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["type"] == error_type

    @pytest.mark.parametrize("argv, text, message", [
        (["analyze-graph"], '{"laplacian": [[1, -1, 0], [-1, 1, 0]]}',
         "Laplacian must be square, got shape (2, 3)"),
        (["analyze-graph"], '{"laplacian": [[NaN, 0], [0, 0]]}',
         "Laplacian entries must be finite"),
        (["analyze-graph"], '{"laplacian": [[1, 0], [0, 0]]}',
         "row sums must vanish: worst 1.000e+00"),
        (["analyze-graph"], '{"laplacian": [[-1, 1], [1, -1]]}',
         "off-diagonal entries must be <= 0"),
        (["analyze-graph"], json.dumps({"laplacian": [[-3e-12, 1e-12, 1e-12, 1e-12]]
                                        + [[0, 0, 0, 0]] * 3}),
         "diagonal entries must be >= 0"),
        (["centrality", "--betweenness"], '{"laplacian": [[2, -2], [-2, 2]]}',
         "betweenness reweighting requires unit weights"),
    ], ids=["non-square", "non-finite", "row-sums", "positive-off-diagonal",
            "negative-diagonal", "betweenness-on-matrix"])
    def test_refused_matrix_is_data_error(self, tmp_path, argv, text, message):
        path = tmp_path / "graph.json"
        path.write_text(text)
        result = run([argv[0], "--graph", str(path), *argv[1:]])
        assert result.exit_code == 2
        assert summary_of(result)["error"] == {"type": "InvalidGraph", "message": message}

    @pytest.mark.parametrize("argv, code, error_type, message", [
        (["critical-eps", "--graph", "model.json", "--lo", "1", "--hi", "1"], 3,
         "BadBracket", "need lo < hi and tol > 0, got (1.0, 1.0), tol=0.001"),
        (["critical-eps", "--graph", "model.json", "--lo", "0", "--hi", "1", "--tol", "0"],
         3, "BadBracket", "need lo < hi and tol > 0, got (0.0, 1.0), tol=0.0"),
        # a real march point whose eigenbasis is singular predicts nothing; the
        # march goes on in cap-bounded steps
        (["critical-eps", "--graph", "singular.json", "--lo", "0", "--hi", "1"], 3,
         "NoTransition", "spectrum real at every march point up to eps = 1.0"),
        (["simulate", "--graph", "model.json", "--x0", "1,2,nan,4,5"], 1,
         "ValueError", "initial condition must be finite"),
        (["simulate", "--graph", "model.json", "--x0", "1,2,3,4,5", "--v0", "1"], 1,
         "ValueError", "mismatched shapes (5,) vs (1,)"),
        (["sweep", "--graph", "model.json", "--x0", "1,2,3,4,5", "--eps", ""], 1,
         "ValueError", "--eps: invalid item ''"),
        (["compare-periods", "--in", "series.csv", "--periods", "5:"], 1,
         "ValueError", "--periods: invalid item '5:'"),
        (["fuse-trends", "hourly.csv", "two-hourly.csv"], 2,
         "NoOverlap", "segment step 7200.0 != 3600.0"),
        (["fuse-trends", "hourly.csv", "earlier.csv"], 2,
         "NoOverlap", "segments must be ordered by start time"),
        (["fuse-trends", "zero-tail.csv", "zero-head.csv"], 2,
         "ZeroAnchor", "one side of the overlap sums to zero"),
        (["fuse-trends", "decreasing.csv"], 2, "ParseError",
         "time column must step forward by a finite amount, got a first step of -3600.0"),
        # 100 / 1e-320 overflows the junction's factor
        (["fuse-trends", "subnormal-tail.csv", "head.csv"], 2, "OutOfRange",
         "overlap sum ratio inf is outside (0, inf)"),
        # each junction scales by 1e302: the fused peak overflows
        (["fuse-trends", "tiny-1.csv", "tiny-2.csv", "tiny-3.csv"], 2, "OutOfRange",
         "fused series peak is not finite"),
        (["fuse-trends", "one-row.csv"], 2, "EmptyInput", "trend CSV needs at least 2 rows"),
        (["analyze-graph", "--graph", "empty.json"], 2, "InvalidGraph",
         "node count must be positive, got 0"),
        (["spectrum", "--in", "one-sample.csv"], 2, "TooShort",
         "time series needs >= 2 samples, got shape (1,)"),
        (["bin", "--events", "events.csv", "--bin-seconds", "0"], 1, "ValueError",
         "bin_seconds must be positive"),
        (["compare-periods", "--in", "series.csv", "--periods", "0:1"], 2, "OutOfRange",
         "period length must be >= 2, got 1"),
    ], ids=["equal-bracket", "zero-tol", "singular-march-basis", "non-finite-x0", "v0-shape",
            "empty-eps", "period-without-length", "step-mismatch", "earlier-start", "zero-anchor",
            "decreasing-time", "overflowing-factor", "overflowing-peak", "one-row-trend",
            "zero-nodes", "one-sample-series", "zero-bin-seconds", "one-sample-period"])
    def test_exit_code_type_and_message(self, tmp_path, monkeypatch, argv, code, error_type,
                                        message):
        inputs = {
            "model.json": json.dumps({"lap0": MODEL_L0.tolist(), "lapI": MODEL_LI.tolist()}),
            "singular.json": json.dumps({"n": 3, "edges": [
                [0, 2, 2.21e+130], [2, 0, 8.45e+119], [2, 1, 4.23e+85]]}),
            "hourly.csv": "datetime,value\n2019-01-06T22:00:00,100\n"
                          "2019-01-06T23:00:00,90\n2019-01-07T00:00:00,80\n",
            "two-hourly.csv": "datetime,value\n2019-01-07T00:00:00,40\n"
                              "2019-01-07T02:00:00,100\n",
            "earlier.csv": "datetime,value\n2019-01-06T21:00:00,40\n"
                           "2019-01-06T22:00:00,100\n",
            "zero-tail.csv": "datetime,value\n2019-01-06T22:00:00,100\n"
                             "2019-01-06T23:00:00,0\n",
            "zero-head.csv": "datetime,value\n2019-01-06T23:00:00,0\n"
                             "2019-01-07T00:00:00,100\n",
            "decreasing.csv": "datetime,value\n2019-01-07T00:00:00,100\n"
                              "2019-01-06T23:00:00,90\n",
            "series.csv": "t,value\n0,1\n1,2\n2,3\n",
            "subnormal-tail.csv": "datetime,value\n0,100\n3600,1e-320\n",
            "head.csv": "datetime,value\n3600,100\n7200,50\n",
            "tiny-1.csv": "datetime,value\n0,100\n3600,1e-300\n",
            "tiny-2.csv": "datetime,value\n3600,100\n7200,1e-300\n",
            "tiny-3.csv": "datetime,value\n7200,100\n10800,50\n",
            "one-row.csv": "datetime,value\n0,100\n",
            "empty.json": json.dumps({"n": 0, "edges": []}),
            "one-sample.csv": "t,value\n0,1\n",
            "events.csv": "timestamp\n0\n60\n",
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        result = run(argv)
        assert result.exit_code == code
        assert summary_of(result)["error"] == {"type": error_type, "message": message}

    @pytest.mark.parametrize("argv", [
        ["analyze-graph"],
        ["simulate", "--x0", "1,2"],
        ["critical-eps", "--lo", "0", "--hi", "1"],
        ["sweep", "--eps", "0,1", "--x0", "1,2"],
    ], ids=lambda argv: argv[0])
    def test_mismatched_explicit_pair_is_data_error(self, tmp_path, argv):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"lap0": [[1, -1], [-1, 1]],
                                    "lapI": np.zeros((3, 3)).tolist()}))
        result = run([argv[0], "--graph", str(path), *argv[1:]])
        assert result.exit_code == 2
        error = summary_of(result)["error"]
        assert error["type"] == "InvalidGraph"
        assert "2x2" in error["message"] and "3x3" in error["message"]

    @pytest.mark.parametrize("rows, error_type", [
        ("3,1\n2,2\n1,3\n0,4\n", "ParseError"),            # time runs backwards
        ("1e308,1\n-1e308,2\n0,3\n1,2\n", "ParseError"),   # time step overflows
        ("0,1e308\n1,-1e308\n2,1e308\n3,5\n4,1\n", "OutOfRange"),  # DFT overflows
    ], ids=["backwards", "time-overflow", "dft-overflow"])
    def test_unusable_series_is_data_error(self, tmp_path, rows, error_type):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n" + rows)
        result = run(["spectrum", "--in", str(path), "--window", "1"])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["type"] == error_type

    @pytest.mark.parametrize("doc, x0", [
        ({"laplacian": [[1e308, -1e308], [-1e308, 1e308]]}, "1,0"),
        ({"n": 3, "edges": [[0, 1, 1e300], [1, 0, 2e300], [1, 2, 1e300],
                            [2, 1, 1.5e300], [2, 0, 1e300], [0, 2, 1.2e300]]}, "1,0,0"),
    ], ids=["laplacian-1e308", "digraph-1e300"])
    @pytest.mark.parametrize("argv", [
        ["analyze-graph"],
        ["simulate", "--t-end", "1", "--dt", "0.01"],
        ["critical-eps", "--lo", "0", "--hi", "1"],
        ["sweep", "--eps", "0,1"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_magnitude_is_out_of_range(self, tmp_path, argv, doc, x0):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        x0_args = ["--x0", x0] if argv[0] in ("simulate", "sweep") else []
        result = run([argv[0], "--graph", str(path), *argv[1:], *x0_args])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["type"] == "OutOfRange"

    @pytest.mark.parametrize("command", ["centrality", "analyze-graph"])
    def test_deeply_nested_json_is_parse_error(self, tmp_path, command):
        path = tmp_path / "graph.json"
        path.write_text('{"laplacian": ' + "[" * 100_000 + "]" * 100_000 + "}")
        result = run([command, "--graph", str(path)])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("text", ["not json", "[" * 100_000], ids=["not-json", "deep"])
    def test_invalid_graph_json_is_parse_error(self, tmp_path, text):
        path = tmp_path / "graph.json"
        path.write_text(text)
        result = run(["centrality", "--graph", str(path)])
        assert result.exit_code == 2
        error = summary_of(result)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"invalid JSON in {path}: ")

    @pytest.mark.parametrize("edge", [[0.7, 1, 1], [1, "0", 1], [True, 1, 1],
                                      [0, 1, "1"]])
    def test_non_integer_edge_endpoint_is_data_error(self, tmp_path, edge):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 2, "edges": [edge, [1, 0, 1]]}))
        result = run(["centrality", "--graph", str(path)])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["type"] == "ParseError"


def _reference_matrix_csv(mat):
    """Reference dense-matrix renderer: row-major, 17 significant digits,
    no header."""
    arr = mat.entries if isinstance(mat, LaplacianMatrix) else np.asarray(mat)
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in arr) + "\n"


def _reference_csv(header, rows):
    """Reference renderer: each value formatted on its own."""
    lines = [header] + [
        ",".join(str(v) if isinstance(v, (int, np.integer)) else f"{v:.17g}"
                 for v in row)
        for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvRenderer:
    @pytest.mark.parametrize("column", [
        [1, 2, 3], [np.int64(2**62), 0], [0.1, -0.0, float("nan"), float("inf")],
        [np.float64(2.0), 1e-300],
        pytest.param(np.array([2**62, -(2**62), 0, 1, -1, 2**62 - 1]), id="int64"),
        pytest.param(np.array([np.nan, np.inf, -np.inf, -0.0, 2.5e-310, 1e300, 0.1,
                               1 / 3, 123456789012345678.0]), id="float64"),
    ])
    def test_uniform_and_mixed_columns(self, column):
        # an integer index column beside two copies of a value column
        column = np.asarray(column)
        index = np.arange(column.size)
        rows = list(zip(index, column, column))
        assert "".join(_csv("i,x,y", index, column, column)) == _reference_csv("i,x,y", rows)

    def test_states_table(self):
        rng = np.random.default_rng(0)
        times = np.arange(101) * 0.01
        states = rng.normal(size=(101, 5)) * 1e3
        rows = [(t, *row) for t, row in zip(times, states)]
        assert "".join(_csv("t,x", times, *states.T)) == _reference_csv("t,x", rows)

    def test_no_rows(self):
        assert "".join(_csv("a,b", np.array([]), np.array([], dtype=int))) == "a,b\n"

    @pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS + 7])
    @pytest.mark.parametrize("header", ["t,k,x", None])
    def test_block_boundaries(self, rows, header):
        t = np.arange(rows) * 0.01
        k = np.arange(rows)
        x = np.random.default_rng(rows).normal(size=rows)
        expected = _reference_csv("t,k,x", list(zip(t, k, x)))
        if header is None:
            expected = expected[len("t,k,x\n"):]
        pieces = list(_csv(header, t, k, x))
        assert "".join(pieces) == expected
        blocks = [min(_CSV_BLOCK_ROWS, rows - start)
                  for start in range(0, rows, _CSV_BLOCK_ROWS)]
        lines = [1] * (header is not None) + blocks
        assert [piece.count("\n") for piece in pieces] == lines

    def test_states_csv_streams_in_bounded_memory(self, tmp_path):
        # rendered as one string, these 100k rows of 6 cells peak at ~35 MiB;
        # here they come as one block, the largest a producer could yield
        times = np.arange(100_000) * 0.01
        states = np.random.default_rng(0).normal(size=(100_000, 5))
        files = _Files(tmp_path)
        tracemalloc.start()
        try:
            with files.open("trajectory.csv") as f:
                _block_csv(f, "t,x_0,x_1,x_2,x_3,x_4", times, slice(0, 100_000), *states.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        files.commit()
        assert (tmp_path / "trajectory.csv").read_text().count("\n") == 100_001


class TestArtifactReplacement:
    BEAT = ["beat-demo", "--w1", "0.10", "--w2", "0.11", "--n", "1024"]

    def test_beat_demo_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "demo"
        contents = []
        for _ in range(2):
            assert run(self.BEAT + ["--out", str(out)]).exit_code == 0
            contents.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(contents[0]) == 10
        assert contents[0] == contents[1]

    def test_shorter_rerun_leaves_no_stale_tail(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("timestamp\n" + "\n".join(
            str(60.0 * k) for k in range(32)) + "\n")

        def bin_into(out, n_bins):
            result = run(["bin", "--events", str(events), "--bin-seconds", "120",
                          "--t0", "0", "--n-bins", str(n_bins), "--out", str(out)])
            assert result.exit_code == 0
            return (out / "series.csv").read_bytes()

        long = bin_into(tmp_path / "same", 16)
        short = bin_into(tmp_path / "same", 8)
        assert short == bin_into(tmp_path / "fresh", 8)
        assert len(short) < len(long)

    def test_render_error_keeps_previous_bytes(self, tmp_path):
        old = _Files(tmp_path)
        old.write("a.csv", lambda: "old\n")
        old.commit()

        def fail():
            raise RuntimeError("render failed")

        def fail_after_first_piece():
            yield "new\n"
            raise RuntimeError("render failed")

        for render in (fail, fail_after_first_piece):
            files = _Files(tmp_path)
            with pytest.raises(RuntimeError):
                try:
                    files.write("a.csv", render)
                    files.commit()
                finally:
                    files.discard()
            assert (tmp_path / "a.csv").read_bytes() == b"old\n"
            assert files.paths == []
            assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_failed_third_render_keeps_every_old_artifact(self, tmp_path, monkeypatch):
        # two artifacts are rendered before the failure; neither replaces
        # its old file, and no temporary file is left
        out = tmp_path / "demo"
        assert run(self.BEAT + ["--out", str(out)]).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        renders = []

        def third_fails(header, *columns, _csv=_csv):
            renders.append(header)
            if len(renders) == 3:
                raise OSError("No space left on device")
            return _csv(header, *columns)

        monkeypatch.setattr("netosc.cli._csv", third_fails)
        result = run(["beat-demo", "--w1", "0.10", "--w2", "0.12", "--n", "512",
                      "--out", str(out)])
        assert result.exit_code == 1
        assert len(renders) == 3 and result.outputs == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(tmp_path.rglob("*.tmp"))

    # the README model diverges at eps = 3 after simulate opens its artifacts
    DIVERGES = ["simulate", "--eps", "3", "--x0=-2,0,0,0,0", "--t-end", "200",
                "--dt", "0.02"]

    def test_failed_command_removes_the_out_directories_it_made(self, model_json, tmp_path):
        result = run(self.DIVERGES + ["--graph", str(model_json),
                                      "--out", str(tmp_path / "new" / "a")])
        assert result.exit_code == 3
        assert not (tmp_path / "new").exists()

    def test_failed_command_keeps_an_empty_out_directory_made_before(self, model_json,
                                                                    tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        result = run(self.DIVERGES + ["--graph", str(model_json), "--out", str(out / "a")])
        assert result.exit_code == 3
        assert out.is_dir() and not list(out.iterdir())
        assert run(self.DIVERGES + ["--graph", str(model_json), "--out", str(out)]).exit_code == 3
        assert out.is_dir() and not list(out.iterdir())

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"keep me\n")
        out = tmp_path / "demo"
        out.mkdir()
        (out / "signal_a.csv").symlink_to(target)
        assert run(self.BEAT + ["--out", str(out)]).exit_code == 0
        link = out / "signal_a.csv"
        assert not link.is_symlink()
        assert link.read_text().startswith("t,value\n")
        assert target.read_bytes() == b"keep me\n"


class TestNoSeed:
    def test_seed_flag_rejected(self):
        assert run(["--seed", "1", "beat-demo", "--n", "256"]).exit_code == 1

    def test_params_carry_no_seed(self):
        doc = summary_of(run(["beat-demo", "--n", "256"]))
        assert doc["params"] == {"n": 256, "out": None, "w1": 0.1, "w2": 0.11}


def _graph_files(tmp_path, g):
    """``g`` as a digraph JSON, an edge CSV (its suffix in capitals: the
    suffix rule ignores case) and a {"laplacian"} file."""
    texts = {
        "g.json": json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}),
        "g.CSV": "src,dst,w\n" + "".join(f"{s},{d},{w!r}\n" for s, d, w in g.edges),
        "lap.json": json.dumps({"laplacian": laplacian_of(g).entries.tolist()}),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return [tmp_path / name for name in texts]


def _model_digraph():
    """The symmetrizable part of the 5-node model as a digraph."""
    return WeightedDigraph(n=5, edges=tuple(
        (i, j, float(-MODEL_L0[i, j])) for i in range(5) for j in range(5)
        if i != j and MODEL_L0[i, j] != 0.0))


class TestEpsilonFamily:
    def test_overflowing_eps_is_invalid_graph(self, model_json):
        # not a numpy overflow warning on the way (warnings are errors here)
        result = run(["analyze-graph", "--graph", str(model_json), "--eps", "1e308"])
        assert result.exit_code == 2
        assert summary_of(result)["error"] == {"type": "InvalidGraph",
                                               "message": "Laplacian entries must be finite"}

    @pytest.mark.parametrize("form", [0, 1, 2], ids=["json", "csv", "laplacian"])
    def test_analyze_graph_honours_eps(self, tmp_path, form):
        g = seeded_digraph(1, 8)
        path = _graph_files(tmp_path, g)[form]
        lap = compose_epsilon(canonical_split(laplacian_of(g)), 0.5)
        doc = summary_of(run(["analyze-graph", "--graph", str(path), "--eps", "0.5"]))
        assert doc["params"]["eps"] == 0.5
        assert doc["eigenvalues"] == [[lam.real, lam.imag]
                                      for lam in eigendecompose(lap).eigenvalues]
        assert doc["symmetrizable"] is False

    def test_simulate_honours_eps(self, tmp_path):
        g = seeded_digraph(2, 6)
        path = _graph_files(tmp_path, g)[0]
        sym = tmp_path / "sym.json"
        sym.write_text(json.dumps(
            {"laplacian": canonical_split(laplacian_of(g)).lap_sym_part.entries.tolist()}))
        x0 = ",".join(str(v) for v in range(6))
        tables = []
        for graph_path, eps in ((path, ["--eps", "0"]), (sym, [])):
            out = tmp_path / graph_path.stem
            assert run(["simulate", "--graph", str(graph_path), "--x0", x0,
                        "--t-end", "2", "--out", str(out)] + eps).exit_code == 0
            tables.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert tables[0] == tables[1]

    def test_default_is_the_input_itself(self, tmp_path):
        g = _model_digraph()
        lap = laplacian_of(g)
        x0 = ",".join(str(v) for v in MODEL_X0)
        for command, extra in (("analyze-graph", []), ("centrality", []),
                               ("simulate", ["--x0", x0, "--t-end", "2"])):
            artifacts = []
            for path in _graph_files(tmp_path, g):
                out = tmp_path / f"{command}_{path.name}"
                result = run([command, "--graph", str(path), "--out", str(out)] + extra)
                assert result.exit_code == 0
                doc = summary_of(result)
                if command == "simulate":
                    assert doc["params"]["eps"] == 1.0
                if command == "centrality":
                    assert doc["centrality"] == oscillation_centrality(lap).tolist()
                artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert artifacts[0] == artifacts[1] == artifacts[2]
            if command == "analyze-graph":
                assert artifacts[0]["laplacian.csv"] == _reference_matrix_csv(lap).encode()


_SERIES = "t,value\n" + "".join(f"{t},{5.0 + float(np.cos(0.9 * t))!r}\n" for t in range(64))
_EVENTS = "timestamp\n" + "".join(f"{60.0 * k}\n" for k in range(32))
_TRENDS = ("datetime,value\n2019-01-06T22:00:00,100\n2019-01-06T23:00:00,90\n"
           "2019-01-07T00:00:00,80\n",
           "datetime,value\n2019-01-07T00:00:00,40\n2019-01-07T01:00:00,100\n"
           "2019-01-07T02:00:00,50\n",
           "datetime,value\n2019-01-07T02:00:00,100\n2019-01-07T03:00:00,20\n")
_RING = "src,dst,w\n" + "".join(f"{k},{(k + 1) % 4},1\n{(k + 1) % 4},{k},1\n"
                                for k in range(4))

# command -> (argv with input names, {input name: valid text, bad text})
# Each bad text holds an unparsable line 4.
_INPUT_COMMANDS = {
    "spectrum": (["spectrum", "--in", "series.csv"],
                 {"series.csv": (_SERIES, "t,value\n0,1\n1,2\n2,x\n3,1\n")}),
    "bin": (["bin", "--events", "events.csv", "--bin-seconds", "120", "--t0", "0",
             "--n-bins", "8"],
            {"events.csv": (_EVENTS, "timestamp\n1\n2\nx\n")}),
    "fuse-trends": (["fuse-trends", "a.csv", "b.csv", "c.csv"],
                    {"a.csv": (_TRENDS[0], _TRENDS[0]),
                     "b.csv": (_TRENDS[1], "datetime,value\n2019-01-07T00:00:00,40\n"
                                           "2019-01-07T01:00:00,100\nx\n"),
                     "c.csv": (_TRENDS[2], _TRENDS[2])}),
    "centrality": (["centrality", "--graph", "ring.csv"],
                   {"ring.csv": (_RING, "src,dst,w\n0,1,1\n1,0,1\n1,2\n")}),
}


def _run_on(tmp_path, command, which=0, newline="\n", raw=None):
    """Run ``command`` on its inputs written under ``tmp_path`` (the valid
    texts, or the bad ones when ``which`` is 1) with ``newline`` line ends;
    ``raw`` replaces the bytes of the inputs it names."""
    argv, texts = _INPUT_COMMANDS[command]
    tmp_path.mkdir(exist_ok=True)
    paths = {}
    for name, pair in texts.items():
        paths[name] = tmp_path / name
        data = pair[which].replace("\n", newline).encode()
        paths[name].write_bytes((raw or {}).get(name, data))
    return run([str(paths[a]) if a in paths else a for a in argv]), paths


def _results(result):
    doc = summary_of(result)
    for key in ("params", "inputs", "outputs"):
        doc.pop(key)
    return doc


class TestInputsReadOnce:
    @pytest.fixture
    def reads(self, monkeypatch):
        """Paths opened for reading, through open() or pathlib, in order."""
        calls = []
        original = io.open

        def counting(file, mode="r", *args, **kwargs):
            if "r" in mode:
                calls.append(str(file))
            return original(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        return calls

    @pytest.mark.parametrize("command", sorted(_INPUT_COMMANDS))
    def test_one_read_per_input(self, tmp_path, reads, command):
        result, paths = _run_on(tmp_path, command)
        assert result.exit_code == 0
        assert reads == [str(p) for p in paths.values()]
        assert summary_of(result)["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths.values()}

    @pytest.mark.parametrize("argv", [
        ["analyze-graph"],
        ["centrality"],
        ["simulate", "--x0", "1,0,0,0"],
        ["sweep", "--eps", "0,1", "--x0", "1,0,0,0"],
    ], ids=lambda argv: argv[0])
    def test_one_json_decode_per_graph_input(self, tmp_path, monkeypatch, ring_json, argv):
        decoded = []
        original = json.loads

        def counting(text, *args, **kwargs):
            decoded.append(text)
            return original(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        result = run([argv[0], "--graph", str(ring_json), *argv[1:],
                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert decoded == [ring_json.read_text()]

    @pytest.mark.parametrize("command", sorted(_INPUT_COMMANDS))
    def test_non_utf8_input_is_parse_error(self, tmp_path, command):
        name = sorted(_INPUT_COMMANDS[command][1])[-1]
        result, paths = _run_on(tmp_path, command, raw={name: b"\xff\xfe0,1\n"})
        assert result.exit_code == 2
        error = summary_of(result)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"{paths[name]} is not UTF-8")

    @pytest.mark.parametrize("command", sorted(_INPUT_COMMANDS))
    def test_crlf_input_matches_lf(self, tmp_path, command):
        lf, _ = _run_on(tmp_path / "lf", command)
        crlf, _ = _run_on(tmp_path / "crlf", command, newline="\r\n")
        assert crlf.exit_code == lf.exit_code == 0
        assert _results(crlf) == _results(lf)
        lf, _ = _run_on(tmp_path / "lf_bad", command, which=1)
        crlf, _ = _run_on(tmp_path / "crlf_bad", command, which=1, newline="\r\n")
        assert crlf.exit_code == lf.exit_code == 2
        assert summary_of(crlf) == summary_of(lf)
        assert summary_of(lf)["error"]["message"].startswith("line 4:")

    def test_graph_json_read_once(self, tmp_path, reads):
        path = _graph_files(tmp_path, _model_digraph())[0]
        assert run(["analyze-graph", "--graph", str(path)]).exit_code == 0
        assert reads == [str(path)]


class TestNodeLimit:
    @pytest.mark.parametrize("name, text", [
        ("big.json", json.dumps({"n": MAX_NODES + 1, "edges": [[0, 1, 1], [1, 0, 1]]})),
        ("big.csv", f"src,dst,w\n0,{MAX_NODES},1\n{MAX_NODES},0,1\n"),
    ])
    def test_too_many_nodes_is_data_error(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        result = run(["centrality", "--graph", str(path)])
        assert result.exit_code == 2
        error = summary_of(result)["error"]
        assert error["type"] == "InvalidGraph"
        assert error["message"] == f"node count {MAX_NODES + 1} exceeds the limit of 5000"


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_one_stderr_line_not_a_traceback(self, tmp_path, unbuffered):
        # the summary is written after the artifacts, to a pipe whose reader
        # has gone: a buffered stdout fails only when it is flushed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "netosc.cli", "beat-demo", "--n", "256"],
                                  cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "netosc: stdout was closed before the summary was written\n"
