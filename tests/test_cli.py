import builtins
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, MODEL_X0, seeded_digraph, strict_json
from netosc import signal
from netosc.cli import _CSV_BLOCK_ROWS, _csv, _Files, _states_csv, run
from netosc.dynamics import oscillation_centrality
from netosc.errors import DefectiveMatrix, ParseError, Unstable
from netosc.graph import (
    MAX_NODES,
    LaplacianMatrix,
    WeightedDigraph,
    canonical_split,
    check_symmetrizable,
    compose_epsilon,
    laplacian_of,
)
from netosc.spectral import eigendecompose


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
        # an infinite bracket end is a usage error; the library still takes one
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


class TestAnalyzeGraph:
    def test_model_symmetrizable_at_eps0(self, model_json, tmp_path):
        out = tmp_path / "out"
        result = run(["analyze-graph", "--graph", str(model_json),
                      "--eps", "0", "--out", str(out)])
        assert result.exit_code == 0
        doc = summary_of(result)
        assert doc["symmetrizable"] is True
        assert np.allclose(doc["mass"], [3, 4, 1, 2, 4], atol=1e-8)
        assert doc["gershgorin"]["center"] == 23.0
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
        verdict = check_symmetrizable(lap)
        assert (out / "laplacian_sym.csv").exists() == bool(verdict)
        if verdict:
            assert ((out / "laplacian_sym.csv").read_bytes()
                    == _reference_matrix_csv(verdict.lap_sym).encode())

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

    def test_model_not_symmetrizable_at_eps1(self, model_json):
        result = run(["analyze-graph", "--graph", str(model_json), "--eps", "1"])
        doc = summary_of(result)
        assert doc["symmetrizable"] is False
        assert doc["spectrum_real"] is True


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

    def test_bad_vector_usage_error(self, model_json):
        result = run(["simulate", "--graph", str(model_json), "--x0", "1,2"])
        assert result.exit_code == 1

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
        pytest.param({"lap0": MODEL_L0.tolist(), "lapI": MODEL_LI.tolist()},
                     "10,2,7,5,6", "10000", "0.01", marks=pytest.mark.slow),
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
        (["centrality", "--betweenness"], '{"laplacian": [[1, -1], [-1, 1]]}',
         "betweenness reweighting needs an edge-list graph input"),
    ], ids=["non-square", "non-finite", "row-sums", "positive-off-diagonal",
            "negative-diagonal", "betweenness-on-matrix"])
    def test_refused_matrix_is_data_error(self, tmp_path, argv, text, message):
        path = tmp_path / "graph.json"
        path.write_text(text)
        result = run([argv[0], "--graph", str(path), *argv[1:]])
        assert result.exit_code == 2
        assert summary_of(result)["error"]["message"] == message

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
        (["fuse-trends", "hourly.csv", "two-hourly.csv"], 2,
         "NoOverlap", "segment step 7200.0 != 3600.0"),
        (["fuse-trends", "hourly.csv", "earlier.csv"], 2,
         "NoOverlap", "segments must be ordered by start time"),
        (["fuse-trends", "zero-tail.csv", "zero-head.csv"], 2,
         "ZeroAnchor", "shared-timestamp values and overlap means are both zero"),
        (["fuse-trends", "decreasing.csv"], 2, "ParseError", "trend step must be positive"),
    ], ids=["equal-bracket", "zero-tol", "singular-march-basis", "non-finite-x0", "v0-shape",
            "step-mismatch", "earlier-start", "zero-anchor", "decreasing-time"])
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
        # rendered as one string, these 100k rows of 6 cells peak at ~35 MiB
        times = np.arange(100_000) * 0.01
        states = np.random.default_rng(0).normal(size=(100_000, 5))
        files = _Files(tmp_path)
        tracemalloc.start()
        try:
            files.write("trajectory.csv", _states_csv, times, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
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
        _Files(tmp_path).write("a.csv", lambda: "old\n")

        def fail():
            raise RuntimeError("render failed")

        def fail_after_first_piece():
            yield "new\n"
            raise RuntimeError("render failed")

        for render in (fail, fail_after_first_piece):
            files = _Files(tmp_path)
            with pytest.raises(RuntimeError):
                files.write("a.csv", render)
            assert (tmp_path / "a.csv").read_bytes() == b"old\n"
            assert files.paths == []
            assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

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
    """``g`` as a digraph JSON, an edge CSV and a {"laplacian"} file."""
    texts = {
        "g.json": json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}),
        "g.csv": "src,dst,w\n" + "".join(f"{s},{d},{w!r}\n" for s, d, w in g.edges),
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
