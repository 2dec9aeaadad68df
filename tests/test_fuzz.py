"""Property-based fuzzing of the CLI: any bytes given to an input file end in
exit 0 or a typed data error (exit 2), any weight scale and any float flag
value in exit 0-3, never in an exception escaping ``run``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODEL_L0, MODEL_LI, strict_json
from netosc.cli import run

_TONE = 5.0 + np.cos(2 * np.pi * 8 * np.arange(64) / 64)
_SERIES = "t,value\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(_TONE.tolist()))
_EVENTS = "timestamp\n" + "".join(f"{60.0 * k}\n" for k in range(32))
_TREND_A = ("datetime,value\n2019-01-06T22:00:00,100\n2019-01-06T23:00:00,90\n"
            "2019-01-07T00:00:00,80\n")
_TREND_B = "datetime,value\n2019-01-07T00:00:00,40\n2019-01-07T01:00:00,100\n"
# the symmetrizable part of the 5-node model, as a digraph
_EDGES = [[i, j, float(-MODEL_L0[i, j])] for i in range(5) for j in range(5)
          if i != j and MODEL_L0[i, j] != 0.0]
_GRAPH_JSON = json.dumps({"n": 5, "edges": _EDGES})
_GRAPH_CSV = "src,dst,w\n" + "".join(f"{s},{d},{w!r}\n" for s, d, w in _EDGES)

# kind -> (file name, valid fixture, argv with FILE for the fuzzed path, exit codes)
KINDS = {
    "spectrum": ("series.csv", _SERIES, ["spectrum", "--in", "FILE"], {0, 2}),
    "bin": ("events.csv", _EVENTS, ["bin", "--events", "FILE"], {0, 2}),
    "fuse-trends": ("a.csv", _TREND_A, ["fuse-trends", "FILE", "B"], {0, 2}),
    # an edited graph can be a valid digraph that is not symmetrizable
    "centrality-json": ("g.json", _GRAPH_JSON, ["centrality", "--graph", "FILE"],
                        {0, 2, 3}),
    "centrality-csv": ("g.csv", _GRAPH_CSV, ["centrality", "--graph", "FILE"],
                       {0, 2, 3}),
}


@st.composite
def _edited(draw, base):
    """``base`` with 1-4 single-byte replacements, insertions or deletions."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or i == len(data):
            data.insert(i, draw(st.integers(0, 255)))
        elif op == "replace":
            data[i] = draw(st.integers(0, 255))
        else:
            del data[i]
    return bytes(data)


def _inputs(kind):
    return st.one_of(st.binary(max_size=200), _edited(KINDS[kind][1].encode()))


def _run(tmp_path_factory, kind, data):
    name, _, argv, _ = KINDS[kind]
    # a new file per example: rewriting one file in place can stall on ext4
    root = tmp_path_factory.mktemp("fuzz")
    (root / name).write_bytes(data)
    (root / "b.csv").write_text(_TREND_B)
    subst = {"FILE": str(root / name), "B": str(root / "b.csv")}
    return run([subst.get(a, a) for a in argv])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_valid_fixture_exits_0(tmp_path_factory, kind):
    assert _run(tmp_path_factory, kind, KINDS[kind][1].encode()).exit_code == 0


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_any_bytes_exit_0_or_2(tmp_path_factory, kind, data):
    result = _run(tmp_path_factory, kind, data.draw(_inputs(kind)))
    assert result.exit_code in KINDS[kind][3]
    if result.exit_code == 3:
        assert json.loads(result.summary)["error"]["type"] == "NotSymmetrizableError"


@st.composite
def _weighted_digraph(draw):
    """A digraph on 2-6 nodes with weights m * 10^e, e from -300 to 152: a few
    lie above graph.MAX_ENTRY = 1e150, most below it."""
    n = draw(st.integers(2, 6))
    pairs = [[i, j] for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique_by=tuple))
    weight = st.builds(lambda m, e: m * 10.0 ** e,
                       st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 152))
    return {"n": n, "edges": [edge + [draw(weight)] for edge in edges]}


NUMERIC = {
    "analyze-graph": [],
    "simulate": ["--t-end", "1", "--dt", "0.1", "X0"],
    "critical-eps": ["--lo", "0", "--hi", "1"],
    "sweep": ["--eps", "0,0.5,1", "--t-end", "1", "--dt", "0.1", "X0"],
}


@pytest.mark.parametrize("command", sorted(NUMERIC))
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(doc=_weighted_digraph())
def test_any_weight_scale_exits_0_2_or_3(tmp_path_factory, command, doc):
    path = tmp_path_factory.mktemp("scale") / "g.json"
    path.write_text(json.dumps(doc))
    x0 = "--x0=" + ",".join(["1"] + ["0"] * (doc["n"] - 1))
    result = run([command, "--graph", str(path),
                  *(x0 if a == "X0" else a for a in NUMERIC[command])])
    assert result.exit_code in (0, 2, 3)
    if result.exit_code == 0:
        strict_json(result.summary)     # no NaN or Infinity


# signed zeros, infinities, NaN, the smallest subnormal, the largest
# magnitudes, and negatives of any size
_VALUES = st.one_of(
    st.sampled_from(["0", "-0", "inf", "-inf", "nan", "5e-324", "1e308", "-1e308"]),
    st.floats(max_value=0.0, exclude_max=True).map(repr))


def _listed(min_size, max_size):
    """A list flag's value: 1s and _VALUES, comma-separated."""
    return st.lists(st.one_of(st.just("1"), _VALUES),
                    min_size=min_size, max_size=max_size).map(",".join)


_STATES = _listed(5, 5)     # one value per node of the model
# command -> (valid argv, MODEL and EVENTS standing for the inputs; the values
# drawn for each float flag, which replace the valid one or are added)
FLOAT_FLAGS = {
    "analyze-graph": (["--graph", "MODEL"], {"--eps": _VALUES}),
    "simulate": (["--graph", "MODEL", "--x0", "1,0,0,0,0", "--t-end", "1", "--dt", "0.1"],
                 {"--eps": _VALUES, "--t-end": _VALUES, "--dt": _VALUES,
                  "--x0": _STATES, "--v0": _STATES}),
    "critical-eps": (["--graph", "MODEL", "--lo", "0", "--hi", "3"],
                     {"--lo": _VALUES, "--hi": _VALUES, "--tol": _VALUES}),
    "sweep": (["--graph", "MODEL", "--eps", "0,1.5", "--x0", "1,0,0,0,0", "--t-end", "1",
               "--dt", "0.1"],
              {"--eps": _listed(1, 3), "--t-end": _VALUES, "--dt": _VALUES,
               "--x0": _STATES, "--v0": _STATES}),
    "bin": (["--events", "EVENTS"], {"--t0": _VALUES}),
    "beat-demo": (["--n", "256"], {"--w1": _VALUES, "--w2": _VALUES}),
}


@pytest.fixture(scope="module")
def numeric_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    (root / "model.json").write_text(json.dumps({"lap0": MODEL_L0.tolist(),
                                                 "lapI": MODEL_LI.tolist()}))
    (root / "events.csv").write_text(_EVENTS)
    return {"MODEL": str(root / "model.json"), "EVENTS": str(root / "events.csv")}


@pytest.mark.parametrize("command", sorted(FLOAT_FLAGS))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_any_float_flag_exits_0_to_3(numeric_inputs, command, data):
    argv, drawn = FLOAT_FLAGS[command]
    flags = dict(zip(argv[::2], (numeric_inputs.get(v, v) for v in argv[1::2])))
    for flag, values in drawn.items():
        flags[flag] = data.draw(st.one_of(st.just(flags.get(flag)), values), label=flag)
    # --flag=value: argparse reads a separate "-1,2" or "-1e308" as a flag
    result = run([command] + [f"{k}={v}" for k, v in flags.items() if v is not None])
    assert result.exit_code in (0, 1, 2, 3)
    if result.summary == "":        # refused by argparse
        assert result.exit_code == 1
        return
    doc = strict_json(result.summary)
    if command == "critical-eps" and result.exit_code == 0:
        _check_transition(doc)


def _check_transition(doc):
    lo, hi = doc["final_bracket"]
    assert doc["bracket"][0] <= doc["eps_star"] <= doc["bracket"][1]
    assert np.isfinite(lo) and np.isfinite(hi)


@pytest.mark.parametrize("flags", [["--tol=5e-324"], ["--tol=1e308"], ["--hi=1e308"],
                                   ["--lo=5e-324"], ["--lo=-0", "--hi=1e308", "--tol=5e-324"]])
def test_extreme_transition_bracket_is_finite(numeric_inputs, flags):
    # the drawn flags above seldom all reach a solved bracket
    result = run(["critical-eps", "--graph", numeric_inputs["MODEL"], "--lo", "0", "--hi", "3",
                  *flags])
    assert result.exit_code == 0
    _check_transition(strict_json(result.summary))


@pytest.mark.parametrize("argv, name, value, flag", [
    (["critical-eps", "--graph", "MODEL", "--lo", "0", "--hi", "3"], "NETOSC_TOL", "nan",
     "--tol"),
    (["beat-demo"], "NETOSC_N", "abc", "--n"),
], ids=["tol-nan", "n-abc"])
def test_bad_env_value_is_usage_error(numeric_inputs, monkeypatch, capsys, argv, name, value,
                                      flag):
    # parsed by the flag's own type, before any input is read: no summary
    monkeypatch.setenv(name, value)
    result = run([numeric_inputs.get(a, a) for a in argv])
    assert (result.exit_code, result.summary) == (1, "")
    assert f"argument {flag}: " in capsys.readouterr().err
