"""Property-based fuzzing of the CLI loaders: any bytes given to an input file
end in exit 0 or a typed data error (exit 2), never in an exception escaping
``run``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODEL_L0
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


def _finite(value):
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or np.isfinite(value)


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
        assert _finite(json.loads(result.summary))
