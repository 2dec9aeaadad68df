"""Property-based fuzzing of the CLI: any bytes given to an input file end in
exit 0 or a typed data error (exit 2), any weight scale and any float flag
value in exit 0-3, never in an exception escaping ``run``.  Also the step
rule's side of it: every uniform time axis written as exact decimals parses,
and two overlapping trend segments cut from it fuse."""

import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MODEL_L0, MODEL_LI, strict_json
from netosc.cli import run
from netosc.ingest import fuse_trends, parse_series_csv, parse_trend_csv

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

# kind -> ({file name: valid fixture}, argv naming the files, exit codes); the
# fuzz edits one drawn file and keeps the others valid
KINDS = {
    "spectrum": ({"series.csv": _SERIES}, ["spectrum", "--in", "series.csv"], {0, 2}),
    "bin": ({"events.csv": _EVENTS}, ["bin", "--events", "events.csv"], {0, 2}),
    # either segment of the chain: fuse_trends' cross-segment checks from both sides
    "fuse-trends": ({"a.csv": _TREND_A, "b.csv": _TREND_B},
                    ["fuse-trends", "a.csv", "b.csv"], {0, 2}),
    # an edited graph can be a valid digraph that is not symmetrizable
    "centrality-json": ({"g.json": _GRAPH_JSON}, ["centrality", "--graph", "g.json"],
                        {0, 2, 3}),
    "centrality-csv": ({"g.csv": _GRAPH_CSV}, ["centrality", "--graph", "g.csv"],
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


@st.composite
def _inputs(draw, kind):
    """The kind's files, one drawn file replaced by any bytes or an edit of it."""
    files = {name: text.encode() for name, text in KINDS[kind][0].items()}
    name = draw(st.sampled_from(sorted(files)))
    files[name] = draw(st.one_of(st.binary(max_size=200), _edited(files[name])))
    return files


def _run(tmp_path_factory, kind, files):
    # new files per example: rewriting one file in place can stall on ext4
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in files.items():
        (root / name).write_bytes(data)
    return run([str(root / a) if a in files else a for a in KINDS[kind][1]])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_valid_fixture_exits_0(tmp_path_factory, kind):
    files = {name: text.encode() for name, text in KINDS[kind][0].items()}
    assert _run(tmp_path_factory, kind, files).exit_code == 0


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_any_bytes_exit_0_or_2(tmp_path_factory, kind, data):
    result = _run(tmp_path_factory, kind, data.draw(_inputs(kind)))
    assert result.exit_code in KINDS[kind][2]
    if result.exit_code == 3:
        assert json.loads(result.summary)["error"]["type"] == "NotSymmetrizableError"


# the refusal of each fuse_trends cross-segment check, by a word of its message
_FUSION_CHECKS = {"segment step": "step", "not aligned": "grid", "ordered by start": "order",
                  "share no timestamp": "overlap"}


@st.composite
def _trend_chain(draw):
    """2-4 trend CSVs with epoch-second stamps, drawn as a valid chain and
    then edited at the structure level.

    Each segment starts on the sample grid, inside the samples fused before
    it, and may end inside them too (a contained segment); its values (max
    100, as parse_trend_csv requires) may hold one run of zeros.  The edit,
    if any, acts on one later segment: another step, a start off the grid, a
    swap with the first segment, a start past the samples fused so far, or
    zeros over its overlap with them."""
    step = draw(st.sampled_from([0.25, 1.0, 60.0, 3600.0]))
    origin = draw(st.integers(0, 10**6)) * step
    segments, end = [], 0      # [start in steps from origin, step, values]; end in steps
    for _ in range(draw(st.integers(2, 4))):
        length = draw(st.integers(2, 12))
        values = draw(st.lists(st.integers(0, 100), min_size=length, max_size=length))
        zeros = draw(st.integers(0, length - 1))
        at = draw(st.integers(0, length - zeros))
        values[at:at + zeros] = [0] * zeros
        values[draw(st.sampled_from([j for j in range(length) if not at <= j < at + zeros]))] = 100
        start = draw(st.integers(0, end - 1)) if segments else 0
        segments.append([start, step, values])
        end = max(end, start + length)
    edit = draw(st.sampled_from(["none", "step", "grid", "order", "overlap", "zero"]))
    i = draw(st.integers(1, len(segments) - 1))
    seg = segments[i]
    fused = max(start + len(values) for start, _, values in segments[:i])
    if edit == "step":
        seg[1] = step * draw(st.sampled_from([0.5, 2.0, 3.0]))
    elif edit == "grid":
        seg[0] += draw(st.sampled_from([0.5, 0.25, 0.001]))
    elif edit == "order":
        segments[0], segments[i] = seg, segments[0]
    elif edit == "overlap":
        seg[0] = fused + draw(st.integers(0, 3))
    elif edit == "zero":    # the segment grows past the overlap to keep its max
        seg[2][:fused - seg[0]] = [0] * (fused - seg[0])
        if 100 not in seg[2]:
            seg[2].append(100)
    return _trend_files(origin, step, segments)


def _trend_files(origin, step, segments):
    """The trend CSVs of [start in steps from origin, step, values] segments."""
    return [("datetime,value\n" + "".join(f"{origin + start * step + j * seg_step!r},{v}\n"
                                          for j, v in enumerate(values))).encode()
            for start, seg_step, values in segments]


def _union_length(chain):
    """Samples in the union of the chain's spans, and whether a segment ends
    inside the span of those before it."""
    segments = [parse_trend_csv(data.decode()) for data in chain]
    first = segments[0]
    ends = [round((s.origin - first.origin) / first.dt) + len(s) for s in segments]
    return max(ends), any(end < max(ends[:k]) for k, end in enumerate(ends) if k)


def test_trend_chains_reach_every_fusion_check(tmp_path_factory):
    # whole chains get past the parsers, where byte edits of one file do not;
    # every fused chain spans the union of its segments' spans
    reached = {}

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(chain=_trend_chain())
    # one chain per outcome, so each is reached whatever the draws
    @example(chain=_trend_files(0.0, 60.0, [[0, 60.0, [100, 50, 50]], [1, 60.0, [50, 50, 100]]]))
    @example(chain=_trend_files(0.0, 60.0, [[0, 60.0, [100, 50, 50, 50]], [1, 60.0, [50, 100]]]))
    @example(chain=_trend_files(0.0, 60.0, [[0, 60.0, [100, 0]], [1, 60.0, [0, 100]]]))
    @example(chain=_trend_files(0.0, 60.0, [[0, 60.0, [100, 50]], [1, 120.0, [50, 100]]]))
    @example(chain=_trend_files(0.0, 60.0, [[0, 60.0, [100, 50]], [0.5, 60.0, [50, 100]]]))
    @example(chain=_trend_files(0.0, 60.0, [[1, 60.0, [50, 100]], [0, 60.0, [100, 50]]]))
    @example(chain=_trend_files(0.0, 60.0, [[0, 60.0, [100, 50]], [2, 60.0, [50, 100]]]))
    def fuse(chain):
        root = tmp_path_factory.mktemp("chain")
        for k, data in enumerate(chain):
            (root / f"{k}.csv").write_bytes(data)
        result = run(["fuse-trends", *(str(root / f"{k}.csv") for k in range(len(chain)))])
        assert result.exit_code in (0, 2)
        error = json.loads(result.summary).get("error")
        outcome = "fused" if error is None else next(
            (check for word, check in _FUSION_CHECKS.items() if word in error["message"]),
            error["type"])
        if error is None:
            length, contained = _union_length(chain)
            assert json.loads(result.summary)["length"] == length
            outcome = "fused-contained" if contained else outcome
        reached[outcome] = reached.get(outcome, 0) + 1

    fuse()
    assert {"fused", "fused-contained", "ZeroAnchor",
            *_FUSION_CHECKS.values()} <= set(reached), reached


@st.composite
def _decimal_axis(draw):
    """(decimals, origin, step, rows): a time axis origin + k * step, k < rows,
    in units of 10^-decimals, with |origin| <= 2e9 s and step <= 1e4 s."""
    decimals = draw(st.integers(0, 3))
    unit = 10 ** decimals
    return (decimals, draw(st.integers(-2 * 10**9 * unit, 2 * 10**9 * unit)),
            draw(st.integers(1, 10**4 * unit)), draw(st.integers(2, 200)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(axis=_decimal_axis())
@example(axis=(1, 16_000_000_000, 1, 200))     # 0.1 s steps on epoch times
def test_exact_decimal_axes_are_accepted(axis):
    # each parsed time is within half an ulp of its decimal, so the step
    # rule's ulp term accepts the axis and the first step is near exact
    decimals, origin, step, rows = axis
    times = [Decimal(origin + k * step).scaleb(-decimals) for k in range(rows)]
    series = parse_series_csv("t,value\n" + "".join(f"{t},{k % 7}\n"
                                                     for k, t in enumerate(times)))
    top = max(abs(float(times[0])), abs(float(times[-1])))
    assert abs(series.dt - float(Decimal(step).scaleb(-decimals))) <= 2 * np.spacing(top)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(axis=_decimal_axis())
@example(axis=(1, 16_000_000_000, 1, 200))     # 0.1 s steps on epoch times
def test_exact_decimal_axes_fuse(axis):
    # rows [0, cut) and [start, rows) of the axis, sharing at least one row;
    # each has its max 100 at the first shared row
    decimals, origin, step, rows = axis
    times = [Decimal(origin + k * step).scaleb(-decimals) for k in range(rows)]
    start, cut = rows // 3, rows - rows // 3
    segments = [parse_trend_csv("datetime,value\n" + "".join(
        f"{times[k]},{100 if k == start else 50}\n" for k in range(lo, hi)))
        for lo, hi in ((0, cut), (start, rows))]
    assert len(fuse_trends(segments)) == rows


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
