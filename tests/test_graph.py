import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, MODEL_L0_SYM, MODEL_MASS, seeded_digraph
from netosc import graph
from netosc.errors import Disconnected, InvalidGraph, OutOfRange, ParseError
from netosc.graph import (
    MAX_ENTRY,
    MAX_NODES,
    LaplacianMatrix,
    OneWaySplit,
    NotSymmetrizable,
    WeightedDigraph,
    canonical_split,
    check_symmetrizable,
    compose_epsilon,
    gershgorin_disk,
    graph_from_edge_csv,
    graph_from_json,
    laplacian_of,
    left_null_vector,
    scaled_laplacian,
    undirected_graph,
)


def graph_of_matrix(mat):
    """Edge list recovered from a Laplacian's off-diagonal entries."""
    n = mat.shape[0]
    edges = [(i, j, -mat[i, j]) for i in range(n) for j in range(n)
             if i != j and mat[i, j] != 0]
    return WeightedDigraph(n=n, edges=tuple(edges))


def laplacian_loop(g):
    """laplacian_of as an edge loop (reference)."""
    mat = np.zeros((g.n, g.n))
    for s, d, w in g.edges:
        mat[s, d] -= w
        mat[s, s] += w
    return mat


def canonical_split_loop(lap):
    """canonical_split as a loop over pairs, then rows (reference).

    Returns the (symmetric part, one-way part) entry arrays.
    """
    n = lap.n
    a = lap.entries
    sym = np.zeros((n, n))
    one = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w_ij, w_ji = -a[i, j], -a[j, i]
            if w_ij == 0.0 and w_ji == 0.0:
                continue
            if w_ij >= w_ji:
                hi, lo, heavy = w_ij, w_ji, (i, j)
            else:
                hi, lo, heavy = w_ji, w_ij, (j, i)
            residual = hi - lo
            sym[i, j] = sym[j, i] = -lo
            sym[heavy] = -(hi - residual)
            one[heavy] = -residual
    for i in range(n):
        d_sym = float(-np.sum(sym[i]))
        residual = a[i, i] - min(d_sym, a[i, i])
        sym[i, i] = a[i, i] - residual
        one[i, i] = residual
    sym += 0.0
    one += 0.0
    return sym, one


def tied_laplacian(seed):
    """Dense random Laplacian whose weights come from five values, so many
    pairs tie or carry a zero in one direction; odd seeds isolate node 0 and
    write every zero entry as -0.0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    w = rng.choice([0.0, 0.1, 0.3, 1.0 / 3.0, 2.5], size=(n, n))
    np.fill_diagonal(w, 0.0)
    if seed % 2:
        w[0, :] = w[:, 0] = 0.0
    mat = np.diag(w.sum(axis=1)) - w
    return LaplacianMatrix(np.where(mat == 0.0, -0.0 if seed % 2 else 0.0, mat))


def assert_bits_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_split_matches_loop(lap):
    split = canonical_split(lap)
    sym, one = canonical_split_loop(lap)
    assert_bits_equal(split.lap_sym_part.entries, sym)
    assert_bits_equal(split.lap_oneway.entries, one)
    return split


class TestWeightedDigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(n=2, edges=((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(n=2, edges=((0, 1, 1.0), (0, 1, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(n=2, edges=((0, 1, 0.0),))
        with pytest.raises(InvalidGraph):
            WeightedDigraph(n=2, edges=((0, 1, -3.0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(n=2, edges=((0, 2, 1.0),))

    def test_node_limit(self, monkeypatch):
        with pytest.raises(InvalidGraph, match="exceeds the limit of 5000"):
            WeightedDigraph(n=MAX_NODES + 1, edges=((0, 1, 1.0),))
        monkeypatch.setattr(graph, "MAX_NODES", 3)
        assert WeightedDigraph(n=3, edges=((0, 2, 1.0),)).n == 3
        with pytest.raises(InvalidGraph, match="node count 4 exceeds the limit of 3"):
            WeightedDigraph(n=4, edges=((0, 1, 1.0),))


class TestLaplacianOf:
    def test_model_epsilon_one_row0(self):
        g = graph_of_matrix(MODEL_L0 + MODEL_LI)
        lap = laplacian_of(g)
        assert np.allclose(lap.entries[0],
                           [12.0, -3.0, -10.0 / 3.0, -5.0 / 3.0, -4.0],
                           atol=1e-12)
        assert np.allclose(lap.entries, MODEL_L0 + MODEL_LI, atol=1e-12)

    def test_single_node(self):
        lap = laplacian_of(WeightedDigraph(n=1, edges=()))
        assert lap.entries.shape == (1, 1)
        assert lap.entries[0, 0] == 0.0

    def test_three_cycle(self):
        g = WeightedDigraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
        lap = laplacian_of(g)
        assert np.array_equal(np.diag(lap.entries), [1.0, 1.0, 1.0])
        assert np.allclose(lap.entries.sum(axis=1), 0.0, atol=1e-15)
        lam = np.sort_complex(np.linalg.eigvals(lap.entries))
        # characteristic polynomial roots: 0 and 1.5 +- sqrt(3)/2 i
        expected = np.sort_complex(np.array(
            [0.0, 1.5 + 0.5j * np.sqrt(3.0), 1.5 - 0.5j * np.sqrt(3.0)]))
        assert np.allclose(lam, expected, atol=1e-9)

    @pytest.mark.parametrize("n", [5, 12, 50, 200])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_edge_loop(self, seed, n):
        g = seeded_digraph(seed, n)
        assert_bits_equal(laplacian_of(g).entries, laplacian_loop(g))

    def test_magnitude_limit(self):
        # the Frobenius norm of MAX_NODES^2 entries at the limit is finite
        assert np.isfinite(np.sqrt(MAX_NODES ** 2 * MAX_ENTRY ** 2))
        lap = laplacian_of(undirected_graph(2, [(0, 1)], weight=MAX_ENTRY))
        assert lap.d_max == MAX_ENTRY
        above = float(np.nextafter(MAX_ENTRY, np.inf))
        with pytest.raises(OutOfRange, match="edge weights"):
            laplacian_of(undirected_graph(2, [(0, 1)], weight=above))
        with pytest.raises(OutOfRange, match="Laplacian entries"):
            LaplacianMatrix([[above, -above], [-above, above]])

    def test_helper_refuses_small_n(self):
        # a ring plus n chords needs 2n distinct unordered pairs
        with pytest.raises(ValueError):
            seeded_digraph(0, 4)


class TestGershgorin:
    def test_model_disk(self, model_lap0):
        disk = gershgorin_disk(model_lap0)
        assert disk.center == 23.0
        assert disk.radius == 23.0

    def test_zero_matrix(self):
        disk = gershgorin_disk(LaplacianMatrix(np.zeros((1, 1))))
        assert disk.center == 0.0 and disk.radius == 0.0

    def test_contains_spectrum_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 6
            mat = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.5:
                        w = rng.uniform(0.1, 4.0)
                        mat[i, j] -= w
                        mat[i, i] += w
            lap = LaplacianMatrix(mat)
            disk = gershgorin_disk(lap)
            for lam in np.linalg.eigvals(mat):
                assert disk.contains(lam, slack=1e-8)


class TestLeftNullVector:
    def test_model_mass(self, model_lap0):
        m = left_null_vector(model_lap0)
        assert np.allclose(m, MODEL_MASS, atol=1e-9)

    def test_symmetric_gives_ones(self):
        lap = laplacian_of(undirected_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert np.allclose(left_null_vector(lap), np.ones(4), atol=1e-10)

    def test_one_way_pair(self):
        lap = LaplacianMatrix([[1.0, -1.0], [0.0, 0.0]])
        m = left_null_vector(lap)
        assert np.allclose(m, [0.0, 1.0], atol=1e-12)

    def test_disconnected_raises(self):
        lap = LaplacianMatrix(np.zeros((2, 2)))
        with pytest.raises(Disconnected):
            left_null_vector(lap)

    def test_two_disjoint_weighted_pairs_raise(self):
        lap = laplacian_of(undirected_graph(4, [(0, 1, 2.0), (2, 3, 0.5)]))
        with pytest.raises(Disconnected, match="disconnected"):
            left_null_vector(lap)
        with pytest.raises(Disconnected, match="disconnected"):
            check_symmetrizable(lap)

    def test_zero_not_simple_raises(self):
        # two sinks reachable from a common source: weakly connected but the
        # zero eigenvalue has multiplicity 2
        lap = LaplacianMatrix([[2.0, -1.0, -1.0],
                               [0.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0]])
        with pytest.raises(Disconnected):
            left_null_vector(lap)


class TestCheckSymmetrizable:
    def test_model_decomposition(self, model_lap0):
        dec = check_symmetrizable(model_lap0)
        assert not isinstance(dec, NotSymmetrizable)
        assert np.allclose(dec.m, MODEL_MASS, atol=1e-9)
        assert np.allclose(dec.lap_sym.entries, MODEL_L0_SYM, atol=1e-10)

    def test_symmetric_laplacian_identity_mass(self):
        lap = laplacian_of(undirected_graph(3, [(0, 1), (1, 2)]))
        dec = check_symmetrizable(lap)
        assert np.allclose(dec.m, 1.0, atol=1e-10)
        assert np.allclose(dec.lap_sym.entries, lap.entries, atol=1e-12)

    def test_one_way_pair_not_symmetrizable(self):
        lap = LaplacianMatrix([[1.0, -1.0], [0.0, 0.0]])
        verdict = check_symmetrizable(lap)
        assert isinstance(verdict, NotSymmetrizable)
        assert verdict.reason == "nonpositive_mass"
        assert verdict.pair == (0,)

    def test_detailed_balance_violation_reported(self):
        # 3-cycle plus reverse edges with unbalanced weights: connected, all
        # masses positive, but m_i w_ij != m_j w_ji
        g = WeightedDigraph(n=3, edges=(
            (0, 1, 2.0), (1, 0, 1.0),
            (1, 2, 1.0), (2, 1, 1.0),
            (0, 2, 1.0), (2, 0, 1.0)))
        verdict = check_symmetrizable(laplacian_of(g))
        assert isinstance(verdict, NotSymmetrizable)
        assert verdict.reason == "detailed_balance"
        assert len(verdict.pair) == 2

    def test_recovers_random_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = rng.integers(2, 9)
            # random connected symmetric Laplacian
            mat = np.zeros((n, n))
            order = rng.permutation(n)
            for a, b in zip(order[:-1], order[1:]):
                w = rng.uniform(0.5, 2.0)
                mat[a, b] -= w
                mat[b, a] -= w
            for _ in range(n):
                i, j = rng.integers(0, n, 2)
                if i != j and mat[i, j] == 0:
                    w = rng.uniform(0.5, 2.0)
                    mat[i, j] -= w
                    mat[j, i] -= w
            np.fill_diagonal(mat, 0.0)
            np.fill_diagonal(mat, -mat.sum(axis=1))
            m_true = rng.uniform(0.2, 5.0, n)
            lap = LaplacianMatrix(mat / m_true[:, None])
            dec = check_symmetrizable(lap)
            assert not isinstance(dec, NotSymmetrizable)
            ratio = dec.m / m_true
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-8


class TestScaledLaplacian:
    def test_identity_mass_unchanged(self):
        lap = laplacian_of(undirected_graph(3, [(0, 1), (1, 2)]))
        dec = check_symmetrizable(lap)
        s = scaled_laplacian(dec)
        assert np.allclose(s, lap.entries, atol=1e-12)

    def test_two_node_hand_value(self):
        g = WeightedDigraph(n=2, edges=((0, 1, 2.0), (1, 0, 1.0)))
        dec = check_symmetrizable(laplacian_of(g))
        s = scaled_laplacian(dec)
        r2 = np.sqrt(2.0)
        assert np.allclose(s, [[2.0, -r2], [-r2, 1.0]], atol=1e-12)

    def test_model_spectrum_matches(self, model_lap0):
        dec = check_symmetrizable(model_lap0)
        s = scaled_laplacian(dec)
        assert np.allclose(s, s.T, atol=1e-12)
        ev_s = np.sort(np.linalg.eigvalsh(s))
        ev_l = np.sort(np.linalg.eigvals(model_lap0.entries).real)
        assert abs(ev_s[0]) <= 1e-9
        assert np.all(ev_s[1:] > 0)
        assert np.allclose(ev_s, ev_l, atol=1e-9)


class TestCanonicalSplit:
    def test_symmetric_input_gives_null_oneway(self):
        lap = laplacian_of(undirected_graph(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.0)]))
        split = canonical_split(lap)
        assert np.all(split.lap_oneway.entries == 0.0)
        assert np.array_equal(split.lap_sym_part.entries, lap.entries)

    def test_pure_one_way_gives_null_sym(self):
        g = WeightedDigraph(n=3, edges=((0, 1, 1.0), (1, 2, 2.0)))
        split = canonical_split(laplacian_of(g))
        assert np.all(split.lap_sym_part.entries == 0.0)

    def test_two_node_min_rule(self):
        g = WeightedDigraph(n=2, edges=((0, 1, 3.0), (1, 0, 1.0)))
        split = canonical_split(laplacian_of(g))
        assert np.allclose(split.lap_sym_part.entries,
                           [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        assert np.allclose(split.lap_oneway.entries,
                           [[2.0, -2.0], [0.0, 0.0]], atol=1e-15)

    def test_oneway_part_is_one_way(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            mat = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.6:
                        w = rng.uniform(0.01, 10.0)
                        mat[i, j] -= w
                        mat[i, i] += w
            split = canonical_split(LaplacianMatrix(mat))
            one = split.lap_oneway.entries
            assert np.all((one * one.T)[~np.eye(n, dtype=bool)] == 0.0)
            recomposed = split.lap_sym_part.entries + one
            assert np.array_equal(recomposed, mat)

    def test_heavy_weights_with_slight_asymmetry(self):
        # Degrees near 1e6 carry row-sum errors near 1e-10, far above the
        # 1e-12 tolerance of a one-way part with entries below 5e-3.
        rng = np.random.default_rng(0)
        edges = []
        for i in range(6):
            for j in range(i + 1, 6):
                w = float(rng.uniform(1e5, 2e5))
                edges += [(i, j, w), (j, i, w + float(rng.uniform(0.0, 1e-3)))]
        lap = laplacian_of(WeightedDigraph(n=6, edges=tuple(edges)))
        split = canonical_split(lap)
        assert np.max(split.lap_oneway.entries) < 5e-3
        assert np.array_equal(compose_epsilon(split, 1.0).entries, lap.entries)
        assert split.lap_sym_part.is_symmetric()

    def test_recompose_exact_on_model(self, model_lap0, model_lapI):
        lap = compose_epsilon((model_lap0, model_lapI), 1.0)
        split = canonical_split(lap)
        assert np.array_equal(
            split.lap_sym_part.entries + split.lap_oneway.entries, lap.entries)

    @pytest.mark.parametrize("n", [5, 12, 50, 200])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pair_loop_on_seeded_digraphs(self, seed, n):
        assert_split_matches_loop(laplacian_of(seeded_digraph(seed, n)))

    def test_matches_pair_loop_with_tied_weights(self):
        for seed in range(100):
            lap = tied_laplacian(seed)
            split = assert_split_matches_loop(lap)
            assert np.array_equal(
                split.lap_sym_part.entries + split.lap_oneway.entries, lap.entries)

    def test_matches_pair_loop_on_symmetric_weights(self):
        # The diagonal is summed in edge order and the symmetric part's degree
        # pairwise, so the two can differ by an ulp either way.
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            pairs = [(i, j, float(rng.uniform(0.1, 3.0)))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            assert_split_matches_loop(laplacian_of(undirected_graph(n, pairs)))


class TestComposeEpsilon:
    def test_zero_eps_identical(self, model_lap0, model_lapI):
        lap = compose_epsilon((model_lap0, model_lapI), 0.0)
        assert lap is model_lap0

    def test_model_entry_at_eps_one(self, model_lap0, model_lapI):
        lap = compose_epsilon((model_lap0, model_lapI), 1.0)
        assert lap.entries[0, 4] == -4.0

    def test_null_oneway_any_eps(self, model_lap0):
        null = LaplacianMatrix(np.zeros((5, 5)))
        lap = compose_epsilon((model_lap0, null), 2.0)
        assert np.array_equal(lap.entries, model_lap0.entries)

    def test_split_and_pair_compose_alike(self, model_lap0, model_lapI):
        split = OneWaySplit(model_lap0, model_lapI)
        assert split == (model_lap0, model_lapI)
        assert (compose_epsilon(split, 0.5)
                == compose_epsilon((model_lap0, model_lapI), 0.5))

    def test_rejects_negative_eps(self, model_lap0, model_lapI):
        with pytest.raises(ValueError):
            compose_epsilon((model_lap0, model_lapI), -0.5)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite_eps(self, model_lap0, model_lapI, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            compose_epsilon((model_lap0, model_lapI), eps)

    def test_overflowing_entry_is_invalid_graph(self, model_lap0, model_lapI):
        # 1e308 * 2 overflows: a typed error, and no numpy warning (warnings
        # are errors here)
        with pytest.raises(InvalidGraph, match="entries must be finite"):
            compose_epsilon((model_lap0, model_lapI), 1e308)


class TestInterchange:
    def test_json_roundtrip(self):
        text = '{"n": 3, "edges": [[0, 1, 1.5], [2, 0, 0.25]]}'
        g = graph_from_json(text)
        assert g.n == 3
        assert g.edges == ((0, 1, 1.5), (2, 0, 0.25))

    def test_json_errors(self):
        with pytest.raises(ParseError):
            graph_from_json("not json")
        with pytest.raises(ParseError):
            graph_from_json('{"nodes": 3}')
        with pytest.raises(ParseError):
            graph_from_json("[" * 100_000)

    def test_edge_csv(self):
        g = graph_from_edge_csv("src,dst,w\n0,1,2.0\n1,0,1.0\n")
        assert g.n == 2
        assert g.edges == ((0, 1, 2.0), (1, 0, 1.0))

    def test_edge_csv_bad_header(self):
        with pytest.raises(ParseError):
            graph_from_edge_csv("a,b,c\n0,1,2\n")

    def test_json_rejects_non_integer_n(self):
        for n in ("2.5", "2.0", "true", '"2"'):
            with pytest.raises(ParseError):
                graph_from_json('{"n": %s, "edges": [[0, 1, 1], [1, 0, 1]]}' % n)

    @pytest.mark.parametrize("edge", [
        "[0.7, 1, 1]", '[1, "0", 1]', "[true, 1, 1]", "[0, 1.0, 1]",
        '[0, 1, "1"]', "[0, 1, true]", "[0, 1, null]", "[0, 1, 1%s]" % ("0" * 400), "[0, 1]",
    ])
    def test_json_rejects_non_integer_endpoints_and_non_number_weights(self, edge):
        with pytest.raises(ParseError):
            graph_from_json('{"n": 2, "edges": [%s, [1, 0, 1]]}' % edge)

    def test_json_keeps_integer_and_float_weights(self):
        g = graph_from_json('{"n": 2, "edges": [[0, 1, 2], [1, 0, 0.5]]}')
        assert g.edges == ((0, 1, 2.0), (1, 0, 0.5))
        assert all(type(w) is float for _, _, w in g.edges)

    def test_parse_errors_name_the_file_line(self):
        # lines 2 and 4 are blank; line 5 holds the bad value
        with pytest.raises(ParseError) as edge_err:
            graph_from_edge_csv("src,dst,w\n\n0,1,1\n\n1,0,x\n")
        assert edge_err.value.line == 5

    def test_ragged_laplacian_is_invalid_graph(self):
        with pytest.raises(InvalidGraph):
            LaplacianMatrix([[1.0, -1.0], [0.0]])
