import numpy as np
import pytest

from jacobi_oracle import oracle_jacobi_eigh
from oracles import brute_force_minla, edges, oracle_interaction_graph
from spinbus.benchgen import FAMILIES, BenchmarkSpec, generate
from spinbus.circuit import Circuit, Gate, GateKind, SlicedCircuit, decompose, slice_circuit
from spinbus.placement import (
    InteractionGraph,
    Placement,
    build_interaction_graph,
    fiedler_vector,
    laplacian,
    minla_cost,
    random_placement,
    spectral_placement,
)
from spinbus.rng import SplitMix64


def graph_from_edges(n, edges):
    w = np.zeros((n, n))
    for u, v, wt in edges:
        w[u, v] = w[v, u] = wt
    return InteractionGraph(w)


def path3():
    return graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


def seeded_graph(seed, n=None):
    rng = SplitMix64(seed)
    if n is None:
        n = 4 + rng.randbelow(6)
    w = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < 0.5:
                w[u, v] = w[v, u] = rng.uniform()
    return InteractionGraph(w)


class TestInteractionGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            InteractionGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError, match="symmetric"):
            # within np.allclose's default 1e-5 relative tolerance
            InteractionGraph(np.array([[0.0, 1.0], [1.0000001, 0.0]]))
        with pytest.raises(ValueError):
            InteractionGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # diagonal
        with pytest.raises(ValueError):
            InteractionGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                InteractionGraph(np.array([[0.0, bad, 1.0], [bad, 0.0, 1.0], [1.0, 1.0, 0.0]]))

    def test_layer_zero_weight(self):
        sc = slice_circuit(Circuit(2, (Gate(GateKind.CZ, (0, 1)),)))
        assert build_interaction_graph(sc).weights[0, 1] == 1.0

    def test_layer_three_weight(self):
        # serial chain on qubit 0 pushes the CZ into layer 3
        gates = (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.H, (0,)),
            Gate(GateKind.H, (0,)),
            Gate(GateKind.CZ, (0, 1)),
        )
        sc = slice_circuit(Circuit(2, gates))
        assert build_interaction_graph(sc).weights[0, 1] == 0.125

    def test_repeated_pair_weights_sum(self):
        gates = (Gate(GateKind.CZ, (0, 1)), Gate(GateKind.CZ, (0, 1)))
        sc = slice_circuit(Circuit(2, gates))
        assert sc.layers == ((0,), (1,))
        g = build_interaction_graph(sc)
        # direct re-scan of the layer list
        expect = sum(
            2.0**-l
            for l, layer in enumerate(sc.layers)
            for gi in layer
            if set(sc.circuit.gates[gi].qubits) == {0, 1}
        )
        assert g.weights[0, 1] == expect == 1.5

    def test_single_qubit_gates_contribute_nothing(self):
        gates = (Gate(GateKind.H, (0,)), Gate(GateKind.RZ, (1,), 0.3))
        sc = slice_circuit(Circuit(2, gates))
        assert not edges(build_interaction_graph(sc))


class TestInteractionGraphMatchesOracle:
    """``build_interaction_graph`` adds every gate's weight at once; its
    matrix must have the bits of the one-gate-at-a-time oracle."""

    @staticmethod
    def _same_bits(sc):
        got, want = build_interaction_graph(sc).weights, oracle_interaction_graph(sc)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return got

    @pytest.mark.parametrize("n", (3, 8, 17, 32, 45, 64))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_benchmark_circuits(self, family, n):
        for seed in range(3):
            self._same_bits(slice_circuit(decompose(generate(BenchmarkSpec(family=family, n=n, seed=seed)))))

    def test_one_pair_in_both_operand_orders(self):
        # 1 + 0.5 + 0.25 is exact in any order; at layers 0, 52 and 53,
        # (1 + 2^-52) + 2^-53 rounds up to 1 + 2^-51 but (1 + 2^-53) + 2^-52
        # to 1 + 2^-52, so adding w[u, v] for every gate before w[v, u]
        # would leave w[0, 1] != w[1, 0]
        cz = [Gate(GateKind.CZ, pair) for pair in ((0, 1), (1, 0), (0, 1))]
        sc = slice_circuit(Circuit(2, tuple(cz)))
        assert self._same_bits(sc)[0, 1] == 1.75
        spread = SlicedCircuit(sc.circuit, ((0,),) + ((),) * 51 + ((1,), (2,)))
        w = self._same_bits(spread)
        assert w[0, 1] == w[1, 0] == 1 + 2.0**-51

    def test_underflowing_layers(self):
        # 1,070 Hs push ten CZs on one pair into layers 1,070-1,079, where
        # 2^-l is subnormal and from layer 1,075 on rounds to 0
        gates = (Gate(GateKind.H, (0,)),) * 1070 + (Gate(GateKind.CZ, (0, 1)),) * 10
        sc = slice_circuit(Circuit(2, gates))
        assert sc.depth == 1080
        assert self._same_bits(sc)[0, 1] == 31 * 2.0**-1074


class TestLaplacian:
    def test_path_graph(self):
        expect = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(laplacian(path3()), expect)

    def test_empty_graph(self):
        g = graph_from_edges(3, [])
        assert np.array_equal(laplacian(g), np.zeros((3, 3)))

    def test_rows_sum_to_zero(self):
        for seed in range(5):
            lap = laplacian(seeded_graph(seed))
            assert np.max(np.abs(lap.sum(axis=1))) < 1e-12

    def test_positive_semidefinite(self):
        for seed in range(20):
            lap = laplacian(seeded_graph(seed))
            assert np.linalg.eigvalsh(lap).min() >= -1e-10


class TestFiedler:
    def test_path_monotone(self):
        x = fiedler_vector(laplacian(path3()))
        diffs = np.diff(x)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_complete_graph_eigenvalue(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        lap = laplacian(g)
        x = fiedler_vector(lap)
        # K3: lambda_2 = 3; assert the residual against the known eigenvalue
        assert np.max(np.abs(lap @ x - 3.0 * x)) < 1e-8
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12

    def test_disconnected_two_edges(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        lap = laplacian(g)
        x = fiedler_vector(lap)
        # lambda_2 = 0 with multiplicity 2; a valid null vector orthogonal to ones
        assert np.max(np.abs(lap @ x)) < 1e-8
        assert abs(x.sum()) < 1e-8

    def test_sign_convention(self):
        for seed in range(10):
            g = seeded_graph(seed)
            if not edges(g):
                continue
            x = fiedler_vector(laplacian(g))
            lead = next(c for c in x if abs(c) > 1e-12)
            assert lead > 0

    def test_residual_bound(self):
        for seed in range(30):
            g = seeded_graph(seed)
            if not edges(g):
                continue
            lap = laplacian(g)
            x = fiedler_vector(lap)
            lam2 = float(np.sort(np.linalg.eigvalsh(lap))[1])
            assert np.max(np.abs(lap @ x - lam2 * x)) < 1e-8

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            fiedler_vector(np.zeros((1, 1)))

    def test_rejects_inexact_symmetry(self):
        # np.linalg.eigh reads only the lower triangle, so these must not reach it
        a = np.array([[2.0, 1.0], [1.0000001, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            fiedler_vector(a)
        with pytest.raises(ValueError, match="finite"):
            fiedler_vector(np.array([[0.0, np.nan], [np.nan, 0.0]]))
        with pytest.raises(ValueError, match="square"):
            fiedler_vector(np.zeros((2, 3)))


class TestSpectralPlacement:
    def test_path_is_minla_optimal(self):
        g = path3()
        p = spectral_placement(g)
        assert p.perm in ((0, 1, 2), (2, 1, 0))
        _, best = brute_force_minla(g)
        assert minla_cost(g, p) == pytest.approx(best) == pytest.approx(2.0)

    def test_zero_graph_gives_identity(self):
        g = graph_from_edges(4, [])
        assert spectral_placement(g).perm == (0, 1, 2, 3)

    def test_star_center_interior(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        p = spectral_placement(g)
        assert p.perm[0] in (1, 2)
        _, best = brute_force_minla(g)
        assert minla_cost(g, p) <= best * 1.34

    def test_disconnected_star_laid_out_on_its_own(self):
        # dj-shaped: one hub interacting with a few qubits, the rest idle.
        # The whole graph's Laplacian has a 9-dimensional null space, so its
        # Fiedler vector is an arbitrary null vector that says nothing about
        # the star. With two equally light leaves the star's own Fiedler
        # order is MinLA-optimal.
        hub, leaves = 9, {3: 0.5, 6: 0.125, 10: 0.125}
        g = graph_from_edges(12, [(hub, q, wt) for q, wt in leaves.items()])
        p = spectral_placement(g)
        component = sorted([hub, *leaves])
        sites = sorted(p.perm[q] for q in component)
        assert sites == list(range(sites[0], sites[0] + len(component)))
        assert sites[0] < p.perm[hub] < sites[-1]
        sub = InteractionGraph(g.weights[np.ix_(component, component)])
        _, best = brute_force_minla(sub)
        assert minla_cost(g, p) == pytest.approx(best) == pytest.approx(0.875)

    def test_component_order(self):
        # largest component first, ties by smallest qubit; a pair and an
        # idle qubit keep index order
        g = graph_from_edges(
            9, [(6, 1, 1.0), (1, 4, 1.0), (2, 7, 1.0), (7, 5, 1.0), (8, 3, 1.0)]
        )
        order = sorted(range(9), key=spectral_placement(g).perm.__getitem__)
        assert set(order[:3]) == {1, 4, 6} and order[1] == 1
        assert set(order[3:6]) == {2, 5, 7} and order[4] == 7
        assert order[6:] == [3, 8, 0]

    def test_scale_invariance(self):
        for seed in range(10):
            g = seeded_graph(seed)
            base = spectral_placement(g).perm
            for c in (2.0, 0.25, 3.0):
                scaled = InteractionGraph(g.weights * c)
                assert spectral_placement(scaled).perm == base

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            spectral_placement(InteractionGraph(np.zeros((1, 1))))

    def test_same_order_from_an_independent_eigensolver(self, monkeypatch):
        # the graphs behind tests/test_golden.py and the 16-qubit suite: their
        # placements, and so the pinned output bytes, do not rest on the
        # LAPACK build that numpy links
        specs = [BenchmarkSpec(f, n) for f in ("ghz", "qaoa", "dj") for n in (4, 6)]
        specs += [BenchmarkSpec("qft", 8)]
        specs += [BenchmarkSpec(f, 16, seed) for seed in range(10) for f in FAMILIES]
        graphs = {
            spec: build_interaction_graph(slice_circuit(decompose(generate(spec))))
            for spec in specs
        }
        want = {spec: spectral_placement(g).perm for spec, g in graphs.items()}
        monkeypatch.setattr(np.linalg, "eigh", oracle_jacobi_eigh)
        assert {spec: spectral_placement(g).perm for spec, g in graphs.items()} == want


class TestRandomPlacement:
    def test_deterministic_per_seed(self):
        assert random_placement(7, 42).perm == random_placement(7, 42).perm

    def test_single_qubit(self):
        assert random_placement(1, 5).perm == (0,)

    def test_uniformity_chi_square(self):
        import itertools

        counts = {p: 0 for p in itertools.permutations(range(3))}
        for seed in range(60_000):
            counts[random_placement(3, seed).perm] += 1
        for count in counts.values():
            assert abs(count - 10_000) <= 300  # +-3% of 1/6


class TestMinlaCost:
    def test_triangle_any_placement(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        import itertools

        for perm in itertools.permutations(range(3)):
            assert minla_cost(g, Placement(perm)) == 4.0

    def test_path_identity(self):
        assert minla_cost(path3(), Placement.identity(3)) == 2.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minla_cost(path3(), Placement.identity(4))


class TestBruteForce:
    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            brute_force_minla(InteractionGraph(np.zeros((10, 10))))

    def test_empty_graph(self):
        p, cost = brute_force_minla(graph_from_edges(3, []))
        assert cost == 0.0
        assert p.perm == (0, 1, 2)  # lexicographically smallest optimum

    def test_global_minimum_on_n7(self):
        import itertools

        g = seeded_graph(12345, n=7)
        _, best = brute_force_minla(g)
        for perm in itertools.permutations(range(7)):
            assert best <= minla_cost(g, Placement(perm)) + 1e-12

    def test_placement_achieves_reported_cost(self):
        g = seeded_graph(77, n=6)
        p, cost = brute_force_minla(g)
        assert minla_cost(g, p) == pytest.approx(cost, rel=1e-12)


def test_spectral_quality_smoke():
    """30-graph version of the full 200-graph acceptance property."""
    wins = 0
    for seed in range(30):
        g = seeded_graph(seed)
        sp_cost = minla_cost(g, spectral_placement(g))
        _, best = brute_force_minla(g)
        assert sp_cost >= best - 1e-9
        mean_rand = np.mean(
            [minla_cost(g, random_placement(g.n, 1000 * seed + k)) for k in range(100)]
        )
        wins += sp_cost <= mean_rand
    assert wins >= 27


def test_placement_validation():
    with pytest.raises(ValueError):
        Placement((0, 0, 1))
    with pytest.raises(ValueError):
        Placement((1, 2, 3))
    for bad in ((0.5, 1, 2), (True, 0, 2), (0, 1, "2"), (0, 1, np.float64(2.0))):
        with pytest.raises(ValueError, match="integers"):
            Placement(bad)
    assert Placement((np.int64(1), 0, np.int32(2))).perm == (1, 0, 2)
    assert Placement(np.array([2, 0, 1])).perm == (2, 0, 1)
