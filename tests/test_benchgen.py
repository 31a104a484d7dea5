import math

import numpy as np
import pytest

from spinbus.architecture import ArchitectureSpec
from spinbus.benchgen import FAMILIES, BenchmarkSpec, _cp_gates, generate
from spinbus.circuit import (
    Circuit,
    Gate,
    GateKind,
    decompose,
    slice_circuit,
)
from spinbus.error_model import ErrorModelParams
from spinbus.mapper import STRATEGIES, map_strategy
from spinbus.placement import Placement
from spinbus.rng import SplitMix64
from spinbus.validate import validate_schedule

from oracles import phase_aligned_distance, unitary_of


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchmarkSpec(family="nope", n=4)
    with pytest.raises(ValueError):
        BenchmarkSpec(family="ghz", n=1)
    with pytest.raises(ValueError):
        BenchmarkSpec(family="ghz", n=100)
    with pytest.raises(ValueError):
        BenchmarkSpec(family="qaoa", n=4, qaoa_rounds=0)


@pytest.mark.parametrize("field", ["n", "seed", "qaoa_rounds", "depth"])
@pytest.mark.parametrize("value", [True, 1.5, 4.0, "4"])
def test_spec_fields_must_be_integers(field, value):
    # seed=True and qaoa_rounds=True were accepted, and seed=1.5 failed
    # inside SplitMix64
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        BenchmarkSpec(**{"family": "qaoa", "n": 4, field: value})


def test_numpy_integer_fields_are_stored_as_int():
    # a numpy seed once overflowed in SplitMix64
    spec = BenchmarkSpec("random", np.int64(4), seed=np.int64(3), qaoa_rounds=np.int32(1), depth=np.int64(5))
    assert spec == BenchmarkSpec("random", 4, seed=3, depth=5)
    assert all(type(getattr(spec, f)) is int for f in ("n", "seed", "qaoa_rounds", "depth"))
    assert generate(spec) == generate(BenchmarkSpec("random", 4, seed=3, depth=5))


def test_ghz_structure():
    c = generate(BenchmarkSpec(family="ghz", n=3))
    assert c.gates == (
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CX, (0, 1)),
        Gate(GateKind.CX, (1, 2)),
    )


def test_ghz_gate_count_formula():
    for n in (2, 5, 16):
        assert len(generate(BenchmarkSpec(family="ghz", n=n)).gates) == n


def test_graph_state_edges_match_regenerated_graph():
    spec = BenchmarkSpec(family="graph_state", n=6, seed=11)
    c = generate(spec)
    czs = {g.qubits for g in c.gates if g.kind is GateKind.CZ}
    # regenerate the seeded graph independently
    rng = SplitMix64(11)
    expect = {
        (u, v) for u in range(6) for v in range(u + 1, 6) if rng.uniform() < 0.5
    }
    assert czs == expect
    assert len(c.gates) == 6 + len(expect)
    assert sum(g.kind is GateKind.H for g in c.gates) == 6


def test_cp_expansion_is_controlled_phase():
    for lam in (math.pi / 2, -1.1, 0.37):
        u = unitary_of(_cp_gates(0, 1, lam), 2)
        cp = np.diag([1.0, 1.0, 1.0, np.exp(1j * lam)])
        assert phase_aligned_distance(u, cp) < 1e-12


def test_qft_structure_n2():
    c = generate(BenchmarkSpec(family="qft", n=2))
    kinds = [g.kind for g in c.gates]
    # H, the rz/cx controlled-phase block, H, terminal SWAP
    assert kinds[0] == GateKind.H
    assert kinds[1:6] == [GateKind.RZ, GateKind.CX, GateKind.RZ, GateKind.CX, GateKind.RZ]
    assert kinds[6] == GateKind.H
    assert kinds[7] == GateKind.SWAP
    assert len(c.gates) == 8


def test_qft_gate_count_formula():
    # n H gates + 5 gates per controlled phase + floor(n/2) swaps
    for n in (2, 4, 7, 16):
        c = generate(BenchmarkSpec(family="qft", n=n))
        assert len(c.gates) == n + 5 * n * (n - 1) // 2 + n // 2


def test_dj_structure():
    c = generate(BenchmarkSpec(family="dj", n=6, seed=4))
    assert c.gates[0] == Gate(GateKind.X, (5,))
    assert all(g.kind is GateKind.H for g in c.gates[1:7])
    oracle = [g for g in c.gates if g.kind is GateKind.CX]
    assert oracle  # balanced oracle is never empty
    assert all(g.qubits[1] == 5 for g in oracle)


def test_qpe_deterministic_and_well_formed():
    a = generate(BenchmarkSpec(family="qpe", n=5, seed=7))
    b = generate(BenchmarkSpec(family="qpe", n=5, seed=7))
    assert a.gates == b.gates
    assert a.gates[0] == Gate(GateKind.X, (4,))


def test_qaoa_round_structure():
    one = generate(BenchmarkSpec(family="qaoa", n=6, seed=3, qaoa_rounds=1))
    two = generate(BenchmarkSpec(family="qaoa", n=6, seed=3, qaoa_rounds=2))
    # each extra round adds the same number of cost+mixer gates
    per_round = len(two.gates) - len(one.gates)
    assert per_round == len(one.gates) - 6  # minus the initial H row
    assert sum(g.kind is GateKind.RX for g in one.gates) == 6


def test_random_depth_and_density():
    c = generate(BenchmarkSpec(family="random", n=6, seed=0))
    # default depth 2n alternating rotation rows (n gates each) with CX rows
    rotations = sum(g.kind in (GateKind.RX, GateKind.RY, GateKind.RZ) for g in c.gates)
    assert rotations == 6 * 6  # depth 12 -> 6 rotation layers
    # density 0.5 over 6 CX layers x 3 pairs: some pairs get a CX, not all
    assert 0 < sum(g.kind is GateKind.CX for g in c.gates) < 6 * 3


def test_determinism_per_seed():
    for family in FAMILIES:
        a = generate(BenchmarkSpec(family=family, n=6, seed=42))
        b = generate(BenchmarkSpec(family=family, n=6, seed=42))
        assert a.gates == b.gates
        c = generate(BenchmarkSpec(family=family, n=6, seed=43))
        if family in ("ghz", "qft"):
            assert c.gates == a.gates  # seed-free families
        else:
            assert c.gates != a.gates


@pytest.mark.parametrize("family", FAMILIES)
def test_full_pipeline_survival(family):
    errp = ErrorModelParams()
    c = generate(BenchmarkSpec(family=family, n=6, seed=1))
    native = decompose(c)
    assert native.is_native
    sc = slice_circuit(native)
    arch = ArchitectureSpec(n_sites=6)
    for strategy in STRATEGIES:
        s = map_strategy(strategy, sc, arch, Placement.identity(6), errp)
        assert validate_schedule(s, arch) == []
