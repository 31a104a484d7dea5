import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbus import (
    STRATEGIES,
    ArchitectureSpec,
    build_interaction_graph,
    map_strategy,
    schedule_to_json,
    spectral_placement,
    summarize,
    validate_schedule,
)
from spinbus.benchgen import FAMILIES, BenchmarkSpec, generate
from spinbus.circuit import (
    DECOMPOSITION,
    KINDS,
    Circuit,
    Gate,
    GateKind,
    decompose,
    slice_circuit,
)
from spinbus.qasm import export_qasm, parse_qasm
from spinbus.rng import SplitMix64

from oracles import oracle_decompose, oracle_slice_circuit, phase_aligned_distance, unitary_of

PI = math.pi
NATIVE = {GateKind.RX, GateKind.RZ, GateKind.H, GateKind.CZ}


def cz(a, b):
    return Gate(GateKind.CZ, (a, b))


def h(q):
    return Gate(GateKind.H, (q,))


def rz(q, theta):
    return Gate(GateKind.RZ, (q,), theta)


class TestGateValidation:
    def test_native_set(self):
        # the unitary kinds that decomposition leaves as they are
        assert set(KINDS) - set(DECOMPOSITION) - {GateKind.MEASURE, GateKind.BARRIER} == NATIVE

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CZ, (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0, 1))

    def test_duplicate_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CX, (1, 1))

    def test_angle_rules(self):
        with pytest.raises(ValueError):
            Gate(GateKind.RX, (0,))  # missing angle
        with pytest.raises(ValueError):
            Gate(GateKind.RZ, (0,), float("nan"))
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0,), 1.0)  # spurious angle

    @pytest.mark.parametrize(
        "kind, qubits",
        [
            (GateKind.H, (0.5,)),
            (GateKind.CZ, (True, 0)),
            (GateKind.CX, (0, "1")),
            (GateKind.H, (np.bool_(True),)),
            (GateKind.BARRIER, (0, 1.0)),
        ],
    )
    def test_non_integer_operands_rejected(self, kind, qubits):
        with pytest.raises(TypeError, match="operands must be integers"):
            Gate(kind, qubits)

    @pytest.mark.parametrize("kind", ["h", None, 1, GateKind])
    def test_kind_that_is_not_a_gate_kind_rejected(self, kind):
        with pytest.raises(TypeError, match="kind must be a GateKind"):
            Gate(kind, (0,))

    def test_numpy_integer_operands_accepted(self):
        g = Gate(GateKind.CZ, (np.int64(0), np.uint8(1)))
        assert Circuit(2, (g,)).gates == (cz(0, 1),)

    def test_kind_facts(self):
        two = {GateKind.CZ, GateKind.CX, GateKind.SWAP}
        angled = {GateKind.RX, GateKind.RY, GateKind.RZ}
        for kind in GateKind:
            expected = None if kind is GateKind.BARRIER else 2 if kind in two else 1
            assert kind.n_qubits == expected
            assert kind.takes_angle == (kind in angled)
            assert GateKind(kind.value) is kind

    def test_barrier_variadic(self):
        Gate(GateKind.BARRIER, (0,))
        Gate(GateKind.BARRIER, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            Gate(GateKind.BARRIER, ())

    def test_circuit_range_check(self):
        with pytest.raises(ValueError):
            Circuit(2, (cz(0, 2),))

    @pytest.mark.parametrize("num_qubits", [2.5, 3.0, True, np.bool_(True), "3", None])
    def test_non_integer_qubit_count_rejected(self, num_qubits):
        # 2.5 once let qubit 2 through the range check, and slicing then
        # failed with a raw TypeError
        with pytest.raises(TypeError, match="num_qubits must be an integer"):
            Circuit(num_qubits, (h(0), cz(0, 2)) if num_qubits == 2.5 else (h(0),))

    def test_numpy_integer_qubit_count_accepted(self):
        assert Circuit(np.int64(2), (cz(0, 1),)).num_qubits == 2

    @pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.H])
    @pytest.mark.parametrize("angle", [True, False, np.bool_(True)], ids=repr)
    def test_bool_angle_rejected(self, kind, angle):
        # a bool angle once built with angle 1.0, and export_qasm wrote rx(1.0)
        with pytest.raises(TypeError, match="angle must be a number"):
            Gate(kind, (0,), angle)

    @pytest.mark.parametrize("gate", [(GateKind.RX, (0,), True), "h q[0];", None])
    def test_circuit_of_non_gates_rejected(self, gate):
        with pytest.raises(TypeError, match="gates must be Gate objects"):
            Circuit(1, (h(0), gate))


class TestUnitaryOf:
    def test_hadamard(self):
        expect = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(unitary_of([h(0)], 1), expect, atol=1e-12)

    def test_empty_product_is_identity(self):
        assert np.allclose(unitary_of([], 2), np.eye(4), atol=0)

    def test_rz_pi_squared_is_identity_up_to_phase(self):
        u = unitary_of([rz(0, PI), rz(0, PI)], 1)
        assert phase_aligned_distance(u, np.eye(2)) < 1e-12

    def test_result_is_unitary(self):
        rng = SplitMix64(3)
        gates = [
            Gate(GateKind.RX, (0,), rng.uniform() * 2 * PI),
            cz(0, 1),
            Gate(GateKind.RY, (1,), rng.uniform() * 2 * PI),
            Gate(GateKind.CX, (1, 0)),
        ]
        u = unitary_of(gates, 2)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_rejects_more_than_two_qubits(self):
        with pytest.raises(ValueError):
            unitary_of([], 3)

    def test_rejects_non_unitary_kinds(self):
        with pytest.raises(ValueError):
            unitary_of([Gate(GateKind.MEASURE, (0,))], 1)


RX, RZ, H, CZ = GateKind.RX, GateKind.RZ, GateKind.H, GateKind.CZ
PASS_THROUGH = {RX, RZ, H, CZ, GateKind.MEASURE, GateKind.BARRIER}


def _ry(q, theta):
    return [(RZ, (q,), -PI / 2), (RX, (q,), theta), (RZ, (q,), PI / 2)]


def _cx(control, target):
    return [(H, (target,), None), (CZ, (control, target), None), (H, (target,), None)]


def _written_out(kind, qubits, theta):
    """The native gates of each extended kind, as (kind, qubits, angle)."""
    a, b = qubits[0], qubits[-1]
    return {
        GateKind.X: [(RX, (a,), PI)],
        GateKind.Y: _ry(a, PI),
        GateKind.Z: [(RZ, (a,), PI)],
        GateKind.S: [(RZ, (a,), PI / 2)],
        GateKind.SDG: [(RZ, (a,), -PI / 2)],
        GateKind.T: [(RZ, (a,), PI / 4)],
        GateKind.TDG: [(RZ, (a,), -PI / 4)],
        GateKind.RY: _ry(a, theta),
        GateKind.CX: _cx(a, b),
        GateKind.SWAP: _cx(a, b) + _cx(b, a) + _cx(a, b),
    }[kind]


def _bits(rows):
    return [(kind, tuple(qubits), None if angle is None else float.hex(angle)) for kind, qubits, angle in rows]


class TestDecompose:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate(kind, qubits, -0.7531 if kind.takes_angle else None)
            for kind in GateKind
            for qubits in {1: [(1,)], 2: [(0, 2), (2, 0)], None: [(2, 0, 1)]}[kind.n_qubits]
        ],
        ids=lambda g: f"{g.kind.value}{g.qubits}",
    )
    def test_each_kind_expands_to_its_written_out_rows(self, gate):
        # every member is either passed through or has its rows written out
        # here, so a kind added without a row fails; angles compare by bits
        out = decompose(Circuit(3, (gate,))).gates
        if gate.kind in PASS_THROUGH:
            assert len(out) == 1 and out[0] is gate
        else:
            want = _written_out(gate.kind, gate.qubits, gate.angle)
            assert _bits((g.kind, g.qubits, g.angle) for g in out) == _bits(want)

    def test_native_passes_through(self):
        c = Circuit(2, (h(0), cz(0, 1)))
        assert decompose(c).gates == c.gates

    def test_cx_rewrites_to_h_cz_h(self):
        c = Circuit(2, (Gate(GateKind.CX, (0, 1)),))
        kinds = [g.kind for g in decompose(c).gates]
        assert kinds == [GateKind.H, GateKind.CZ, GateKind.H]

    def test_swap_expands_through_cx(self):
        c = Circuit(2, (Gate(GateKind.SWAP, (0, 1)),))
        out = decompose(c)
        assert len(out.gates) == 9
        assert all(g.kind in NATIVE for g in out.gates)

    @pytest.mark.parametrize(
        "gate",
        [
            Gate(GateKind.X, (0,)),
            Gate(GateKind.Y, (0,)),
            Gate(GateKind.Z, (0,)),
            Gate(GateKind.S, (0,)),
            Gate(GateKind.SDG, (0,)),
            Gate(GateKind.T, (0,)),
            Gate(GateKind.TDG, (0,)),
            Gate(GateKind.RY, (0,), 0.7531),
            Gate(GateKind.RY, (0,), -2.25),
            Gate(GateKind.RY, (1,), PI),
            Gate(GateKind.CX, (0, 1)),
            Gate(GateKind.CX, (1, 0)),
            Gate(GateKind.SWAP, (0, 1)),
        ],
        ids=lambda g: f"{g.kind.value}{g.qubits}",
    )
    def test_unitary_preserved_up_to_global_phase(self, gate):
        n = 2 if gate.is_two_qubit or max(gate.qubits) > 0 else 1
        out = decompose(Circuit(n, (gate,)))
        d = phase_aligned_distance(unitary_of(out.gates, n), unitary_of([gate], n))
        assert d < 1e-9

    def test_measure_barrier_pass_through(self):
        c = Circuit(2, (Gate(GateKind.MEASURE, (0,)), Gate(GateKind.BARRIER, (0, 1))))
        assert decompose(c).gates == c.gates

    def test_idempotent(self):
        c = Circuit(3, (Gate(GateKind.SWAP, (0, 2)), h(1), Gate(GateKind.T, (1,))))
        once = decompose(c)
        assert decompose(once).gates == once.gates

    def test_per_qubit_order_preserved(self):
        c = Circuit(2, (Gate(GateKind.X, (0,)), cz(0, 1), Gate(GateKind.S, (0,))))
        out = decompose(c)
        on_q0 = [g.kind for g in out.gates if 0 in g.qubits]
        assert on_q0 == [GateKind.RX, GateKind.CZ, GateKind.RZ]


class TestSlice:
    def test_dependency_forced_layers(self):
        c = Circuit(4, (cz(0, 1), cz(2, 3), cz(1, 2)))
        assert slice_circuit(c).layers == ((0, 1), (2,))

    def test_single_gate(self):
        assert slice_circuit(Circuit(1, (h(0),))).layers == ((0,),)

    def test_same_qubit_chain(self):
        c = Circuit(1, (h(0), rz(0, 1.0), h(0)))
        assert slice_circuit(c).layers == ((0,), (1,), (2,))

    def test_rejects_non_native(self):
        with pytest.raises(ValueError):
            slice_circuit(Circuit(2, (Gate(GateKind.CX, (0, 1)),)))

    def test_disjointness_within_layers(self):
        c = _random_native(10, 80, seed=5)
        sc = slice_circuit(c)
        for layer in sc.layers:
            seen = set()
            for gi in layer:
                for q in c.gates[gi].qubits:
                    assert q not in seen
                    seen.add(q)

    def test_concatenation_is_order_preserving_permutation(self):
        c = _random_native(8, 60, seed=11)
        sc = slice_circuit(c)
        flat = [gi for layer in sc.layers for gi in layer]
        assert sorted(flat) == list(range(len(c.gates)))
        for q in range(c.num_qubits):
            ordered = [gi for gi in flat if q in c.gates[gi].qubits]
            assert ordered == sorted(ordered)

    def test_idempotent_on_flattened_order(self):
        c = _random_native(8, 60, seed=23)
        sc = slice_circuit(c)
        flat = tuple(c.gates[gi] for layer in sc.layers for gi in layer)
        again = slice_circuit(Circuit(c.num_qubits, flat))
        shape = [len(layer) for layer in sc.layers]
        assert [len(layer) for layer in again.layers] == shape

    def test_layer_count_is_critical_path(self):
        for seed in range(8):
            c = _random_native(6, 40, seed=seed)
            sc = slice_circuit(c)
            assert len(sc.layers) == _critical_path(c)

    def test_barrier_fences_all_operands(self):
        # without the barrier H(1) would slot into layer 0
        c = Circuit(2, (h(0), Gate(GateKind.BARRIER, (0, 1)), h(1)))
        sc = slice_circuit(c)
        assert sc.layers == ((0,), (1,), (2,))

    def test_measure_participates_in_layering(self):
        c = Circuit(1, (h(0), Gate(GateKind.MEASURE, (0,))))
        assert slice_circuit(c).layers == ((0,), (1,))


def _bits_of(sc):
    """Every column of a sliced circuit, angles as ``float.hex``, and its
    layers."""
    c = sc.circuit
    gate_index, layer = sc.gate_layers
    return (
        c.num_qubits, c.kind.tolist(), c.offsets.tolist(), c.qubits.tolist(),
        [float.hex(a) for a in c.angle.tolist()], gate_index.tolist(), layer.tolist(), sc.layers,
    )


def _matches_oracles(c, views=True):
    """The columnar stages give the oracles' bits; with ``views``, also
    their gates, angles by bits, and an equal circuit."""
    got = slice_circuit(decompose(c))
    want = oracle_slice_circuit(oracle_decompose(c))
    assert _bits_of(got) == _bits_of(want) and got.depth == want.depth
    if views:
        assert [(g.kind, g.qubits, None if g.angle is None else float.hex(g.angle)) for g in got.circuit.gates] == [
            (g.kind, g.qubits, None if g.angle is None else float.hex(g.angle)) for g in want.circuit.gates
        ]
        assert got.circuit == want.circuit


@st.composite
def _circuits(draw):
    """Circuits of 1-14 qubits over every kind, barriers and measures
    included, with any finite angle."""
    n = draw(st.integers(1, 14))
    gates = []
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=40)):
        count = kind.n_qubits or draw(st.integers(1, n))
        if count <= n:
            qubits = draw(st.permutations(range(n)))[:count]
            angle = draw(st.floats(allow_nan=False, allow_infinity=False)) if kind.takes_angle else None
            gates.append(Gate(kind, qubits, angle))
    return Circuit(n, gates)


def _benchmark_inputs():
    """The QASM texts of the benchmark's deep64 and wide128 workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        pytest.param(text, id=p.stem)
        for name in ("deep64", "wide128")
        for p, text in workloads.make_workload(name, 0, Path("unused")).inputs.items()
    ]


class TestColumnarMatchesOracles:
    """``decompose`` and ``slice_circuit`` gather over the columns; they must
    give the gate-by-gate oracles' kinds, operands, angle bits and layers."""

    @settings(max_examples=300, deadline=None)
    @given(_circuits())
    def test_arbitrary_circuits(self, c):
        _matches_oracles(c)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_benchmark_families(self, family, seed):
        for n in range(3, 65):
            _matches_oracles(generate(BenchmarkSpec(family=family, n=n, seed=seed)), views=False)

    @pytest.mark.parametrize("text", _benchmark_inputs())
    def test_benchmark_inputs(self, text):
        c = parse_qasm(text)
        _matches_oracles(c)
        assert export_qasm(c) == text

    def test_native_circuit_is_returned_as_it_is(self):
        c = Circuit(2, (h(0), cz(0, 1), Gate(GateKind.MEASURE, (1,))))
        assert decompose(c) is c


def _random_native(n, length, seed):
    rng = SplitMix64(seed)
    gates = []
    for _ in range(length):
        if rng.uniform() < 0.5:
            gates.append(rz(rng.randbelow(n), rng.uniform() * 2 * PI))
        else:
            a = rng.randbelow(n)
            b = rng.randbelow(n - 1)
            if b >= a:
                b += 1
            gates.append(cz(a, b))
    return Circuit(n, tuple(gates))


def _critical_path(c: Circuit) -> int:
    """Longest qubit-dependency chain, by explicit DAG longest path."""
    longest = {}  # gate index -> path length ending there
    last = {}  # qubit -> last gate index
    best = 0
    for i, g in enumerate(c.gates):
        depth = 1 + max((longest[last[q]] for q in g.qubits if q in last), default=0)
        longest[i] = depth
        for q in g.qubits:
            last[q] = i
        best = max(best, depth)
    return best


def test_compile_path_builds_no_gate(monkeypatch, errp):
    """From QASM text to schedule JSON, every stage reads the columns: no
    ``Gate`` is built (``Circuit.gates`` is a view for other callers)."""
    text = (
        "OPENQASM 2.0;\nqreg q[5];\ncreg c[5];\nh q;\nry(-pi/2) q[1];\nrx(0.5) q[2];\n"
        "cx q[0],q[3];\nswap q[1],q[4];\nt q[2];\nbarrier q[0],q[2],q[4];\ncz q[4],q[2];\nmeasure q -> c;\n"
    )
    built = []
    original = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda g: built.append(g.kind) or original(g))
    sc = slice_circuit(decompose(parse_qasm(text)))
    placement = spectral_placement(build_interaction_graph(sc))
    for measure_duration in (None, 100e-9):
        for strategy in STRATEGIES:
            s = map_strategy(strategy, sc, ArchitectureSpec(n_sites=5), placement, errp, measure_duration)
            assert validate_schedule(s, s.arch) == []
            schedule_to_json(s)
            summarize(s)
    assert built == []
    assert len(sc.circuit.gates) == len(built) == 29  # the view builds them
