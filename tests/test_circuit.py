import math

import numpy as np
import pytest

from spinbus.circuit import (
    Circuit,
    Gate,
    GateKind,
    NATIVE_KINDS,
    decompose,
    slice_circuit,
)
from spinbus.rng import SplitMix64

from oracles import phase_aligned_distance, unitary_of

PI = math.pi


def cz(a, b):
    return Gate(GateKind.CZ, (a, b))


def h(q):
    return Gate(GateKind.H, (q,))


def rz(q, theta):
    return Gate(GateKind.RZ, (q,), theta)


class TestGateValidation:
    def test_native_set(self):
        assert NATIVE_KINDS == {GateKind.RX, GateKind.RZ, GateKind.H, GateKind.CZ}

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
        assert all(g.kind in NATIVE_KINDS for g in out.gates)

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
