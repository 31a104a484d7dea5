"""The benchmark's own inputs: QASM the parser reads back gate for gate, and
a native expansion the checker can rely on."""
import random

from spinbus import decompose, parse_qasm

import workloads as wl


def test_emitted_qasm_parses_to_the_same_gates():
    gates = wl.brickwork_gates(10, 6, random.Random(1)) + wl.qaoa_gates(6, random.Random(2))
    circuit = parse_qasm(wl.emit_qasm(10, gates))
    assert [(g.kind.value, g.qubits, g.angle) for g in circuit.gates] == gates


def test_native_operands_match_decompose():
    for gates in (wl.brickwork_gates(12, 8, random.Random(4)), wl.qaoa_gates(7, random.Random(5))):
        native = decompose(parse_qasm(wl.emit_qasm(12, gates)))
        assert tuple(g.qubits for g in native.gates) == wl.native_operands(gates)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = wl.make_workload("wide128", 7, tmp_path)
    b = wl.make_workload("wide128", 7, tmp_path)
    c = wl.make_workload("wide128", 8, tmp_path)
    assert a.inputs == b.inputs != c.inputs
    assert a.schedules == wl.WIDE_CIRCUITS
    assert wl.make_workload("suite16", 0, tmp_path).schedules == 105
