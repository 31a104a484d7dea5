"""Test oracles the compiler itself never calls: the dense unitary of a 1-2
qubit gate list (checks every decomposition rewrite), exact MinLA by
enumerating all n! placements (bounds spectral placement), the analytic
velocity derivative of the dephasing model (checks the optimizer's minimum),
and the op-by-op schedule writer and summary that the columnar
``schedule_to_json`` and ``summarize`` must match bit for bit.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from spinbus.architecture import distance
from spinbus.circuit import Gate, GateKind
from spinbus.error_model import HBAR, ErrorModelParams, _check_v
from spinbus.mapper import GateOp, Schedule, ShuttleOp
from spinbus.placement import InteractionGraph, Placement

_BRUTE_FORCE_LIMIT = 9
_PERM_CACHE: dict[int, np.ndarray] = {}


# Standard gate matrices for the 1-2 qubit unitary oracle. Qubit 0 is the
# most significant bit of the basis-state index.
def _matrix_1q(g: Gate) -> np.ndarray:
    k, a = g.kind, g.angle
    if k is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if k is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if k is GateKind.Z:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if k is GateKind.S:
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if k is GateKind.SDG:
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if k is GateKind.T:
        return np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
    if k is GateKind.TDG:
        return np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex)
    if k is GateKind.RX:
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if k is GateKind.RY:
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k is GateKind.RZ:
        return np.array(
            [[np.exp(-1j * a / 2), 0], [0, np.exp(1j * a / 2)]], dtype=complex
        )
    raise ValueError(f"{k.name} has no unitary")


def _matrix_2q(g: Gate) -> np.ndarray:
    k = g.kind
    if k is GateKind.CZ:
        return np.diag([1, 1, 1, -1]).astype(complex)
    if k is GateKind.SWAP:
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    if k is GateKind.CX:
        control, target = g.qubits
        m = np.zeros((4, 4), dtype=complex)
        for basis in range(4):
            bits = [(basis >> 1) & 1, basis & 1]
            if bits[control]:
                bits[target] ^= 1
            m[(bits[0] << 1) | bits[1], basis] = 1
        return m
    raise ValueError(f"{k.name} has no unitary")


def unitary_of(gates: list[Gate] | tuple[Gate, ...], n: int) -> np.ndarray:
    """Ordered product of the standard unitaries of ``gates`` on n <= 2 qubits.

    Gates apply in list order (first gate acts first). MEASURE/BARRIER are
    rejected. Qubit 0 is the most significant index bit.
    """
    if n not in (1, 2):
        raise ValueError(f"unitary_of supports n in (1, 2), got {n}")
    dim = 2**n
    u = np.eye(dim, dtype=complex)
    eye = np.eye(2, dtype=complex)
    for g in gates:
        if g.kind in (GateKind.MEASURE, GateKind.BARRIER):
            raise ValueError(f"{g.kind.name} is not unitary")
        for q in g.qubits:
            if q >= n:
                raise ValueError(f"operand {q} out of range for n={n}")
        if g.is_two_qubit:
            m = _matrix_2q(g)
        else:
            m1 = _matrix_1q(g)
            if n == 1:
                m = m1
            else:
                m = np.kron(m1, eye) if g.qubits[0] == 0 else np.kron(eye, m1)
        u = m @ u
    return u


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between two matrices after global-phase alignment."""
    flat_a, flat_b = a.ravel(), b.ravel()
    k = int(np.argmax(np.abs(flat_a)))
    if abs(flat_a[k]) < 1e-14 or abs(flat_b[k]) < 1e-14:
        return float(np.max(np.abs(a - b)))
    phase = flat_b[k] / flat_a[k]
    phase /= abs(phase)
    return float(np.max(np.abs(a * phase - b)))


def edges(g: InteractionGraph) -> list[tuple[int, int, float]]:
    """Edges (u, v, weight) with u < v and weight > 0, sorted."""
    u_idx, v_idx = np.nonzero(np.triu(g.weights, 1))
    return [(int(u), int(v), float(g.weights[u, v])) for u, v in zip(u_idx, v_idx)]


def _all_permutations(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(
            list(itertools.permutations(range(n))), dtype=np.int64
        )
    return _PERM_CACHE[n]


def brute_force_minla(g: InteractionGraph) -> tuple[Placement, float]:
    """Exact MinLA by enumerating all n! arrangements (n <= 9).

    Ties resolve to the lexicographically smallest optimal permutation.
    """
    if g.n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {_BRUTE_FORCE_LIMIT}, got {g.n}")
    perms = _all_permutations(g.n)
    costs = np.zeros(len(perms))
    for u, v, w in edges(g):
        costs += w * np.abs(perms[:, u] - perms[:, v])
    best = int(np.argmin(costs))  # first occurrence = lexicographically smallest
    return Placement(tuple(int(x) for x in perms[best])), float(costs[best])


def d_phase_error_dv(v: float, l_s: float, p: ErrorModelParams) -> float:
    """Analytic derivative of the phase error with respect to velocity."""
    _check_v(v)
    d1 = -4.0 * p.l_c * l_s / (p.t2_star**2 * v**3)
    d2 = -1e-4 / v**2
    d3 = 0.01 * (HBAR * p.a_x) ** 2 * v / p.e_vs0**2 * math.exp(
        (p.a_x * p.l_dot) ** 2 / 2.0
    )
    b = 0.03 * math.log(10.0) * p.e_vs0 * p.l_dot / HBAR
    d4 = 0.01 * (l_s / p.d_bar) * math.exp(-b / v) * b / v**2
    return d1 + d2 + d3 + d4


def _loc_json(loc) -> dict:
    return {"kind": loc.kind.value, "idx": loc.index}


def oracle_schedule_to_json(s: Schedule) -> str:
    """The schedule JSON writer as it was before the op columns: one dict
    per op, iterating ``s.ops``, and one ``json.dumps`` of the document."""
    ops = []
    for op in s.ops:
        if isinstance(op, ShuttleOp):
            ops.append(
                {
                    "q": op.qubit,
                    "from": _loc_json(op.src),
                    "to": _loc_json(op.dst),
                    "t0_ns": round(op.start * 1e9, 3),
                    "v_mps": op.velocity,
                    "dC": op.delta_c,
                }
            )
        else:
            ops.append(
                {
                    "gate": op.gate_index,
                    "zone": op.zone,
                    "t0_ns": round(op.start * 1e9, 3),
                    "dur_ns": round(op.duration * 1e9, 3),
                }
            )
    doc = {
        "strategy": s.strategy,
        "arch": s.arch.to_config(),
        "placement": list(s.initial_sites),
        "error_params": s.error_params.to_config(),
        "ops": ops,
        "total_time_ns": round(s.total_time * 1e9, 3),
        "per_qubit_error": list(s.per_qubit_error),
        "final_sites": list(s.final_sites),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def oracle_summary_counts(s: Schedule) -> tuple[int, float, int, int]:
    """(n_shuttles, total_distance, n_gates_1q, n_gates_2q) as ``summarize``
    counted them before the op columns: op by op, distances added in op
    order."""
    n_shuttles = 0
    total_distance = 0.0
    n_1q = n_2q = 0
    for op in s.ops:
        if isinstance(op, ShuttleOp):
            n_shuttles += 1
            total_distance += distance(op.src, op.dst, s.arch)
        elif isinstance(op, GateOp):
            if s.circuit.gates[op.gate_index].is_two_qubit:
                n_2q += 1
            else:
                n_1q += 1
    return n_shuttles, total_distance, n_1q, n_2q
