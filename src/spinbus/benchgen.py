"""Seeded generators for the benchmark circuit families.

Stand-ins for the published benchmark suite: same algorithm families,
deterministic per seed, but not gate-for-gate identical to any external
tool's output (real QASM files can always be fed through the parser
instead). Controlled-phase rotations are emitted pre-expanded into
{rz, cx} since the IR carries no controlled-phase kind.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind
from .rng import SplitMix64

FAMILIES = ("ghz", "graph_state", "dj", "qft", "qpe", "qaoa", "random")


@dataclass(frozen=True)
class BenchmarkSpec:
    family: str
    n: int
    seed: int = 0
    qaoa_rounds: int = 1
    depth: int | None = None  # random family; defaults to 2n

    def __post_init__(self) -> None:
        for name in ("n", "seed", "qaoa_rounds", "depth"):
            value = getattr(self, name)
            if value is None and name == "depth":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {FAMILIES}")
        if not 2 <= self.n <= 64:
            raise ValueError(f"n must be in [2, 64], got {self.n}")
        if self.qaoa_rounds < 1:
            raise ValueError("qaoa_rounds must be >= 1")
        if self.depth is not None and self.depth < 1:
            raise ValueError("depth must be >= 1")


def _cp_gates(control: int, target: int, lam: float) -> list[Gate]:
    """Controlled-phase CP(lam) as rz/cx, exact up to global phase."""
    return [
        Gate(GateKind.RZ, (target,), lam / 2),
        Gate(GateKind.CX, (control, target)),
        Gate(GateKind.RZ, (target,), -lam / 2),
        Gate(GateKind.CX, (control, target)),
        Gate(GateKind.RZ, (control,), lam / 2),
    ]


def _qft_gates(qubits: list[int]) -> list[Gate]:
    gates: list[Gate] = []
    n = len(qubits)
    for i in range(n):
        gates.append(Gate(GateKind.H, (qubits[i],)))
        for j in range(i + 1, n):
            gates += _cp_gates(qubits[j], qubits[i], math.pi / 2 ** (j - i))
    for i in range(n // 2):
        gates.append(Gate(GateKind.SWAP, (qubits[i], qubits[n - 1 - i])))
    return gates


def _inverse(gates: list[Gate]) -> list[Gate]:
    out: list[Gate] = []
    for g in reversed(gates):
        if g.kind.takes_angle:
            out.append(Gate(g.kind, g.qubits, -g.angle))
        else:
            out.append(g)  # H, CX, SWAP are self-inverse
    return out


def _seeded_edges(n: int, p: float, rng: SplitMix64) -> list[tuple[int, int]]:
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < p
    ]


def _gen_ghz(spec: BenchmarkSpec) -> list[Gate]:
    gates = [Gate(GateKind.H, (0,))]
    gates += [Gate(GateKind.CX, (i, i + 1)) for i in range(spec.n - 1)]
    return gates


def _gen_graph_state(spec: BenchmarkSpec) -> list[Gate]:
    rng = SplitMix64(spec.seed)
    gates = [Gate(GateKind.H, (q,)) for q in range(spec.n)]
    gates += [Gate(GateKind.CZ, (u, v)) for u, v in _seeded_edges(spec.n, 0.5, rng)]
    return gates


def _gen_dj(spec: BenchmarkSpec) -> list[Gate]:
    # Deutsch-Jozsa with a balanced oracle f(x) = XOR of a seeded nonempty
    # subset of the inputs, realized as CX fans into the ancilla.
    rng = SplitMix64(spec.seed)
    anc = spec.n - 1
    inputs = list(range(spec.n - 1))
    subset = [q for q in inputs if rng.uniform() < 0.5]
    if not subset:
        subset = [0]
    gates = [Gate(GateKind.X, (anc,))]
    gates += [Gate(GateKind.H, (q,)) for q in range(spec.n)]
    gates += [Gate(GateKind.CX, (q, anc)) for q in subset]
    gates += [Gate(GateKind.H, (q,)) for q in inputs]
    return gates


def _gen_qft(spec: BenchmarkSpec) -> list[Gate]:
    return _qft_gates(list(range(spec.n)))


def _gen_qpe(spec: BenchmarkSpec) -> list[Gate]:
    # Phase estimation of a seeded single-qubit phase gate on the last
    # qubit, counting register on the rest, ending with the inverse QFT.
    rng = SplitMix64(spec.seed)
    phi = rng.uniform()
    t = spec.n - 1
    eigen = spec.n - 1
    gates = [Gate(GateKind.X, (eigen,))]
    gates += [Gate(GateKind.H, (k,)) for k in range(t)]
    for k in range(t):
        lam = 2.0 * math.pi * phi * 2 ** (t - 1 - k)
        gates += _cp_gates(k, eigen, lam)
    gates += _inverse(_qft_gates(list(range(t))))
    return gates


def _gen_qaoa(spec: BenchmarkSpec) -> list[Gate]:
    rng = SplitMix64(spec.seed)
    edges = _seeded_edges(spec.n, 0.5, rng)
    gates = [Gate(GateKind.H, (q,)) for q in range(spec.n)]
    for _ in range(spec.qaoa_rounds):
        gamma = rng.uniform() * 2.0 * math.pi
        beta = rng.uniform() * 2.0 * math.pi
        for u, v in edges:
            gates.append(Gate(GateKind.CX, (u, v)))
            gates.append(Gate(GateKind.RZ, (v,), gamma))
            gates.append(Gate(GateKind.CX, (u, v)))
        gates += [Gate(GateKind.RX, (q,), beta) for q in range(spec.n)]
    return gates


def _gen_random(spec: BenchmarkSpec) -> list[Gate]:
    rng = SplitMix64(spec.seed)
    depth = spec.depth if spec.depth is not None else 2 * spec.n
    rotations = (GateKind.RX, GateKind.RY, GateKind.RZ)
    gates: list[Gate] = []
    for layer in range(depth):
        if layer % 2 == 0:
            for q in range(spec.n):
                kind = rotations[rng.randbelow(3)]
                gates.append(Gate(kind, (q,), rng.uniform() * 2.0 * math.pi))
        else:
            order = list(range(spec.n))
            rng.shuffle(order)
            for k in range(0, spec.n - 1, 2):
                if rng.uniform() < 0.5:  # CX density
                    gates.append(Gate(GateKind.CX, (order[k], order[k + 1])))
    return gates


_GENERATORS = {
    "ghz": _gen_ghz,
    "graph_state": _gen_graph_state,
    "dj": _gen_dj,
    "qft": _gen_qft,
    "qpe": _gen_qpe,
    "qaoa": _gen_qaoa,
    "random": _gen_random,
}


def generate(spec: BenchmarkSpec) -> Circuit:
    """Build the requested family circuit, deterministic per seed."""
    return Circuit(spec.n, tuple(_GENERATORS[spec.family](spec)))
