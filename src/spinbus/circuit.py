"""Circuit intermediate representation, native-basis decomposition, slicing.

The native gate set of the hardware is {RX, RZ, H, CZ}. Everything else
supported at the front end (Paulis, S/T and daggers, RY, CX, SWAP) expands
into it through one table, ``DECOMPOSITION``: each extended kind's native
rows, which is also the one list of the kinds that are extended. MEASURE and
BARRIER pass through decomposition untouched and are handled by the
scheduler (MEASURE optionally timed, BARRIER a pure layering fence). The
dense-unitary oracle that checks every identity lives with the tests, in
``tests/oracles.py``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class GateKind(Enum):
    """Gate kinds by QASM name. Each member carries its operand count
    ``n_qubits`` (None for the variadic BARRIER) and whether it
    ``takes_angle``, as plain attributes that take no Python code to read."""

    n_qubits: int | None
    takes_angle: bool

    # name = QASM name, n_qubits, takes_angle
    # native
    RX = "rx", 1, True
    RZ = "rz", 1, True
    H = "h", 1, False
    CZ = "cz", 2, False
    # extended, expanded by decompose() through DECOMPOSITION
    X = "x", 1, False
    Y = "y", 1, False
    Z = "z", 1, False
    S = "s", 1, False
    SDG = "sdg", 1, False
    T = "t", 1, False
    TDG = "tdg", 1, False
    RY = "ry", 1, True
    CX = "cx", 2, False
    SWAP = "swap", 2, False
    # non-unitary / structural
    MEASURE = "measure", 1, False
    BARRIER = "barrier", None, False

    def __new__(cls, value: str, n_qubits: int | None, takes_angle: bool) -> GateKind:
        member = object.__new__(cls)
        member._value_ = value
        member.n_qubits = n_qubits
        member.takes_angle = takes_angle
        return member

    # Members are singletons, so identity hashing agrees with equality; it
    # runs in C, where Enum's own __hash__ is Python code run on every set
    # or dict lookup (NATIVE_KINDS, DECOMPOSITION, Gate's hash).
    __hash__ = object.__hash__


NATIVE_KINDS = frozenset({GateKind.RX, GateKind.RZ, GateKind.H, GateKind.CZ})


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, operand qubits, optional angle (radians,
    stored as a ``float``).

    BARRIER may span any number of distinct qubits; every other kind has a
    fixed operand count.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        kind, qubits, angle = self.kind, tuple(self.qubits), self.angle
        if not isinstance(kind, GateKind):
            raise TypeError(f"kind must be a GateKind, got {kind!r}")
        object.__setattr__(self, "qubits", qubits)
        for q in qubits:
            if type(q) is not int and (
                isinstance(q, bool) or not isinstance(q, (int, np.integer))
            ):
                raise TypeError(f"{kind.name} operands must be integers, got {qubits}")
        expected = kind.n_qubits
        if expected is None:
            if len(qubits) < 1:
                raise ValueError("BARRIER needs at least one qubit")
        elif len(qubits) != expected:
            raise ValueError(f"{kind.name} takes {expected} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate operands in {kind.name}{qubits}")
        if kind.takes_angle:
            if angle is None or not math.isfinite(angle):
                raise ValueError(f"{kind.name} needs a finite angle")
            if type(angle) is not float:
                object.__setattr__(self, "angle", float(angle))
        elif angle is not None:
            raise ValueError(f"{kind.name} takes no angle")

    @property
    def is_two_qubit(self) -> bool:
        return self.kind.n_qubits == 2


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``num_qubits`` virtual qubits; ``num_qubits``
    must be an integer (a bool is not), or TypeError is raised."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.num_qubits
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"num_qubits must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"num_qubits must be >= 1, got {n}")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < n:
                    raise ValueError(
                        f"qubit {q} out of range for {n}-qubit circuit"
                    )

    # Per-gate data, derived once per circuit: the circuit and its gates are
    # frozen, so nothing can make it stale. The arrays are read-only.

    @functools.cached_property
    def is_native(self) -> bool:
        return not any(g.kind in DECOMPOSITION for g in self.gates)

    @functools.cached_property
    def two_qubit(self) -> np.ndarray:
        """Which gates are two-qubit gates, by kind: a BARRIER over two
        qubits is not one."""
        return _read_only(np.fromiter((g.is_two_qubit for g in self.gates), bool, len(self.gates)))

    @functools.cached_property
    def measure(self) -> np.ndarray:
        """Which gates are MEASUREs."""
        return _read_only(np.fromiter((g.kind is GateKind.MEASURE for g in self.gates), bool, len(self.gates)))

    @functools.cached_property
    def barrier(self) -> np.ndarray:
        """Which gates are BARRIERs, which are never scheduled."""
        return _read_only(np.fromiter((g.kind is GateKind.BARRIER for g in self.gates), bool, len(self.gates)))

    @functools.cached_property
    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        """Every gate's operands, BARRIERs' included, as CSR columns: gate
        ``k``'s qubits are ``qubits[offsets[k]:offsets[k + 1]]``."""
        counts = np.fromiter((len(g.qubits) for g in self.gates), np.int64, len(self.gates))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        qubits = np.fromiter((q for g in self.gates for q in g.qubits), np.int64, int(offsets[-1]))
        return _read_only(offsets), _read_only(qubits)

    def operands_of(self, gate_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The operands of the gates ``gate_index`` names, in its order, as
        two columns: each operand's position in ``gate_index`` and its qubit."""
        offsets, qubits = self.operands
        first = offsets[gate_index]
        row, at = _ragged(np.arange(len(first)), first, offsets[gate_index + 1] - first)
        return _read_only(row), _read_only(qubits[at])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ragged(rows, first, counts):
    """Each of ``rows`` paired with ``first, first + 1, ...``, ``counts`` of
    them, as two flat columns."""
    k = np.repeat(np.arange(len(rows)), counts)
    return rows[k], first[k] + np.arange(len(k)) - (np.cumsum(counts) - counts)[k]


@dataclass(frozen=True)
class SlicedCircuit:
    """A native circuit cut into ASAP layers of qubit-disjoint gates.

    ``layers[l]`` holds indices into ``circuit.gates``; concatenating the
    layers is a permutation of the gate list preserving per-qubit order.
    """

    circuit: Circuit
    layers: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @functools.cached_property
    def gate_layers(self) -> tuple[np.ndarray, np.ndarray]:
        """Every gate index in layer order, and its layer, as read-only columns."""
        sizes = np.fromiter(map(len, self.layers), np.int64, len(self.layers))
        gate_index = np.fromiter((k for layer in self.layers for k in layer), np.int64, int(sizes.sum()))
        return _read_only(gate_index), _read_only(np.repeat(np.arange(len(sizes)), sizes))


# Decomposition identities, each extended kind's native rows in time order:
# (kind, operand slots, angle), where a slot indexes the gate's operands and
# _THETA stands for its own angle. All verified against the unitary oracle in
# tests/oracles.py up to global phase.
_THETA = object()


def _expand(rows, qubits, angle):
    """``rows`` applied to a gate's ``qubits`` and ``angle``. The operands go
    through a list: with a ``map`` or a generator there, the cyclic collector
    ran more than twice as often during ``decompose`` (CPython 3.11)."""
    return [(kind, tuple([qubits[s] for s in slots]), angle if a is _THETA else a) for kind, slots, a in rows]


# RY(theta) = RZ(pi/2) RX(theta) RZ(-pi/2) as a matrix product, i.e.
# RZ(-pi/2) is applied first in time.
_RY = ((GateKind.RZ, (0,), -math.pi / 2), (GateKind.RX, (0,), _THETA), (GateKind.RZ, (0,), math.pi / 2))
_CX = ((GateKind.H, (1,), None), (GateKind.CZ, (0, 1), None), (GateKind.H, (1,), None))

#: The one list of extended kinds, flattened once: SWAP is its three CX
#: gates' nine rows, so no gate is rewritten twice.
DECOMPOSITION = {
    GateKind.X: ((GateKind.RX, (0,), math.pi),),
    GateKind.Y: tuple(_expand(_RY, (0,), math.pi)),
    GateKind.Z: ((GateKind.RZ, (0,), math.pi),),
    GateKind.S: ((GateKind.RZ, (0,), math.pi / 2),),
    GateKind.SDG: ((GateKind.RZ, (0,), -math.pi / 2),),
    GateKind.T: ((GateKind.RZ, (0,), math.pi / 4),),
    GateKind.TDG: ((GateKind.RZ, (0,), -math.pi / 4),),
    GateKind.RY: _RY,
    GateKind.CX: _CX,
    GateKind.SWAP: tuple(row for pair in ((0, 1), (1, 0), (0, 1)) for row in _expand(_CX, pair, None)),
}


def decompose(c: Circuit) -> Circuit:
    """Expand every extended gate into {RX, RZ, H, CZ} through its rows.

    Native gates, MEASURE and BARRIER pass through as the same objects.
    Per-qubit gate order is preserved; no cancellation or optimization is
    attempted.
    """
    gates: list[Gate] = []
    for g in c.gates:
        rows = DECOMPOSITION.get(g.kind)
        if rows is None:
            gates.append(g)
        else:
            gates += (Gate(*row) for row in _expand(rows, g.qubits, g.angle))
    return Circuit(c.num_qubits, tuple(gates))


def slice_circuit(c: Circuit) -> SlicedCircuit:
    """Cut a native circuit into ASAP layers.

    Every gate lands in the earliest layer consistent with its operand
    dependencies. BARRIER joins its operands' frontiers into one fence and
    occupies a layer slot like any gate (the scheduler skips it).
    """
    if not c.is_native:
        raise ValueError("slice_circuit needs a native-basis circuit")
    level = [0] * c.num_qubits
    layers: list[list[int]] = []
    for idx, g in enumerate(c.gates):
        layer = max(level[q] for q in g.qubits)
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(idx)
        for q in g.qubits:
            level[q] = layer + 1
    return SlicedCircuit(c, tuple(tuple(layer) for layer in layers))
