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
    # or dict lookup (DECOMPOSITION, Gate's hash).
    __hash__ = object.__hash__


#: Every kind, by its code: a circuit's ``kind`` column holds indices into it.
KINDS = tuple(GateKind)
_CODE = {kind: code for code, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, operand qubits, optional angle (radians,
    stored as a ``float``).

    BARRIER may span any number of distinct qubits; every other kind has a
    fixed operand count. A bool is neither an operand nor an angle.
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
        if isinstance(angle, (bool, np.bool_)):
            raise TypeError(f"{kind.name} angle must be a number, got {angle!r}")
        message = _gate_error(kind, qubits, angle)
        if message is not None:
            raise ValueError(message)
        if angle is not None and type(angle) is not float:
            object.__setattr__(self, "angle", float(angle))

    @property
    def is_two_qubit(self) -> bool:
        return self.kind.n_qubits == 2


def _gate_error(kind: GateKind, qubits: tuple[int, ...], angle: float | None) -> str | None:
    """Why ``kind`` cannot apply to ``qubits`` with ``angle``, or None: the
    one source of these messages, for ``Gate`` and the QASM parser."""
    expected = kind.n_qubits
    if expected is None:
        if len(qubits) < 1:
            return "BARRIER needs at least one qubit"
    elif len(qubits) != expected:
        return f"{kind.name} takes {expected} qubit(s), got {qubits}"
    if len(set(qubits)) != len(qubits):
        return f"duplicate operands in {kind.name}{qubits}"
    if kind.takes_angle:
        if angle is None or not math.isfinite(angle):
            return f"{kind.name} needs a finite angle"
    elif angle is not None:
        return f"{kind.name} takes no angle"
    return None


class Circuit:
    """Ordered gates over ``num_qubits`` virtual qubits, held as read-only
    columns: ``kind``, each gate's code (an index into ``KINDS``); the
    operands as CSR ``offsets``/``qubits``, gate ``k``'s being
    ``qubits[offsets[k]:offsets[k + 1]]``; and ``angle``, NaN where the kind
    takes none.

    ``Circuit(num_qubits, gates)`` builds the columns from ``Gate`` objects;
    ``num_qubits`` must be an integer (a bool is not), or TypeError is
    raised. ``gates`` is a view of the columns, built on first use. Two
    circuits are equal when their qubit counts and gates are.
    """

    num_qubits: int
    kind: np.ndarray
    offsets: np.ndarray
    qubits: np.ndarray
    angle: np.ndarray

    def __init__(self, num_qubits: int, gates) -> None:
        n = num_qubits
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"num_qubits must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"num_qubits must be >= 1, got {n}")
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise TypeError(f"gates must be Gate objects, got {g!r}")
        counts = np.fromiter((len(g.qubits) for g in gates), np.int64, len(gates))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        try:
            qubits = np.fromiter((q for g in gates for q in g.qubits), np.int64, int(offsets[-1]))
        except OverflowError:  # beyond 64 bits, so out of range
            qubits = None
        if qubits is None or ((qubits < 0) | (qubits >= n)).any():
            q = next(q for g in gates for q in g.qubits if not 0 <= q < n)
            raise ValueError(f"qubit {q} out of range for {n}-qubit circuit")
        self._set(
            int(n),
            np.fromiter((_CODE[g.kind] for g in gates), np.int8, len(gates)),
            offsets,
            qubits,
            np.fromiter((math.nan if g.angle is None else g.angle for g in gates), np.float64, len(gates)),
        )
        self.__dict__["gates"] = gates

    @classmethod
    def _from_columns(cls, num_qubits: int, kind, offsets, qubits, angle) -> Circuit:
        """A circuit of columns its caller has checked."""
        c = object.__new__(cls)
        c._set(num_qubits, kind, offsets, qubits, angle)
        return c

    def _set(self, num_qubits, kind, offsets, qubits, angle) -> None:
        self.__dict__.update(
            num_qubits=num_qubits, kind=_read_only(kind), offsets=_read_only(offsets),
            qubits=_read_only(qubits), angle=_read_only(angle),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and all(np.array_equal(a, b) for a, b in zip(self._exact, other._exact))
            and np.array_equal(self.angle, other.angle, equal_nan=True)
        )

    def __hash__(self):
        return hash((self.num_qubits, *(a.tobytes() for a in self._exact)))

    def __repr__(self):
        return f"Circuit(num_qubits={self.num_qubits}, gates={self.gates!r})"

    @property
    def _exact(self):
        """The columns compared bit for bit; angles compare as floats."""
        return self.kind, self.offsets, self.qubits

    # Views and per-gate data, derived once per circuit from its read-only
    # columns, so nothing can make them stale.

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates, as ``Gate`` objects."""
        offsets, qubits = self.offsets.tolist(), self.qubits.tolist()
        return tuple(
            Gate(KINDS[k], tuple(qubits[a:b]), None if math.isnan(angle) else angle)
            for k, a, b, angle in zip(self.kind.tolist(), offsets, offsets[1:], self.angle.tolist())
        )

    @property
    def num_gates(self) -> int:
        return len(self.kind)

    @functools.cached_property
    def is_native(self) -> bool:
        return not _EXTENDED[self.kind].any()

    @functools.cached_property
    def two_qubit(self) -> np.ndarray:
        """Which gates are two-qubit gates, by kind: a BARRIER over two
        qubits is not one."""
        return _read_only(_TWO_QUBIT[self.kind])

    @functools.cached_property
    def measure(self) -> np.ndarray:
        """Which gates are MEASUREs."""
        return _read_only(self.kind == _CODE[GateKind.MEASURE])

    @functools.cached_property
    def barrier(self) -> np.ndarray:
        """Which gates are BARRIERs, which are never scheduled."""
        return _read_only(self.kind == _CODE[GateKind.BARRIER])

    def operands_of(self, gate_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The operands of the gates ``gate_index`` names, in its order, as
        two columns: each operand's position in ``gate_index`` and its qubit."""
        first = self.offsets[gate_index]
        row, at = _ragged(np.arange(len(first)), first, self.offsets[gate_index + 1] - first)
        return _read_only(row), _read_only(self.qubits[at])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ragged(rows, first, counts):
    """Each of ``rows`` paired with ``first, first + 1, ...``, ``counts`` of
    them, as two flat columns."""
    k = np.repeat(np.arange(len(rows)), counts)
    return rows[k], first[k] + np.arange(len(k)) - (np.cumsum(counts) - counts)[k]


class SlicedCircuit:
    """A native circuit cut into ASAP layers of qubit-disjoint gates.

    Its data is ``gate_layers``: every gate index in layer order and its
    layer, as read-only columns. ``layers[l]`` holds the indices of layer
    ``l``, a view built on first use; concatenating the layers is a
    permutation of the gates preserving per-qubit order.
    ``SlicedCircuit(circuit, layers)`` builds the columns from the layers.
    """

    circuit: Circuit
    gate_layers: tuple[np.ndarray, np.ndarray]
    depth: int

    def __init__(self, circuit: Circuit, layers) -> None:
        layers = tuple(map(tuple, layers))
        sizes = np.fromiter(map(len, layers), np.int64, len(layers))
        gate_index = np.fromiter((k for layer in layers for k in layer), np.int64, int(sizes.sum()))
        self.__dict__.update(
            circuit=circuit, depth=len(layers), layers=layers,
            gate_layers=(_read_only(gate_index), _read_only(np.repeat(np.arange(len(layers)), sizes))),
        )

    @classmethod
    def _from_columns(cls, circuit: Circuit, gate_index, layer, depth: int) -> SlicedCircuit:
        sc = object.__new__(cls)
        sc.__dict__.update(circuit=circuit, depth=depth, gate_layers=(_read_only(gate_index), _read_only(layer)))
        return sc

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @functools.cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        gate_index, layer = self.gate_layers
        bounds = np.searchsorted(layer, np.arange(self.depth + 1)).tolist()
        flat = gate_index.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


# Decomposition identities, each extended kind's native rows in time order:
# (kind, operand slots, angle), where a slot indexes the gate's operands and
# _THETA stands for its own angle. All verified against the unitary oracle in
# tests/oracles.py up to global phase.
_THETA = object()


def _expand(rows, qubits, angle):
    """``rows`` applied to a gate's ``qubits`` and ``angle``."""
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


# DECOMPOSITION as columns over one list of rows: the rows of kind code k
# start at _FIRST[k], _N_ROWS[k] of them. A kind with no rows passes through
# as one row of its own, which keeps every operand (_KEEP) and the angle.
_ROWS = [row for kind in KINDS for row in DECOMPOSITION.get(kind, ((kind, None, _THETA),))]
_N_ROWS = np.array([len(DECOMPOSITION.get(kind, ((),))) for kind in KINDS], np.int64)
_FIRST = np.cumsum(_N_ROWS) - _N_ROWS
_ROW_KIND = np.array([_CODE[kind] for kind, _, _ in _ROWS], np.int8)
_KEEP = np.array([slots is None for _, slots, _ in _ROWS])
_ROW_COUNT = np.array([len(slots or ()) for _, slots, _ in _ROWS], np.int64)
_SLOT = np.array([((slots or ()) + (0, 0))[:2] for _, slots, _ in _ROWS], np.int64)
_THETA_ROW = np.array([a is _THETA for _, _, a in _ROWS])
_ROW_ANGLE = np.array([math.nan if a is None or a is _THETA else a for _, _, a in _ROWS])
_EXTENDED = np.array([kind in DECOMPOSITION for kind in KINDS])
_TWO_QUBIT = np.array([kind.n_qubits == 2 for kind in KINDS])


def decompose(c: Circuit) -> Circuit:
    """Expand every extended gate into {RX, RZ, H, CZ} through its rows,
    gathered over the columns; a circuit with none is returned as it is.

    Native gates, MEASURE and BARRIER pass through. Per-qubit gate order is
    preserved; no cancellation or optimization is attempted.
    """
    if c.is_native:
        return c
    n_out = _N_ROWS[c.kind]
    src = np.repeat(np.arange(c.num_gates), n_out)  # each output gate's source gate
    row = np.repeat(_FIRST[c.kind] - (np.cumsum(n_out) - n_out), n_out) + np.arange(len(src))
    keep = _KEEP[row]
    count = np.where(keep, np.diff(c.offsets)[src], _ROW_COUNT[row])
    offsets = np.concatenate([[0], np.cumsum(count)])
    out = np.repeat(np.arange(len(src)), count)  # each output operand's gate
    slot = np.arange(len(out)) - offsets[out]
    slot = np.where(keep[out], slot, _SLOT[row[out], np.minimum(slot, 1)])
    return Circuit._from_columns(
        c.num_qubits,
        _ROW_KIND[row],
        offsets,
        c.qubits[c.offsets[src[out]] + slot],
        np.where(_THETA_ROW[row], c.angle[src], _ROW_ANGLE[row]),
    )


def slice_circuit(c: Circuit) -> SlicedCircuit:
    """Cut a native circuit into ASAP layers.

    Every gate lands in the earliest layer consistent with its operand
    dependencies. BARRIER joins its operands' frontiers into one fence and
    occupies a layer slot like any gate (the scheduler skips it).
    """
    if not c.is_native:
        raise ValueError("slice_circuit needs a native-basis circuit")
    level = [0] * c.num_qubits  # each qubit's next free layer
    layer_of = []
    offsets, qubits = c.offsets.tolist(), c.qubits.tolist()
    for a, b in zip(offsets, offsets[1:]):
        if b - a == 1:
            q = qubits[a]
            layer = level[q]
            level[q] = layer + 1
        else:
            ops = qubits[a:b]
            layer = max([level[q] for q in ops])
            for q in ops:
                level[q] = layer + 1
        layer_of.append(layer)
    layer = np.array(layer_of, np.int64)
    gate_index = np.argsort(layer, kind="stable")
    return SlicedCircuit._from_columns(c, gate_index, layer[gate_index], max(layer_of, default=-1) + 1)
