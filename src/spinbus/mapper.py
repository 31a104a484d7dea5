"""Mapping strategies: turn circuits into timestamped shuttle+gate schedules.

Five strategies, each an improvement on the last:

  baseline          one gate at a time; 1q gates in the qubit's own zone,
                    2q gates in the central zone ceil((i+j)/2); qubits
                    return to their original sites; fixed velocity
  parallel          gates grouped into slices; 2q gates use zone max(i, j)
                    so every move points right and all operands of a slice
                    shuttle simultaneously; returns to original sites
  min_return        as parallel, but after each slice qubits return to the
                    nearest free sites left of their zone (zones processed
                    right to left), so the layout evolves
  tunable_velocity  min_return movements with a per-phase velocity chosen
                    to minimize the dephasing of the longest shuttle
  swap_return       tunable_velocity, but a zone's two occupants take its
                    two return sites by their next partners: the one whose
                    next partner sits further left takes the left site; if
                    only one has a partner, it takes the site nearer that
                    partner; otherwise (and on ties) the smaller qubit
                    takes the right site, as in min_return

``map_strategy`` is the one entry point. The five strategies are the five
rows of ``STRATEGY_FLAGS``, each a flag tuple (sequential, dynamic_return,
tunable, swap_returns) of one mapper. Only baseline is sequential: every
gate is a slice of its own, in circuit order, and a two-qubit gate meets
in the central zone.

Each slice episode has three globally barriered phases: all operands
shuttle out together, all gates fire together, all operands return
together. Within a phase the shuttles are emitted in ascending qubit
order. Phase duration is the maximum individual duration within it.
Qubits untouched by a slice stay parked and accrue no error.

The mapper runs in two passes. Pass 1, in Python, walks the layers and
decides where every qubit goes: each episode's zone, each phase's
(qubit, site, zone) moves, and the return sites. It keeps one position
per qubit, and a backward sweep over the layers first gives every
two-qubit gate its operands' next partners. Pass 2 (``_timed_ops``)
times every move at once as numpy columns: distances, each phase's
longest move and velocity, durations, ``phase_error`` once per distinct
(velocity, distance), the episode clock as a left fold, and each qubit's
error as a sum in op order. Every float has the bits the op-by-op scalar
arithmetic gives, so the schedules are unchanged.

A schedule's ops are held as columns (``ScheduleOps``): one array per
shuttle field, one per gate field, and an order string that interleaves
the two. The mapper hands its arrays over as they are;
``schedule_from_json`` and a tuple of ops go through rows
(``ScheduleOps.from_rows``). The validator, ``metrics.summarize`` and
``schedule_to_json`` read the arrays. The validator is one pass over the
columns: each rule is a boolean mask over the rows, and a violation is
formatted only for a flagged row.
``Schedule.ops`` is that column sequence: it has a length without building
ops, and builds ``ShuttleOp``/``GateOp`` objects only when iterated or
indexed. A ``Schedule`` given a tuple of ops turns it into columns.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import numbers
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .architecture import (
    ArchitectureSpec,
    Location,
    LocationKind,
    decode_locations,
    distance,
    json_number,
    position,
    shuttle_time,
)
from .circuit import Circuit, Gate, GateKind, SlicedCircuit
from .error_model import ErrorModelParams, optimal_velocity, phase_error
from .placement import Placement

# name -> (sequential, dynamic_return, tunable, swap_returns)
STRATEGY_FLAGS = {
    "baseline": (True, False, False, False),
    "parallel": (False, False, False, False),
    "min_return": (False, True, False, False),
    "tunable_velocity": (False, True, True, False),
    "swap_return": (False, True, True, True),
}
STRATEGIES = tuple(STRATEGY_FLAGS)

_EPS_T = 1e-15  # seconds; schedule times are exact accumulations
_flat = itertools.chain.from_iterable


@dataclass(frozen=True)
class ShuttleOp:
    """One qubit moving src -> dst at constant velocity, incurring delta_c."""

    qubit: int
    src: Location
    dst: Location
    start: float
    velocity: float
    duration: float
    delta_c: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class GateOp:
    """Gate ``gate_index`` of the circuit executing in ``zone``."""

    gate_index: int
    zone: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class ShuttleColumns(NamedTuple):
    """One read-only array per ``ShuttleOp`` field, in op order.

    ``src`` and ``dst`` hold locations as ``2 * index + is_zone``.
    """

    qubit: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    start: np.ndarray
    velocity: np.ndarray
    duration: np.ndarray
    delta_c: np.ndarray


class GateColumns(NamedTuple):
    """One read-only array per ``GateOp`` field, in op order."""

    gate_index: np.ndarray
    zone: np.ndarray
    start: np.ndarray
    duration: np.ndarray


_LOCATION_KINDS = (LocationKind.STORAGE, LocationKind.ZONE)
_DTYPES = {"q": np.int64, "d": np.float64}
_TYPECODES = {ShuttleColumns: "qqqdddd", GateColumns: "qqdd"}


def _location_code(loc: Location) -> int:
    if not isinstance(loc, Location) or loc.kind not in _LOCATION_KINDS:
        raise TypeError(f"not a Location: {loc!r}")
    return 2 * loc.index + (loc.kind is LocationKind.ZONE)


def _location(code: int) -> Location:
    return Location(_LOCATION_KINDS[code & 1], code >> 1)


def _columns(cls, rows: list[tuple]):
    """``rows`` transposed into ``cls``; ``array`` raises TypeError on a value
    that is not a number, or on a non-integer in an integer column, and
    OverflowError on an integer beyond 64 bits."""
    typecodes = _TYPECODES[cls]
    cols = list(zip(*rows)) or [()] * len(typecodes)
    return cls(*(np.frombuffer(array(code, col), dtype=_DTYPES[code]) for code, col in zip(typecodes, cols)))


def _frozen(cols):
    """``cols`` made read-only after checking that every column is a 1-D
    array of its field's dtype, all of one length (TypeError otherwise),
    and that the float columns hold finite numbers only (ValueError)."""
    cls = type(cols)
    for name, code, col in zip(cls._fields, _TYPECODES[cls], cols):
        if not (isinstance(col, np.ndarray) and col.dtype == _DTYPES[code] and col.shape == (len(cols[0]),)):
            raise TypeError(f"{cls.__name__} column {name} is not a 1-D {np.dtype(_DTYPES[code])} array of the rows")
        if code == "d" and not np.isfinite(col).all():
            raise ValueError(f"{cls.__name__} column {name} is not finite")
        col.flags.writeable = False
    return cols


class ScheduleOps(Sequence):
    """``Schedule.ops``: the ops of a schedule held as columns.

    ``order`` has one character per op, ``"s"`` for the next shuttle row
    and ``"g"`` for the next gate row. The column arrays are taken, not
    copied, and made read-only; float columns hold finite numbers only
    (ValueError otherwise). Iterating or indexing builds
    ``ShuttleOp``/``GateOp`` objects; a slice is a plain tuple. It equals
    the tuple of the same ops, and ``+`` with a tuple gives a tuple.
    """

    __slots__ = ("order", "shuttles", "gates")

    def __init__(self, order: str, shuttles: ShuttleColumns, gates: GateColumns):
        self.shuttles, self.gates = _frozen(ShuttleColumns(*shuttles)), _frozen(GateColumns(*gates))
        rows = (len(self.shuttles.qubit), len(self.gates.gate_index))
        if (order.count("s"), order.count("g"), len(order)) != (*rows, sum(rows)):
            raise ValueError("op order does not match the shuttle and gate rows")
        self.order = order

    @classmethod
    def from_rows(cls, order: str, shuttles: list[tuple], gates: list[tuple]) -> "ScheduleOps":
        """The columns of shuttle rows and gate rows, each a tuple of its
        ``ShuttleOp``/``GateOp`` fields with locations as codes."""
        return cls(order, _columns(ShuttleColumns, shuttles), _columns(GateColumns, gates))

    @classmethod
    def of(cls, ops) -> "ScheduleOps":
        """The columns of a sequence of ``ShuttleOp``s and ``GateOp``s."""
        if isinstance(ops, ScheduleOps):
            return ops
        order, shuttles, gates = [], [], []
        for op in ops:
            if isinstance(op, ShuttleOp):
                order.append("s")
                shuttles.append(
                    (op.qubit, _location_code(op.src), _location_code(op.dst),
                     op.start, op.velocity, op.duration, op.delta_c)
                )
            elif isinstance(op, GateOp):
                order.append("g")
                gates.append((op.gate_index, op.zone, op.start, op.duration))
            else:
                raise TypeError(f"not a ShuttleOp or GateOp: {op!r}")
        return cls.from_rows("".join(order), shuttles, gates)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        q, src, dst, *rest = (col.tolist() for col in self.shuttles)
        loc = {code: _location(code) for code in {*src, *dst}}
        src, dst = map(loc.__getitem__, src), map(loc.__getitem__, dst)
        nexts = {
            "s": map(ShuttleOp, q, src, dst, *rest).__next__,
            "g": map(GateOp, *(col.tolist() for col in self.gates)).__next__,
        }
        for kind in self.order:
            yield nexts[kind]()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        index = range(len(self))[index]
        k = self.order.count("s", 0, index)
        if self.order[index] == "g":
            return GateOp(*(col.item(index - k) for col in self.gates))
        q, src, dst, *rest = (col.item(k) for col in self.shuttles)
        return ShuttleOp(q, _location(src), _location(dst), *rest)

    def __eq__(self, other):
        if isinstance(other, ScheduleOps):
            return self.order == other.order and all(
                np.array_equal(a, b)
                for a, b in zip(self.shuttles + self.gates, other.shuttles + other.gates)
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        if isinstance(other, (tuple, ScheduleOps)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, tuple):
            return other + tuple(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ScheduleOps({tuple(self)!r})"


@dataclass(frozen=True)
class Schedule:
    """A validated plan: time-ordered ops plus accumulated per-qubit error.

    ``ops`` may be given as any sequence of ``ShuttleOp``/``GateOp``; it is
    held as ``ScheduleOps``. Op fields must be numbers that fit the columns
    (integer fields 64-bit integers), or construction raises TypeError or
    OverflowError. Float op fields, ``total_time`` and every
    ``per_qubit_error`` entry must be finite, or it raises ValueError. Every
    ``initial_sites`` and ``final_sites`` entry must be a 64-bit integer (a
    bool is not), or it raises TypeError or OverflowError.
    """

    strategy: str
    circuit: Circuit
    arch: ArchitectureSpec
    error_params: ErrorModelParams
    initial_sites: tuple[int, ...]
    ops: ScheduleOps
    total_time: float
    per_qubit_error: tuple[float, ...]
    final_sites: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", ScheduleOps.of(self.ops))
        for name in ("initial_sites", "final_sites"):
            sites = getattr(self, name)
            if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in sites):
                raise TypeError(f"{name} entries must be integers, got {sites!r}")
            object.__setattr__(self, name, tuple(array("q", sites).tolist()))
        if not all(map(math.isfinite, (self.total_time, *self.per_qubit_error))):
            raise ValueError("total_time and per_qubit_error must be finite")


@dataclass(frozen=True)
class Violation:
    """One broken schedule rule; rule letters follow the validity contract."""

    rule: str
    op_index: int | None
    message: str


def _schedulable(g: Gate, measure_duration: float | None) -> bool:
    if g.kind is GateKind.BARRIER:
        return False
    if g.kind is GateKind.MEASURE:
        return measure_duration is not None
    return True


def map_strategy(
    strategy: str,
    sc: SlicedCircuit,
    spec: ArchitectureSpec,
    placement: Placement,
    errp: ErrorModelParams,
    measure_duration: float | None = None,
) -> Schedule:
    """Map ``sc`` with the named strategy, one row of ``STRATEGY_FLAGS``.

    Measurements are scheduled only with a ``measure_duration`` in seconds:
    a bool or a non-number raises TypeError, a negative or non-finite value
    ValueError."""
    if strategy not in STRATEGY_FLAGS:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _map(sc, spec, placement, errp, strategy, STRATEGY_FLAGS[strategy], measure_duration)


def _map(
    sc: SlicedCircuit,
    spec: ArchitectureSpec,
    placement: Placement,
    errp: ErrorModelParams,
    strategy: str,
    flags: tuple[bool, bool, bool, bool],
    measure_duration: float | None = None,
) -> Schedule:
    sequential, dynamic_return, tunable, swap_returns = flags
    c = sc.circuit
    if not c.is_native:
        raise ValueError("mapper needs a native-basis circuit (run decompose first)")
    if c.num_qubits != spec.n_sites:
        raise ValueError(
            f"circuit has {c.num_qubits} qubits but the architecture "
            f"has {spec.n_sites} sites"
        )
    if placement.n != spec.n_sites:
        raise ValueError(
            f"placement covers {placement.n} qubits, architecture has {spec.n_sites}"
        )
    if measure_duration is not None:
        if isinstance(measure_duration, bool) or not isinstance(measure_duration, numbers.Real):
            raise TypeError(f"measure_duration must be a number of seconds, got {measure_duration!r}")
        if not 0 <= measure_duration < math.inf:
            raise ValueError(f"measure_duration must be finite and >= 0, got {measure_duration!r}")
    site_pos = [position(Location.site(s), spec) for s in range(spec.n_sites)]
    zone_pos = [position(Location.zone(z), spec) for z in range(spec.n_sites)]
    two_qubit = [g.is_two_qubit for g in c.gates]
    sites = list(placement.perm)
    pos = [site_pos[s] for s in sites]  # a site's position, or a zone's while out
    layers = [(gate_idx,) for gate_idx in range(len(c.gates))] if sequential else sc.layers

    # each two-qubit gate's operands' next partners after its layer, by one
    # backward sweep; layers are qubit-disjoint
    next_partners: dict[int, tuple[int | None, int | None]] = {}
    if swap_returns:
        later: list[int | None] = [None] * c.num_qubits
        for layer in reversed(layers):
            for gate_idx in layer:
                if two_qubit[gate_idx]:
                    qa, qb = c.gates[gate_idx].qubits
                    next_partners[gate_idx] = (later[qa], later[qb])
                    later[qa], later[qb] = qb, qa

    # pass 1: every episode's zones and moves, phase by phase
    phases: list[list[tuple[int, int, int]]] = []  # out, return, out, ...
    timed: list[list[tuple[int, Gate, int]]] = []  # each phase pair's episodes
    for layer in layers:
        episodes = []  # (gate_index, gate, zone)
        for gate_idx in layer:
            g = c.gates[gate_idx]
            if not _schedulable(g, measure_duration):
                continue
            if two_qubit[gate_idx]:
                i, j = sites[g.qubits[0]], sites[g.qubits[1]]
                zone = (i + j + 1) // 2 if sequential else max(i, j)
            else:
                zone = sites[g.qubits[0]]
            episodes.append((gate_idx, g, zone))
        if not episodes:
            continue

        # out phase: every operand shuttles to its zone simultaneously
        out_moves = [(q, sites[q], zone) for _, g, zone in episodes for q in g.qubits]
        for q, _, zone in out_moves:
            pos[q] = zone_pos[zone]

        # return phase: the free sites are the ones the out phase vacated
        if dynamic_return:
            free = sorted(s for _, s, _ in out_moves)
            returns = _assign_dynamic_returns(episodes, free, pos, site_pos, next_partners)
        else:
            returns = out_moves
        for q, s, _ in returns:
            sites[q], pos[q] = s, site_pos[s]
        phases += (out_moves, returns)
        timed.append(episodes)

    gate_time = np.where(two_qubit, spec.t_2q, spec.t_1q).astype(np.float64)
    if measure_duration is not None:
        gate_time[[g.kind is GateKind.MEASURE for g in c.gates]] = measure_duration
    ops, total_time, err = _timed_ops(phases, timed, gate_time, spec, errp, tunable)
    return Schedule(
        strategy=strategy,
        circuit=c,
        arch=spec,
        error_params=errp,
        initial_sites=placement.perm,
        ops=ops,
        total_time=total_time,
        per_qubit_error=err,
        final_sites=tuple(sites),
    )


def _timed_ops(
    phases: list[list[tuple[int, int, int]]],
    timed: list[list[tuple[int, Gate, int]]],
    gate_time: np.ndarray,
    spec: ArchitectureSpec,
    errp: ErrorModelParams,
    tunable: bool,
) -> tuple[ScheduleOps, float, tuple[float, ...]]:
    """Pass 2: the ops, total time and per-qubit error of pass 1's phases
    (out, return, out, ... as (qubit, site, zone) moves) and each phase
    pair's episodes, computed as columns. ``gate_time`` is the duration of
    every circuit gate.

    Each phase shuttles its moves in qubit order at one velocity (the
    optimum for its longest move if ``tunable``) and lasts as long as that
    move. Every float has the bits of the scalar expressions: positions from
    ``decode_locations``, durations ``dist / v``, ``phase_error`` once per distinct
    (velocity, distance), episode times a left fold over [out, longest
    gate, return] per episode, and each qubit's error a sum in op order.
    """
    n_moves = np.fromiter(map(len, phases), np.int64, len(phases))
    moves = np.fromiter(_flat(_flat(phases)), np.int64, 3 * int(n_moves.sum())).reshape(-1, 3)
    phase = np.repeat(np.arange(len(phases)), n_moves)
    q, s, z = np.ascontiguousarray(moves[np.lexsort((*moves.T[::-1], phase))].T)
    site, zone = 2 * s, 2 * z + 1
    dist = np.abs(decode_locations(site, spec)[2] - decode_locations(zone, spec)[2])
    longest = np.maximum.reduceat(dist, np.cumsum(n_moves) - n_moves)
    if tunable:
        keys, which = np.unique(longest, return_inverse=True)
        v = np.array([optimal_velocity(x, errp) for x in keys.tolist()], dtype=np.float64)[which]
    else:
        v = np.full(len(phases), spec.default_velocity, dtype=np.float64)
    velocity = v[phase]
    dc = _phase_errors(velocity, dist, errp)

    episodes = list(_flat(timed))
    n_gates = np.fromiter(map(len, timed), np.int64, len(timed))
    gate_index = np.fromiter(map(itemgetter(0), episodes), np.int64, len(episodes))
    gate_dur = gate_time[gate_index]
    # max() from 0.0 over the gates: fmax keeps +0.0 over -0.0 and skips NaN
    longest_gate = np.fmax(0.0, np.fmax.reduceat(gate_dur, np.cumsum(n_gates) - n_gates))
    lasts = np.stack([longest[0::2] / v[0::2], longest_gate, longest[1::2] / v[1::2]], axis=1)
    ends = np.add.accumulate(lasts.ravel()).reshape(-1, 3)  # out, gate and return ends
    starts = np.stack([np.append(0.0, ends[:, 2])[:-1], ends[:, 1]], axis=1).ravel()

    outward = phase % 2 == 0
    runs = np.stack([n_moves[0::2], n_gates, n_moves[1::2]], axis=1).ravel()
    ops = ScheduleOps(
        np.repeat(np.tile(np.frombuffer(b"sgs", dtype=np.uint8), len(timed)), runs).tobytes().decode(),
        ShuttleColumns(
            q, np.where(outward, site, zone), np.where(outward, zone, site),
            starts[phase], velocity, dist / velocity, dc,
        ),
        GateColumns(
            gate_index, np.fromiter(map(itemgetter(2), episodes), np.int64, len(episodes)),
            np.repeat(ends[:, 0], n_gates), gate_dur,
        ),
    )
    err = np.bincount(q, weights=dc, minlength=spec.n_sites).astype(np.float64)
    return ops, ends.item(-1) if len(ends) else 0.0, tuple(err.tolist())


def _phase_errors(velocity: np.ndarray, dist: np.ndarray, errp: ErrorModelParams) -> np.ndarray:
    """``phase_error`` of every (velocity, distance) row, run once per
    distinct pair in the order the pairs first come. Each pair is one exact
    complex, and its parts go in as Python floats, so a velocity
    ``phase_error`` rejects raises as the scalar path does."""
    keys, seen, which = np.unique(velocity + 1j * dist, return_index=True, return_inverse=True)
    key_dc, keys = np.empty(len(keys)), keys.tolist()
    for k in np.argsort(seen).tolist():
        key_dc[k] = phase_error(keys[k].real, keys[k].imag, errp)
    return key_dc[which]


def _assign_dynamic_returns(episodes, free: list[int], pos: list[float], site_pos: list[float], next_partners):
    """Assign each zone occupant a return site from the sorted ``free``
    sites, zones right to left; the moves come back as (qubit, site, zone).

    Every occupant takes the rightmost free site left of its zone. A pair's
    two occupants take its two sites in the order ``_right_then_left`` gives
    from the positions of their ``next_partners`` (by gate index; a gate not
    in it has none). ``pos`` follows each qubit to its return site.
    """
    returns: list[tuple[int, int, int]] = []
    for gate_idx, g, zone in sorted(episodes, key=lambda e: -e[2]):
        # eligible sites sit at positions <= the zone's: site index <= zone index
        cut, k = bisect.bisect_right(free, zone), len(g.qubits)
        if cut < k:
            raise RuntimeError(f"no free site left of zone {zone} for gate {gate_idx}")
        taken = free[cut - k:cut][::-1]  # right to left
        del free[cut - k:cut]
        qubits = g.qubits
        if k == 2:
            pa, pb = (None if p is None else pos[p] for p in next_partners.get(gate_idx, (None, None)))
            qubits = _right_then_left(*qubits, pa, pb, site_pos[taken[0]], site_pos[taken[1]])
        for q, s in zip(qubits, taken):
            pos[q] = site_pos[s]
            returns.append((q, s, zone))
    return returns


def _right_then_left(qa: int, qb: int, pa: float | None, pb: float | None, right: float, left: float):
    """The pair (qa, qb) in the order its qubits take the site at ``right``,
    then the one at ``left``, given their next partners' positions (None for
    no partner). The one whose partner sits further left takes the left
    site; a lone qubit with a partner takes the nearer site; otherwise, ties
    included, the smaller qubit takes the right site."""
    if pa is None:
        lean = 0.0 if pb is None else abs(left - pb) - abs(right - pb)
    elif pb is None:
        lean = abs(right - pa) - abs(left - pa)
    else:
        lean = pb - pa
    # lean > 0: qa belongs on the left
    return (qb, qa) if lean > 0 or (lean == 0 and qb < qa) else (qa, qb)


def validate_schedule(s: Schedule, spec: ArchitectureSpec) -> list[Violation]:
    """Check the schedule validity rules; an empty list means valid.

    (a) gate operands are at the gate's zone for its whole duration
    (b) no zone ever holds more than two qubits
    (c) no storage site ever holds more than one qubit
    (d) simultaneously moving qubits never cross
    (e) every qubit ends parked in storage
    (f) stored per-qubit errors match a fold over the shuttle ops
    (g) total_time is the latest op end
    plus internal shuttle-op consistency (duration, delta_c, chaining).

    One pass over the op columns: each rule is a boolean mask over the
    shuttle or gate rows, and a ``Violation`` is formatted only for a
    flagged row. Every float expression is evaluated elementwise with the
    bits of its scalar form, and ``phase_error`` runs once per distinct
    (velocity, distance). Rule (d) tests every pair of moves that overlap
    in time, so a phase of k simultaneous shuttles costs k^2 float tests,
    run as array operations. The list holds, in this order: the shuttle
    checks (distance, duration, delta_c) by op; the placement check;
    unknown qubits by op; each qubit's chain (departure site, then time) in
    qubit order; (a) by gate op and operand; (b), then (c), by location in
    the order of first occupancy; (d) by move in (start, op) order; (e) and
    (f) by qubit; (g).

    Raises ValueError at the first shuttle in op order with a location
    outside the bus, or with a velocity that is not > 0 over a nonzero
    distance (``position`` and ``shuttle_time`` reject them), and whatever
    ``phase_error`` raises on a velocity it cannot evaluate. An
    ``initial_sites`` shorter than the qubit count ends the list after the
    shuttle checks and the placement check, since a qubit without a start
    site has no chain to follow.
    """
    with np.errstate(all="ignore"):  # masked-out rows may hold any value
        return list(_violations(s, spec))


class _Stays(NamedTuple):
    """Every qubit's stays in qubit order: its initial site, then the
    destination of each move of its chain (by start, then op index), each
    from ``arrive`` to ``depart`` (``inf`` for the last)."""

    qubit: np.ndarray
    zone: np.ndarray
    index: np.ndarray
    arrive: np.ndarray
    depart: np.ndarray


def _violations(s: Schedule, spec: ArchitectureSpec):
    """``validate_schedule``'s violations, rule by rule. Each rule's helper
    ends before the next begins, so its arrays are freed."""
    n, sh = s.circuit.num_qubits, s.ops.shuttles

    @functools.cache
    def op_index(kind: str) -> list[int]:
        """The op index of every row of ``kind``, to name a flagged row."""
        order = np.frombuffer(s.ops.order.encode(), dtype=np.uint8)
        return np.flatnonzero(order == ord(kind)).tolist()

    src_zone, src_idx, p0, src_ok = decode_locations(sh.src, spec)
    dst_zone, dst_idx, p1, dst_ok = decode_locations(sh.dst, spec)
    yield from _shuttle_checks(s, spec, np.abs(p0 - p1), src_ok & dst_ok, op_index)
    if sorted(s.initial_sites) != list(range(n)):
        yield Violation("c", None, "initial placement is not a bijection")
        if len(s.initial_sites) < n:
            return
    q = sh.qubit
    known = (q >= 0) & (q < n)
    for r in np.flatnonzero(~known).tolist():
        yield Violation("op", op_index("s")[r], f"unknown qubit {q.item(r)}")
    stays = yield from _chains(s, known, (src_zone, src_idx), (dst_zone, dst_idx), op_index)
    yield from _coverage(s, stays, op_index)
    yield from _capacity(stays)
    yield from _crossings(sh, p0, p1, op_index)

    # (e) everything parked at the end, bijectively
    last = np.flatnonzero(np.append(stays.qubit[1:] != stays.qubit[:-1], True))
    for qq in np.flatnonzero(stays.zone[last]).tolist():
        yield Violation("e", None, f"qubit {qq} ends in {Location.zone(stays.index.item(last[qq]))!r}")
    if not stays.zone[last].any():
        final = stays.index[last].tolist()
        if sorted(final) != list(range(n)):
            yield Violation("e", None, "final sites are not a bijection")
        elif tuple(final) != s.final_sites:
            yield Violation("e", None, "final_sites does not match op history")

    # (f) np.bincount adds in op order, as a left fold does
    stored = s.per_qubit_error[:n]
    folded = np.bincount(q[known], weights=sh.delta_c[known], minlength=n)
    if len(s.per_qubit_error) != n:
        yield Violation("f", None, f"{len(s.per_qubit_error)} stored errors for {n} qubits")
    values = np.array(stored, dtype=np.float64)
    off = np.abs(folded[: len(values)] - values) > 1e-15 * np.maximum(1.0, np.abs(values))
    for qq in np.flatnonzero(off).tolist():
        yield Violation("f", None, f"qubit {qq} error {stored[qq]} != folded {folded.item(qq)}")

    # (g) total time; the end named is the first latest one in op order
    end, g_end = sh.start + sh.duration, s.ops.gates.start + s.ops.gates.duration
    t_end = float(max(end.max(initial=-np.inf), g_end.max(initial=-np.inf))) if len(s.ops) else 0.0
    if abs(t_end - s.total_time) > 1e-12 * max(1.0, t_end):
        ends = np.empty(len(s.ops))
        ends[op_index("s")], ends[op_index("g")] = end, g_end
        t_end = ends.item(np.argmax(ends))
        yield Violation("g", None, f"total_time {s.total_time} != last op end {t_end}")


def _shuttle_checks(s: Schedule, spec: ArchitectureSpec, dist, on_bus, op_index):
    """Shuttle-op internal consistency. ``phase_error`` runs once per
    distinct (velocity, distance) of a move on the bus, in op order, and, as
    ``shuttle_time`` would, rejects a velocity that is not > 0, so the first
    shuttle that raises raises."""
    sh = s.ops.shuttles
    vel, dur, dc = sh.velocity, sh.duration, sh.delta_c
    moves = dist != 0
    stop = len(dist) if on_bus.all() else int(np.argmin(on_bus))
    checked = moves[:stop]
    moved_dc = _phase_errors(vel[:stop][checked], dist[:stop][checked], s.error_params)
    if stop < len(dist):  # position() raises ValueError here
        distance(_location(sh.src.item(stop)), _location(sh.dst.item(stop)), spec)
    want_dur, want_dc = dist / vel, np.zeros(len(dist))
    want_dc[moves] = moved_dc
    bad_dur, bad_dc = moves & (dur != want_dur), moves & (dc != want_dc)
    for r in np.flatnonzero(~moves | bad_dur | bad_dc).tolist():
        idx = op_index("s")[r]
        if not moves[r]:
            yield Violation("op", idx, "zero-distance shuttle present")
        if bad_dur[r]:
            yield Violation("op", idx, f"duration {dur.item(r)} != {want_dur.item(r)}")
        if bad_dc[r]:
            yield Violation("op", idx, f"delta_c {dc.item(r)} != {want_dc.item(r)}")


def _chains(s: Schedule, known, src, dst, op_index):
    """Each known qubit's moves must leave where the last one arrived, and
    not before it arrived; returns the stays. ``src`` and ``dst`` are the
    (is_zone, index) columns of the shuttle ends."""
    n, sh = s.circuit.num_qubits, s.ops.shuttles
    chain = np.flatnonzero(known)
    chain = chain[np.lexsort((sh.start[chain], sh.qubit[chain]))]
    q, start = sh.qubit[chain], sh.start[chain]
    first = np.searchsorted(q, np.arange(n))
    stays = _Stays(
        np.insert(q, first, np.arange(n)),
        np.insert(dst[0][chain], first, False),
        np.insert(dst[1][chain], first, np.array(s.initial_sites[:n], dtype=np.int64)),
        np.insert(start + sh.duration[chain], first, 0.0),
        np.append(np.insert(start, first, np.inf)[1:], np.inf),
    )
    left = np.arange(len(chain)) + q  # the stay each move leaves
    zone, index, arrived = stays.zone[left], stays.index[left], stays.arrive[left]
    elsewhere = (zone != src[0][chain]) | (index != src[1][chain])
    early = start < arrived - _EPS_T
    for m in np.flatnonzero(elsewhere | early).tolist():
        idx, who = op_index("s")[chain.item(m)], f"qubit {q.item(m)} departs"
        if elsewhere[m]:
            at = _location(2 * index.item(m) + zone.item(m))
            yield Violation("op", idx, f"{who} {_location(sh.src.item(chain.item(m)))!r} but is at {at!r}")
        if early[m]:
            yield Violation("op", idx, f"{who} at {start.item(m)} before arriving at {arrived.item(m)}")
    return stays


def _coverage(s: Schedule, stays: _Stays, op_index):
    """(a) An operand is covered if one of its stays at the gate's zone
    begins by the gate's start (+ _EPS_T) and ends no earlier than the
    gate's end (- _EPS_T). Zone stays sorted by (qubit, zone; arrival)
    carry the running latest departure within each (qubit, zone); one
    searchsorted finds each operand's last stay there begun in time. A
    (qubit, zone) group is ``qubit * k + rank``, with the zone's rank among
    the k distinct zones of the stays (after a -1 that is no stay's zone),
    so keys stay exact whatever ``n_sites`` is; a gate at a zone no qubit
    visits finds no group. A leading stay of group -1 that covers nothing
    gives every search a landing place."""
    gt = s.ops.gates
    gate_index, g_zone, g_start = gt.gate_index, gt.zone, gt.start
    g_known = (gate_index >= 0) & (gate_index < len(s.circuit.gates))
    operands = [s.circuit.gates[k].qubits for k in gate_index[g_known].tolist()]
    oq = np.array([x for qs in operands for x in qs], dtype=np.int64)
    og = np.repeat(np.flatnonzero(g_known), np.array([len(qs) for qs in operands], dtype=np.int64))
    zs = np.flatnonzero(stays.zone)
    zones = np.sort(np.append(-1, stays.index[zs]))
    zones = zones[np.append(True, zones[1:] != zones[:-1])]
    k = len(zones)
    group = np.concatenate([[-1], stays.qubit[zs] * k + np.searchsorted(zones, stays.index[zs])])
    arrive = np.concatenate([[0.0], stays.arrive[zs]])
    depart = np.concatenate([[-np.inf], stays.depart[zs]])
    order = np.lexsort((arrive, group))
    group, arrive, depart = group[order], arrive[order], depart[order]
    departs, rank = np.unique(depart, return_inverse=True)
    lift = np.cumsum(np.append(True, group[1:] != group[:-1])) * len(departs)
    latest = departs[np.maximum.accumulate(rank + lift) - lift]
    oz = g_zone[og]
    zr = np.minimum(np.searchsorted(zones, oz), k - 1)
    visited = zones[zr] == oz
    want = np.where(visited, oq * k + zr, -1)
    hit = np.searchsorted(group + 1j * arrive, want + 1j * (g_start[og] + _EPS_T), side="right") - 1
    covered = visited & (group[hit] == want) & (g_start[og] + gt.duration[og] <= latest[hit] + _EPS_T)
    missing = np.flatnonzero(~covered)
    misses = [(r, -1) for r in np.flatnonzero(~g_known).tolist()]
    for r, p in sorted(misses + list(zip(og[missing].tolist(), missing.tolist()))):
        idx = op_index("g")[r]
        if p < 0:
            yield Violation("a", idx, f"gate index {gate_index.item(r)} out of range")
        else:
            at = Location.zone(g_zone.item(r))
            yield Violation("a", idx, f"qubit {oq.item(p)} not at {at!r} for gate interval")


def _capacity(stays: _Stays):
    """(b) zone capacity 2, (c) site capacity 1: running counts per location
    over (time, delta)-sorted events. A location is reported once, zones
    first, each kind in the order its first stay comes in qubit order."""
    zone, index = stays.zone, stays.index
    live = stays.depart > stays.arrive
    leave = live & (stays.depart != np.inf)
    events = np.concatenate([np.flatnonzero(live), np.flatnonzero(leave)])
    times = np.concatenate([stays.arrive[live], stays.depart[leave]])
    delta = np.repeat([1, -1], [live.sum(), leave.sum()])
    order = np.lexsort((delta, times, index[events], zone[events]))
    events, delta = events[order], delta[order]
    at_zone, at_index = zone[events], index[events]
    head = np.append(True, (at_index[1:] != at_index[:-1]) | (at_zone[1:] != at_zone[:-1]))
    count = np.cumsum(delta)
    count -= (count - delta)[np.maximum.accumulate(np.where(head, np.arange(len(head)), 0))]
    starts = np.flatnonzero(head)  # every qubit's last stay is live, so there are events
    full = np.flatnonzero(np.logical_or.reduceat(count > 1 + at_zone, starts))
    if len(full):
        firsts = np.minimum.reduceat(np.where(delta > 0, events, len(zone)), starts)[full]
        for k in sorted(firsts.tolist(), key=lambda k: (not zone[k], k)):
            noun, cap, rule = ("zone", 2, "b") if zone[k] else ("site", 1, "c")
            yield Violation(rule, None, f"{noun} {index.item(k)} exceeds capacity {cap}")


def _crossings(sh: ShuttleColumns, p0, p1, op_index):
    """(d) Every move j and each earlier move i (by start, then op index)
    still moving after start_j + _EPS_T keep their order. The moves after i
    in that order that start before end_i - _EPS_T are a run, so the pairs
    are taken lag j - i at a time over the moves whose run reaches that
    far."""
    q, start, dur = sh.qubit, sh.start, sh.duration
    end, dp = start + dur, p1 - p0
    by_start = np.argsort(start, kind="stable")
    reach = np.searchsorted(start[by_start] + _EPS_T, end[by_start], side="left")
    span = np.maximum(reach - np.arange(len(reach)) - 1, 0)
    widest = np.argsort(-span, kind="stable")
    narrowing = -span[widest]

    def gap(t, i, j):
        return (p0[j] + dp[j] * (t - start[j]) / dur[j]) - (p0[i] + dp[i] * (t - start[i]) / dur[i])

    crossings = []
    for lag in range(1, int(span.max(initial=0)) + 1):
        a = widest[: np.searchsorted(narrowing, -lag, side="right")]
        i, j = by_start[a], by_start[a + lag]
        lo = np.where(start[i] > start[j], start[i], start[j])
        hi = np.where(end[i] < end[j], end[i], end[j])
        d0, d1 = gap(lo, i, j), gap(hi, i, j)
        cross = (q[i] != q[j]) & ~(hi - lo <= _EPS_T) & (d0 * d1 < 0)
        cross &= np.minimum(np.abs(d0), np.abs(d1)) > 1e-12
        crossings += zip((a[cross] + lag).tolist(), a[cross].tolist())
    for b, a in sorted(crossings):
        j, i = by_start.item(b), by_start.item(a)
        yield Violation("d", op_index("s")[j], f"qubits {q.item(j)} and {q.item(i)} cross mid-flight")


# JSON serialization: header (strategy, architecture, placement, error
# params), then the op array. Times round to 1 ps for cross-platform
# byte-determinism.
def _index(value) -> int:
    """A JSON integer index; ``int()`` would read 3.9 as 3 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"index must be an integer, got {value!r}")
    return value


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
_SHUTTLE_JSON = '{"dC":%s,"from":%s,"q":%s,"t0_ns":%s,"to":%s,"v_mps":%s}'
_GATE_JSON = '{"dur_ns":%s,"gate":%s,"t0_ns":%s,"zone":%s}'
_LOCATION_JSON = '{"idx":%d,"kind":"%s"}'


def _texts(col: np.ndarray, fmt) -> list[str]:
    """``fmt(x)`` for every value of ``col``, called once per distinct bit
    pattern (so 0.0 and -0.0 stay apart)."""
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    texts = [fmt(x) for x in keys.view(col.dtype).tolist()]
    return list(map(texts.__getitem__, inverse.tolist()))


def _number_json(x: float) -> str:
    """``json.dumps(x)`` of a Python int or float, without building an encoder."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _ns_json(seconds: float) -> str:
    return _number_json(round(seconds * 1e9, 3))


def _loc_text(code: int) -> str:
    return _LOCATION_JSON % (code >> 1, _LOCATION_KINDS[code & 1].value)


def schedule_to_json(s: Schedule) -> str:
    """The schedule's JSON text: keys sorted, no spaces, one newline.

    The op array is written from the columns: each distinct location,
    number and rounded time is formatted once, as ``json.dumps`` formats
    it, and the op objects are filled in from fixed templates in
    sorted-key order.
    """
    sh, gt = s.ops.shuttles, s.ops.gates
    shuttles = map(_SHUTTLE_JSON.__mod__, zip(
        _texts(sh.delta_c, _number_json), _texts(sh.src, _loc_text), _texts(sh.qubit, _number_json),
        _texts(sh.start, _ns_json), _texts(sh.dst, _loc_text), _texts(sh.velocity, _number_json),
    ))
    gates = map(_GATE_JSON.__mod__, zip(
        _texts(gt.duration, _ns_json), _texts(gt.gate_index, _number_json),
        _texts(gt.start, _ns_json), _texts(gt.zone, _number_json),
    ))
    nexts = {"s": shuttles.__next__, "g": gates.__next__}
    fields = {
        "strategy": _dumps(s.strategy),
        "arch": _dumps(s.arch.to_config()),
        "placement": _dumps(list(s.initial_sites)),
        "error_params": _dumps(s.error_params.to_config()),
        "ops": "[" + ",".join([nexts[kind]() for kind in s.ops.order]) + "]",
        "total_time_ns": _dumps(round(s.total_time * 1e9, 3)),
        "per_qubit_error": _dumps(list(s.per_qubit_error)),
        "final_sites": _dumps(list(s.final_sites)),
    }
    return "{" + ",".join(f"{_dumps(k)}:{v}" for k, v in sorted(fields.items())) + "}\n"


def schedule_from_json(text: str, circuit: Circuit) -> Schedule:
    """Rebuild a Schedule from its JSON form and the circuit it was mapped from.

    Every index field must be a JSON integer (one that fits 64 bits in an
    op) and every other numeric field a finite JSON number (not a bool, a
    string, NaN, an infinity or an integer too large for a float), or
    ValueError is raised. Start times come back rounded to 1 ps and the
    error parameters pass through their nm/us/ueV form, so the result need
    not revalidate: a move can start before the previous one ends, and a
    stored ``dC`` can differ in its last bits from the one the reloaded
    parameters give.
    """
    doc = json.loads(text)
    arch = ArchitectureSpec.from_config(doc["arch"])
    errp = ErrorModelParams.from_config(doc["error_params"])
    positions: dict[int, float] = {}

    def location(obj: dict) -> int:
        """The location code of ``obj``; position() rejects one off the bus."""
        code = 2 * _index(obj["idx"]) + (LocationKind(obj["kind"]) is LocationKind.ZONE)
        if code not in positions:
            positions[code] = position(_location(code), arch)
        return code

    order, shuttles, gates = [], [], []
    for entry in doc["ops"]:
        start = json_number(entry["t0_ns"], "t0_ns") * 1e-9
        if "q" in entry:
            src, dst = location(entry["from"]), location(entry["to"])
            v = json_number(entry["v_mps"], "v_mps")
            dur = shuttle_time(abs(positions[src] - positions[dst]), v)
            shuttles.append((_index(entry["q"]), src, dst, start, v, dur, json_number(entry["dC"], "dC")))
            order.append("s")
        else:
            dur = json_number(entry["dur_ns"], "dur_ns") * 1e-9
            gates.append((_index(entry["gate"]), _index(entry["zone"]), start, dur))
            order.append("g")
    total_time = json_number(doc["total_time_ns"], "total_time_ns") * 1e-9
    try:
        return Schedule(
            strategy=doc["strategy"],
            circuit=circuit,
            arch=arch,
            error_params=errp,
            initial_sites=tuple(_index(x) for x in doc["placement"]),
            ops=ScheduleOps.from_rows("".join(order), shuttles, gates),
            total_time=total_time,
            per_qubit_error=tuple(json_number(x, "per_qubit_error") for x in doc["per_qubit_error"]),
            final_sites=tuple(_index(x) for x in doc["final_sites"]),
        )
    except OverflowError as exc:  # an op index beyond the columns' 64 bits
        raise ValueError(f"index too large: {exc}") from exc
