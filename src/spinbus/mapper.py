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
  swap_return       tunable_velocity plus future-aware assignment of the
                    two occupants of a zone to their two return sites

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

A schedule's ops are held as columns (``ScheduleOps``): one array per
shuttle field, one per gate field, and an order string that interleaves
the two. The mapper appends rows to them, and the validator's screen,
``metrics.summarize`` and ``schedule_to_json`` read the arrays.
``Schedule.ops`` is that column sequence: it has a length without building
ops, and builds ``ShuttleOp``/``GateOp`` objects only when iterated or
indexed. A ``Schedule`` given a tuple of ops turns it into columns.
"""
from __future__ import annotations

import bisect
import functools
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .architecture import (
    ArchitectureSpec,
    Location,
    LocationKind,
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


def _location_code(loc: Location) -> int:
    if not isinstance(loc, Location) or loc.kind not in _LOCATION_KINDS:
        raise TypeError(f"not a Location: {loc!r}")
    return 2 * loc.index + (loc.kind is LocationKind.ZONE)


def _location(code: int) -> Location:
    return Location(_LOCATION_KINDS[code & 1], code >> 1)


def _columns(cls, typecodes: str, rows: list[tuple]):
    """``rows`` transposed into ``cls``; ``array`` raises TypeError on a value
    that is not a number, or on a non-integer in an integer column, and
    OverflowError on an integer beyond 64 bits."""
    cols = list(zip(*rows)) or [()] * len(typecodes)
    out = []
    for code, col in zip(typecodes, cols):
        arr = np.frombuffer(array(code, col), dtype=_DTYPES[code])
        arr.flags.writeable = False
        out.append(arr)
    return cls(*out)


class ScheduleOps(Sequence):
    """``Schedule.ops``: the ops of a schedule held as columns.

    ``order`` has one character per op, ``"s"`` for the next shuttle row
    and ``"g"`` for the next gate row. Iterating or indexing builds
    ``ShuttleOp``/``GateOp`` objects; a slice is a plain tuple. It equals
    the tuple of the same ops, and ``+`` with a tuple gives a tuple.
    """

    __slots__ = ("order", "shuttles", "gates")

    def __init__(self, order: str, shuttles: list[tuple], gates: list[tuple]):
        counts = (order.count("s"), order.count("g"), len(order))
        if counts != (len(shuttles), len(gates), len(shuttles) + len(gates)):
            raise ValueError("op order does not match the shuttle and gate rows")
        self.order = order
        self.shuttles = _columns(ShuttleColumns, "qqqdddd", shuttles)
        self.gates = _columns(GateColumns, "qqdd", gates)

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
        return cls("".join(order), shuttles, gates)

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
    OverflowError.
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
    """Map ``sc`` with the named strategy, one row of ``STRATEGY_FLAGS``."""
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
    site_pos = [position(Location.site(s), spec) for s in range(spec.n_sites)]
    zone_pos = [position(Location.zone(z), spec) for z in range(spec.n_sites)]
    two_qubit = [g.is_two_qubit for g in c.gates]
    order: list[str] = []
    shuttles: list[tuple] = []
    gates: list[tuple] = []
    err = [0.0] * spec.n_sites
    # (delta_c, duration) per (velocity, distance); phases repeat few pairs
    memo: dict[tuple[float, float], tuple[float, float]] = {}

    def phase(moves: list[tuple[int, int, int]], start: float, outward: bool) -> float:
        """Shuttle every (qubit, site, zone) move from ``start``, in qubit
        order, at one velocity; return the phase duration."""
        moves = sorted(moves)
        dists = [abs(site_pos[s] - zone_pos[z]) for _, s, z in moves]
        longest = max(dists)
        v = optimal_velocity(longest, errp) if tunable else spec.default_velocity
        for (q, s, z), dist in zip(moves, dists):
            src, dst = (2 * s, 2 * z + 1) if outward else (2 * z + 1, 2 * s)
            known = memo.get((v, dist))
            if known is None:
                known = memo[v, dist] = (phase_error(v, dist, errp), shuttle_time(dist, v))
            dc, dur = known
            shuttles.append((q, src, dst, start, v, dur, dc))
            err[q] += dc
        order.append("s" * len(moves))
        return shuttle_time(longest, v)

    sites: list[int | None] = list(placement.perm)  # None while in a zone
    layers = [(gate_idx,) for gate_idx in range(len(c.gates))] if sequential else sc.layers

    # per-qubit future two-qubit interactions: (layer, partner), layer-sorted
    future: list[list[tuple[int, int]]] = [[] for _ in range(c.num_qubits)]
    if swap_returns:
        for layer_idx, layer in enumerate(layers):
            for gate_idx in layer:
                if two_qubit[gate_idx]:
                    qa, qb = c.gates[gate_idx].qubits
                    future[qa].append((layer_idx, qb))
                    future[qb].append((layer_idx, qa))

    t = 0.0
    for layer_idx, layer in enumerate(layers):
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
        gate_start = t + phase(out_moves, t, True)
        for q, _, _ in out_moves:
            sites[q] = None

        # gate phase: all gates start together
        max_dur = 0.0
        for gate_idx, g, zone in episodes:
            if g.kind is GateKind.MEASURE:
                g_dur = measure_duration
            else:
                g_dur = spec.t_2q if two_qubit[gate_idx] else spec.t_1q
            gates.append((gate_idx, zone, gate_start, g_dur))
            max_dur = max(max_dur, g_dur)
        order.append("g" * len(episodes))
        ret_start = gate_start + max_dur

        # return phase: pick destination sites, then shuttle simultaneously
        if dynamic_return:
            returns = _assign_dynamic_returns(
                episodes, sites, site_pos, zone_pos, swap_returns, future, layer_idx
            )
        else:
            returns = out_moves
        t = ret_start + phase(returns, ret_start, False)
        for q, s, _ in returns:
            sites[q] = s

    return Schedule(
        strategy=strategy,
        circuit=c,
        arch=spec,
        error_params=errp,
        initial_sites=placement.perm,
        ops=ScheduleOps("".join(order), shuttles, gates),
        total_time=t,
        per_qubit_error=tuple(err),
        final_sites=tuple(sites),
    )


def _assign_dynamic_returns(
    episodes,
    sites: list[int | None],
    site_pos: list[float],
    zone_pos: list[float],
    swap_returns: bool,
    future: list[list[tuple[int, int]]],
    layer_idx: int,
) -> list[tuple[int, int, int]]:
    """Assign each zone occupant a return site, zones right to left; the
    moves come back as (qubit, site, zone).

    Every occupant takes the rightmost free site left of its zone. With two
    occupants the default gives the smaller virtual index the rightmost
    site; swap_returns instead matches occupants to the two sites in order
    of their next partner's position, so each returns toward its upcoming
    interaction.
    """
    free = sorted(set(range(len(sites))).difference(sites))
    in_zone = {q: zone for _, g, zone in episodes for q in g.qubits}
    assigned: dict[int, int] = {}

    def current_pos(q: int) -> float:
        if q in assigned:
            return site_pos[assigned[q]]
        if q in in_zone:
            return zone_pos[in_zone[q]]
        return site_pos[sites[q]]

    def next_partner_pos(q: int) -> float | None:
        entries = future[q]
        i = bisect.bisect_right(entries, (layer_idx, float("inf")))
        if i >= len(entries):
            return None
        return current_pos(entries[i][1])

    returns: list[tuple[int, int, int]] = []
    for gate_idx, g, zone in sorted(episodes, key=lambda e: -e[2]):
        # eligible sites sit at positions <= the zone's: site index <= zone index
        cut = bisect.bisect_right(free, zone)
        occupants = list(g.qubits)
        if cut < len(occupants):
            raise RuntimeError(
                f"no free site left of zone {zone} for gate {gate_idx}"
            )
        if len(occupants) == 1:
            chosen = {occupants[0]: free[cut - 1]}
        else:
            s_hi, s_lo = free[cut - 1], free[cut - 2]
            qa, qb = occupants
            chosen = _assign_pair(
                qa, qb, s_hi, s_lo, site_pos, swap_returns, next_partner_pos
            )
        for q, s in chosen.items():
            assigned[q] = s
            free.remove(s)
            returns.append((q, s, zone))
    return returns


def _assign_pair(
    qa: int,
    qb: int,
    s_hi: int,
    s_lo: int,
    site_pos: list[float],
    swap_returns: bool,
    next_partner_pos,
) -> dict[int, int]:
    def default() -> dict[int, int]:
        # arbitrary but fixed: smaller virtual index takes the rightmost site
        if qa < qb:
            return {qa: s_hi, qb: s_lo}
        return {qa: s_lo, qb: s_hi}

    if not swap_returns:
        return default()
    pa = next_partner_pos(qa)
    pb = next_partner_pos(qb)
    if pa is None and pb is None:
        return default()
    pos_hi, pos_lo = site_pos[s_hi], site_pos[s_lo]
    if pa is None or pb is None:
        # the qubit with a future interaction takes its distance-minimizing site
        q_with, p = (qa, pa) if pa is not None else (qb, pb)
        q_other = qb if q_with == qa else qa
        if abs(pos_hi - p) < abs(pos_lo - p):
            return {q_with: s_hi, q_other: s_lo}
        if abs(pos_hi - p) > abs(pos_lo - p):
            return {q_with: s_lo, q_other: s_hi}
        return default()
    if pa == pb:
        return default()
    # order-preserving matching: the qubit whose next partner sits further
    # left takes the left site (minimizes the pair's future travel)
    if pa < pb:
        return {qa: s_lo, qb: s_hi}
    return {qa: s_hi, qb: s_lo}


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

    A numpy screen runs first and answers "valid" only where it has shown
    that no rule is broken. Otherwise, or if the screen raises, the exact
    per-op path runs, so every violation list and every exception is the
    exact path's. Rule (d) tests every pair of moves that overlap in time,
    so a phase of k simultaneous shuttles costs k^2 float tests; the screen
    runs them as array operations.
    """
    try:
        with np.errstate(all="ignore"):  # the exact path reports bad values
            if _screen(s, spec):
                return []
    except Exception:  # the exact path meets, and raises, any real error
        pass
    return _validate_exact(s, spec)


def _column(values, kind: type) -> np.ndarray:
    """``values`` as an array; raises unless every one is a Python ``kind``
    and finite, so that the array holds exactly the same numbers."""
    values = list(values)
    if not set(map(type, values)) <= {kind}:
        raise TypeError(f"not all {kind.__name__}")
    col = np.array(values, dtype=np.int64 if kind is int else np.float64)
    if not np.isfinite(col).all():
        raise ValueError("non-finite value")
    return col


def decode_locations(code: np.ndarray, spec: ArchitectureSpec):
    """(is_zone, index, position) columns of location codes ``2 * index +
    is_zone``: ``position()`` as numpy, with its bits and its range check."""
    zone, index = (code & 1).astype(bool), code >> 1
    if not ((index >= 0) & (index < spec.n_sites)).all():
        raise ValueError("location out of range")
    base = index * spec.site_pitch
    return zone, index, np.where(zone, base + spec.zone_offset, base)


def _screen(s: Schedule, spec: ArchitectureSpec) -> bool:
    """True only if ``_validate_exact`` finds no violation and raises nothing.

    The exact path's checks on the op columns. Each float expression is the
    exact path's, evaluated elementwise, so every comparison sees the same
    bits; ``phase_error`` stays scalar, once per distinct (velocity,
    distance). A non-finite op time, velocity or ``delta_c`` answers False.
    """
    n = s.circuit.num_qubits
    sh, gt = s.ops.shuttles, s.ops.gates
    floats = (sh.start, sh.duration, sh.velocity, sh.delta_c, gt.start, gt.duration)
    if sorted(s.initial_sites) != list(range(n)) or not all(np.isfinite(c).all() for c in floats):
        return False

    # op consistency; each distinct (velocity, distance) is one exact complex
    q, start, dur, vel, dc = sh.qubit, sh.start, sh.duration, sh.velocity, sh.delta_c
    src_zone, src_idx, p0 = decode_locations(sh.src, spec)
    dst_zone, dst_idx, p1 = decode_locations(sh.dst, spec)
    end, dist = start + dur, np.abs(p0 - p1)
    keys, which = np.unique(vel + 1j * dist, return_inverse=True)
    want_dc = np.array([phase_error(k.real, k.imag, s.error_params) for k in keys.tolist()])
    ok = (q >= 0) & (q < n) & (dist != 0) & (vel > 0) & (dur > 0) & (dur == dist / vel)
    if not (ok & (dc == want_dc[which])).all():
        return False

    # stays in qubit order: each qubit's initial site, then the destination
    # of each move of its chain (by start, then op index); a move leaves
    # the stay before its own
    chain = np.lexsort((start, q))
    first = np.searchsorted(q[chain], np.arange(n))
    stay_q = np.insert(q[chain], first, np.arange(n))
    zone = np.insert(dst_zone[chain], first, False)
    index = np.insert(dst_idx[chain], first, _column(s.initial_sites, int))
    t_in = np.insert(end[chain], first, 0.0)
    t_out = np.append(np.insert(start[chain], first, np.inf)[1:], np.inf)
    left = np.arange(len(chain)) + q[chain]
    ok = (zone[left] == src_zone[chain]) & (index[left] == src_idx[chain])
    if not (ok & ~(start[chain] < t_in[left] - _EPS_T)).all():
        return False

    # (a) each operand's last stay begun by the gate's start covers the
    # gate: one searchsorted over (qubit, rank of arrival time) keys
    gate_index, g_zone, g_start = gt.gate_index, gt.zone, gt.start
    g_end = g_start + gt.duration
    if not ((gate_index >= 0) & (gate_index < len(s.circuit.gates))).all():
        return False
    operands = [s.circuit.gates[k].qubits for k in gate_index.tolist()]
    oq = _column([x for qs in operands for x in qs], int)
    og = np.repeat(np.arange(len(gate_index)), [len(qs) for qs in operands])
    times, rank = np.unique(np.concatenate([t_in, g_start[og] + _EPS_T]), return_inverse=True)
    key = np.concatenate([stay_q, oq]) * len(times) + rank
    stay_key, gate_key = key[: len(stay_q)], key[len(stay_q) :]
    k = np.searchsorted(stay_key, gate_key, side="right") - 1
    ok = (oq >= 0) & (oq < n) & (k >= 0) & (stay_q[k] == oq) & zone[k] & (index[k] == g_zone[og])
    if (np.diff(stay_key) < 0).any() or not (ok & (g_end[og] <= t_out[k] + _EPS_T)).all():
        return False

    # (b), (c) per-location running counts over (time, delta)-sorted events
    live = t_out > t_in
    leave = live & (t_out != np.inf)
    loc = np.concatenate([2 * index[live] + zone[live], 2 * index[leave] + zone[leave]])
    delta = np.repeat([1, -1], [live.sum(), leave.sum()])
    order = np.lexsort((delta, np.concatenate([t_in[live], t_out[leave]]), loc))
    loc, delta = loc[order], delta[order]
    count = np.cumsum(delta)
    head = np.r_[True, loc[1:] != loc[:-1]]
    count -= (count - delta)[np.maximum.accumulate(np.where(head, np.arange(len(loc)), 0))]
    if (count > 1 + loc % 2).any():
        return False

    # (d) the exact path's pairs: in each run of moves by (start, op index)
    # that overlap the run's latest end, each move j and every earlier i
    # ending after start_j + _EPS_T, taken lag j - i at a time
    moves = np.argsort(start, kind="stable")
    head = np.r_[True, np.maximum.accumulate(end[moves])[:-1] <= start[moves][1:] + _EPS_T]
    run = np.maximum.accumulate(np.where(head, np.arange(len(head)), 0))
    dp = p1 - p0

    def gap(t, i, j):
        return (p0[j] + dp[j] * (t - start[j]) / dur[j]) - (p0[i] + dp[i] * (t - start[i]) / dur[i])

    for lag in range(1, int((np.arange(len(run)) - run).max(initial=0)) + 1):
        j = lag + np.flatnonzero(run[lag:] <= np.arange(len(run) - lag))
        i, j = moves[j - lag], moves[j]
        lo = np.where(start[i] > start[j], start[i], start[j])
        hi = np.where(end[i] < end[j], end[i], end[j])
        tested = (q[i] != q[j]) & (end[i] > start[j] + _EPS_T) & ~(hi - lo <= _EPS_T)
        d0, d1 = gap(lo, i, j), gap(hi, i, j)
        if (tested & (d0 * d1 < 0) & (np.minimum(np.abs(d0), np.abs(d1)) > 1e-12)).any():
            return False

    # (e) the last stays; (f) np.bincount adds in op order, as the exact
    # fold does; (g)
    last = np.append(first[1:] + np.arange(1, n), len(stay_q)) - 1
    final = index[last].tolist()
    if zone[last].any() or sorted(final) != list(range(n)) or tuple(final) != s.final_sites:
        return False
    stored = _column(s.per_qubit_error, float)
    folded = np.bincount(q, weights=dc, minlength=n)
    bound = 1e-15 * np.maximum(1.0, np.abs(stored))
    if len(stored) != n or (np.abs(folded - stored) > bound).any():
        return False
    t_end = max(end.max(initial=-np.inf), g_end.max(initial=-np.inf)) if len(s.ops) else 0.0
    return not abs(t_end - s.total_time) > 1e-12 * max(1.0, t_end)


def _validate_exact(s: Schedule, spec: ArchitectureSpec) -> list[Violation]:
    """``validate_schedule``'s exact path: every violation, op by op."""
    out: list[Violation] = []
    n = s.circuit.num_qubits

    shuttles: list[tuple[int, ShuttleOp]] = []
    gates: list[tuple[int, GateOp]] = []
    for idx, op in enumerate(s.ops):
        if isinstance(op, ShuttleOp):
            shuttles.append((idx, op))
        else:
            gates.append((idx, op))

    # shuttle-op internal consistency; position() range-checks both ends
    for idx, op in shuttles:
        dist = abs(position(op.src, spec) - position(op.dst, spec))
        if dist == 0.0:
            out.append(Violation("op", idx, "zero-distance shuttle present"))
            continue
        want_dur = shuttle_time(dist, op.velocity)
        if op.duration != want_dur:
            out.append(Violation("op", idx, f"duration {op.duration} != {want_dur}"))
        want_dc = phase_error(op.velocity, dist, s.error_params)
        if op.delta_c != want_dc:
            out.append(Violation("op", idx, f"delta_c {op.delta_c} != {want_dc}"))

    # per-qubit motion chains and presence timelines; zone stays are also
    # indexed by zone for rule (a)
    timelines: dict[int, list[tuple[Location, float, float]]] = {}
    zone_stays: dict[int, dict[Location, list]] = {}
    if sorted(s.initial_sites) != list(range(n)):
        out.append(Violation("c", None, "initial placement is not a bijection"))
        if len(s.initial_sites) < n:
            return out  # a qubit without a start site has no chain to follow
    by_qubit: dict[int, list[tuple[int, ShuttleOp]]] = {q: [] for q in range(n)}
    for idx, op in shuttles:
        if not 0 <= op.qubit < n:
            out.append(Violation("op", idx, f"unknown qubit {op.qubit}"))
            continue
        by_qubit[op.qubit].append((idx, op))
    for q in range(n):
        chain = sorted(by_qubit[q], key=lambda pair: (pair[1].start, pair[0]))
        cur: Location = Location.site(s.initial_sites[q])
        arrived = 0.0
        timeline: list[tuple[Location, float, float]] = []
        for idx, op in chain:
            if op.src != cur:
                out.append(
                    Violation("op", idx, f"qubit {q} departs {op.src!r} but is at {cur!r}")
                )
            if op.start < arrived - _EPS_T:
                out.append(
                    Violation("op", idx, f"qubit {q} departs at {op.start} before arriving at {arrived}")
                )
            timeline.append((cur, arrived, op.start))
            cur = op.dst
            arrived = op.end
        timeline.append((cur, arrived, float("inf")))
        timelines[q] = timeline
        stays: dict[Location, list[tuple[float, float]]] = {}
        for loc, t0, t1 in timeline:
            if loc.kind is LocationKind.ZONE:
                stays.setdefault(loc, []).append((t0, t1))
        zone_stays[q] = stays

    # (a) gate operands present at the zone for the full gate
    for idx, op in gates:
        if not 0 <= op.gate_index < len(s.circuit.gates):
            out.append(Violation("a", idx, f"gate index {op.gate_index} out of range"))
            continue
        zone_loc = Location.zone(op.zone)
        start, end = op.start + _EPS_T, op.end
        for q in s.circuit.gates[op.gate_index].qubits:
            stays = zone_stays.get(q, {}).get(zone_loc, ())
            if not any(t0 <= start and end <= t1 + _EPS_T for t0, t1 in stays):
                out.append(
                    Violation("a", idx, f"qubit {q} not at {zone_loc!r} for gate interval")
                )

    # (b) zone capacity 2, (c) site capacity 1, via interval sweeps
    zone_events: dict[int, list[tuple[float, int]]] = {}
    site_events: dict[int, list[tuple[float, int]]] = {}
    for q, timeline in timelines.items():
        for loc, t0, t1 in timeline:
            if t1 <= t0:
                continue
            bucket = site_events if loc.is_site else zone_events
            bucket.setdefault(loc.index, []).append((t0, +1))
            if t1 != float("inf"):
                bucket.setdefault(loc.index, []).append((t1, -1))
    for events, cap, rule, noun in (
        (zone_events, 2, "b", "zone"),
        (site_events, 1, "c", "site"),
    ):
        for index, evts in events.items():
            count = 0
            for _, delta in sorted(evts):
                count += delta
                if count > cap:
                    out.append(
                        Violation(rule, None, f"{noun} {index} exceeds capacity {cap}")
                    )
                    break

    # (d) simultaneously moving qubits keep their spatial order. A move is
    # (end, qubit, start, duration, p0, p1 - p0), at p0 + (p1 - p0) *
    # (t - start) / duration at time t.
    moving = sorted(shuttles, key=lambda pair: (pair[1].start, pair[0]))
    active: list[tuple[float, int, float, float, float, float]] = []
    for idx, op in moving:
        start, end, dur = op.start, op.end, op.duration
        p0 = position(op.src, spec)
        dp = position(op.dst, spec) - p0
        cutoff = start + _EPS_T
        active = [m for m in active if m[0] > cutoff]
        for o_end, o_qubit, o_start, o_dur, o_p0, o_dp in active:
            if o_qubit == op.qubit:
                continue
            lo = max(start, o_start)
            hi = min(end, o_end)
            if hi - lo <= _EPS_T:
                continue
            d0 = (p0 + dp * (lo - start) / dur) - (o_p0 + o_dp * (lo - o_start) / o_dur)
            d1 = (p0 + dp * (hi - start) / dur) - (o_p0 + o_dp * (hi - o_start) / o_dur)
            if d0 * d1 < 0 and min(abs(d0), abs(d1)) > 1e-12:
                out.append(
                    Violation(
                        "d", idx, f"qubits {op.qubit} and {o_qubit} cross mid-flight"
                    )
                )
        active.append((end, op.qubit, start, dur, p0, dp))

    # (e) everything parked at the end, bijectively
    final: list[int | None] = [None] * n
    for q, timeline in timelines.items():
        loc = timeline[-1][0]
        if not loc.is_site:
            out.append(Violation("e", None, f"qubit {q} ends in {loc!r}"))
        else:
            final[q] = loc.index
    if None not in final:
        if sorted(final) != list(range(n)):
            out.append(Violation("e", None, "final sites are not a bijection"))
        elif tuple(final) != s.final_sites:
            out.append(Violation("e", None, "final_sites does not match op history"))

    # (f) per-qubit error fold
    folded = [0.0] * n
    for _, op in shuttles:
        if 0 <= op.qubit < n:
            folded[op.qubit] += op.delta_c
    if len(s.per_qubit_error) != n:
        out.append(Violation("f", None, f"{len(s.per_qubit_error)} stored errors for {n} qubits"))
    for q, stored in enumerate(s.per_qubit_error[:n]):
        if abs(folded[q] - stored) > 1e-15 * max(1.0, abs(stored)):
            out.append(
                Violation("f", None, f"qubit {q} error {stored} != folded {folded[q]}")
            )

    # (g) total time
    end = max((op.end for op in s.ops), default=0.0)
    if abs(end - s.total_time) > 1e-12 * max(1.0, end):
        out.append(Violation("g", None, f"total_time {s.total_time} != last op end {end}"))

    return out


# JSON serialization: header (strategy, architecture, placement, error
# params), then the op array. Times round to 1 ps for cross-platform
# byte-determinism.
def _loc_json(loc: Location) -> dict:
    return {"kind": loc.kind.value, "idx": loc.index}


def _index(value) -> int:
    """A JSON integer index; ``int()`` would read 3.9 as 3 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"index must be an integer, got {value!r}")
    return value


def _loc_from_json(obj: dict) -> Location:
    return Location(LocationKind(obj["kind"]), _index(obj["idx"]))


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
_SHUTTLE_JSON = '{"dC":%s,"from":%s,"q":%s,"t0_ns":%s,"to":%s,"v_mps":%s}'
_GATE_JSON = '{"dur_ns":%s,"gate":%s,"t0_ns":%s,"zone":%s}'


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
    return _dumps(_loc_json(_location(code)))


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
    ops: list[ShuttleOp | GateOp] = []
    for entry in doc["ops"]:
        if "q" in entry:
            src = _loc_from_json(entry["from"])
            dst = _loc_from_json(entry["to"])
            v = json_number(entry["v_mps"], "v_mps")
            dist = distance(src, dst, arch)
            ops.append(
                ShuttleOp(
                    qubit=_index(entry["q"]),
                    src=src,
                    dst=dst,
                    start=json_number(entry["t0_ns"], "t0_ns") * 1e-9,
                    velocity=v,
                    duration=shuttle_time(dist, v),
                    delta_c=json_number(entry["dC"], "dC"),
                )
            )
        else:
            ops.append(
                GateOp(
                    gate_index=_index(entry["gate"]),
                    zone=_index(entry["zone"]),
                    start=json_number(entry["t0_ns"], "t0_ns") * 1e-9,
                    duration=json_number(entry["dur_ns"], "dur_ns") * 1e-9,
                )
            )
    total_time = json_number(doc["total_time_ns"], "total_time_ns") * 1e-9
    try:
        return Schedule(
            strategy=doc["strategy"],
            circuit=circuit,
            arch=arch,
            error_params=errp,
            initial_sites=tuple(_index(x) for x in doc["placement"]),
            ops=ops,
            total_time=total_time,
            per_qubit_error=tuple(json_number(x, "per_qubit_error") for x in doc["per_qubit_error"]),
            final_sites=tuple(_index(x) for x in doc["final_sites"]),
        )
    except OverflowError as exc:  # an op index beyond the columns' 64 bits
        raise ValueError(f"index too large: {exc}") from exc
