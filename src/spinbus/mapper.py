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
(qubit, site, zone) moves, and the return sites. It reads the operands
from per-gate data each ``Circuit`` derives once, keeps one position per
qubit, and first sweeps the layers backward for every two-qubit gate's
next partners. A layer's vacated sites are dealt out in descending order
to its zones, right to left: outside sequential a zone is never left of
its operands' sites and the zones are distinct, so the free sites right
of a zone went to zones dealt before it, and each occupant gets the
rightmost free site left of its zone. A sequential layer, one gate, has
none exactly when its first dealt site lies right of the zone. Pass 2
(``_timed_ops``) times every move at once as numpy columns: distances,
each phase's longest move and velocity, durations, ``phase_error`` once
per distinct velocity over an array of its distances, the episode clock
as a left fold, and each qubit's error as a sum in op order, every float
with the bits of the op-by-op scalar arithmetic.
"""
from __future__ import annotations

import itertools
import math
import numbers
from operator import itemgetter

import numpy as np

from .architecture import ArchitectureSpec, Location, decode_locations, position
from .circuit import Gate, GateKind, SlicedCircuit
from .error_model import ErrorModelParams, _phase_errors, optimal_velocity
from .placement import Placement

from .schedule import GateColumns, Schedule, ScheduleOps, ShuttleColumns

# re-exported as the very objects of their home modules, for callers that
# name spinbus.mapper as their home (perfbench's tracer rebinds by identity)
from .schedule import GateOp, ShuttleOp, schedule_from_json, schedule_to_json
from .validate import Violation, validate_schedule

# name -> (sequential, dynamic_return, tunable, swap_returns)
STRATEGY_FLAGS = {
    "baseline": (True, False, False, False),
    "parallel": (False, False, False, False),
    "min_return": (False, True, False, False),
    "tunable_velocity": (False, True, True, False),
    "swap_return": (False, True, True, True),
}
STRATEGIES = tuple(STRATEGY_FLAGS)

_flat = itertools.chain.from_iterable


def _schedulable(g: Gate, measure_duration: float | None) -> bool:
    """Whether ``g`` is scheduled: a BARRIER never, a MEASURE only with a duration."""
    return g.kind is not GateKind.BARRIER and (g.kind is not GateKind.MEASURE or measure_duration is not None)


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
        raise ValueError(f"circuit has {c.num_qubits} qubits but the architecture has {spec.n_sites} sites")
    if placement.n != spec.n_sites:
        raise ValueError(f"placement covers {placement.n} qubits, architecture has {spec.n_sites}")
    if measure_duration is not None:
        if isinstance(measure_duration, bool) or not isinstance(measure_duration, numbers.Real):
            raise TypeError(f"measure_duration must be a number of seconds, got {measure_duration!r}")
        if not 0 <= measure_duration < math.inf:
            raise ValueError(f"measure_duration must be finite and >= 0, got {measure_duration!r}")
    site_pos = [position(Location.site(s), spec) for s in range(spec.n_sites)]
    zone_pos = [position(Location.zone(z), spec) for z in range(spec.n_sites)]
    sites = list(placement.perm)
    pos = [site_pos[s] for s in sites]  # a site's position, or a zone's while out
    # each layer's scheduled gates as (gate index, qubits); see _schedulable
    entries, skip_measures = c.gate_entries, measure_duration is None
    scheduled = [None if qs is None or m and skip_measures else (k, qs) for k, (qs, m) in enumerate(entries)]
    if sequential:
        layers = [[gate] for gate in scheduled if gate]
    else:
        layers = [list(filter(None, map(scheduled.__getitem__, layer))) for layer in sc.layers]

    # each two-qubit gate's operands' next partners after its layer, by one
    # backward sweep; layers are qubit-disjoint
    next_partners: dict[int, tuple[int | None, int | None]] = {}
    if swap_returns:
        later: list[int | None] = [None] * c.num_qubits
        for layer in reversed(layers):
            for gate_idx, qubits in layer:
                if len(qubits) == 2:
                    qa, qb = qubits
                    next_partners[gate_idx] = (later[qa], later[qb])
                    later[qa], later[qb] = qb, qa

    # pass 1: every episode's zones and moves, phase by phase
    phases: list[list[tuple[int, int, int]]] = []  # out, return, out, ...
    timed: list[list[tuple[int, tuple[int, ...], int]]] = []  # each phase pair's episodes
    for layer in layers:
        if not layer:
            continue
        episodes = []  # (gate_index, qubits, zone)
        for gate_idx, qubits in layer:
            if len(qubits) == 2:
                i, j = sites[qubits[0]], sites[qubits[1]]
                zone = (i + j + 1) // 2 if sequential else max(i, j)
            else:
                zone = sites[qubits[0]]
            episodes.append((gate_idx, qubits, zone))

        # out phase: every operand shuttles to its zone simultaneously
        out_moves = [(q, sites[q], zone) for _, qubits, zone in episodes for q in qubits]
        for q, _, zone in out_moves:
            pos[q] = zone_pos[zone]

        # return phase: the free sites are the ones the out phase vacated
        if dynamic_return:
            returns = _assign_dynamic_returns(episodes, out_moves, pos, site_pos, next_partners)
        else:
            returns = out_moves
        for q, s, _ in returns:
            sites[q], pos[q] = s, site_pos[s]
        phases += (out_moves, returns)
        timed.append(episodes)

    gate_time = np.where(c.two_qubit, spec.t_2q, spec.t_1q).astype(np.float64)
    if measure_duration is not None:
        gate_time[[measure for _, measure in entries]] = measure_duration
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
    timed: list[list[tuple[int, tuple[int, ...], int]]],
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
    ``decode_locations``, durations ``dist / v``, ``phase_error`` once per
    distinct velocity over an array of its distances (``_phase_errors``),
    episode times a left fold over [out, longest gate, return] per
    episode, and each qubit's error a sum in op order.
    """
    n_moves = np.fromiter(map(len, phases), np.int64, len(phases))
    moves = np.fromiter(_flat(_flat(phases)), np.int64, 3 * int(n_moves.sum())).reshape(-1, 3)
    phase = np.repeat(np.arange(len(phases)), n_moves)
    # a qubit moves at most once a phase, so (phase, qubit) is a unique key
    q, s, z = np.ascontiguousarray(moves[np.argsort(phase * spec.n_sites + moves[:, 0], kind="stable")].T)
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


def _assign_dynamic_returns(episodes, out_moves, pos: list[float], site_pos: list[float], next_partners):
    """Deal the sites the ``out_moves`` vacated, in descending order, to the
    zone occupants, zones right to left, as (qubit, site, zone) moves. A
    pair's occupants take its sites in the order ``_right_then_left`` gives
    from their ``next_partners``' positions (a gate not in it has none).
    ``pos`` follows each qubit to its return site."""
    free = sorted([s for _, s, _ in out_moves], reverse=True)
    returns: list[tuple[int, int, int]] = []
    dealt = 0
    for gate_idx, qubits, zone in sorted(episodes, key=itemgetter(2), reverse=True):
        taken = free[dealt:dealt + len(qubits)]  # right to left
        dealt += len(qubits)
        # eligible sites sit at positions <= the zone's: site index <= zone index
        if taken[0] > zone:
            raise RuntimeError(f"no free site left of zone {zone} for gate {gate_idx}")
        if len(qubits) == 2:
            na, nb = next_partners.get(gate_idx, (None, None))
            pa, pb = None if na is None else pos[na], None if nb is None else pos[nb]
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
