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

``map_strategy`` is the mapper, and a strategy's name the only way to
choose its configuration. The five strategies are the five rows of
``STRATEGY_FLAGS``, each a ``StrategyFlags`` (sequential, dynamic_return,
tunable, swap_returns). Only baseline is sequential: every gate is a
slice of its own, in circuit order, and a two-qubit gate meets in the
central zone.

Each slice episode has three globally barriered phases: all operands
shuttle out together, all gates fire together, all operands return
together. Within a phase the shuttles are emitted in ascending qubit
order. Phase duration is the maximum individual duration within it.
Qubits untouched by a slice stay parked and accrue no error.

The mapper runs in two passes over the columns ``circuit.py`` derives
once: kind masks, ``operands_of`` and ``SlicedCircuit.gate_layers``. One
rule (``_episodes``) turns the layers into episodes: under sequential
one layer per scheduled gate, otherwise the layers' scheduled gates with
empty layers dropped. Pass 1 decides where every qubit goes: each
episode's zone, each phase's (qubit, site, zone) moves, and the return
sites. It has two forms, chosen by ``dynamic_return``. Without it every
qubit returns to its own site, so the layout never moves: a zone depends
only on the placement and its gate's operands, and each return phase
repeats its out phase. That form is exact column arithmetic. With
``dynamic_return``, pass 1 walks the episodes' layers in Python, keeps
one position per qubit, and first sweeps the layers backward for every
two-qubit gate's next partners. A layer's vacated sites are dealt out in
descending order to its zones, right to left. No dynamic strategy is
sequential, so each zone is max(i, j): never left of its operands'
sites, and distinct within a layer. The free sites right of a zone
therefore went to zones dealt before it, and each occupant gets the
rightmost free site left of its zone. The walk reads only the circuit,
the architecture, the placement, ``swap_returns`` and whether measurements
are scheduled, never ``tunable``, so it is memoised on exactly those, one
entry deep: mapped one after the other, as ``STRATEGIES`` orders them,
``min_return`` and ``tunable_velocity`` share one walk per (circuit,
placement), and ``swap_return`` walks again. Pass 2 (``_timed_ops``) times
every move at once as numpy columns: distances, each phase's longest
move and velocity, durations, ``phase_error`` once per distinct velocity
over an array of its distances, the episode clock as a left fold, and
each qubit's error as a sum in op order, every float with the bits of
the op-by-op scalar arithmetic.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .architecture import ArchitectureSpec, decode_locations
from .circuit import SlicedCircuit
from .error_model import ErrorModelParams, _phase_errors, optimal_velocity
from .placement import Placement

from .schedule import GateColumns, Schedule, ScheduleOps, ShuttleColumns

# schedule_from_json, schedule_to_json and validate_schedule are re-exported
# as the very objects of their home modules: perfbench's tracer and reloads
# name spinbus.mapper as their home (the tracer rebinds by identity)
from .schedule import schedule_from_json, schedule_to_json
from .validate import validate_schedule


class StrategyFlags(NamedTuple):
    """A strategy's row of ``STRATEGY_FLAGS``; it equals the plain tuple."""

    sequential: bool
    dynamic_return: bool
    tunable: bool
    swap_returns: bool


STRATEGY_FLAGS = {
    "baseline": StrategyFlags(True, False, False, False),
    "parallel": StrategyFlags(False, False, False, False),
    "min_return": StrategyFlags(False, True, False, False),
    "tunable_velocity": StrategyFlags(False, True, True, False),
    "swap_return": StrategyFlags(False, True, True, True),
}
STRATEGIES = tuple(STRATEGY_FLAGS)

_flat = itertools.chain.from_iterable


def map_strategy(
    strategy: str,
    sc: SlicedCircuit,
    spec: ArchitectureSpec,
    placement: Placement,
    errp: ErrorModelParams,
    measure_duration: float | None = None,
) -> Schedule:
    """Map ``sc`` with the named strategy, one row of ``STRATEGY_FLAGS``;
    any other name raises ValueError.

    Measurements are scheduled only with a ``measure_duration`` in seconds:
    a bool or a non-number raises TypeError, a negative or non-finite value
    ValueError."""
    if strategy not in STRATEGY_FLAGS:
        raise ValueError(f"unknown strategy {strategy!r}")
    sequential, dynamic_return, tunable, swap_returns = STRATEGY_FLAGS[strategy]
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
    measured = measure_duration is not None
    if dynamic_return:
        moves, episodes, final_sites = _walk_layers(sc, spec, placement, swap_returns, measured)
    else:
        moves, episodes = _static_moves(sc, placement, sequential, measured)
        final_sites = placement.perm
    gate_time = np.where(c.two_qubit, spec.t_2q, spec.t_1q).astype(np.float64)
    gate_time[c.measure] = measure_duration or 0.0  # unscheduled without one
    ops, total_time, err = _timed_ops(moves, episodes, gate_time, spec, errp, tunable)
    return Schedule(
        strategy=strategy, circuit=c, arch=spec, error_params=errp, initial_sites=placement.perm,
        ops=ops, total_time=total_time, per_qubit_error=err, final_sites=final_sites,
    )


def _episodes(sc: SlicedCircuit, sequential: bool, measured: bool):
    """The episodes of ``sc``'s scheduled gates, as columns: each episode's
    gate index and layer, in layer order. A barrier is never scheduled, a
    measurement only if ``measured``. Under ``sequential`` every scheduled
    gate is a layer of its own, in circuit order; otherwise the layers are
    ``sc.gate_layers``' scheduled gates, empty layers dropped."""
    c = sc.circuit
    scheduled = ~c.barrier if measured else ~(c.barrier | c.measure)
    if sequential:
        gate_index = np.flatnonzero(scheduled)
        return gate_index, np.arange(len(gate_index))
    gate_index, layer = sc.gate_layers
    keep = scheduled[gate_index]
    return gate_index[keep], np.unique(layer[keep], return_inverse=True)[1]


def _static_moves(sc: SlicedCircuit, placement: Placement, sequential: bool, measured: bool):
    """Pass 1 without ``dynamic_return``, as column arithmetic: every qubit
    returns to its own site, so each zone follows from the placement and
    the gate's operands, and each return phase repeats its out phase.
    Returns ``_timed_ops``' move and episode columns."""
    gate_index, layer = _episodes(sc, sequential, measured)
    row, q = sc.circuit.operands_of(gate_index)
    sites = np.array(placement.perm, dtype=np.int64)
    first, end = (np.searchsorted(row, np.arange(len(gate_index)), side=side) for side in ("left", "right"))
    i, j = sites[q[first]], sites[q[end - 1]]  # i == j for one qubit
    zone = (i + j + 1) // 2 if sequential else np.maximum(i, j)
    move_layer = layer[row]
    moves = (
        np.repeat(np.bincount(move_layer), 2), np.concatenate([2 * move_layer, 2 * move_layer + 1]),
        np.tile(q, 2), np.tile(sites[q], 2), np.tile(zone[row], 2),
    )
    return moves, (np.bincount(layer), gate_index, zone)


@functools.lru_cache(maxsize=1)
def _walk_layers(sc: SlicedCircuit, spec: ArchitectureSpec, placement: Placement, swap_returns: bool, measured: bool):
    """Pass 1 with ``dynamic_return``, in Python: walk the episodes' layers,
    keeping one site and position per qubit, and deal each layer's vacated
    sites out as its return sites. Returns ``_timed_ops``' move and episode
    columns, read-only, and the final sites.

    The walk reads nothing but its arguments, so it is memoised on them
    (``sc`` by identity): ``tunable_velocity``, mapped right after
    ``min_return``, reuses its walk. One entry only: the last walk's columns
    stay alive until the next call with other arguments."""
    gate_index, layer = _episodes(sc, False, measured)
    n_gates = np.bincount(layer)  # episodes per layer
    offsets, qubits = sc.circuit.offsets.tolist(), sc.circuit.qubits.tolist()
    gates = [(k, tuple(qubits[offsets[k]:offsets[k + 1]])) for k in gate_index.tolist()]
    ends = np.cumsum(n_gates).tolist()
    layers = [gates[a:b] for a, b in zip([0] + ends, ends)]
    positions = decode_locations(np.arange(2 * spec.n_sites), spec)[2].tolist()
    site_pos, zone_pos = positions[0::2], positions[1::2]
    sites = list(placement.perm)
    pos = [site_pos[s] for s in sites]  # a site's position, or a zone's while out

    # each two-qubit gate's operands' next partners after its layer, by one
    # backward sweep; layers are qubit-disjoint
    next_partners: dict[int, tuple[int | None, int | None]] = {}
    if swap_returns:
        later: list[int | None] = [None] * spec.n_sites
        for layer in reversed(layers):
            for gate_idx, qubits in layer:
                if len(qubits) == 2:
                    qa, qb = qubits
                    next_partners[gate_idx] = (later[qa], later[qb])
                    later[qa], later[qb] = qb, qa

    phases: list[list[tuple[int, int, int]]] = []  # out, return, out, ...
    zones: list[int] = []
    for layer in layers:
        # (gate_index, qubits, zone): the zone is the rightmost operand site
        episodes = [(gate_idx, qubits, max(sites[qubits[0]], sites[qubits[-1]])) for gate_idx, qubits in layer]
        zones += map(itemgetter(2), episodes)

        # out phase: every operand shuttles to its zone simultaneously
        out_moves = [(q, sites[q], zone) for _, qubits, zone in episodes for q in qubits]
        for q, _, zone in out_moves:
            pos[q] = zone_pos[zone]
        # return phase: the free sites are the ones the out phase vacated
        returns = _assign_dynamic_returns(episodes, out_moves, pos, site_pos, next_partners)
        for q, s, _ in returns:
            sites[q], pos[q] = s, site_pos[s]
        phases += (out_moves, returns)

    n_moves = np.fromiter(map(len, phases), np.int64, len(phases))
    q, s, z = np.fromiter(_flat(_flat(phases)), np.int64, 3 * int(n_moves.sum())).reshape(-1, 3).T
    moves = (n_moves, np.repeat(np.arange(len(phases)), n_moves), q, s, z)
    episodes = (n_gates, gate_index, np.fromiter(zones, np.int64, len(zones)))
    for col in moves + episodes:
        col.flags.writeable = False
    return moves, episodes, tuple(sites)


def _timed_ops(
    moves: tuple[np.ndarray, ...], episodes: tuple[np.ndarray, ...], gate_time: np.ndarray,
    spec: ArchitectureSpec, errp: ErrorModelParams, tunable: bool,
) -> tuple[ScheduleOps, float, tuple[float, ...]]:
    """Pass 2: the ops, total time and per-qubit error of pass 1's columns,
    computed as columns. Phases run out, return, out, ...; ``moves`` is
    (moves per phase, then every move's phase, qubit, site and zone, in
    any order), and ``episodes`` is (episodes per phase pair, then every
    episode's gate index and zone, in layer order). ``gate_time`` is the
    duration of every circuit gate.

    Each phase shuttles its moves in qubit order at one velocity (the
    optimum for its longest move if ``tunable``) and lasts as long as that
    move. Every float has the bits of the scalar expressions: positions from
    ``decode_locations``, durations ``dist / v``, ``phase_error`` once per
    distinct velocity over an array of its distances (``_phase_errors``),
    episode times a left fold over [out, longest gate, return] per
    episode, and each qubit's error a sum in op order.
    """
    (n_moves, phase, q, s, z), (n_gates, gate_index, gate_zone) = moves, episodes
    # a qubit moves at most once a phase, so (phase, qubit) is a unique key
    order = np.argsort(phase * spec.n_sites + q, kind="stable")
    phase, q, s, z = phase[order], q[order], s[order], z[order]
    site, zone = 2 * s, 2 * z + 1
    dist = np.abs(decode_locations(site, spec)[2] - decode_locations(zone, spec)[2])
    longest = np.maximum.reduceat(dist, np.cumsum(n_moves) - n_moves)
    if tunable:
        keys, which = np.unique(longest, return_inverse=True)
        v = np.array([optimal_velocity(x, errp) for x in keys.tolist()], dtype=np.float64)[which]
    else:
        v = np.full(len(n_moves), spec.default_velocity, dtype=np.float64)
    velocity = v[phase]
    dc = _phase_errors(velocity, dist, errp)

    gate_dur = gate_time[gate_index]
    # max() from 0.0 over the gates: fmax keeps +0.0 over -0.0 and skips NaN
    longest_gate = np.fmax(0.0, np.fmax.reduceat(gate_dur, np.cumsum(n_gates) - n_gates))
    lasts = np.stack([longest[0::2] / v[0::2], longest_gate, longest[1::2] / v[1::2]], axis=1)
    ends = np.add.accumulate(lasts.ravel()).reshape(-1, 3)  # out, gate and return ends
    starts = np.stack([np.append(0.0, ends[:, 2])[:-1], ends[:, 1]], axis=1).ravel()

    outward = phase % 2 == 0
    runs = np.stack([n_moves[0::2], n_gates, n_moves[1::2]], axis=1).ravel()
    ops = ScheduleOps(
        np.repeat(np.tile(np.frombuffer(b"sgs", dtype=np.uint8), len(n_gates)), runs).tobytes().decode(),
        ShuttleColumns(
            q, np.where(outward, site, zone), np.where(outward, zone, site),
            starts[phase], velocity, dist / velocity, dc,
        ),
        GateColumns(gate_index, gate_zone, np.repeat(ends[:, 0], n_gates), gate_dur),
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
        # right to left, and none right of the zone, so no check is needed:
        # a zone is max(i, j) and a layer's zones are distinct, so each free
        # site right of it was vacated by an operand of a zone dealt before
        # it, and those zones took the largest sites, one per operand
        taken = free[dealt:dealt + len(qubits)]
        dealt += len(qubits)
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
