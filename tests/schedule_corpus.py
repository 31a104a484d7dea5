"""Helpers the mapper, validator and schedule suites share: small gates,
the hand-made schedule and move builders, and the mutation corpus, which is
built once per session."""

import dataclasses
import functools
import math

from spinbus.architecture import ArchitectureSpec, Location, distance
from spinbus.circuit import Circuit, Gate, GateKind, decompose, slice_circuit
from spinbus.error_model import ErrorModelParams, phase_error
from spinbus.benchgen import BenchmarkSpec, generate
from spinbus.mapper import STRATEGIES, map_strategy
from spinbus.placement import Placement, random_placement
from spinbus.schedule import GateOp, Schedule, ShuttleOp
from spinbus.validate import validate_schedule

US = 1e-6
NS = 1e-9


def cz(a, b):
    return Gate(GateKind.CZ, (a, b))


def h(q):
    return Gate(GateKind.H, (q,))


def arch(n):
    return ArchitectureSpec(n_sites=n)


def run(strategy, circuit, n, errp, placement=None, **kwargs):
    sc = slice_circuit(circuit)
    placement = placement or Placement.identity(n)
    s = map_strategy(strategy, sc, arch(n), placement, errp, **kwargs)
    assert validate_schedule(s, arch(n)) == []
    return s


def shuttle(spec, q, src, dst, start, v=10.0, nudge=0, errp=None, **changes):
    """A move of qubit ``q`` at ``v`` with its phase error, lasting
    distance / v or ``nudge`` ulps off it; ``changes`` then replace fields."""
    d = distance(src, dst, spec)
    duration = d / v
    for _ in range(abs(nudge)):
        duration = math.nextafter(duration, math.copysign(math.inf, nudge))
    op = ShuttleOp(q, src, dst, start, v, duration, phase_error(v, d, errp or ErrorModelParams()))
    return dataclasses.replace(op, **changes)


def handmade_schedule(*ops, spec, circuit=None, initial=None, final=None, strategy="handmade"):
    """``ops`` on ``spec`` as a schedule of ``circuit``, by default one with a
    qubit per site and no gates. Qubit q starts and ends on site q unless
    ``initial`` or ``final`` say otherwise; its error is the fold of its
    shuttles' phase errors (a qubit the circuit lacks gets none), and the
    makespan is the last op's end."""
    if circuit is None:
        circuit = Circuit(spec.n_sites, ())
    n = circuit.num_qubits
    folded = [0.0] * n
    for op in ops:
        if isinstance(op, ShuttleOp) and 0 <= op.qubit < n:
            folded[op.qubit] += op.delta_c
    return Schedule(
        strategy=strategy, circuit=circuit, arch=spec, error_params=ErrorModelParams(),
        initial_sites=tuple(initial or range(n)), ops=ops, total_time=max((op.end for op in ops), default=0.0),
        per_qubit_error=tuple(folded), final_sites=tuple(final or range(n)),
    )


# Mutation corpus: valid schedules of every strategy, each broken in one of
# the ways below. A mutation takes (schedule, i, j) with arbitrary
# nonnegative i and j and reduces them modulo whatever it indexes.
def _replace_op(s, k, **changes):
    ops = list(s.ops)
    ops[k] = dataclasses.replace(ops[k], **changes)
    return dataclasses.replace(s, ops=ops)


def _nth(s, kind, i):
    """Index into ``s.ops`` of the (i mod count)-th op of ``kind``."""
    picks = [k for k, op in enumerate(s.ops) if isinstance(op, kind)]
    return picks[i % len(picks)]


def _shift_start(s, i, j):
    # shifts from 100 ns down to the validator's 1e-15 s tolerance
    dt = (-1e-7, -1e-9, -1e-15, 1e-15, 1e-9, 1e-7)[j % 6]
    k = i % len(s.ops)
    return _replace_op(s, k, start=list(s.ops)[k].start + dt)


def _stretch(s, i, j):
    # a longer or shorter op: late arrivals, early departures, long gates
    k = i % len(s.ops)
    return _replace_op(s, k, duration=list(s.ops)[k].duration * (0.5, 2.0, 10.0)[j % 3])


def _swap_destinations(s, i, j):
    # both destinations are read before either is written, so they exchange
    a, b = _nth(s, ShuttleOp, i), _nth(s, ShuttleOp, j)
    ops = list(s.ops)
    return _replace_op(_replace_op(s, a, dst=ops[b].dst), b, dst=ops[a].dst)


def _drop(s, i, j):
    # counted from the end, so i = 0 drops the last return shuttle
    ops = list(s.ops)
    k = len(ops) - 1 - i % len(ops)
    return dataclasses.replace(s, ops=ops[:k] + ops[k + 1 :])


def _duplicate(s, i, j):
    ops = list(s.ops)
    k = j % (len(ops) + 1)
    return dataclasses.replace(s, ops=ops[:k] + [ops[i % len(ops)]] + ops[k:])


def _inject_crossing(s, i, j):
    """After the last op, two parked qubits at least two sites apart swap
    sides through each other's zones and come back the same way."""
    n = s.circuit.num_qubits
    qa = i % n
    far = [q for q in range(n) if abs(s.final_sites[q] - s.final_sites[qa]) >= 2]
    if not far:
        return s
    qb = far[j % len(far)]
    sa, sb = s.final_sites[qa], s.final_sites[qb]
    move = functools.partial(shuttle, s.arch, v=s.arch.default_velocity, errp=s.error_params)
    t0, t1 = s.total_time, s.total_time + 1e-6
    added = (
        move(qa, Location.site(sa), Location.zone(sb), t0),
        move(qb, Location.site(sb), Location.zone(sa), t0),
        move(qa, Location.zone(sb), Location.site(sa), t1),
        move(qb, Location.zone(sa), Location.site(sb), t1),
    )
    return dataclasses.replace(s, ops=[*s.ops, *added])


def _bad_qubit(s, i, j):
    n = s.circuit.num_qubits
    return _replace_op(s, _nth(s, ShuttleOp, i), qubit=(n, n + 3, -1)[j % 3])


def _bad_zone(s, i, j):
    n = s.circuit.num_qubits
    if j % 2:
        return _replace_op(s, _nth(s, GateOp, i), zone=(n, -1)[j // 2 % 2])
    # a shuttle into a zone that does not exist: both validators raise
    return _replace_op(s, _nth(s, ShuttleOp, i), dst=Location.zone(n))


def _bad_gate_index(s, i, j):
    count = len(s.circuit.gates)
    return _replace_op(s, _nth(s, GateOp, i), gate_index=(count, -1, count + 5)[j % 3])


def _gate_duration(s, i, j):
    # negated, none, 1 ps, or one ulp longer than the mapper's
    k = _nth(s, GateOp, i)
    d = list(s.ops)[k].duration
    return _replace_op(s, k, duration=(-d, 0.0, 1e-12, math.nextafter(d, math.inf))[j % 4])


MUTATIONS = {
    "shift_start": _shift_start,
    "stretch": _stretch,
    "swap_destinations": _swap_destinations,
    "drop": _drop,
    "duplicate": _duplicate,
    "inject_crossing": _inject_crossing,
    "bad_qubit": _bad_qubit,
    "bad_zone": _bad_zone,
    "bad_gate_index": _bad_gate_index,
    "gate_duration": _gate_duration,
}


@functools.lru_cache(maxsize=None)
def _valid_schedules():
    """One valid schedule per strategy and circuit, random placement."""
    out = []
    for family in ("qaoa", "random"):
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family=family, n=6, seed=1))))
        for strategy in STRATEGIES:
            s = map_strategy(strategy, sc, arch(6), random_placement(6, 1), ErrorModelParams())
            out.append(s)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _mutation_corpus():
    """(label, schedule): every valid schedule, then each mutation applied
    at three spread-out positions."""
    corpus = []
    for base in _valid_schedules():
        corpus.append((base.strategy, base))
        for name, mutate in MUTATIONS.items():
            for i, j in ((0, 1), (37, 4), (101, 11)):
                corpus.append((f"{base.strategy}/{name}/{i},{j}", mutate(base, i, j)))
    return tuple(corpus)
