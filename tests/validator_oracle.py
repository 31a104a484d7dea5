"""Reference oracle for ``spinbus.validate.validate_schedule``.

This is the straightforward validator the library shipped before its
validator was made near-linear, kept word for word (only renamed), with
the gate-op duration rule added since, written the same plain way. It
rescans every operand's whole timeline for rule (a) and re-derives every
position for rule (d), so it is slow, but it is the definition the fast
validator must match: the same ``Violation`` list in the same order, or
the same exception type. Tests only; ``src/`` has one validator.
"""
from __future__ import annotations

from spinbus.architecture import ArchitectureSpec, Location, distance, position, shuttle_time
from spinbus.circuit import GateKind
from spinbus.error_model import phase_error
from spinbus.schedule import GateOp, Schedule, ShuttleOp
from spinbus.validate import Violation

_EPS_T = 1e-15  # seconds, as in spinbus.validate


def oracle_validate_schedule(s: Schedule, spec: ArchitectureSpec) -> list[Violation]:
    """Check the schedule validity rules; an empty list means valid.

    (a) gate operands are at the gate's zone for its whole duration
    (b) no zone ever holds more than two qubits
    (c) no storage site ever holds more than one qubit
    (d) simultaneously moving qubits never cross
    (e) every qubit ends parked in storage
    (f) stored per-qubit errors match a fold over the shuttle ops
    (g) total_time is the latest op end
    plus internal shuttle-op consistency (duration, delta_c, chaining) and
    gate-op durations: a one-qubit gate lasts ``spec.t_1q`` and a two-qubit
    gate ``spec.t_2q``, and every measurement one shared duration, finite
    and >= 0.
    """
    out: list[Violation] = []
    n = s.circuit.num_qubits

    shuttles: list[tuple[int, ShuttleOp]] = []
    gates: list[tuple[int, GateOp]] = []
    for idx, op in enumerate(s.ops):
        if isinstance(op, ShuttleOp):
            shuttles.append((idx, op))
        else:
            gates.append((idx, op))

    # shuttle-op internal consistency
    for idx, op in shuttles:
        dist = distance(op.src, op.dst, spec)
        if dist == 0.0:
            out.append(Violation("op", idx, "zero-distance shuttle present"))
            continue
        want_dur = shuttle_time(dist, op.velocity)
        if op.duration != want_dur:
            out.append(Violation("op", idx, f"duration {op.duration} != {want_dur}"))
        want_dc = phase_error(op.velocity, dist, s.error_params)
        if op.delta_c != want_dc:
            out.append(Violation("op", idx, f"delta_c {op.delta_c} != {want_dc}"))

    # gate-op durations; an unknown gate index is rule (a)'s, and a barrier
    # has no duration
    known = [(idx, op, s.circuit.gates[op.gate_index]) for idx, op in gates
             if 0 <= op.gate_index < len(s.circuit.gates)]
    measured = [op.duration for _, op, gate in known if gate.kind is GateKind.MEASURE]
    for idx, op, gate in known:
        if gate.kind is GateKind.BARRIER:
            continue
        if gate.kind is GateKind.MEASURE:
            if not 0 <= op.duration < float("inf"):
                out.append(Violation("op", idx, f"measurement duration {op.duration} is not finite and >= 0"))
            if op.duration != measured[0]:
                out.append(Violation("op", idx, f"measurement duration {op.duration} != {measured[0]}"))
            continue
        want = spec.t_2q if gate.is_two_qubit else spec.t_1q
        if op.duration != want:
            out.append(Violation("op", idx, f"gate duration {op.duration} != {want}"))

    # per-qubit motion chains and presence timelines
    timelines: dict[int, list[tuple[Location, float, float]]] = {}
    if sorted(s.initial_sites) != list(range(n)):
        out.append(Violation("c", None, "initial placement is not a bijection"))
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

    # (a) gate operands present at the zone for the full gate
    for idx, op in gates:
        if not 0 <= op.gate_index < len(s.circuit.gates):
            out.append(Violation("a", idx, f"gate index {op.gate_index} out of range"))
            continue
        zone_loc = Location.zone(op.zone)
        for q in s.circuit.gates[op.gate_index].qubits:
            ok = any(
                loc == zone_loc and t0 <= op.start + _EPS_T and op.end <= t1 + _EPS_T
                for loc, t0, t1 in timelines.get(q, [])
            )
            if not ok:
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
            for _, delta in sorted(evts, key=lambda e: (e[0], e[1])):
                count += delta
                if count > cap:
                    out.append(
                        Violation(rule, None, f"{noun} {index} exceeds capacity {cap}")
                    )
                    break

    # (d) simultaneously moving qubits keep their spatial order
    def pos_at(op: ShuttleOp, t: float) -> float:
        p0 = position(op.src, spec)
        p1 = position(op.dst, spec)
        return p0 + (p1 - p0) * (t - op.start) / op.duration

    moving = sorted(shuttles, key=lambda pair: (pair[1].start, pair[0]))
    active: list[tuple[int, ShuttleOp]] = []
    for idx, op in moving:
        active = [(i, o) for i, o in active if o.end > op.start + _EPS_T]
        for other_idx, other in active:
            if other.qubit == op.qubit:
                continue
            lo = max(op.start, other.start)
            hi = min(op.end, other.end)
            if hi - lo <= _EPS_T:
                continue
            d0 = pos_at(op, lo) - pos_at(other, lo)
            d1 = pos_at(op, hi) - pos_at(other, hi)
            if d0 * d1 < 0 and min(abs(d0), abs(d1)) > 1e-12:
                out.append(
                    Violation(
                        "d", idx, f"qubits {op.qubit} and {other.qubit} cross mid-flight"
                    )
                )
        active.append((idx, op))

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
    for q in range(n):
        stored = s.per_qubit_error[q]
        if abs(folded[q] - stored) > 1e-15 * max(1.0, abs(stored)):
            out.append(
                Violation("f", None, f"qubit {q} error {stored} != folded {folded[q]}")
            )

    # (g) total time
    end = max((op.end for op in s.ops), default=0.0)
    if abs(end - s.total_time) > 1e-12 * max(1.0, end):
        out.append(Violation("g", None, f"total_time {s.total_time} != last op end {end}"))

    return out
