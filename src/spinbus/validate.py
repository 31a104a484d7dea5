"""Schedule validity: ``validate_schedule`` and the rules it checks.

The validator is one pass over the columns: each rule is a boolean mask
over the rows, and a violation is formatted only for a flagged row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .architecture import ArchitectureSpec, Location, _location, decode_locations, distance
from .circuit import _ragged
from .error_model import _phase_errors
from .schedule import Schedule, ShuttleColumns

_EPS_T = 1e-15  # seconds; schedule times are exact accumulations
_PAIRS = 1 << 16  # rule (d) expands about this many window moves at once


@dataclass(frozen=True)
class Violation:
    """One broken schedule rule; rule letters follow the validity contract."""

    rule: str
    op_index: int | None
    message: str


def validate_schedule(s: Schedule, spec: ArchitectureSpec) -> list[Violation]:
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

    One pass over the op columns: each rule is a boolean mask over the
    shuttle or gate rows, and a ``Violation`` is formatted only for a
    flagged row. Every float expression is evaluated elementwise with the
    bits of its scalar form, and ``phase_error`` runs once per distinct
    velocity over an array of its distances. Rule (d) tests only pairs of
    moves that overlap in time and have different slopes, or whose rounding
    a bound cannot rule out (see ``_crossings``), so a phase of k
    simultaneous shuttles at one velocity costs O(k). The list holds, in
    this order: the shuttle checks (distance, duration, delta_c) by op; the
    gate-op durations by op; the placement check;
    unknown qubits by op; each qubit's chain (departure site, then time) in
    qubit order; (a) by gate op and operand; (b), then (c), by location in
    the order of first occupancy; (d) by move in (start, op) order; (e) and
    (f) by qubit; (g).

    Raises ValueError at the first shuttle in op order with a location
    outside the bus, or with a velocity that is not > 0 over a nonzero
    distance (``position`` and ``shuttle_time`` reject them), and whatever
    ``phase_error`` raises on a velocity it cannot evaluate. An
    ``initial_sites`` shorter than the qubit count ends the list after the
    op checks and the placement check, since a qubit without a start
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
    yield from _gate_durations(s, spec, op_index)
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
    distinct velocity of the moves on the bus, in op order, over an array of
    that velocity's distances, and, as ``shuttle_time`` would, rejects a
    velocity that is not > 0, so the first shuttle that raises raises."""
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


def _gate_durations(s: Schedule, spec: ArchitectureSpec, op_index):
    """Gate-op durations, by gate op: a one-qubit gate lasts ``spec.t_1q``
    and a two-qubit gate ``spec.t_2q``, bit for bit, as the mapper copies
    them; every measurement lasts the duration of the first one in op
    order, finite and >= 0. An unknown gate index is rule (a)'s, and a
    barrier, which has no duration, is skipped."""
    c, gt = s.circuit, s.ops.gates
    rows = np.flatnonzero((gt.gate_index >= 0) & (gt.gate_index < c.num_gates))
    k, dur = gt.gate_index[rows], gt.duration[rows]
    measure = c.measure[k]
    want = np.where(c.two_qubit[k], spec.t_2q, spec.t_1q)
    want[measure] = dur[measure][:1]  # none to set without a measurement
    off = ~c.barrier[k] & (dur != want)
    unbounded = measure & ~((dur >= 0) & (dur < np.inf))
    for r in np.flatnonzero(off | unbounded).tolist():
        idx, d, noun = op_index("g")[rows.item(r)], dur.item(r), "measurement" if measure[r] else "gate"
        if unbounded[r]:
            yield Violation("op", idx, f"measurement duration {d} is not finite and >= 0")
        if off[r]:
            yield Violation("op", idx, f"{noun} duration {d} != {want.item(r)}")


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
    gate's end (- _EPS_T). The zone stays and the operands, each operand at
    its gate's zone and start + _EPS_T, form one stream sorted by (qubit,
    zone, time), a stay before an operand at equal times. So the stays
    before an operand in its (qubit, zone) group are those begun in time,
    and a running maximum of departure ranks, lifted per group, gives it
    their latest departure. An operand ranks 0, below every stay, and
    that rank reads NaN, which covers no gate: an operand with no stay
    before it is not covered, even by a gate whose end overflows to -inf."""
    gt = s.ops.gates
    gate_index, g_zone, g_start = gt.gate_index, gt.zone, gt.start
    g_known = (gate_index >= 0) & (gate_index < s.circuit.num_gates)
    rows = np.flatnonzero(g_known)
    og, oq = s.circuit.operands_of(gate_index[rows])
    og = rows[og]  # each operand's gate row
    zs = np.flatnonzero(stays.zone)
    departs, rank = np.unique(stays.depart[zs], return_inverse=True)
    rank = np.concatenate([rank + 1, np.zeros(len(og), dtype=rank.dtype)])
    qubit, zone = np.concatenate([stays.qubit[zs], oq]), np.concatenate([stays.index[zs], g_zone[og]])
    order = np.lexsort((rank == 0, np.concatenate([stays.arrive[zs], g_start[og] + _EPS_T]), zone, qubit))
    qubit, zone, rank = qubit[order], zone[order], rank[order]
    head = np.concatenate([[True], (qubit[1:] != qubit[:-1]) | (zone[1:] != zone[:-1])])
    lift = np.cumsum(head) * (len(departs) + 1)
    latest = np.empty(len(order))
    latest[order] = np.concatenate([[np.nan], departs])[np.maximum.accumulate(rank + lift) - lift]
    covered = g_start[og] + gt.duration[og] <= latest[len(zs):] + _EPS_T
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
    in that order that start before end_i - _EPS_T are i's window. A pair
    is flagged when hi - lo > _EPS_T and the gaps d(lo) and d(hi) at the
    ends of the common interval have opposite signs and both exceed 1e-12
    in size, so only if |d(hi) - d(lo)| > 2e-12.

    Two moves of one slope class cannot get there, so they are not tested.
    A move k joins the class named by the bits of ``dp_k / dur_k`` when
    2^-900 <= dur_k <= 2^900, |start_k| <= 2^52 dur_k, the slope is
    normal or dp_k is 0, and b_k = 2^-48 (|dp_k| + P_k) + 2^-170 <= 1e-12,
    with P_k the larger of |p0_k| and |p1_k|. Any other move is a class of
    its own. The proof, with u = 2^-53, for a flagged pair, whose lo and hi
    lie within [start_k, end_k] of both moves:

    - end_k - start_k <= (1 + u) dur_k + u |start_k| <= 2 dur_k, so the
      exact fraction (t - start_k) / dur_k at t = lo, hi is in [0, 2], the
      exact position within P_k + |dp_k| of 0, and no step overflows;
    - ``t - start``, ``* dp`` and ``/ dur`` each round by a factor of at
      most 1 + u, which puts the quotient off by 6.02 u |dp_k|; adding p0
      and subtracting the two positions add u (P_k + 1.01 |dp_k|) each, so
      a computed gap is off from the exact one by at most the sum over both
      moves of u (8.05 |dp_k| + 2.01 P_k). A product or quotient that
      underflows is off by 2^-1075 instead, 2^-1075 / dur_k <= 2^-175 in
      the position; over the four positions, under 2^-172;
    - both exact slopes round to one float, so they differ by at most
      u (|slope_i| + |slope_j|), and over hi - lo <= 2 dur_k the exact
      gap changes by at most 2 u (|dp_i| + |dp_j|).

    So |d(hi) - d(lo)| <= u (18.1 |dp_i| + 4.02 P_i + 18.1 |dp_j| + 4.02
    P_j) + 2^-172 <= b_i + b_j <= 2e-12. The bound holds on any bus within
    about 100 m of position 0, and fails where a position's ulp nears
    1e-12; a move there is tested against every move its window reaches.

    In start order, runs of one class are taken whole: for each move, only
    the runs of other classes that its window reaches are expanded into
    pairs, so a phase of k moves of one slope costs O(k). Windows are
    expanded in blocks of about ``_PAIRS`` moves, so memory stays bounded.
    """
    q, start, dur = sh.qubit, sh.start, sh.duration
    end, dp = start + dur, p1 - p0
    slope = dp / dur + 0.0  # -0.0 joins 0.0
    shared = (dur >= 2.0**-900) & (dur <= 2.0**900) & (np.abs(start) <= 2.0**52 * dur)
    shared &= (np.abs(slope) >= 2.0**-1022) | (dp == 0)
    shared &= 2.0**-48 * (np.abs(dp) + np.maximum(np.abs(p0), np.abs(p1))) + 2.0**-170 <= 1e-12
    keys, rank = np.unique(slope[shared].view(np.int64), return_inverse=True)
    classes = len(keys) + np.arange(len(start))  # a class of its own
    classes[shared] = rank

    by_start = np.argsort(start, kind="stable")
    cls, m = classes[by_start], len(by_start)
    reach = np.searchsorted(start[by_start] + _EPS_T, end[by_start], side="left")
    last = np.maximum(reach - 1, np.arange(m))  # a window's last move, or its own
    head = np.append(True, cls[1:] != cls[:-1])[:m]
    run, run_start = np.cumsum(head) - 1, np.flatnonzero(head)
    run_stop = np.append(run_start[1:], m)

    def gap(t, i, j):
        return (p0[j] + dp[j] * (t - start[j]) / dur[j]) - (p0[i] + dp[i] * (t - start[i]) / dur[i])

    crossings = []
    width = np.cumsum(last - np.arange(m))
    blocks = np.searchsorted(width, np.arange(0, width[-1] if m else 0, _PAIRS), side="right")
    for first, stop in zip(blocks.tolist(), np.append(blocks[1:], m).tolist()):
        own = run[first:stop]
        a, r = _ragged(np.arange(first, stop), own + 1, run[last[first:stop]] - own)
        other = cls[run_start[r]] != cls[a]
        a, r = a[other], r[other]
        a, b = _ragged(a, run_start[r], np.minimum(run_stop[r], reach[a]) - run_start[r])
        i, j = by_start[a], by_start[b]
        lo = np.where(start[i] > start[j], start[i], start[j])
        hi = np.where(end[i] < end[j], end[i], end[j])
        d0, d1 = gap(lo, i, j), gap(hi, i, j)
        cross = (q[i] != q[j]) & ~(hi - lo <= _EPS_T) & (d0 * d1 < 0)
        cross &= np.minimum(np.abs(d0), np.abs(d1)) > 1e-12
        crossings += zip(b[cross].tolist(), a[cross].tolist())
    for b, a in sorted(crossings):
        j, i = by_start.item(b), by_start.item(a)
        yield Violation("d", op_index("s")[j], f"qubits {q.item(j)} and {q.item(i)} cross mid-flight")
