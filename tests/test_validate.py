import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbus.architecture import ArchitectureSpec, Location, position
from spinbus.circuit import Circuit, Gate, GateKind, decompose, slice_circuit
from spinbus.benchgen import BenchmarkSpec, generate
from spinbus.error_model import ErrorModelParams
from spinbus.mapper import STRATEGIES, map_strategy
from spinbus.placement import Placement
from spinbus.schedule import GateOp, ScheduleOps, ShuttleOp, schedule_from_json, schedule_to_json
import spinbus.validate as validate_module
from spinbus.validate import Violation, validate_schedule
from schedule_corpus import (
    MUTATIONS, NS, US, _mutation_corpus, _nth, _swap_destinations, _valid_schedules, arch, cz, h,
    handmade_schedule, run, shuttle,
)
from validator_oracle import oracle_validate_schedule


class TestValidator:
    def test_clean_mapper_output_passes(self, errp):
        for strategy in STRATEGIES:
            c = decompose(generate(BenchmarkSpec(family="ghz", n=5, seed=0)))
            run(strategy, c, 5, errp)  # asserts empty violation list

    def test_valid_schedules_validate_clean(self):
        for s in _valid_schedules():
            assert validate_schedule(s, s.arch) == oracle_validate_schedule(s, s.arch) == [], s.strategy

    def test_zone_capacity_violation(self):
        ops = [
            shuttle(arch(8), 0, Location.site(0), Location.zone(2), 0.0),
            shuttle(arch(8), 1, Location.site(1), Location.zone(2), 0.0),
            shuttle(arch(8), 2, Location.site(2), Location.zone(2), 0.0),
        ]
        s = handmade_schedule(*ops, spec=arch(8))
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "b" in rules

    def test_crossing_violation(self):
        ops = [
            shuttle(arch(8), 0, Location.site(0), Location.zone(3), 0.0),
            shuttle(arch(8), 1, Location.site(3), Location.zone(0), 0.0),
            shuttle(arch(8), 0, Location.zone(3), Location.site(0), 1e-6),
            shuttle(arch(8), 1, Location.zone(0), Location.site(1), 1e-6),
        ]
        s = handmade_schedule(*ops, spec=arch(8), final=[0, 1] + list(range(2, 8)))
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "d" in rules

    def test_site_capacity_violation(self):
        ops = [shuttle(arch(8), 0, Location.site(0), Location.zone(0), 0.0),
               shuttle(arch(8), 0, Location.zone(0), Location.site(1), 1e-6)]
        s = handmade_schedule(*ops, spec=arch(8), final=[1] + list(range(1, 8)))
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "c" in rules  # site 1 already parked qubit 1

    def test_stranded_qubit_violation(self):
        ops = [shuttle(arch(8), 0, Location.site(0), Location.zone(0), 0.0)]
        s = handmade_schedule(*ops, spec=arch(8))
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "e" in rules

    def test_error_fold_violation(self, errp):
        s = run("baseline", Circuit(2, (h(0),)), 2, errp)
        tampered = dataclasses.replace(s, per_qubit_error=(0.0, 0.0))
        rules = {v.rule for v in validate_schedule(tampered, s.arch)}
        assert "f" in rules

    def test_error_fold_tolerance_below_1(self, errp):
        # below 1 the tolerance is 1e-15, not 2e-15 and not relative to 2
        s = run("baseline", Circuit(2, (h(0),)), 2, errp)
        folded = s.per_qubit_error[0]
        tampered = dataclasses.replace(s, per_qubit_error=(folded + 1.5e-15, *s.per_qubit_error[1:]))
        assert 1e-15 < tampered.per_qubit_error[0] - folded < 2e-15 and tampered.per_qubit_error[0] < 1
        violations = validate_schedule(tampered, s.arch)
        assert [v.rule for v in violations] == ["f"]
        assert violations == oracle_validate_schedule(tampered, s.arch)

    def test_corpus_reaches_final_sites_mismatch(self):
        # swapping two final sites keeps them a bijection, so only the
        # comparison with the ops' last sites can catch it
        want = [Violation("e", None, "final_sites does not match op history")]
        swapped = [s for label, s in _mutation_corpus() if "/swap_final/" in label]
        assert swapped
        for s in swapped:
            assert validate_schedule(s, s.arch) == oracle_validate_schedule(s, s.arch) == want

    def test_total_time_violation(self, errp):
        s = run("baseline", Circuit(2, (h(0),)), 2, errp)
        tampered = dataclasses.replace(s, total_time=s.total_time * 2)
        rules = {v.rule for v in validate_schedule(tampered, s.arch)}
        assert "g" in rules

    def test_gate_without_operands_present(self):
        gate_only = handmade_schedule(GateOp(0, 0, 0.0, 20e-9), spec=arch(2), circuit=Circuit(2, (h(0),)))
        rules = {v.rule for v in validate_schedule(gate_only, arch(2))}
        assert "a" in rules


def _outcome(validate, s):
    """The violation list, or the type of the exception raised instead."""
    try:
        return validate(s, s.arch)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


def _reloaded(s):
    """``s`` read back through its JSON form, or None where the form cannot
    be read back (an out-of-range location)."""
    try:
        return schedule_from_json(schedule_to_json(s), s.circuit)
    except ValueError:
        return None


def _handmade_schedules():
    """(label, schedule, what the oracle must give: an exception type, a
    rule it reports, or None for no violation) for inputs the mutation
    corpus does not reach, on four sites, mostly with four qubits and a
    one-qubit and a two-qubit gate."""
    spec = arch(4)
    circuit = Circuit(4, (h(0), cz(1, 2)))
    site, zone = Location.site, Location.zone

    move = functools.partial(shuttle, spec)
    schedule = functools.partial(handmade_schedule, spec=spec, circuit=circuit)

    out_and_back = (move(0, site(0), zone(0), 0.0), move(0, zone(0), site(0), 1e-6))
    return [
        ("zero-distance shuttle", schedule(ShuttleOp(0, site(0), site(0), 0.0, 10.0, 0.0, 0.0)), "op"),
        ("velocity 0 on a move", schedule(move(0, site(0), zone(0), 0.0, velocity=0.0)), ValueError),
        (
            "negative velocity, zero distance",
            schedule(ShuttleOp(1, zone(1), zone(1), 0.0, -5.0, 0.0, 0.0)),
            "op",
        ),
        (
            # phase_error overflows at the first velocity and divides by zero
            # at the second; the first shuttle in op order raises
            "two velocities phase_error cannot evaluate",
            schedule(
                move(0, site(0), zone(0), 0.0, velocity=1e200),
                move(1, site(1), zone(1), 0.0, velocity=1e-200),
            ),
            OverflowError,
        ),
        ("zone n", schedule(ShuttleOp(0, site(0), zone(4), 0.0, 10.0, 1e-7, 0.0)), ValueError),
        ("duplicate initial site", schedule(*out_and_back, initial=(0, 0, 2, 3)), "c"),
        (
            "zero and negative durations",
            schedule(
                move(0, site(0), zone(0), 0.0, duration=0.0),
                move(1, site(1), zone(0), 0.0, duration=-1e-7),
                GateOp(0, 0, 1e-7, 0.0),
                GateOp(1, 0, 1e-7, -20 * NS),
                move(0, zone(0), site(0), 1e-6),
                move(1, zone(0), site(1), 1e-6),
            ),
            "op",
        ),
        (
            "three enter one zone at once",
            schedule(
                *(move(q, site(q), zone(1), 0.0) for q in range(3)),
                *(move(q, zone(1), site(q), 1e-6) for q in range(3)),
            ),
            "b",
        ),
        (
            "gate index out of range",
            schedule(*out_and_back, GateOp(2, 0, 1e-7, 20 * NS), GateOp(-1, 0, 1e-7, 20 * NS)),
            "a",
        ),
        (
            # zones are reported before sites, though site 0's first stay
            # comes first
            "a full zone and a doubly used site",
            schedule(
                *(move(q, site(s), zone(2), 0.0) for q, s in ((1, 0), (2, 2), (3, 3))),
                *(move(q, zone(2), site(s), 1e-6) for q, s in ((1, 0), (2, 2), (3, 3))),
                initial=(0, 0, 2, 3),
            ),
            "b",
        ),
        (
            # the move of negative duration arrives at zone 0 before the
            # first stay there, and it is the earlier stay that covers the gate
            "a gate covered by the stay of earlier arrival",
            schedule(
                move(0, site(0), zone(0), 0.0, duration=2 * US),
                move(0, zone(0), site(0), 2.5 * US),
                move(0, site(0), zone(0), 3 * US, duration=-2 * US),
                move(0, zone(0), site(0), 6 * US),
                GateOp(0, 0, 2.2 * US, 0.5 * US),
            ),
            "op",
        ),
        (
            # qubit 1 jumps over qubit 0 within _EPS_T, too briefly to test
            "a crossing shorter than _EPS_T",
            schedule(
                move(0, site(0), zone(1), 0.0),
                move(1, site(1), zone(0), 0.15 * US, duration=1e-16),
                move(0, zone(1), site(0), 1 * US),
                move(1, zone(0), site(1), 1 * US),
            ),
            "op",
        ),
        (
            # both moves arrive at 1e-7 s; a gate starting, or a move leaving,
            # exactly _EPS_T before the arrival is in time
            "a gate and a departure exactly _EPS_T early",
            schedule(
                move(0, site(0), zone(0), 0.0),
                GateOp(0, 0, 1e-7 - 1e-15, 20 * NS),
                move(0, zone(0), site(0), 1.2e-7),
                move(1, site(1), zone(0), 0.0),
                move(1, zone(0), site(1), 1e-7 - 1e-15),
            ),
            None,
        ),
        (
            # four sites for a two-qubit circuit: qubit 0's stay in zone 2
            # must not stand for qubit 1 in zone 0
            "more sites than qubits, operand elsewhere",
            schedule(
                move(0, site(0), zone(2), 0.0),
                GateOp(0, 0, 1 * US, 20 * NS),
                move(0, zone(2), site(0), 2 * US),
                circuit=Circuit(2, (h(1),)),
            ),
            "a",
        ),
        (
            # a gate in zone 3 of four, past the qubit count, with its operand there
            "more sites than qubits, operand in a zone past the qubit count",
            schedule(
                move(1, site(1), zone(3), 0.0),
                GateOp(0, 3, 1 * US, 20 * NS),
                move(1, zone(3), site(1), 2 * US),
                circuit=Circuit(2, (h(1),)),
            ),
            None,
        ),
    ]


class TestValidatorMatchesOracle:
    """The validator returns exactly the reference oracle's violations, in
    order, or raises the oracle's exception type."""

    def test_corpus(self):
        for label, s in _mutation_corpus():
            for schedule in (s, _reloaded(s)):
                if schedule is None:
                    continue
                want = _outcome(oracle_validate_schedule, schedule)
                assert _outcome(validate_schedule, schedule) == want, label

    def test_corpus_breaks_every_rule(self):
        # the corpus is only a check if the oracle finds each kind of fault
        # in it, and raises on some of it
        rules, raised = set(), 0
        for _, s in _mutation_corpus():
            got = _outcome(oracle_validate_schedule, s)
            if isinstance(got, type):
                raised += 1
            else:
                rules.update(v.rule for v in got)
        assert rules >= {"op", "a", "c", "d", "e", "f", "g"}
        assert raised > 0

    def test_swap_destinations_exchanges_two(self):
        # the mutation once gave op b the destination op a had just taken
        # from it, so only op a changed
        s = _valid_schedules()[0]
        a, b = _nth(s, ShuttleOp, 0), _nth(s, ShuttleOp, 1)
        before, after = list(s.ops), list(_swap_destinations(s, 0, 1).ops)
        assert before[a].dst != before[b].dst
        assert [k for k, (x, y) in enumerate(zip(before, after)) if x != y] == [a, b]
        assert (after[a].dst, after[b].dst) == (before[b].dst, before[a].dst)

    def test_stays_out_of_time_order(self):
        # qubit 0 reaches zone 0 three times; a slow second move arrives
        # after the third, so its stays there are out of time order, and only
        # the third covers the gate
        site, zone = Location.site(0), Location.zone(0)
        moves = [
            (site, zone, 0.5, 0.5), (zone, site, 1.5, 0.1), (site, zone, 1.7, 8.3),
            (zone, site, 2.0, 0.1), (site, zone, 2.2, 0.3), (zone, site, 5.0, 0.1),
        ]
        ops = [ShuttleOp(0, a, b, t * US, 10.0, d * US, 0.0) for a, b, t, d in moves]
        s = handmade_schedule(*ops, GateOp(0, 0, 3.0 * US, 20 * NS), spec=arch(2), circuit=Circuit(2, (h(0),)))
        want = oracle_validate_schedule(s, s.arch)
        assert "a" not in {v.rule for v in want}
        assert validate_schedule(s, s.arch) == want

    def test_handmade(self):
        for label, s, expected in _handmade_schedules():
            want = _outcome(oracle_validate_schedule, s)
            if isinstance(expected, type):
                assert want is expected, label
            else:
                assert want == [] if expected is None else expected in {v.rule for v in want}, label
            for schedule in (s, _reloaded(s)):
                if schedule is not None:
                    assert _outcome(validate_schedule, schedule) == _outcome(
                        oracle_validate_schedule, schedule
                    ), label

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.integers(0, 9),
        steps=st.lists(
            st.tuples(
                st.sampled_from(sorted(MUTATIONS)),
                st.integers(0, 2**16),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_random_mutations(self, base, steps):
        s = _valid_schedules()[base]
        for name, i, j in steps:
            s = MUTATIONS[name](s, i, j)
        for schedule in (s, _reloaded(s)):
            if schedule is not None:
                want = _outcome(oracle_validate_schedule, schedule)
                assert _outcome(validate_schedule, schedule) == want


def _coverage_cases():
    """(label, schedule, the gate ops rule (a) flags, by op index) for the
    inputs that stress rule (a)'s one sorted stream of zone stays and
    operands: on four sites, with an H on qubit 0 and a CZ on qubits 1, 2."""
    spec, eps = arch(4), validate_module._EPS_T
    site, zone = Location.site, Location.zone
    move = functools.partial(shuttle, spec)
    schedule = functools.partial(handmade_schedule, spec=spec, circuit=Circuit(4, (h(0), cz(1, 2))))
    # qubit 0 in zone 1 from 0.3 to 1 us, and nowhere else
    in_zone_1 = (move(0, site(0), zone(1), 0.0), move(0, zone(1), site(0), 1 * US))

    # qubit 0 reaches zone 0 exactly _EPS_T after one H starts, and more
    # than _EPS_T after another that starts one ulp earlier
    arrive = move(0, site(0), zone(0), 0.0)
    h_start = arrive.end - eps
    assert h_start + eps == arrive.end and math.nextafter(h_start, 0.0) + eps < arrive.end

    # the CZ starts exactly _EPS_T before qubit 2 arrives and ends exactly
    # _EPS_T after qubit 1 departs, or one ulp later
    q2_in = move(2, site(2), zone(1), 0.2 * US)
    cz_start = q2_in.end - eps
    cz_end = GateOp(1, 1, cz_start, spec.t_2q).end
    q1_out = move(1, zone(1), site(1), cz_end - eps)
    cz_late = math.nextafter(cz_end, 1.0) - cz_start  # ends one ulp later
    assert cz_start + eps == q2_in.end and q1_out.start + eps == cz_end < cz_start + cz_late

    return [
        (
            # qubit 0 visits zone 1 twice, then zone 0, a lower zone, until 10 us
            "one zone visited twice, the gate in the second visit",
            schedule(
                move(0, site(0), zone(1), 0.0), move(0, zone(1), site(0), 1 * US),
                move(0, site(0), zone(1), 2 * US), move(0, zone(1), site(0), 3 * US),
                move(0, site(0), zone(0), 4 * US), move(0, zone(0), site(0), 10 * US),
                GateOp(0, 1, 2.5 * US, 20 * NS), GateOp(0, 1, 1.5 * US, 20 * NS),
            ),
            [7],
        ),
        (
            # a move of negative duration takes qubit 0 from zone 1 back to
            # zone 0 at 0.05 us: its stays there, 0.1-0.5 us and 0.05-6 us,
            # overlap, and the later arrival does not cover the gate at 1 us;
            # its stay in zone 1, 0.7-0.8 us, does not cover the gate there
            "overlapping stays after a move of negative duration",
            schedule(
                move(0, site(0), zone(0), 0.0), move(0, zone(0), zone(1), 0.5 * US),
                move(0, zone(1), zone(0), 0.8 * US, duration=-0.75 * US), move(0, zone(0), site(0), 6 * US),
                GateOp(0, 0, 1 * US, 20 * NS), GateOp(0, 1, 1 * US, 20 * NS),
            ),
            [5],
        ),
        (
            "gates of duration 0, in a stay and at time 0 with no stay",
            schedule(*in_zone_1, GateOp(0, 1, 0.5 * US, 0.0), GateOp(0, 0, 0.0, 0.0)),
            [3],
        ),
        (
            "a gate starting exactly _EPS_T before its operand arrives, and one an ulp earlier",
            schedule(
                arrive, GateOp(0, 0, h_start, 20 * NS), GateOp(0, 0, math.nextafter(h_start, 0.0), 20 * NS),
                move(0, zone(0), site(0), 1 * US),
            ),
            [2],
        ),
        (
            "a CZ from exactly _EPS_T before one operand arrives to _EPS_T after the other departs",
            schedule(
                move(1, site(1), zone(1), 0.0), q2_in, GateOp(1, 1, cz_start, spec.t_2q),
                GateOp(1, 1, cz_start, cz_late), q1_out,
                move(2, zone(1), site(2), 1 * US),
            ),
            [3],
        ),
        ("an operand at a zone no qubit visits", schedule(*in_zone_1, GateOp(0, 2, 0.5 * US, 20 * NS)), [2]),
        (
            "gate zones -1 and 2^62",
            schedule(*in_zone_1, GateOp(0, -1, 0.0, 0.0), GateOp(0, 2**62, 0.5 * US, 20 * NS)),
            [2, 3],
        ),
        (
            # a gate at -1e308 s lasting -1e308 s ends at -inf
            "a gate whose end overflows to -inf",
            schedule(*in_zone_1, GateOp(0, 1, -1e308, -1e308)),
            [2],
        ),
    ]


class TestCoverage:
    """Rule (a) sorts zone stays and gate operands into one stream by
    (qubit, zone, time), a stay first at equal times, and gives each
    operand the latest departure before it in its (qubit, zone) group."""

    @pytest.mark.parametrize("case", _coverage_cases(), ids=lambda case: case[0])
    def test_matches_oracle(self, case):
        _, s, flagged = case
        want = oracle_validate_schedule(s, s.arch)
        assert [v.op_index for v in want if v.rule == "a"] == flagged
        for schedule in (s, _reloaded(s)):
            if schedule is not None:
                assert _outcome(validate_schedule, schedule) == _outcome(oracle_validate_schedule, schedule)


def _with_gate_durations(s, durations):
    """``s`` with its gate ops lasting ``durations``, in op order."""
    gates = s.ops.gates._replace(duration=np.array(durations, dtype=np.float64))
    return dataclasses.replace(s, ops=ScheduleOps(s.ops.order, s.ops.shuttles, gates))


class TestGateDurations:
    """A gate op lasts its kind's time, bit for bit, and every measurement
    one shared duration >= 0; each of these once validated to []."""

    @staticmethod
    def _parallel(circuit, measure_duration=None):
        n = circuit.num_qubits
        return map_strategy("parallel", slice_circuit(circuit), arch(n), Placement.identity(n), ErrorModelParams(),
                            measure_duration)

    def _check(self, s, durations, flagged):
        """``s`` with ``durations`` breaks the rule at the ``flagged`` gate
        ops (indices among the gate ops), alike in both validators."""
        bad = _with_gate_durations(s, durations)
        gate_ops = [k for k, kind in enumerate(s.ops.order) if kind == "g"]
        violations = validate_schedule(bad, bad.arch)
        assert violations == oracle_validate_schedule(bad, bad.arch)
        assert {v.op_index for v in violations if v.rule == "op"} == {gate_ops[g] for g in flagged}
        assert validate_schedule(s, s.arch) == []

    def test_one_and_two_qubit_gates(self):
        s = self._parallel(Circuit(3, (h(0), cz(1, 2))))
        assert s.ops.gates.duration.tolist() == [20 * NS, 45 * NS]
        self._check(s, [-20 * NS, -45 * NS], [0, 1])  # negated
        self._check(s, [1e-12, 1e-12], [0, 1])
        self._check(s, [0.0, 45 * NS], [0])  # H lasting 0
        self._check(s, [20 * NS, 1e-12], [1])  # CZ lasting 1 ps
        self._check(s, [20 * NS, math.nextafter(45 * NS, 1.0)], [1])  # bit for bit

    def test_measurements_share_one_duration(self):
        # one layer, whose gate phase the CZ sets: a measurement lasting up
        # to 45 ns ends before its qubit leaves, so rule (a) cannot see it
        measure = [Gate(GateKind.MEASURE, (q,)) for q in (2, 3)]
        s = self._parallel(Circuit(5, (cz(0, 1), *measure, h(4))), 10 * NS)
        assert s.ops.gates.duration.tolist() == [45 * NS, 10 * NS, 10 * NS, 20 * NS]
        self._check(s, [45 * NS, 10 * NS, 30 * NS, 20 * NS], [2])  # one longer
        self._check(s, [45 * NS, 30 * NS, 10 * NS, 20 * NS], [2])  # the first one longer
        self._check(s, [45 * NS, -10 * NS, -10 * NS, 20 * NS], [1, 2])  # negated
        self._check(s, [45 * NS, 0.0, 0.0, 20 * NS], [])  # any one duration >= 0
        bad = _with_gate_durations(s, [45 * NS, -10 * NS, 10 * NS, 20 * NS])
        assert [v.message for v in validate_schedule(bad, bad.arch)] == [
            f"measurement duration {-10 * NS} is not finite and >= 0",
            f"measurement duration {10 * NS} != {-10 * NS}",
        ]

    def test_unknown_gates_and_barriers_are_skipped(self):
        # rule (a) alone reports an unknown gate index; a barrier has no duration
        c = Circuit(3, (h(0), Gate(GateKind.BARRIER, (0, 1)), cz(1, 2)))
        s = handmade_schedule(GateOp(1, 1, 0.0, 1.0), GateOp(7, 0, 0.0, -1.0), spec=arch(3), circuit=c)
        violations = validate_schedule(s, s.arch)
        assert [v.rule for v in violations] == ["a", "a", "a"]
        assert violations == oracle_validate_schedule(s, s.arch)


# Rule (d) near its skip bound: moves set against a leading one on buses
# from the default 2 um pitch to 2 km, where a position's ulp passes 1e-12
# and two moves of one slope can read as crossing.
_PITCHES = (2 * US, 1.0, 10.0, 2e4, 2e6)
_VELOCITIES = (10.0, 7.3, 3.7)


def _code_location(code):
    return Location.zone(code // 2) if code % 2 else Location.site(code // 2)


def _lockstep(spec, q, leader, via, nudge=0, lag=0.0):
    """A move at the leader's velocity from ``via`` on its path to its
    destination, leaving ``lag`` seconds after the leader passes: with no
    lag, one exact position in exact arithmetic; one slope, or ``nudge``
    ulps of duration off it."""
    pa, pc = position(leader.src, spec), position(via, spec)
    start = leader.start + abs(pc - pa) / leader.velocity + lag
    return shuttle(spec, q, via, leader.dst, start, leader.velocity, nudge)


@st.composite
def _moves_against_a_leader(draw):
    """A leading move and one to three others: in any direction at any
    velocity, back along its path, in lockstep with it, a few ulps of slope
    off it, or starting or ending within a few _EPS_T of its end or start."""
    pitch = draw(st.sampled_from(_PITCHES))
    spec = ArchitectureSpec(n_sites=8, site_pitch=pitch, zone_offset=pitch / 2)
    code = st.integers(0, 15)
    a = draw(code)
    b = draw(code.filter(lambda c: c != a))
    src, dst = _code_location(a), _code_location(b)
    v = draw(st.sampled_from(_VELOCITIES))
    leader = shuttle(spec, 0, src, dst, draw(st.floats(0, 3)) * pitch / v, v)
    ops = [leader]
    for q in range(1, draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(("any", "opposite", "lockstep", "ulp", "touch")))
        frac = draw(st.floats(-1, 1.5))
        v = draw(st.sampled_from(_VELOCITIES))
        c = draw(code)
        other = _code_location(draw(code.filter(lambda x: x != c)))
        if kind == "any":  # any direction, any velocity
            op = shuttle(spec, q, _code_location(c), other, leader.start + frac * leader.duration, v)
        elif kind == "opposite":
            op = shuttle(spec, q, dst, src, leader.start + frac * leader.duration, v)
        elif kind in ("lockstep", "ulp"):  # "ulp": slopes a few ulps apart
            between = [x for x in range(16) if min(a, b) < x < max(a, b)] or [a]
            via = _code_location(draw(st.sampled_from(between)))
            nudge = draw(st.sampled_from((-4096, -2, -1, 1, 2, 4096))) if kind == "ulp" else 0
            lag = draw(st.sampled_from((0.0, 3e-12, -3e-12))) / leader.velocity  # 3 pm behind or ahead
            op = _lockstep(spec, q, leader, via, nudge, lag)
        else:  # starting, or ending, within a few _EPS_T of the leader's end or start
            op = shuttle(spec, q, _code_location(c), other, 0.0, v)
            k = draw(st.sampled_from((-2, -1, 0, 1, 2)))
            start = leader.end + k * 1e-15 if draw(st.booleans()) else leader.start + k * 1e-15 - op.duration
            op = dataclasses.replace(op, start=start)
        ops.append(op)
    return handmade_schedule(*ops, spec=spec, circuit=Circuit(4, ()))


class TestCrossingsNearTheBound:
    """Rule (d) skips only pairs whose computed gap cannot cross the 1e-12
    guard, and gives the oracle's list wherever the bound does not hold."""

    @settings(max_examples=300, deadline=None)
    @given(s=_moves_against_a_leader())
    def test_moves_against_a_leader(self, s):
        for schedule in (s, _reloaded(s)):
            if schedule is not None:
                assert _outcome(validate_schedule, schedule) == _outcome(oracle_validate_schedule, schedule)

    @pytest.mark.parametrize(
        "pitch, leader, via, nudge, lag",
        [
            # one slope to the bit and, in exact arithmetic, one position: on
            # a 150 km bus the rounding of the positions alone reads as a
            # crossing, so the bound must fail and the pair be tested
            (2e4, (Location.zone(2), Location.site(0), 26.65880457380435, 3.7), Location.zone(0), 0, 0.0),
            # on a 75 m bus, slopes 4096 ulps apart drift through a 3 pm lag
            (10.0, (Location.zone(3), Location.zone(6), 2.8307428854833936, 10.0), Location.site(4), -4096, 3e-13),
        ],
    )
    def test_lockstep_moves_that_cross(self, pitch, leader, via, nudge, lag):
        spec = ArchitectureSpec(n_sites=8, site_pitch=pitch, zone_offset=pitch / 2)
        leader = shuttle(spec, 0, *leader)
        follower = _lockstep(spec, 1, leader, via, nudge, lag)
        slopes = [(position(op.dst, spec) - position(op.src, spec)) / op.duration for op in (leader, follower)]
        assert (slopes[0] == slopes[1]) is (nudge == 0)
        s = handmade_schedule(leader, follower, spec=spec, circuit=Circuit(4, ()))
        want = oracle_validate_schedule(s, spec)
        assert "d" in {v.rule for v in want}
        assert validate_schedule(s, spec) == want

    def test_a_phase_of_one_slope_tests_no_pair(self, monkeypatch):
        # 2,000 qubits leave for their zones at once and come back: about
        # 4 million overlapping pairs, all of one slope out and one back
        n = 2000
        spec = arch(n)
        out = [shuttle(spec, q, Location.site(q), Location.zone(q), 0.0, 10.0) for q in range(n)]
        back = [shuttle(spec, q, Location.zone(q), Location.site(q), 1 * US, 10.0) for q in range(n)]
        s = handmade_schedule(*out, *back, spec=spec)
        expanded = []
        ragged = validate_module._ragged

        def counted(rows, first, counts):
            expanded.append(int(counts.sum()))
            return ragged(rows, first, counts)

        monkeypatch.setattr(validate_module, "_ragged", counted)
        assert validate_schedule(s, spec) == []
        assert expanded and sum(expanded) == 0
