import collections.abc
import dataclasses
import functools
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbus.architecture import ArchitectureSpec, Location, distance, position
from spinbus.circuit import (
    Circuit,
    Gate,
    GateKind,
    SlicedCircuit,
    decompose,
    slice_circuit,
)
from spinbus.error_model import ErrorModelParams, optimal_velocity, phase_error
from spinbus.benchgen import FAMILIES, BenchmarkSpec, generate
from spinbus.mapper import STRATEGIES, STRATEGY_FLAGS, _episodes, map_strategy
from spinbus.metrics import summarize
from spinbus.placement import (
    Placement,
    build_interaction_graph,
    random_placement,
    spectral_placement,
)
from spinbus.rng import SplitMix64
from spinbus.schedule import (
    GateOp, Schedule, ScheduleOps, ShuttleOp, _ns_json, _ns_texts, schedule_from_json, schedule_to_json,
)
import spinbus.validate as validate_module
from spinbus.validate import validate_schedule
from oracles import _schedulable, oracle_map, oracle_schedule_to_json, oracle_summary_counts
from validator_oracle import oracle_validate_schedule

US = 1e-6
NS = 1e-9


def cz(a, b):
    return Gate(GateKind.CZ, (a, b))


def h(q):
    return Gate(GateKind.H, (q,))


def arch(n):
    return ArchitectureSpec(n_sites=n)


def ops_of(s, kind):
    return [op for op in s.ops if isinstance(op, kind)]


def run(strategy, circuit, n, errp, placement=None, **kwargs):
    sc = slice_circuit(circuit)
    placement = placement or Placement.identity(n)
    s = map_strategy(strategy, sc, arch(n), placement, errp, **kwargs)
    assert validate_schedule(s, arch(n)) == []
    return s


class TestBaseline:
    def test_two_qubit_episode_timing(self, errp):
        # CZ on sites 2 and 3 -> central zone 3; distances 3 um and 1 um
        s = run("baseline", Circuit(4, (cz(2, 3),)), 4, errp)
        shuttles = ops_of(s, ShuttleOp)
        gate = ops_of(s, GateOp)[0]
        assert gate.zone == 3
        dists = sorted(
            distance(op.src, op.dst, s.arch) for op in shuttles if op.start == 0.0
        )
        assert dists == pytest.approx([1e-6, 3e-6], rel=1e-12)
        assert gate.start == pytest.approx(0.3 * US)
        assert gate.duration == pytest.approx(45 * NS)
        assert s.total_time == pytest.approx(0.3 * US + 45 * NS + 0.3 * US)

    def test_single_qubit_uses_own_zone(self, errp):
        s = run("baseline", Circuit(6, (h(5),)), 6, errp)
        assert ops_of(s, GateOp)[0].zone == 5
        assert s.total_time == pytest.approx(0.1 * US + 20 * NS + 0.1 * US)

    def test_empty_circuit(self, errp):
        s = run("baseline", Circuit(3, ()), 3, errp)
        assert list(s.ops) == []
        assert s.total_time == 0.0
        assert s.per_qubit_error == (0.0, 0.0, 0.0)

    def test_layout_static(self, errp):
        c = Circuit(5, (cz(0, 4), h(2), cz(1, 3)))
        s = run("baseline", c, 5, errp)
        assert s.final_sites == s.initial_sites

    def test_gates_strictly_sequential(self, errp):
        c = Circuit(4, (h(0), h(1), h(2)))
        s = run("baseline", c, 4, errp)
        gates = ops_of(s, GateOp)
        for earlier, later in zip(gates, gates[1:]):
            assert later.start >= earlier.end

    def test_placement_respected(self, errp):
        # virtual qubit 0 parked at site 3: its zone is 3, not 0
        placement = Placement((3, 0, 1, 2))
        s = run("baseline", Circuit(4, (h(0),)), 4, errp, placement)
        assert ops_of(s, GateOp)[0].zone == 3


class TestParallel:
    def test_slice_episode_from_fig(self, errp):
        # slice {CZ(sites 2,5), H(site 0)} -> zones 5 and 0; site 2 at 4 um
        # travels to zone 5 at 11 um: out phase 0.7 us
        c = Circuit(6, (cz(2, 5), h(0)))
        s = run("parallel", c, 6, errp)
        zones = sorted(op.zone for op in ops_of(s, GateOp))
        assert zones == [0, 5]
        out_phase = max(op.end for op in ops_of(s, ShuttleOp) if op.start == 0.0)
        assert out_phase == pytest.approx(0.7 * US)
        for gate in ops_of(s, GateOp):
            assert gate.start == pytest.approx(0.7 * US)

    def test_single_gate_slice_matches_baseline_for_adjacent_pair(self, errp):
        # for adjacent sites max(i,j) equals the central zone, so the two
        # strategies coincide gate for gate
        c = Circuit(4, (cz(2, 3),))
        par = run("parallel", c, 4, errp)
        base = run("baseline", c, 4, errp)
        assert par.total_time == pytest.approx(base.total_time)

    def test_two_single_qubit_gates_share_a_slice(self, errp):
        c = Circuit(4, (h(1), h(2)))
        s = run("parallel", c, 4, errp)
        assert sorted(op.zone for op in ops_of(s, GateOp)) == [1, 2]
        assert s.total_time == pytest.approx(0.1 * US + 20 * NS + 0.1 * US)

    def test_zone_assignments_always_distinct(self, errp):
        # exhaustive over disjoint gate pairs on 8 sites
        n = 8
        singles = [(q,) for q in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        operands = singles + pairs

        def zone(ops):
            return max(ops)

        for g1 in operands:
            for g2 in operands:
                if set(g1) & set(g2):
                    continue
                assert zone(g1) != zone(g2)

    def test_returns_to_original_sites(self, errp):
        c = Circuit(6, (cz(0, 5), cz(1, 3), h(4)))
        s = run("parallel", c, 6, errp)
        assert s.final_sites == s.initial_sites


class TestMinReturn:
    def test_hand_simulated_six_qubit_slice(self, errp):
        # one slice: CZ(q0@0, q5@5) in zone 5, CZ(q3@3, q4@4) in zone 4.
        # Zone 5 occupants take the two rightmost free sites under 11 um:
        # q0 -> site 5 (1 um back), q5 -> site 4 (3 um back). Zone 4 then
        # takes sites 3 and 0.
        c = Circuit(6, (cz(0, 5), cz(3, 4)))
        s = run("min_return", c, 6, errp)
        returns = {
            op.qubit: op for op in ops_of(s, ShuttleOp) if op.src.kind.value == "zone"
        }
        assert returns[0].dst == Location.site(5)
        assert distance(returns[0].src, returns[0].dst, s.arch) == pytest.approx(1e-6)
        assert returns[5].dst == Location.site(4)
        assert distance(returns[5].src, returns[5].dst, s.arch) == pytest.approx(3e-6)
        assert returns[3].dst == Location.site(3)
        assert returns[4].dst == Location.site(0)
        assert s.final_sites == (5, 1, 2, 3, 0, 4)

    def test_single_qubit_gate_returns_home_when_free(self, errp):
        s = run("min_return", Circuit(4, (h(2),)), 4, errp)
        assert s.final_sites == s.initial_sites

    def test_all_returns_move_left(self, errp):
        for seed in range(10):
            c = decompose(generate(BenchmarkSpec(family="random", n=8, seed=seed)))
            s = run("min_return", c, 8, errp)
            for op in ops_of(s, ShuttleOp):
                src_pos = position(op.src, s.arch)
                dst_pos = position(op.dst, s.arch)
                if op.src.is_site:
                    assert dst_pos > src_pos  # outbound: rightward
                else:
                    assert dst_pos < src_pos  # return: leftward

    def test_total_time_rarely_worse_than_parallel(self, errp):
        # golden regression: 45 of 50 seeded random circuits map at least
        # as fast under min_return as under parallel
        wins = 0
        for seed in range(50):
            c = decompose(generate(BenchmarkSpec(family="random", n=8, seed=seed)))
            sc = slice_circuit(c)
            p = Placement.identity(8)
            tm = map_strategy("min_return", sc, arch(8), p, errp).total_time
            tp = map_strategy("parallel", sc, arch(8), p, errp).total_time
            wins += tm <= tp + 1e-15
        assert wins == 45


class TestTunableVelocity:
    def test_phase_velocity_is_the_optimizer_output(self, errp):
        # slice with max out-distance 3 um: all outbound shuttles share
        # optimal_velocity(3 um)
        c = Circuit(4, (cz(2, 3),))
        s = run("tunable_velocity", c, 4, errp)
        v_out = optimal_velocity(3e-6, errp)
        outs = [op for op in ops_of(s, ShuttleOp) if op.src.is_site]
        assert {op.velocity for op in outs} == {v_out}
        rets = [op for op in ops_of(s, ShuttleOp) if not op.src.is_site]
        assert {op.velocity for op in rets} == {optimal_velocity(3e-6, errp)}

    def test_out_and_return_velocities_differ_when_distances_do(self, errp):
        # slice {CZ(0,5), CZ(3,4)}: out max 11 um, but the min-return sites
        # shrink the return max to 9 um, so the two phases tune differently
        c = Circuit(6, (cz(0, 5), cz(3, 4)))
        s = run("tunable_velocity", c, 6, errp)
        outs = {op.velocity for op in ops_of(s, ShuttleOp) if op.src.is_site}
        rets = {op.velocity for op in ops_of(s, ShuttleOp) if not op.src.is_site}
        assert outs == {optimal_velocity(11e-6, errp)}
        assert rets == {optimal_velocity(9e-6, errp)}
        assert outs != rets

    def test_beats_fixed_velocity_for_max_distance_qubit(self, errp):
        c = Circuit(6, (cz(0, 5),))
        tun = run("tunable_velocity", c, 6, errp)
        fixed = run("min_return", c, 6, errp)
        assert tun.per_qubit_error[0] <= fixed.per_qubit_error[0]

    def test_short_phase_well_defined(self, errp):
        # all operands adjacent to their zones: 1 um phases
        c = Circuit(4, (h(1), h(2)))
        s = run("tunable_velocity", c, 4, errp)
        v = optimal_velocity(1e-6, errp)
        assert all(op.velocity == v for op in ops_of(s, ShuttleOp))
        assert v > 0


class TestSwapReturn:
    def test_rule_direction(self, errp):
        # q3 next meets q0 (far left), q4 next meets q7 (far right):
        # q3 takes the left return site, q4 the right one
        c = Circuit(8, (cz(3, 4), cz(0, 3), cz(4, 7)))
        s = run("swap_return", c, 8, errp)
        first_returns = {
            op.qubit: op.dst
            for op in ops_of(s, ShuttleOp)
            if op.src == Location.zone(4)
        }
        assert first_returns[3] == Location.site(3)
        assert first_returns[4] == Location.site(4)

    def test_swapped_when_futures_reversed(self, errp):
        # q3 next meets q7 (far right), q4 next meets q0 (far left)
        c = Circuit(8, (cz(3, 4), cz(3, 7), cz(0, 4)))
        s = run("swap_return", c, 8, errp)
        first_returns = {
            op.qubit: op.dst
            for op in ops_of(s, ShuttleOp)
            if op.src == Location.zone(4)
        }
        assert first_returns[3] == Location.site(4)
        assert first_returns[4] == Location.site(3)
        # min_return's fixed pairing puts q3 (smaller index) on the right
        s_min = run("min_return", c, 8, errp)
        min_returns = {
            op.qubit: op.dst
            for op in ops_of(s_min, ShuttleOp)
            if op.src == Location.zone(4)
        }
        assert min_returns[3] == Location.site(4)
        assert min_returns[4] == Location.site(3)

    def test_one_sided_future_takes_closest_site(self, errp):
        # only q3 has a future partner (q0, far left): q3 gets the site
        # minimizing that distance even though min_return would hand it the
        # rightmost one
        c = Circuit(8, (cz(3, 4), cz(0, 3)))
        s = run("swap_return", c, 8, errp)
        first_returns = {
            op.qubit: op.dst
            for op in ops_of(s, ShuttleOp)
            if op.src == Location.zone(4)
        }
        assert first_returns[3] == Location.site(3)
        assert first_returns[4] == Location.site(4)

    def test_no_future_matches_tunable_velocity(self, errp):
        # with no future two-qubit gates the return rule falls back to the
        # min-return pairing; movements equal tunable_velocity's exactly
        c = Circuit(6, (cz(1, 4), h(0)))
        sw = run("swap_return", c, 6, errp)
        tv = run("tunable_velocity", c, 6, errp)
        assert sw.ops == tv.ops

    def test_error_regression_against_tunable_velocity(self, errp):
        # golden fraction: under the same velocity rule the future-aware
        # returns beat tunable_velocity's on 41 of 50 seeded random circuits
        wins = 0
        for seed in range(50):
            c = decompose(generate(BenchmarkSpec(family="random", n=8, seed=seed)))
            sc = slice_circuit(c)
            p = Placement.identity(8)
            plain = summarize(map_strategy("tunable_velocity", sc, arch(8), p, errp))
            swapped = map_strategy("swap_return", sc, arch(8), p, errp)
            assert validate_schedule(swapped, arch(8)) == []
            wins += summarize(swapped).mean_error <= plain.mean_error + 1e-18
        assert wins == 41


class TestScheduleInvariants:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_gate_completeness_and_order(self, errp, strategy):
        c = decompose(generate(BenchmarkSpec(family="qft", n=6, seed=0)))
        s = run(strategy, c, 6, errp)
        indices = [op.gate_index for op in ops_of(s, GateOp)]
        assert sorted(indices) == list(range(len(c.gates)))
        by_start = sorted(ops_of(s, GateOp), key=lambda op: (op.start, op.gate_index))
        for q in range(6):
            mine = [op.gate_index for op in by_start if q in c.gates[op.gate_index].qubits]
            assert mine == sorted(mine)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_error_accounting_fold(self, errp, strategy):
        c = decompose(generate(BenchmarkSpec(family="qaoa", n=6, seed=1)))
        s = run(strategy, c, 6, errp)
        folded = [0.0] * 6
        for op in ops_of(s, ShuttleOp):
            folded[op.qubit] += op.delta_c
        for got, want in zip(s.per_qubit_error, folded):
            assert got == want

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "circuit",
        [
            Circuit(4, (cz(3, 1),)),
            decompose(generate(BenchmarkSpec(family="qpe", n=16, seed=0))),
            decompose(generate(BenchmarkSpec(family="random", n=6, seed=0))),
            decompose(generate(BenchmarkSpec(family="random", n=16, seed=0))),
        ],
        ids=["cz31", "qpe16", "random6", "random16"],
    )
    def test_phase_shuttles_in_ascending_qubit_order(self, errp, strategy, circuit):
        # every strategy emits the shuttles of one phase in qubit order,
        # whatever the operand order of the gates
        s = run(strategy, circuit, circuit.num_qubits, errp)
        by_start: dict[float, list[int]] = {}
        for op in ops_of(s, ShuttleOp):
            by_start.setdefault(op.start, []).append(op.qubit)
        for qubits in by_start.values():
            assert qubits == sorted(qubits)

    def test_baseline_ignores_slicing(self, errp):
        c = decompose(generate(BenchmarkSpec(family="qft", n=6, seed=0)))
        one_per_layer = SlicedCircuit(c, tuple((i,) for i in range(len(c.gates))))
        args = (arch(6), Placement((3, 0, 5, 1, 4, 2)), errp)
        sliced = map_strategy("baseline", slice_circuit(c), *args)
        assert map_strategy("baseline", one_per_layer, *args) == sliced

    def test_untouched_qubits_accrue_nothing(self, errp):
        s = run("min_return", Circuit(6, (cz(0, 1),)), 6, errp)
        for q in (2, 3, 4, 5):
            assert s.per_qubit_error[q] == 0.0

    def test_determinism_byte_identical(self, errp):
        c = decompose(generate(BenchmarkSpec(family="graph_state", n=8, seed=4)))
        a = run("swap_return", c, 8, errp)
        b = run("swap_return", c, 8, errp)
        assert schedule_to_json(a) == schedule_to_json(b)

    def test_measure_scheduling_flag(self, errp):
        c = Circuit(3, (h(0), Gate(GateKind.MEASURE, (0,))))
        stripped = run("min_return", c, 3, errp)
        assert len(ops_of(stripped, GateOp)) == 1
        timed = run("min_return", c, 3, errp, measure_duration=100 * NS)
        assert len(ops_of(timed, GateOp)) == 2
        measure_op = ops_of(timed, GateOp)[1]
        assert measure_op.duration == pytest.approx(100 * NS)

    @pytest.mark.parametrize(
        "value, error",
        [(-50 * NS, ValueError), (math.nan, ValueError), (math.inf, ValueError),
         ("5", TypeError), (True, TypeError), (None, None), (0, None), (np.float32(5e-8), None)],
    )
    def test_measure_duration_checked(self, errp, value, error):
        sc = slice_circuit(Circuit(3, (h(0), Gate(GateKind.MEASURE, (1,)))))
        args = ("parallel", sc, arch(3), Placement.identity(3), errp, value)
        if error is None:
            assert validate_schedule(map_strategy(*args), arch(3)) == []
        else:
            with pytest.raises(error, match="measure_duration"):
                map_strategy(*args)

    def test_barrier_consumes_no_time(self, errp):
        plain = run("parallel", Circuit(3, (h(0), h(0))), 3, errp)
        fenced = run(
            "parallel", Circuit(3, (h(0), Gate(GateKind.BARRIER, (0, 1, 2)), h(0))), 3, errp
        )
        assert fenced.total_time == pytest.approx(plain.total_time)

    def test_mapper_rejects_extended_basis(self, errp):
        sc = SlicedCircuit(Circuit(2, (Gate(GateKind.CX, (0, 1)),)), ((0,),))
        with pytest.raises(ValueError):
            map_strategy("baseline", sc, arch(2), Placement.identity(2), errp)

    @pytest.mark.parametrize(
        "strategy", ["swap_return_fixed_v", STRATEGY_FLAGS["swap_return"]], ids=("unknown-name", "flag-row"),
    )
    def test_only_a_strategy_name_maps(self, errp, strategy):
        # a flag tuple is not a name: the five rows are the only configurations
        sc = slice_circuit(Circuit(2, (cz(0, 1),)))
        with pytest.raises(ValueError, match=re.escape(f"unknown strategy {strategy!r}")):
            map_strategy(strategy, sc, arch(2), Placement.identity(2), errp)

    def test_size_mismatch_rejected(self, errp):
        sc = SlicedCircuit(Circuit(2, ()), ())
        with pytest.raises(ValueError):
            map_strategy("baseline", sc, arch(4), Placement.identity(4), errp)


def _same_schedule(s, ref):
    """Equal ops, bit-equal times and errors, equal final sites."""
    assert s.ops == ref.ops
    assert s.total_time.hex() == ref.total_time.hex()
    assert [x.hex() for x in s.per_qubit_error] == [x.hex() for x in ref.per_qubit_error]
    assert s.final_sites == ref.final_sites


def _with_measured_tail(c):
    """``c`` with a fence and then a measurement of every other qubit."""
    n = c.num_qubits
    tail = (Gate(GateKind.BARRIER, tuple(range(n))),)
    tail += tuple(Gate(GateKind.MEASURE, (q,)) for q in range(0, n, 2))
    return Circuit(n, c.gates + tail)


def _same_as_oracle(sc, pl, strategy, measure_duration):
    """``map_strategy`` gives the op-by-op mapper's schedule under the
    strategy's flags, or raises what it raises."""
    n, errp = sc.circuit.num_qubits, ErrorModelParams()
    args = (sc, arch(n), pl, errp)
    try:
        ref = oracle_map(*args, strategy, STRATEGY_FLAGS[strategy], measure_duration)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            map_strategy(strategy, *args, measure_duration)
        assert type(got.value) is type(exc) and got.value.args == exc.args
        return
    _same_schedule(map_strategy(strategy, *args, measure_duration), ref)


class TestTwoPassMapper:
    """``map_strategy`` decides the moves in pass 1 and times them as
    columns; it must give the op-by-op mapper's schedules bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(2, 12),
        seed=st.integers(0, 3),
        strategy=st.sampled_from(STRATEGIES),
        placement=st.sampled_from(("spectral", "random", "identity")),
        measure_duration=st.sampled_from((None, 50 * NS)),
    )
    def test_matches_the_op_by_op_mapper(self, family, n, seed, strategy, placement, measure_duration):
        # measurements are timed only with a duration
        sc = slice_circuit(_with_measured_tail(decompose(generate(BenchmarkSpec(family=family, n=n, seed=seed)))))
        if placement == "spectral":
            pl = spectral_placement(build_interaction_graph(sc))
        else:
            pl = random_placement(n, seed) if placement == "random" else Placement.identity(n)
        _same_as_oracle(sc, pl, strategy, measure_duration)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "gates",
        [
            (Gate(GateKind.BARRIER, (0, 1, 2)),),
            (Gate(GateKind.MEASURE, (1,)), Gate(GateKind.BARRIER, (0, 2)), Gate(GateKind.MEASURE, (0,))),
            (),
        ],
    )
    def test_nothing_to_schedule(self, errp, strategy, gates):
        sc = slice_circuit(Circuit(3, gates))
        s = map_strategy(strategy, sc, arch(3), Placement.identity(3), errp)
        ref = oracle_map(sc, arch(3), Placement.identity(3), errp, strategy, STRATEGY_FLAGS[strategy])
        _same_schedule(s, ref)
        assert len(s.ops) == 0 and s.total_time == 0.0 and type(s.total_time) is float
        dtypes = [col.dtype for col in s.ops.shuttles + s.ops.gates]
        assert dtypes == [np.dtype(np.int64)] * 3 + [np.dtype(np.float64)] * 4 + [np.dtype(np.int64)] * 2 + [np.dtype(np.float64)] * 2
        assert s.per_qubit_error == (0.0, 0.0, 0.0) and s.final_sites == (0, 1, 2)
        assert validate_schedule(s, s.arch) == []
        assert schedule_to_json(s) == oracle_schedule_to_json(s) == schedule_to_json(ref)

    def test_columns_are_checked_and_read_only(self, errp):
        s = run("swap_return", decompose(generate(BenchmarkSpec(family="qft", n=5, seed=0))), 5, errp)
        for col in s.ops.shuttles + s.ops.gates:
            assert not col.flags.writeable
        sh, gt = s.ops.shuttles, s.ops.gates
        with pytest.raises(ValueError, match="order"):
            ScheduleOps(s.ops.order + "g", sh, gt)
        with pytest.raises(ValueError, match="start is not finite"):
            ScheduleOps(s.ops.order, sh._replace(start=np.full(len(sh.start), np.nan)), gt)
        with pytest.raises(TypeError, match="zone"):
            ScheduleOps(s.ops.order, sh, gt._replace(zone=gt.zone.astype(np.float64)))
        with pytest.raises(TypeError, match="delta_c"):
            ScheduleOps(s.ops.order, sh._replace(delta_c=sh.delta_c[:-1]), gt)


STATIC_STRATEGIES = tuple(name for name in STRATEGIES if not STRATEGY_FLAGS[name].dynamic_return)
DYNAMIC_STRATEGIES = tuple(name for name in STRATEGIES if STRATEGY_FLAGS[name].dynamic_return)


def _measure(q):
    return Gate(GateKind.MEASURE, (q,))


EDGE_CASES = pytest.mark.parametrize(
    "circuit",
    [
        # only barriers: no phase at all
        Circuit(3, (Gate(GateKind.BARRIER, (0, 1, 2)), Gate(GateKind.BARRIER, (1,)))),
        # only measurements, scheduled only with a duration
        Circuit(3, (_measure(0), _measure(2), _measure(0))),
        # layer 1 holds only measurements, between two layers of gates
        Circuit(3, (cz(0, 1), h(2), _measure(0), _measure(1), cz(1, 0))),
        Circuit(2, (h(1), cz(1, 0), h(0), _measure(1), cz(0, 1))),
    ],
    ids=("barriers", "measures", "measure-layer", "n2"),
)


def _edge_cases_match(circuit, strategy, measure_duration):
    sc = slice_circuit(circuit)
    n = circuit.num_qubits
    for pl in (Placement.identity(n), Placement(tuple(reversed(range(n)))), random_placement(n, 1)):
        _same_as_oracle(sc, pl, strategy, measure_duration)


class TestEpisodes:
    """One rule turns layers into episodes for both forms of pass 1: under
    ``sequential`` one layer per scheduled gate, in circuit order; otherwise
    ``sc.layers``' scheduled gates, empty layers dropped."""

    @staticmethod
    def _check(sc, sequential):
        gates = sc.circuit.gates
        for measure_duration in (None, 50 * NS):
            scheduled = np.array([_schedulable(g, measure_duration) for g in gates], dtype=bool)
            layers = [(k,) for k in range(len(gates))] if sequential else sc.layers
            kept = [ks for ks in ([k for k in layer if scheduled[k]] for layer in layers) if ks]
            gate_index, layer = _episodes(sc, scheduled, sequential)
            assert gate_index.tolist() == [k for ks in kept for k in ks]
            assert layer.tolist() == [idx for idx, ks in enumerate(kept) for _ in ks]

    @pytest.mark.parametrize("sequential", (True, False), ids=("sequential", "layered"))
    @EDGE_CASES
    def test_edge_cases(self, circuit, sequential):
        self._check(slice_circuit(circuit), sequential)

    @pytest.mark.parametrize("sequential", (True, False), ids=("sequential", "layered"))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_benchmark_circuits_with_a_measured_tail(self, family, sequential):
        c = _with_measured_tail(decompose(generate(BenchmarkSpec(family=family, n=9, seed=1))))
        self._check(slice_circuit(c), sequential)


class TestStaticPass:
    """Without ``dynamic_return`` pass 1 is column arithmetic over the
    operands and layers; it must give the op-by-op mapper's schedules bit
    for bit, and its layout never moves."""

    @pytest.mark.parametrize("strategy", STATIC_STRATEGIES)
    @pytest.mark.parametrize("measure_duration", (None, 50 * NS))
    @EDGE_CASES
    def test_edge_cases_match_the_op_by_op_mapper(self, circuit, strategy, measure_duration):
        _edge_cases_match(circuit, strategy, measure_duration)

    def test_a_measure_only_layer_is_dropped(self, errp):
        sc = slice_circuit(Circuit(3, (cz(0, 1), h(2), _measure(0), _measure(1), cz(1, 0))))
        assert sc.layers == ((0, 1), (2, 3), (4,))
        s = map_strategy("parallel", sc, arch(3), Placement.identity(3), errp)
        assert s.ops.order == "sssggsss" + "ssgss"
        timed = map_strategy("parallel", sc, arch(3), Placement.identity(3), errp, measure_duration=50 * NS)
        assert timed.ops.order == "sssggsss" + "ssggss" + "ssgss"

    @pytest.mark.parametrize("strategy", STATIC_STRATEGIES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_layout_never_moves(self, errp, family, strategy):
        """Every qubit ends on its placement site, and each return phase
        shuttles its out phase's moves back, source and destination swapped."""
        for seed in range(2):
            sc = slice_circuit(decompose(generate(BenchmarkSpec(family=family, n=16, seed=0))))
            pl = random_placement(16, seed)
            s = map_strategy(strategy, sc, arch(16), pl, errp)
            assert s.final_sites == pl.perm
            sh = s.ops.shuttles
            # phases alternate out (from a site, an even code) and return
            runs = [len(list(run)) for _, run in itertools.groupby(sh.src.tolist(), key=lambda code: code % 2)]
            bounds = np.cumsum([0] + runs)
            episodes = sum(kind == "g" for kind, _ in itertools.groupby(s.ops.order))
            assert len(runs) == 2 * episodes > 0 and sh.src[0] % 2 == 0
            for a, b, c in zip(bounds[0:-1:2], bounds[1::2], bounds[2::2]):
                out, back = slice(a, b), slice(b, c)
                assert b - a == c - b
                assert np.array_equal(sh.qubit[out], sh.qubit[back])
                assert np.array_equal(sh.src[out], sh.dst[back]) and np.array_equal(sh.dst[out], sh.src[back])


class TestPerCircuitData:
    """``Circuit`` derives its per-gate data once; every schedule mapped from
    one circuit must equal the one a freshly built, equal circuit gives."""

    def test_one_circuit_under_every_setting_matches_fresh_ones(self, errp):
        n = 8
        sc = slice_circuit(_with_measured_tail(decompose(generate(BenchmarkSpec(family="qaoa", n=n, seed=2)))))
        settings_ = list(itertools.product(STRATEGIES, (None, 50 * NS), ("identity", "random")))
        SplitMix64(7).shuffle(settings_)  # interleaved, not grouped by setting
        for strategy, measure_duration, placement in settings_:
            pl = random_placement(n, 3) if placement == "random" else Placement.identity(n)
            fresh = slice_circuit(Circuit(n, tuple(sc.circuit.gates)))
            assert fresh.circuit == sc.circuit and fresh.circuit is not sc.circuit
            args = (arch(n), pl, errp, measure_duration)
            got, want = map_strategy(strategy, sc, *args), map_strategy(strategy, fresh, *args)
            _same_as_oracle(sc, pl, strategy, measure_duration)
            _same_schedule(got, want)
            assert schedule_to_json(got) == schedule_to_json(want)
            assert validate_schedule(got, got.arch) == validate_schedule(want, want.arch) == []
            assert summarize(got) == summarize(want)

    def test_two_operand_barrier_named_by_a_gate_op(self, errp):
        c = Circuit(3, (h(0), Gate(GateKind.BARRIER, (0, 1)), cz(1, 2)))
        assert not c.two_qubit[1] and c.barrier[1] and not c.measure[1]
        s = Schedule(
            strategy="handmade", circuit=c, arch=arch(3),
            error_params=errp, initial_sites=(0, 1, 2),
            ops=(GateOp(1, 1, 0.0, 20e-9),),
            total_time=20e-9, per_qubit_error=(0.0, 0.0, 0.0), final_sites=(0, 1, 2),
        )
        report = summarize(s)
        assert (report.n_gates_1q, report.n_gates_2q) == (1, 0)
        assert oracle_summary_counts(s)[2:] == (1, 0)
        violations = validate_schedule(s, s.arch)
        assert [(v.rule, v.op_index) for v in violations] == [("a", 0), ("a", 0)]
        assert ["qubit 0 not" in violations[0].message, "qubit 1 not" in violations[1].message] == [True, True]
        assert violations == oracle_validate_schedule(s, s.arch)

    @staticmethod
    def _check_columns(sc):
        c = sc.circuit
        kinds = [g.kind for g in c.gates]
        assert c.two_qubit.tolist() == [k is GateKind.CZ for k in kinds]
        assert c.measure.tolist() == [k is GateKind.MEASURE for k in kinds]
        assert c.barrier.tolist() == [k is GateKind.BARRIER for k in kinds]
        # every gate once, then backward with repeats, then none
        everyone = np.arange(len(c.gates))
        for gate_index in (everyone, np.repeat(everyone[::-1], 2), np.array([], dtype=np.int64)):
            row, q = c.operands_of(gate_index)
            assert list(zip(row.tolist(), q.tolist())) == [
                (r, qq) for r, k in enumerate(gate_index.tolist()) for qq in c.gates[k].qubits
            ]
        gate_index, layer = sc.gate_layers
        assert gate_index.tolist() == [k for ks in sc.layers for k in ks]
        assert layer.tolist() == [idx for idx, ks in enumerate(sc.layers) for _ in ks]
        for a in (c.kind, c.offsets, c.qubits, c.angle, c.two_qubit, c.measure, c.barrier, *c.operands_of(everyone), gate_index, layer):
            assert not a.flags.writeable

    @EDGE_CASES
    def test_columns_of_the_edge_cases(self, circuit):
        self._check_columns(slice_circuit(circuit))

    @pytest.mark.parametrize(
        "circuit",
        [Circuit(3, ()), Circuit(3, (h(0), Gate(GateKind.BARRIER, (0, 1)), cz(1, 2), _measure(1)))],
        ids=("empty", "two-operand-barrier"),
    )
    def test_columns_of_empty_and_barrier_circuits(self, circuit):
        self._check_columns(slice_circuit(circuit))

    def test_columns_of_one_gate_per_layer(self):
        c = _with_measured_tail(decompose(generate(BenchmarkSpec(family="qft", n=4, seed=0))))
        self._check_columns(SlicedCircuit(c, tuple((k,) for k in range(len(c.gates)))))


class TestReturnSites:
    """Pass 1 deals the vacated sites out in descending order, zones right to
    left, instead of searching for each zone's free sites."""

    @pytest.mark.parametrize("placement", ("spectral", "random"))
    @pytest.mark.parametrize("family", ("qaoa", "qft"))
    def test_matches_the_op_by_op_mapper_at_64_qubits(self, family, placement):
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family=family, n=64, seed=0))))
        pl = spectral_placement(build_interaction_graph(sc)) if placement == "spectral" else random_placement(64, 5)
        for strategy in STRATEGIES:
            _same_as_oracle(sc, pl, strategy, None)

    @pytest.mark.parametrize("strategy", DYNAMIC_STRATEGIES)
    @pytest.mark.parametrize("measure_duration", (None, 50 * NS))
    @EDGE_CASES
    def test_edge_cases_match_the_op_by_op_mapper(self, circuit, strategy, measure_duration):
        _edge_cases_match(circuit, strategy, measure_duration)

    def test_strategies_never_run_out_of_sites(self, bench16, errp):
        """The fixture maps every strategy at spectral placement and criterion
        7 at random placement 0; further random placements give valid
        schedules too, though pass 1 never checks its return sites."""
        for arch16, sc, schedules in bench16.values():
            assert set(schedules) == set(STRATEGIES)
            for seed in range(1, 4):
                for strategy in STRATEGIES:
                    s = map_strategy(strategy, sc, arch16, random_placement(16, seed), errp)
                    assert validate_schedule(s, arch16) == []


def _ghz4_parallel():
    """A small valid schedule and a fresh copy of its JSON document."""
    sc = slice_circuit(decompose(generate(BenchmarkSpec(family="ghz", n=4))))
    s = map_strategy("parallel", sc, arch(4), Placement.identity(4), ErrorModelParams())
    return s, json.loads(schedule_to_json(s))


def _index_paths(doc):
    """Key paths to every index field of a schedule document."""
    paths = [(key, i) for key in ("placement", "final_sites") for i in range(len(doc[key]))]
    for k, op in enumerate(doc["ops"]):
        keys = (("q",), ("from", "idx"), ("to", "idx")) if "q" in op else (("gate",), ("zone",))
        paths += [("ops", k, *key) for key in keys]
    return paths


def _change_index(doc, path, change):
    node = functools.reduce(lambda parent, key: parent[key], path[:-1], doc)
    node[path[-1]] = change(node[path[-1]])


def _json_paths(node, path=()):
    """Key paths to every value of a JSON document, the root's ``()`` first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, (*path, key))


def _json_type(value):
    """A value's JSON type: null, boolean, number, string, array or object."""
    return next(t for t in (type(None), bool, (int, float), str, list, dict) if isinstance(value, t))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["idx", "kind", "q", "gate", "n_sites"]) | st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestSerialization:
    def test_round_trip(self, errp):
        c = decompose(generate(BenchmarkSpec(family="dj", n=6, seed=0)))
        s = run("swap_return", c, 6, errp)
        text = schedule_to_json(s)
        back = schedule_from_json(text, circuit=s.circuit)
        assert back.strategy == s.strategy
        assert back.initial_sites == s.initial_sites
        assert back.final_sites == s.final_sites
        assert len(back.ops) == len(s.ops)
        assert back.total_time == pytest.approx(s.total_time, abs=1e-12)
        for got, want in zip(back.ops, s.ops):
            assert type(got) is type(want)
            assert got.start == pytest.approx(want.start, abs=1e-12)

    def test_reload_with_non_default_parameters(self):
        # from_config accepts exactly the keys to_config writes, so every
        # schedule file loads back, whatever its parameters
        spec = ArchitectureSpec(n_sites=4, site_pitch=3e-6, default_velocity=7.5, t_2q=60e-9)
        errp = ErrorModelParams(l_c=50e-9, t2_star=10e-6)
        sc = slice_circuit(Circuit(4, (cz(0, 3), h(1))))
        for strategy in STRATEGIES:
            s = map_strategy(strategy, sc, spec, Placement.identity(4), errp)
            back = schedule_from_json(schedule_to_json(s), circuit=s.circuit)
            assert back.arch == spec
            assert back.error_params.t2_star == pytest.approx(errp.t2_star, rel=1e-15)
            assert len(back.ops) == len(s.ops)

    def test_non_integer_indices_rejected(self):
        # int() once read 3.9 as 3: with every index raised by 0.5 this
        # schedule reloaded and revalidated with no violation
        s, doc = _ghz4_parallel()
        for path in _index_paths(doc):
            _change_index(doc, path, lambda index: index + 0.5)
        with pytest.raises(ValueError, match="integer"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @settings(max_examples=100, deadline=None)
    @given(pick=st.integers(0, 2**16), value=st.one_of(st.booleans(), st.floats()))
    def test_any_non_integer_index_rejected(self, pick, value):
        s, doc = _ghz4_parallel()
        paths = _index_paths(doc)
        _change_index(doc, paths[pick % len(paths)], lambda _: value)
        with pytest.raises(ValueError, match="integer"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t0_ns", False),
            ("v_mps", "10.0"),
            ("dC", "0.001"),
            ("gate t0_ns", True),
            ("dur_ns", "45"),
            ("total_time_ns", None),
            ("per_qubit_error", True),
        ],
    )
    def test_non_number_field_rejected(self, field, value):
        # float() once read false as 0.0 and "0.001" as 0.001
        s, doc = _ghz4_parallel()
        shuttle = doc["ops"][0]
        gate = next(op for op in doc["ops"] if "gate" in op)
        node, key = {
            "gate t0_ns": (gate, "t0_ns"),
            "dur_ns": (gate, "dur_ns"),
            "total_time_ns": (doc, "total_time_ns"),
            "per_qubit_error": (doc["per_qubit_error"], 0),
        }.get(field, (shuttle, field))
        node[key] = value
        with pytest.raises(ValueError, match="number"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "field", ["t0_ns", "v_mps", "dC", "gate t0_ns", "dur_ns", "total_time_ns", "per_qubit_error"]
    )
    def test_non_finite_or_huge_number_rejected(self, field, literal):
        # NaN and Infinity once loaded (a NaN dC surfaced only as validator
        # rule "op"), and an integer too large for a float raised OverflowError
        s, doc = _ghz4_parallel()
        shuttle = doc["ops"][0]
        gate = next(op for op in doc["ops"] if "gate" in op)
        node, key = {
            "gate t0_ns": (gate, "t0_ns"),
            "dur_ns": (gate, "dur_ns"),
            "total_time_ns": (doc, "total_time_ns"),
            "per_qubit_error": (doc["per_qubit_error"], 0),
        }.get(field, (shuttle, field))
        node[key] = "@"
        text = json.dumps(doc).replace('"@"', literal)
        with pytest.raises(ValueError, match="finite"):
            schedule_from_json(text, s.circuit)

    @pytest.mark.parametrize("key", ["q", "gate", "zone"])
    def test_op_index_beyond_64_bits_rejected(self, key):
        s, doc = _ghz4_parallel()
        next(op for op in doc["ops"] if key in op)[key] = 2**64
        with pytest.raises(ValueError, match="too large"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["ops"][0].update({"from": 3}),
            lambda doc: doc["ops"][0].pop("t0_ns"),
            lambda doc: doc.clear(),
            lambda doc: doc.update(placement=7),
            lambda doc: doc.update(arch=[]),
            lambda doc: doc.update(ops={}),
            lambda doc: doc.update(strategy=5),
        ],
        ids=["location 3", "op without t0_ns", "empty document", "placement 7", "arch []", "ops {}", "strategy 5"],
    )
    def test_malformed_document_raises_value_error(self, mutate):
        # these once raised TypeError or KeyError, or loaded (ops {} as an
        # empty schedule, strategy 5 as a strategy named 5)
        s, doc = _ghz4_parallel()
        mutate(doc)
        with pytest.raises(ValueError):
            schedule_from_json(json.dumps(doc), s.circuit)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_structural_mutation_loads_or_raises_value_error(self, data):
        # a key deleted at any depth, or a value replaced by one of another
        # JSON type: the reader returns a Schedule or raises ValueError
        s, doc = _ghz4_parallel()
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        node = functools.reduce(lambda parent, key: parent[key], path[:-1], doc)
        if path and data.draw(st.booleans()):
            del node[path[-1]]
        else:
            old = node[path[-1]] if path else doc
            new = data.draw(JSON_VALUES.filter(lambda value: _json_type(value) is not _json_type(old)))
            if path:
                node[path[-1]] = new
            else:
                doc = new
        try:
            back = schedule_from_json(json.dumps(doc), s.circuit)
        except ValueError:
            return
        assert isinstance(back, Schedule)

    def test_short_placement_reported(self):
        # validating this reload once raised IndexError
        s, doc = _ghz4_parallel()
        doc["placement"] = [0, 1]
        back = schedule_from_json(json.dumps(doc), s.circuit)
        assert "c" in {v.rule for v in validate_schedule(back, back.arch)}

    def test_short_error_list_reported(self):
        s, doc = _ghz4_parallel()
        doc["per_qubit_error"] = doc["per_qubit_error"][:2]
        back = schedule_from_json(json.dumps(doc), s.circuit)
        assert "f" in {v.rule for v in validate_schedule(back, back.arch)}

    def test_header_fields(self, errp):
        s = run("baseline", Circuit(2, (h(0),)), 2, errp)
        doc = json.loads(schedule_to_json(s))
        assert doc["strategy"] == "baseline"
        assert doc["placement"] == [0, 1]
        assert doc["arch"]["n_sites"] == 2
        assert "l_c_nm" in doc["error_params"]
        shuttle = next(op for op in doc["ops"] if "q" in op)
        assert set(shuttle) == {"q", "from", "to", "t0_ns", "v_mps", "dC"}
        gate = next(op for op in doc["ops"] if "gate" in op)
        assert set(gate) == {"gate", "zone", "t0_ns", "dur_ns"}


class TestValidator:
    def _mk(self, n, ops, per_qubit_error=None, total=None, final=None, errp=None):
        errp = errp or ErrorModelParams()
        folded = [0.0] * n
        for op in ops:
            if isinstance(op, ShuttleOp):
                folded[op.qubit] += op.delta_c
        return Schedule(
            strategy="handmade",
            circuit=Circuit(n, ()),
            arch=arch(n),
            error_params=errp,
            initial_sites=tuple(range(n)),
            ops=tuple(ops),
            total_time=total if total is not None else max((op.end for op in ops), default=0.0),
            per_qubit_error=tuple(per_qubit_error or folded),
            final_sites=tuple(final or range(n)),
        )

    def _shuttle(self, q, src, dst, start, v=10.0, errp=None):
        errp = errp or ErrorModelParams()
        d = distance(src, dst, arch(8))
        return ShuttleOp(q, src, dst, start, v, d / v, phase_error(v, d, errp))

    def test_clean_mapper_output_passes(self, errp):
        for strategy in STRATEGIES:
            c = decompose(generate(BenchmarkSpec(family="ghz", n=5, seed=0)))
            run(strategy, c, 5, errp)  # asserts empty violation list

    def test_valid_schedules_validate_clean(self):
        for s in _valid_schedules():
            assert validate_schedule(s, s.arch) == oracle_validate_schedule(s, s.arch) == [], s.strategy

    def test_zone_capacity_violation(self):
        ops = [
            self._shuttle(0, Location.site(0), Location.zone(2), 0.0),
            self._shuttle(1, Location.site(1), Location.zone(2), 0.0),
            self._shuttle(2, Location.site(2), Location.zone(2), 0.0),
        ]
        s = self._mk(8, ops)
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "b" in rules

    def test_crossing_violation(self):
        ops = [
            self._shuttle(0, Location.site(0), Location.zone(3), 0.0),
            self._shuttle(1, Location.site(3), Location.zone(0), 0.0),
            self._shuttle(0, Location.zone(3), Location.site(0), 1e-6),
            self._shuttle(1, Location.zone(0), Location.site(1), 1e-6),
        ]
        s = self._mk(8, ops, final=[0, 1] + list(range(2, 8)))
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "d" in rules

    def test_site_capacity_violation(self):
        ops = [self._shuttle(0, Location.site(0), Location.zone(0), 0.0),
               self._shuttle(0, Location.zone(0), Location.site(1), 1e-6)]
        s = self._mk(8, ops, final=[1] + list(range(1, 8)))
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "c" in rules  # site 1 already parked qubit 1

    def test_stranded_qubit_violation(self):
        ops = [self._shuttle(0, Location.site(0), Location.zone(0), 0.0)]
        s = self._mk(8, ops)
        rules = {v.rule for v in validate_schedule(s, arch(8))}
        assert "e" in rules

    def test_error_fold_violation(self, errp):
        s = run("baseline", Circuit(2, (h(0),)), 2, errp)
        tampered = Schedule(
            strategy=s.strategy, circuit=s.circuit, arch=s.arch,
            error_params=s.error_params, initial_sites=s.initial_sites,
            ops=s.ops, total_time=s.total_time,
            per_qubit_error=(0.0, 0.0), final_sites=s.final_sites,
        )
        rules = {v.rule for v in validate_schedule(tampered, s.arch)}
        assert "f" in rules

    def test_total_time_violation(self, errp):
        s = run("baseline", Circuit(2, (h(0),)), 2, errp)
        tampered = Schedule(
            strategy=s.strategy, circuit=s.circuit, arch=s.arch,
            error_params=s.error_params, initial_sites=s.initial_sites,
            ops=s.ops, total_time=s.total_time * 2,
            per_qubit_error=s.per_qubit_error, final_sites=s.final_sites,
        )
        rules = {v.rule for v in validate_schedule(tampered, s.arch)}
        assert "g" in rules

    def test_gate_without_operands_present(self, errp):
        c = Circuit(2, (h(0),))
        gate_only = Schedule(
            strategy="handmade", circuit=c, arch=arch(2),
            error_params=errp, initial_sites=(0, 1),
            ops=(GateOp(0, 0, 0.0, 20e-9),),
            total_time=20e-9, per_qubit_error=(0.0, 0.0), final_sites=(0, 1),
        )
        rules = {v.rule for v in validate_schedule(gate_only, arch(2))}
        assert "a" in rules


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
    v = s.arch.default_velocity

    def move(q, src, dst, start):
        d = distance(src, dst, s.arch)
        return ShuttleOp(q, src, dst, start, v, d / v, phase_error(v, d, s.error_params))

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
    spec, errp = arch(4), ErrorModelParams()
    circuit = Circuit(4, (h(0), cz(1, 2)))
    site, zone = Location.site, Location.zone

    def move(q, src, dst, start, **changes):
        d = distance(src, dst, spec)
        op = ShuttleOp(q, src, dst, start, 10.0, d / 10.0, phase_error(10.0, d, errp))
        return dataclasses.replace(op, **changes)

    def schedule(*ops, initial=(0, 1, 2, 3), circuit=circuit):
        n = circuit.num_qubits
        folded = [0.0] * n
        for op in ops:
            if isinstance(op, ShuttleOp) and 0 <= op.qubit < n:
                folded[op.qubit] += op.delta_c
        return Schedule(
            strategy="handmade", circuit=circuit, arch=spec, error_params=errp,
            initial_sites=initial[:n], ops=ops, total_time=max((op.end for op in ops), default=0.0),
            per_qubit_error=tuple(folded), final_sites=tuple(range(n)),
        )

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
        s = Schedule(
            strategy="handmade", circuit=Circuit(2, (h(0),)), arch=arch(2),
            error_params=ErrorModelParams(), initial_sites=(0, 1),
            ops=(*ops, GateOp(0, 0, 3.0 * US, 20 * NS)),
            total_time=10 * US, per_qubit_error=(0.0, 0.0), final_sites=(0, 1),
        )
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


# Rule (d) near its skip bound: moves set against a leading one on buses
# from the default 2 um pitch to 2 km, where a position's ulp passes 1e-12
# and two moves of one slope can read as crossing.
_PITCHES = (2 * US, 1.0, 10.0, 2e4, 2e6)
_VELOCITIES = (10.0, 7.3, 3.7)


def _code_location(code):
    return Location.zone(code // 2) if code % 2 else Location.site(code // 2)


def _bus_schedule(spec, ops):
    """Moves of distinct qubits 0..3 on ``spec``, from sites 0..3, with the
    error fold and makespan they give."""
    folded = [0.0] * 4
    for op in ops:
        folded[op.qubit] += op.delta_c
    return Schedule(
        strategy="handmade", circuit=Circuit(4, ()), arch=spec, error_params=ErrorModelParams(),
        initial_sites=(0, 1, 2, 3), ops=tuple(ops), total_time=max(op.end for op in ops),
        per_qubit_error=tuple(folded), final_sites=(0, 1, 2, 3),
    )


def _bus_move(spec, q, src, dst, start, v, nudge=0):
    """A move at ``v`` whose duration is ``nudge`` ulps off distance / v."""
    d = distance(src, dst, spec)
    dur = d / v
    for _ in range(abs(nudge)):
        dur = math.nextafter(dur, math.copysign(math.inf, nudge))
    return ShuttleOp(q, src, dst, start, v, dur, phase_error(v, d, ErrorModelParams()))


def _lockstep(spec, q, leader, via, nudge=0, lag=0.0):
    """A move at the leader's velocity from ``via`` on its path to its
    destination, leaving ``lag`` seconds after the leader passes: with no
    lag, one exact position in exact arithmetic; one slope, or ``nudge``
    ulps of duration off it."""
    pa, pc = position(leader.src, spec), position(via, spec)
    start = leader.start + abs(pc - pa) / leader.velocity + lag
    return _bus_move(spec, q, via, leader.dst, start, leader.velocity, nudge)


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
    leader = _bus_move(spec, 0, src, dst, draw(st.floats(0, 3)) * pitch / v, v)
    ops = [leader]
    for q in range(1, draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(("any", "opposite", "lockstep", "ulp", "touch")))
        frac = draw(st.floats(-1, 1.5))
        v = draw(st.sampled_from(_VELOCITIES))
        c = draw(code)
        other = _code_location(draw(code.filter(lambda x: x != c)))
        if kind == "any":  # any direction, any velocity
            op = _bus_move(spec, q, _code_location(c), other, leader.start + frac * leader.duration, v)
        elif kind == "opposite":
            op = _bus_move(spec, q, dst, src, leader.start + frac * leader.duration, v)
        elif kind in ("lockstep", "ulp"):  # "ulp": slopes a few ulps apart
            between = [x for x in range(16) if min(a, b) < x < max(a, b)] or [a]
            via = _code_location(draw(st.sampled_from(between)))
            nudge = draw(st.sampled_from((-4096, -2, -1, 1, 2, 4096))) if kind == "ulp" else 0
            lag = draw(st.sampled_from((0.0, 3e-12, -3e-12))) / leader.velocity  # 3 pm behind or ahead
            op = _lockstep(spec, q, leader, via, nudge, lag)
        else:  # starting, or ending, within a few _EPS_T of the leader's end or start
            op = _bus_move(spec, q, _code_location(c), other, 0.0, v)
            k = draw(st.sampled_from((-2, -1, 0, 1, 2)))
            start = leader.end + k * 1e-15 if draw(st.booleans()) else leader.start + k * 1e-15 - op.duration
            op = dataclasses.replace(op, start=start)
        ops.append(op)
    return _bus_schedule(spec, ops)


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
        leader = _bus_move(spec, 0, *leader)
        follower = _lockstep(spec, 1, leader, via, nudge, lag)
        slopes = [(position(op.dst, spec) - position(op.src, spec)) / op.duration for op in (leader, follower)]
        assert (slopes[0] == slopes[1]) is (nudge == 0)
        s = _bus_schedule(spec, [leader, follower])
        want = oracle_validate_schedule(s, spec)
        assert "d" in {v.rule for v in want}
        assert validate_schedule(s, spec) == want

    def test_a_phase_of_one_slope_tests_no_pair(self, monkeypatch):
        # 2,000 qubits leave for their zones at once and come back: about
        # 4 million overlapping pairs, all of one slope out and one back
        n = 2000
        spec, errp = arch(n), ErrorModelParams()
        out = [_bus_move(spec, q, Location.site(q), Location.zone(q), 0.0, 10.0) for q in range(n)]
        back = [_bus_move(spec, q, Location.zone(q), Location.site(q), 1 * US, 10.0) for q in range(n)]
        dc = out[0].delta_c + back[0].delta_c
        s = Schedule(
            strategy="handmade", circuit=Circuit(n, ()), arch=spec, error_params=errp,
            initial_sites=tuple(range(n)), ops=tuple(out + back), total_time=back[0].end,
            per_qubit_error=(dc,) * n, final_sites=tuple(range(n)),
        )
        expanded = []
        ragged = validate_module._ragged

        def counted(rows, first, counts):
            expanded.append(int(counts.sum()))
            return ragged(rows, first, counts)

        monkeypatch.setattr(validate_module, "_ragged", counted)
        assert validate_schedule(s, spec) == []
        assert expanded and sum(expanded) == 0


class TestScheduleOps:
    """``Schedule.ops`` holds the ops as columns: it has a length, iterates
    as op objects and equals the columns of the same ops; the validator,
    ``summarize`` and the writer read the columns of whatever ops the
    schedule was given."""

    def test_columns_iterate_as_the_same_ops(self):
        schedules = _valid_schedules()
        for s, other in zip(schedules, schedules[1:]):
            ops = list(s.ops)
            assert {type(op) for op in ops} == {ShuttleOp, GateOp}
            assert len(s.ops) == len(ops)
            rebuilt = dataclasses.replace(s, ops=iter(ops))
            assert type(rebuilt.ops) is ScheduleOps and rebuilt.ops is not s.ops
            assert rebuilt.ops == s.ops != other.ops and rebuilt == s
            assert list(rebuilt.ops) == ops
            shuttles, gates = len(s.ops.shuttles.qubit), len(s.ops.gates.gate_index)
            assert repr(s.ops) == f"<ScheduleOps: {shuttles} shuttles, {gates} gates>"

    def test_no_tuple_emulation(self):
        s = _valid_schedules()[0]
        ops = tuple(s.ops)
        assert not isinstance(s.ops, collections.abc.Sequence)
        assert s.ops != ops and ops != s.ops
        for use in (lambda: s.ops[0], lambda: s.ops[1:], lambda: s.ops + ops, lambda: ops + s.ops,
                    lambda: hash(s.ops), lambda: hash(s)):
            with pytest.raises(TypeError):
                use()

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"qubit": 1.5}, TypeError),
            ({"start": "0"}, TypeError),
            ({"src": (0, "storage")}, TypeError),
            ({"qubit": 2**63}, OverflowError),
            # NaN once validated clean, and the writer then wrote a bare NaN
            # that the reader rejects
            ({"start": math.nan}, ValueError),
            ({"velocity": math.inf}, ValueError),
            ({"delta_c": -math.inf}, ValueError),
            ({"total_time": math.nan}, ValueError),
            ({"per_qubit_error": (0.0,) * 5 + (math.nan,)}, ValueError),
            ({"initial_sites": (True, 1, 2, 3, 4, 5)}, TypeError),
            ({"final_sites": (0.0, 1, 2, 3, 4, 5)}, TypeError),
            ({"final_sites": (2**64, 1, 2, 3, 4, 5)}, OverflowError),
        ],
    )
    def test_fields_the_columns_cannot_hold_rejected(self, change, error):
        s = _valid_schedules()[0]
        with pytest.raises(error):
            if change.keys() <= {field.name for field in dataclasses.fields(Schedule)}:
                dataclasses.replace(s, **change)
            else:
                _replace_op(s, _nth(s, ShuttleOp, 0), **change)
        with pytest.raises(TypeError):
            dataclasses.replace(s, ops=(*s.ops, "not an op"))

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(2, 9),
        seed=st.integers(0, 3),
        strategy=st.sampled_from(STRATEGIES),
        placement=st.sampled_from(("spectral", "random", "identity")),
    )
    def test_consumers_match_the_op_by_op_reference(self, family, n, seed, strategy, placement):
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family=family, n=n, seed=seed))))
        if placement == "spectral":
            pl = spectral_placement(build_interaction_graph(sc))
        else:
            pl = random_placement(n, seed) if placement == "random" else Placement.identity(n)
        s = map_strategy(strategy, sc, arch(n), pl, ErrorModelParams())
        rebuilt = dataclasses.replace(s, ops=tuple(s.ops))
        text = schedule_to_json(s)
        assert text == oracle_schedule_to_json(s) == schedule_to_json(rebuilt)
        report = summarize(s)
        assert report == summarize(rebuilt)
        counts = (report.n_shuttles, report.total_distance, report.n_gates_1q, report.n_gates_2q)
        assert counts == oracle_summary_counts(s)
        assert validate_schedule(s, s.arch) == validate_schedule(rebuilt, s.arch) == []

    def test_writer_matches_the_reference_on_broken_schedules(self):
        # out-of-range qubits, zones and gate indices, shifted times
        for label, s in _mutation_corpus():
            assert schedule_to_json(s) == oracle_schedule_to_json(s), label

    def test_edited_ops_are_read_not_the_mapped_ones(self):
        s = _valid_schedules()[2]
        # the last return shuttle dropped: its qubit ends in a zone (rule e)
        edited = _drop(s, 0, 0)
        assert validate_schedule(s, s.arch) == []
        want = oracle_validate_schedule(edited, s.arch)
        assert "e" in {v.rule for v in want} and validate_schedule(edited, s.arch) == want
        assert summarize(edited).n_shuttles == summarize(s).n_shuttles - 1
        assert schedule_to_json(edited) == oracle_schedule_to_json(edited) != schedule_to_json(s)


_TIMES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5e-12, 1.5e-12, 2.5e-12, -2.5e-12,
    1.0000005e-6, 1.7e299, 1.8e299, 1e300, -1e300,
)
_INT64 = (-(2**63), -1, 0, 1, 2**63 - 1)


def _writer_floats():
    # edge values, any finite float, and the half-way points of the 1 ps grid
    half_ps = st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) * 1e-12)
    return st.one_of(st.sampled_from(_TIMES), st.floats(allow_nan=False, allow_infinity=False), half_ps)


def _writer_ints():
    return st.one_of(st.sampled_from(_INT64), st.integers(-(2**63), 2**63 - 1))


@st.composite
def _handmade_columns(draw):
    """A schedule of hand-built op columns: any 64-bit qubit, gate, zone and
    location code (negative indices too) and any finite float, with only
    shuttles, only gates, both or no ops."""
    f, i = _writer_floats(), _writer_ints()
    shuttle = st.tuples(i, i, i, f, f, f, f).map(lambda row: ("s", row))
    gate = st.tuples(i, i, f, f).map(lambda row: ("g", row))
    kinds = draw(st.sampled_from(((shuttle, gate), (shuttle,), (gate,), ())))
    rows = draw(st.lists(st.one_of(*kinds), max_size=8)) if kinds else []
    ops = ScheduleOps.from_rows(
        "".join(kind for kind, _ in rows),
        [row for kind, row in rows if kind == "s"],
        [row for kind, row in rows if kind == "g"],
    )
    return Schedule(
        strategy="handmade", circuit=Circuit(2, ()), arch=arch(2), error_params=ErrorModelParams(),
        initial_sites=(0, 1), ops=ops, total_time=draw(f), per_qubit_error=(draw(f), draw(f)),
        final_sites=(0, 1),
    )


def _written(write, s):
    """The JSON text, or ValueError if the writer raises it."""
    try:
        return write(s)
    except ValueError:
        return ValueError


class TestWriter:
    """``schedule_to_json`` writes what the dict-per-op reference writes,
    and raises ValueError where that would not be JSON."""

    @settings(max_examples=300, deadline=None)
    @given(s=_handmade_columns())
    def test_handmade_columns_match_the_reference(self, s):
        assert _written(schedule_to_json, s) == _written(oracle_schedule_to_json, s)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("t0_ns", lambda s: _replace_op(s, _nth(s, ShuttleOp, 3), start=1e300)),
            ("t0_ns", lambda s: _replace_op(s, _nth(s, GateOp, 0), start=-1e300)),
            ("dur_ns", lambda s: _replace_op(s, _nth(s, GateOp, 1), duration=1e300)),
            ("total_time_ns", lambda s: dataclasses.replace(s, total_time=1e300)),
        ],
    )
    def test_time_too_large_for_ns_raises(self, field, edit):
        # 1e300 s is finite, but not in ns: the writer once wrote Infinity,
        # which schedule_from_json rejects
        s = edit(_valid_schedules()[0])
        with pytest.raises(ValueError, match=field):
            schedule_to_json(s)
        with pytest.raises(ValueError):
            oracle_schedule_to_json(s)


def _ns_edges():
    """Times where the picosecond kernel must hand over to ``_ns_json`` or
    must match it exactly: half-ps ties, signed zeros, subnormals, either
    side of 2**43 ns, and where ns stop being finite."""
    ties = [(k + 0.5) * 1e-12 for k in (0, 1, 2, -3, 12345, 10**9, 2**40)]
    edge = 2.0**43 * 1e-9
    around = [float(x) for x in np.nextafter(edge, [0.0, np.inf])] + [edge, edge * (1 - 1e-12), edge * (1 + 1e-12)]
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]
    return ties + around + [-x for x in around] + tiny + [0.5e-12, 1.0000005e-6, 1e3, 1.7e299]


def _texts_or_error(fn, values, name):
    try:
        return fn(values, name)
    except ValueError as exc:
        return ValueError, str(exc)


class TestTimeTexts:
    """``_ns_texts`` writes each time as ``_ns_json`` does, by integer ps."""

    def _scalar(self, values, name):
        return [_ns_json(x, name) for x in values.tolist()]

    def _kernel(self, values, name):
        return _ns_texts(values, name).tolist()

    @pytest.mark.parametrize("value", _ns_edges())
    def test_edges_match_the_scalar_path(self, value):
        values = np.array([value, 1e-6])
        assert self._kernel(values, "t0_ns") == self._scalar(values, "t0_ns")

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e4, 1e4),
        st.integers(-(10**15), 10**15).map(lambda k: k * 1e-12),
        st.integers(-(10**15), 10**15).map(lambda k: (k + 0.5) * 1e-12),
    ), max_size=20))
    def test_any_time_matches_the_scalar_path(self, values):
        values = np.array(values, dtype=np.float64)
        want = _texts_or_error(self._scalar, values, "dur_ns")
        assert _texts_or_error(self._kernel, values, "dur_ns") == want

    @pytest.mark.parametrize("value", [1.8e299, -1.8e299, 1e300, 1.7976931348623157e308])
    @pytest.mark.parametrize("name", ["t0_ns", "dur_ns"])
    def test_too_large_raises_naming_the_field(self, value, name):
        # ns * 1000 overflows here; pyproject makes a RuntimeWarning an error
        with pytest.raises(ValueError, match=name):
            _ns_texts(np.array([1e-6, value]), name)

    @pytest.mark.parametrize("strategy", ["baseline", "swap_return"])
    def test_peak_memory_of_one_join(self, strategy):
        # the op array, the header and the tail are joined once: the peak
        # above entry is the text and the fragments that make it, not three
        # copies of the text
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family="qaoa", n=24, seed=0))))
        s = map_strategy(strategy, sc, arch(24), Placement.identity(24), ErrorModelParams())
        schedule_to_json(s)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = schedule_to_json(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 300_000
        assert peak - before <= 2.5 * len(text)
