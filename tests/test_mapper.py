import itertools
import math
import re

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
from spinbus.error_model import ErrorModelParams, optimal_velocity
from spinbus.benchgen import FAMILIES, BenchmarkSpec, generate
from spinbus.mapper import STRATEGIES, STRATEGY_FLAGS, _episodes, _walk_layers, map_strategy
from spinbus.metrics import summarize
from spinbus.placement import (
    Placement,
    build_interaction_graph,
    random_placement,
    spectral_placement,
)
from spinbus.rng import SplitMix64
from spinbus.schedule import GateOp, ScheduleOps, ShuttleOp, schedule_to_json
from spinbus.validate import validate_schedule
from oracles import _schedulable, oracle_map, oracle_schedule_to_json, oracle_summary_counts
from schedule_corpus import NS, US, arch, cz, h, handmade_schedule, run
from validator_oracle import oracle_validate_schedule


def ops_of(s, kind):
    return [op for op in s.ops if isinstance(op, kind)]


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
            gate_index, layer = _episodes(sc, sequential, measure_duration is not None)
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

    def test_two_operand_barrier_named_by_a_gate_op(self):
        c = Circuit(3, (h(0), Gate(GateKind.BARRIER, (0, 1)), cz(1, 2)))
        assert not c.two_qubit[1] and c.barrier[1] and not c.measure[1]
        s = handmade_schedule(GateOp(1, 1, 0.0, 20e-9), spec=arch(3), circuit=c)
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


class TestWalkMemo:
    """The dynamic strategies' pass 1 is memoised on what it reads (the
    circuit, the architecture, the placement, ``swap_returns`` and whether
    measurements are scheduled); a call must never get another key's walk."""

    def test_interleaved_calls_match_the_op_by_op_mapper(self):
        n = 8
        circuits = [
            slice_circuit(_with_measured_tail(decompose(generate(BenchmarkSpec(family=family, n=n, seed=1)))))
            for family in ("qaoa", "qft")
        ]
        placements = (random_placement(n, 3), random_placement(n, 4))
        specs = (arch(n), ArchitectureSpec(n_sites=n, site_pitch=3 * US))
        assert placements[0] != placements[1]
        rng = SplitMix64(5)
        # a Gray-code walk over the key's parts: each setting differs from
        # the one before in one part, so a key without it reuses a stale walk
        for step in range(16):
            code = step ^ (step >> 1)
            sc, pl, spec = circuits[code & 1], placements[code >> 1 & 1], specs[code >> 3 & 1]
            measure_duration = 50 * NS if code & 4 else None
            order = list(STRATEGIES)
            rng.shuffle(order)
            for strategy in order:
                args = (sc, spec, pl, ErrorModelParams())
                ref = oracle_map(*args, strategy, STRATEGY_FLAGS[strategy], measure_duration)
                _same_schedule(map_strategy(strategy, *args, measure_duration), ref)

    def test_the_walk_is_read_only(self, errp):
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family="qft", n=5, seed=0))))
        moves, episodes, _ = _walk_layers(sc, arch(5), Placement.identity(5), False, False)
        assert not any(col.flags.writeable for col in moves + episodes)


def _routing(s):
    """Where ``s`` moves every qubit and runs every gate, without times."""
    sh, gt = s.ops.shuttles, s.ops.gates
    columns = (sh.qubit, sh.src, sh.dst, gt.gate_index, gt.zone)
    return s.ops.order, *(col.tolist() for col in columns), s.final_sites


def test_tunable_velocity_moves_as_min_return_does(bench16, errp):
    """``tunable_velocity`` reuses ``min_return``'s pass 1 because its walk
    never reads ``tunable``: on criterion 7's corpus, walked afresh for each,
    the two route every qubit and gate alike."""
    cases = [
        (sc, spec, pl)
        for spec, sc, _ in bench16.values()
        for pl in (spectral_placement(build_interaction_graph(sc)), random_placement(16, 0))
    ]
    for trial in range(200):
        n = 4 + SplitMix64(7777 + trial).randbelow(13)
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family="random", n=n, seed=trial))))
        cases.append((sc, arch(n), random_placement(n, trial)))
    for sc, spec, pl in cases:
        routes = []
        for strategy in ("min_return", "tunable_velocity"):
            _walk_layers.cache_clear()
            routes.append(_routing(map_strategy(strategy, sc, spec, pl, errp)))
        assert routes[0] == routes[1]
