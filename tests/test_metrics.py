import dataclasses
import json
import math

import pytest

from spinbus.architecture import ArchitectureSpec, Location
from spinbus.circuit import Circuit, Gate, GateKind, decompose, slice_circuit
from spinbus.benchgen import BenchmarkSpec, generate
from spinbus.mapper import STRATEGIES, map_strategy
from spinbus.metrics import (
    CSV_HEADER,
    compare,
    left_sum,
    mean_std,
    reports_to_csv,
    reports_to_json,
    summarize,
)
from spinbus.placement import Placement
from spinbus.schedule import GateOp, schedule_to_json

from schedule_corpus import arch, handmade_schedule, shuttle

GOLDEN_SUM = 9.931956096912723e-05  # phase error of one 3 um shuttle at 10 m/s


def test_empty_schedule_all_zero():
    r = summarize(handmade_schedule(spec=arch(5), strategy="baseline"))
    assert r.total_time == 0.0
    assert r.mean_error == 0.0 and r.std_error == 0.0
    assert r.n_shuttles == 0 and r.total_distance == 0.0
    assert r.n_gates_1q == 0 and r.n_gates_2q == 0


def test_single_shuttle_golden():
    op = shuttle(arch(4), 2, Location.site(2), Location.zone(3), 0.0)
    r = summarize(handmade_schedule(op, spec=arch(4), strategy="single"))
    assert r.total_time == pytest.approx(0.3e-6)
    assert r.n_shuttles == 1
    assert r.total_distance == pytest.approx(3e-6)
    nonzero = [e for e in r.qubit_errors if e > 0]
    assert len(nonzero) == 1
    assert nonzero[0] == pytest.approx(GOLDEN_SUM, rel=1e-12)
    assert r.mean_error == pytest.approx(GOLDEN_SUM / 4, rel=1e-12)


def test_mean_std_recomputable(errp):
    c = decompose(generate(BenchmarkSpec(family="qaoa", n=6, seed=2)))
    s = map_strategy("min_return", slice_circuit(c), ArchitectureSpec(n_sites=6),
                     Placement.identity(6), errp)
    r = summarize(s)
    mean = sum(r.qubit_errors) / len(r.qubit_errors)
    var = sum((x - mean) ** 2 for x in r.qubit_errors) / len(r.qubit_errors)
    assert r.mean_error == pytest.approx(mean, rel=1e-12)
    assert r.std_error == pytest.approx(math.sqrt(var), rel=1e-12)


def test_mean_std_folds_left_to_right():
    # CPython 3.12's compensated sum gives 0.1 here; the left fold (and
    # CPython <= 3.11's sum) gives the bits the pinned outputs were made with
    assert mean_std((0.1,) * 10)[0] == 0.09999999999999999
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert left_sum(iter([0.5, 0.25])) == 0.75 and left_sum([]) == 0.0


def test_mean_std_overflow_is_value_error(errp):
    # a squared deviation above the largest float raised a bare OverflowError
    with pytest.raises(ValueError, match="1e[+]?160"):
        mean_std((1e160, 0.0))
    c = decompose(generate(BenchmarkSpec(family="qaoa", n=6, seed=0)))
    s = map_strategy("baseline", slice_circuit(c), ArchitectureSpec(n_sites=6),
                     Placement.identity(6), errp)
    errors = (1e160,) + tuple(s.per_qubit_error[1:])
    with pytest.raises(ValueError, match="spread too far"):
        summarize(dataclasses.replace(s, per_qubit_error=errors))


def test_mean_std_of_finite_values_is_finite(errp):
    # a left-fold sum past the largest float gave an infinite mean and std
    with pytest.raises(ValueError, match="1e[+]?308.*finite mean"):
        mean_std((1e308, 1e308))
    with pytest.raises(ValueError, match="finite mean"):
        mean_std((1e308,) * 3 + (-1e308,) * 3)
    assert mean_std((1e307, 1e307)) == (1e307, 0.0)
    # a non-finite value is passed through, not reported
    assert mean_std((math.inf, 0.0))[0] == math.inf
    c = decompose(generate(BenchmarkSpec(family="qaoa", n=6, seed=0)))
    s = map_strategy("baseline", slice_circuit(c), ArchitectureSpec(n_sites=6),
                     Placement.identity(6), errp)
    errors = (1e308, 1e308) + tuple(s.per_qubit_error[2:])
    with pytest.raises(ValueError, match="finite mean"):
        summarize(dataclasses.replace(s, per_qubit_error=errors))


def test_report_matches_refold_of_serialized_schedule(errp):
    """Dual-path oracle: aggregate the JSON wire form independently."""
    c = decompose(generate(BenchmarkSpec(family="graph_state", n=8, seed=3)))
    s = map_strategy("swap_return", slice_circuit(c), ArchitectureSpec(n_sites=8),
                     Placement.identity(8), errp)
    r = summarize(s)
    doc = json.loads(schedule_to_json(s))
    shuttles = [op for op in doc["ops"] if "q" in op]
    errors = [0.0] * 8
    for op in shuttles:
        errors[op["q"]] += op["dC"]
    assert len(shuttles) == r.n_shuttles
    assert doc["total_time_ns"] == pytest.approx(r.total_time * 1e9, abs=1e-3)
    for got, want in zip(errors, r.qubit_errors):
        assert got == pytest.approx(want, rel=1e-12)


def test_gate_counts(errp):
    c = Circuit(4, (Gate(GateKind.H, (0,)), Gate(GateKind.CZ, (0, 1)),
                    Gate(GateKind.RZ, (2,), 0.5)))
    s = map_strategy("parallel", slice_circuit(c), ArchitectureSpec(n_sites=4),
                     Placement.identity(4), errp)
    r = summarize(s)
    assert r.n_gates_1q == 2 and r.n_gates_2q == 1


@pytest.mark.parametrize("gate_index", [-1, 10, 99])
def test_gate_index_out_of_range_rejected(errp, gate_index):
    # numpy would read -1 as the circuit's last gate, and 99 would raise a
    # bare IndexError
    sc = slice_circuit(decompose(generate(BenchmarkSpec(family="ghz", n=4, seed=0))))
    s = map_strategy("parallel", sc, ArchitectureSpec(n_sites=4), Placement.identity(4), errp)
    assert len(s.circuit.gates) == 10
    ops = list(s.ops)
    k = next(k for k, op in enumerate(ops) if isinstance(op, GateOp))
    ops[k] = dataclasses.replace(ops[k], gate_index=gate_index)
    with pytest.raises(ValueError, match="gate index out of range"):
        summarize(dataclasses.replace(s, ops=tuple(ops)))


class TestCompare:
    def _reports(self, errp):
        c = decompose(generate(BenchmarkSpec(family="dj", n=6, seed=0)))
        sc = slice_circuit(c)
        arch = ArchitectureSpec(n_sites=6)
        p = Placement.identity(6)
        return [summarize(map_strategy(s, sc, arch, p, errp)) for s in STRATEGIES]

    def test_baseline_vs_itself(self, errp):
        rows = compare(self._reports(errp))
        baseline_row = next(r for r in rows if r.strategy == "baseline")
        assert baseline_row.time_ratio == 1.0
        assert baseline_row.error_ratio == 1.0

    def test_ratio_direction(self, errp):
        reports = self._reports(errp)
        rows = {r.strategy: r for r in compare(reports)}
        by_tag = {r.strategy: r for r in reports}
        fast = rows["min_return"]
        assert fast.time_ratio == pytest.approx(
            by_tag["baseline"].total_time / by_tag["min_return"].total_time
        )

    def test_missing_baseline_rejected(self, errp):
        reports = [r for r in self._reports(errp) if r.strategy != "baseline"]
        with pytest.raises(ValueError):
            compare(reports)

    def test_zero_denominator_yields_marker(self):
        empty = summarize(handmade_schedule(spec=arch(4), strategy="baseline"))
        rows = compare([empty])
        assert rows[0].time_ratio is None
        assert rows[0].error_ratio is None

    def test_time_ratios_scale_invariant(self, errp):
        reports = self._reports(errp)
        base = {r.strategy: r.time_ratio for r in compare(reports)}
        # doubling every gate time and distance: rerun on a doubled arch
        c = decompose(generate(BenchmarkSpec(family="dj", n=6, seed=0)))
        sc = slice_circuit(c)
        arch2 = ArchitectureSpec(
            n_sites=6, site_pitch=4e-6, zone_offset=2e-6, t_1q=40e-9, t_2q=90e-9
        )
        p = Placement.identity(6)
        reports2 = [
            summarize(map_strategy(s, sc, arch2, p, errp))
            for s in ("baseline", "parallel", "min_return")
        ]
        scaled = {r.strategy: r.time_ratio for r in compare(reports2)}
        for tag, ratio in scaled.items():
            assert ratio == pytest.approx(base[tag], rel=1e-9)


def test_csv_contract():
    reports = [summarize(handmade_schedule(spec=arch(4), strategy="baseline"))]
    text = reports_to_csv(reports)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "strategy,total_time_ns,mean_dC,std_dC,n_shuttles,total_distance_um"
    fields = lines[1].split(",")
    assert fields[0] == "baseline"
    assert len(fields) == 6


def test_json_mirror_parses():
    op = shuttle(arch(4), 2, Location.site(2), Location.zone(3), 0.0)
    reports = [summarize(handmade_schedule(op, spec=arch(4), strategy="single"))]
    doc = json.loads(reports_to_json(reports))
    assert doc[0]["strategy"] == "single"
    assert doc[0]["n_shuttles"] == 1
