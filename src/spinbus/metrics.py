"""Schedule aggregation and cross-strategy comparison.

A report condenses one schedule into the two headline metrics (total
execution time, per-qubit dephasing with mean and population std over all
architecture qubits, idle ones included) plus shuttle counts and distance.
Ratios against a baseline report use baseline/strategy, so bigger is
better.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .architecture import distance
from .mapper import GateOp, Schedule, ShuttleOp

CSV_HEADER = "strategy,total_time_ns,mean_dC,std_dC,n_shuttles,total_distance_um"


@dataclass(frozen=True)
class CompilationReport:
    strategy: str
    total_time: float
    qubit_errors: tuple[float, ...]
    mean_error: float
    std_error: float
    n_shuttles: int
    total_distance: float
    n_gates_1q: int
    n_gates_2q: int


def mean_std(values: tuple[float, ...]) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    var = sum((x - mean) ** 2 for x in values) / n
    return mean, math.sqrt(var)


def summarize(s: Schedule) -> CompilationReport:
    """Aggregate a schedule into a comparable report."""
    n_shuttles = 0
    total_distance = 0.0
    n_1q = n_2q = 0
    for op in s.ops:
        if isinstance(op, ShuttleOp):
            n_shuttles += 1
            total_distance += distance(op.src, op.dst, s.arch)
        elif isinstance(op, GateOp):
            gate = s.circuit.gates[op.gate_index]
            if gate.is_two_qubit:
                n_2q += 1
            else:
                n_1q += 1
    mean, std = mean_std(s.per_qubit_error)
    return CompilationReport(
        strategy=s.strategy,
        total_time=s.total_time,
        qubit_errors=tuple(s.per_qubit_error),
        mean_error=mean,
        std_error=std,
        n_shuttles=n_shuttles,
        total_distance=total_distance,
        n_gates_1q=n_1q,
        n_gates_2q=n_2q,
    )


@dataclass(frozen=True)
class StrategyRatios:
    """baseline/strategy ratios; None marks an undefined (0/0-style) ratio."""

    strategy: str
    time_ratio: float | None
    error_ratio: float | None


def compare(reports: list[CompilationReport]) -> list[StrategyRatios]:
    """Time and error ratios of every report against the ``baseline`` one."""
    by_tag = {r.strategy: r for r in reports}
    if "baseline" not in by_tag:
        raise ValueError("no baseline report among reports")
    base = by_tag["baseline"]

    def ratio(num: float, den: float) -> float | None:
        return None if den == 0.0 else num / den

    return [
        StrategyRatios(
            strategy=r.strategy,
            time_ratio=ratio(base.total_time, r.total_time),
            error_ratio=ratio(base.mean_error, r.mean_error),
        )
        for r in reports
    ]


def report_csv_row(r: CompilationReport) -> str:
    return ",".join(
        (
            r.strategy,
            repr(r.total_time * 1e9),
            repr(r.mean_error),
            repr(r.std_error),
            str(r.n_shuttles),
            repr(r.total_distance * 1e6),
        )
    )


def reports_to_csv(reports: list[CompilationReport]) -> str:
    lines = [CSV_HEADER]
    lines += [report_csv_row(r) for r in reports]
    return "\n".join(lines) + "\n"


def report_to_dict(r: CompilationReport) -> dict:
    return {
        "strategy": r.strategy,
        "total_time_ns": r.total_time * 1e9,
        "mean_dC": r.mean_error,
        "std_dC": r.std_error,
        "n_shuttles": r.n_shuttles,
        "total_distance_um": r.total_distance * 1e6,
        "n_gates_1q": r.n_gates_1q,
        "n_gates_2q": r.n_gates_2q,
        "qubit_errors": list(r.qubit_errors),
    }


def reports_to_json(reports: list[CompilationReport]) -> str:
    return json.dumps(
        [report_to_dict(r) for r in reports], sort_keys=True, separators=(",", ":")
    ) + "\n"
