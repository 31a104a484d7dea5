"""Schedule aggregation and cross-strategy comparison.

A report condenses one schedule into the two headline metrics (total
execution time, per-qubit dephasing with mean and population std over all
architecture qubits, idle ones included) plus shuttle counts and distance.
Ratios against a baseline report use baseline/strategy, so bigger is
better.

This module owns the report tables' format: the report columns and their
units (``REPORT_COLUMNS``), the rule that writes a CSV cell (``cell``) and
the rule for a ratio over zero (``ratio``).
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .architecture import decode_locations
from .schedule import Schedule

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


# key -> a report's value in the key's unit, one entry per report column in
# CSV order; the CSV holds the first six, the JSON all of them.
REPORT_COLUMNS = {
    "strategy": lambda r: r.strategy,
    "total_time_ns": lambda r: r.total_time * 1e9,
    "mean_dC": lambda r: r.mean_error,
    "std_dC": lambda r: r.std_error,
    "n_shuttles": lambda r: r.n_shuttles,
    "total_distance_um": lambda r: r.total_distance * 1e6,
    "n_gates_1q": lambda r: r.n_gates_1q,
    "n_gates_2q": lambda r: r.n_gates_2q,
    "qubit_errors": lambda r: r.qubit_errors,
}
CSV_HEADER = ",".join(tuple(REPORT_COLUMNS)[:6])
_CSV_VALUES = tuple(REPORT_COLUMNS.values())[:6]


def cell(value) -> str:
    """One CSV cell: text as it is, None empty, a number by ``repr``."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def csv_text(header: str, rows: Iterable) -> str:
    """``header``, then one line of cells per row."""
    return "".join([header + "\n", *(",".join(map(cell, row)) + "\n" for row in rows)])


def ratio(num: float, den: float) -> float | None:
    """``num / den``, or None where ``den`` is zero and the ratio undefined."""
    return None if den == 0.0 else num / den


def left_sum(values) -> float:
    """Floats added left to right. The built-in ``sum`` compensates its
    rounding since CPython 3.12, so its bits depend on the Python version."""
    total = 0.0
    for x in values:
        total += x
    return total


def mean_std(values: tuple[float, ...]) -> tuple[float, float]:
    """Mean and population std, each a left fold. Raises ValueError when a
    squared deviation, or the mean or variance of finite values, is too
    large for a float (above about 1e308)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = left_sum(values) / n
    try:
        var = left_sum((x - mean) ** 2 for x in values) / n
    except OverflowError:
        raise ValueError(f"values {values!r} spread too far to square their deviations") from None
    if not (math.isfinite(mean) and math.isfinite(var)) and all(map(math.isfinite, values)):
        raise ValueError(f"values {values!r} are too large for a finite mean and variance")
    return mean, math.sqrt(var)


def summarize(s: Schedule) -> CompilationReport:
    """Aggregate a schedule into a comparable report.

    Counts come from the op columns; ``total_distance`` adds the shuttles'
    distances left to right in op order (``np.sum`` adds pairwise, so its
    bits would differ). Raises ValueError for a shuttle location off the bus
    or a gate index outside the circuit's gates.
    """
    sh, gate_index = s.ops.shuttles, s.ops.gates.gate_index
    _, _, p0, src_ok = decode_locations(sh.src, s.arch)
    _, _, p1, dst_ok = decode_locations(sh.dst, s.arch)
    if not (src_ok & dst_ok).all():
        raise ValueError("location out of range")
    if ((gate_index < 0) | (gate_index >= s.circuit.num_gates)).any():
        raise ValueError("gate index out of range")
    n_2q = int(np.count_nonzero(s.circuit.two_qubit[gate_index]))
    mean, std = mean_std(s.per_qubit_error)
    return CompilationReport(
        strategy=s.strategy,
        total_time=s.total_time,
        qubit_errors=tuple(s.per_qubit_error),
        mean_error=mean,
        std_error=std,
        n_shuttles=len(sh.qubit),
        total_distance=left_sum(np.abs(p0 - p1).tolist()),
        n_gates_1q=len(gate_index) - n_2q,
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
    return [
        StrategyRatios(
            strategy=r.strategy,
            time_ratio=ratio(base.total_time, r.total_time),
            error_ratio=ratio(base.mean_error, r.mean_error),
        )
        for r in reports
    ]


def reports_to_csv(reports: list[CompilationReport]) -> str:
    return csv_text(CSV_HEADER, ([value(r) for value in _CSV_VALUES] for r in reports))


def reports_to_json(reports: list[CompilationReport]) -> str:
    rows = [{key: value(r) for key, value in REPORT_COLUMNS.items()} for r in reports]
    return json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"
