"""Independent checker for the files ``spinbus compile`` and ``bench`` write.

It reads the outputs with plain ``json`` and ``csv`` and imports nothing
from spinbus. A schedule is replayed on the wire format's 1-ps grid:

  - each qubit's moves form a continuous chain from its initial site;
  - zones hold at most 2 qubits and sites at most 1 at any time;
  - every native gate runs exactly once, its operands sit in its zone for
    the whole gate, and each qubit's gates run in circuit order;
  - every qubit ends parked, at the site ``final_sites`` names;
  - ``per_qubit_error`` equals the fold of the shuttles' ``dC``;
  - ``total_time`` equals the last op end;
  - every shuttle's ``dC`` equals the paper's four-term dephasing formula,
    evaluated here from the schedule's own ``error_params``.

Report CSVs must have one finite row per schedule that agrees with the
schedule JSON; ``bench.csv`` must have one finite row per matrix cell.
"""
from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

# Wire times are rounded to 1 ps; a derived end adds a second rounding.
TOL_PS = 2
REL_DC = 1e-9
REL_FOLD = 1e-12

HBAR = 1.054571817e-34  # J s
UEV = 1.602176634e-25  # J per micro-electronvolt


def dephasing(v: float, length: float, params: dict) -> float:
    """Phase error of one shuttle over ``length`` metres at ``v`` m/s.

    The sum of g-factor fluctuations, the adiabatic-passage hotspot bound
    and the dense- and sparse-disorder valley-relaxation terms, with the
    parameters in the wire format's nm / us / ueV / (pi/nm) units.
    """
    l_c = params["l_c_nm"] * 1e-9
    t2_star = params["t2_star_us"] * 1e-6
    l_dot = params["l_dot_nm"] * 1e-9
    e_vs0 = params["e_vs0_uev"] * UEV
    d_bar = params["d_bar_nm"] * 1e-9
    a_x = params["a_x_pi_per_nm"] * math.pi * 1e9
    g_factor = 2.0 * l_c * length / (v * t2_star) ** 2
    hotspot = 1e-4 / v
    dense = 0.01 * (HBAR * a_x * v) ** 2 / (2.0 * e_vs0**2) * math.exp((a_x * l_dot) ** 2 / 2.0)
    sparse = 0.01 * (length / d_bar) * math.exp(
        -0.03 * math.log(10.0) * e_vs0 * l_dot / (HBAR * v)
    )
    return g_factor + hotspot + dense + sparse


@dataclass
class Result:
    """The verdict on one schedule; it is rejected when problems is non-empty."""

    key: str
    problems: list[str] = field(default_factory=list)
    makespan_ns: float = math.nan
    dephasing: float = math.nan
    ops: int = 0


def _fmt(loc: tuple[bool, int]) -> str:
    return f"{'zone' if loc[0] else 'site'} {loc[1]}"


def check_schedule(doc: dict, native) -> list[str]:
    """Problems found replaying one schedule document; empty means valid.

    ``native`` lists the operand tuple of every native gate by index.
    """
    try:
        return _replay(doc, native)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed schedule: {exc!r}"]


def _replay(doc: dict, native) -> list[str]:
    problems: list[str] = []
    bad = problems.append
    arch = doc["arch"]
    n = int(arch["n_sites"])
    pitch = float(arch["site_pitch_um"])
    offset = float(arch["zone_offset_um"])
    params = doc["error_params"]
    placement = [int(s) for s in doc["placement"]]
    if sorted(placement) != list(range(n)):
        return ["initial placement is not a bijection"]

    def where(obj: dict) -> tuple[bool, int]:
        kind, idx = obj["kind"], int(obj["idx"])
        if kind not in ("storage", "zone") or not 0 <= idx < n:
            raise ValueError(f"bad location {obj}")
        return kind == "zone", idx

    def pos_um(loc: tuple[bool, int]) -> float:
        return loc[1] * pitch + (offset if loc[0] else 0.0)

    moves: list[list[tuple]] = [[] for _ in range(n)]
    gates: list[tuple[int, int, int, int, int]] = []
    folded = [0.0] * n
    last_end = 0
    for i, op in enumerate(doc["ops"]):
        start = float(op["t0_ns"]) * 1e3
        if "q" in op:
            q = int(op["q"])
            src, dst = where(op["from"]), where(op["to"])
            v = float(op["v_mps"])
            dc = float(op["dC"])
            dist_um = abs(pos_um(dst) - pos_um(src))
            if not 0 <= q < n:
                bad(f"op {i}: unknown qubit {q}")
                continue
            if not (dist_um > 0.0 and v > 0.0 and math.isfinite(v)):
                bad(f"op {i}: shuttle of {dist_um} um at {v} m/s")
                continue
            end = round(start + dist_um * 1e6 / v)
            want = dephasing(v, dist_um * 1e-6, params)
            if not math.isclose(dc, want, rel_tol=REL_DC):
                bad(f"op {i}: dC {dc!r} != four-term {want!r}")
            folded[q] += dc
            moves[q].append((round(start), end, src, dst, i))
        else:
            zone = int(op["zone"])
            dur = float(op["dur_ns"]) * 1e3
            if not (0 <= zone < n and dur > 0.0 and math.isfinite(dur)):
                bad(f"op {i}: gate in zone {zone} lasting {dur} ps")
                continue
            end = round(start + dur)
            gates.append((int(op["gate"]), zone, round(start), end, i))
        last_end = max(last_end, end)

    # chains: stays[q] lists (arrive, depart, location) in time order
    stays: list[list[tuple]] = []
    final: list[int | None] = []
    for q in range(n):
        cur, arrived = (False, placement[q]), 0
        qstays = []
        for start, end, src, dst, i in sorted(moves[q], key=lambda m: (m[0], m[4])):
            if src != cur:
                bad(f"op {i}: qubit {q} departs {_fmt(src)} but is at {_fmt(cur)}")
            if start < arrived - TOL_PS:
                bad(f"op {i}: qubit {q} departs at {start} ps, arrived at {arrived} ps")
            qstays.append((arrived, start, cur))
            cur, arrived = dst, end
        qstays.append((arrived, math.inf, cur))
        stays.append(qstays)
        if cur[0]:
            bad(f"qubit {q} ends in {_fmt(cur)}")
        final.append(None if cur[0] else cur[1])
    if final != [int(s) for s in doc["final_sites"]]:
        bad("final_sites does not match the replayed moves")

    # capacity: zones 2, sites 1; a stay occupies [arrive, depart - TOL_PS)
    events: dict[tuple[bool, int], list[tuple[float, int]]] = {}
    for qstays in stays:
        for arrive, depart, loc in qstays:
            if depart - arrive > TOL_PS:
                evts = events.setdefault(loc, [])
                evts.append((arrive, 1))
                if depart != math.inf:
                    evts.append((depart - TOL_PS, -1))
    for loc, evts in events.items():
        cap = 2 if loc[0] else 1
        count = 0
        for _, delta in sorted(evts):
            count += delta
            if count > cap:
                bad(f"{_fmt(loc)} holds more than {cap}")
                break

    # gates: each once, operands present, per-qubit circuit order
    arrivals = [[stay[0] for stay in qstays] for qstays in stays]
    seen: dict[int, tuple[int, int]] = {}
    for gi, zone, start, end, i in gates:
        if not 0 <= gi < len(native):
            bad(f"op {i}: gate index {gi} out of range")
            continue
        if gi in seen:
            bad(f"op {i}: gate {gi} scheduled twice")
            continue
        seen[gi] = (start, end)
        for q in native[gi]:
            k = max(bisect_right(arrivals[q], start + TOL_PS) - 1, 0)
            arrive, depart, loc = stays[q][k]
            if not (loc == (True, zone) and depart >= end - TOL_PS):
                bad(f"op {i}: qubit {q} not in zone {zone} for gate {gi}")
    if len(seen) != len(native):
        bad(f"{len(native) - len(seen)} of {len(native)} gates never scheduled")
    last_gate: list[int | None] = [None] * n
    for gi, operands in enumerate(native):
        if gi not in seen:
            continue
        for q in operands:
            prev = last_gate[q]
            if prev is not None and seen[gi][0] < seen[prev][1] - TOL_PS:
                bad(f"gate {gi} on qubit {q} starts before gate {prev} ends")
            last_gate[q] = gi

    stored = [float(x) for x in doc["per_qubit_error"]]
    if len(stored) != n:
        bad(f"per_qubit_error has {len(stored)} entries for {n} qubits")
    else:
        for q in range(n):
            if not math.isclose(stored[q], folded[q], rel_tol=REL_FOLD):
                bad(f"qubit {q} error {stored[q]!r} != folded {folded[q]!r}")
    total = round(float(doc["total_time_ns"]) * 1e3)
    if abs(total - last_end) > TOL_PS:
        bad(f"total_time {total} ps != last op end {last_end} ps")
    return problems


def _read_csv(path: Path, columns: list[str]) -> list[dict[str, str]]:
    rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    if not rows or list(rows[0]) != columns:
        raise ValueError(f"{path.name}: header is not {','.join(columns)}")
    return rows


def _finite(row: dict[str, str], names) -> dict[str, float]:
    values = {}
    for name in names:
        try:
            values[name] = float(row[name])
        except (TypeError, ValueError):  # a short row reads None
            values[name] = math.nan
        if not math.isfinite(values[name]):
            raise ValueError(f"{name}={row[name]!r} is not finite")
    return values


REPORT_COLUMNS = ["strategy", "total_time_ns", "mean_dC", "std_dC", "n_shuttles",
                  "total_distance_um"]
COMPARE_COLUMNS = ["strategy", "time_ratio", "error_ratio"]
BENCH_COLUMNS = ["family", "strategy", "placement", "seed", "total_time_ns",
                 "mean_dC", "std_dC"]


def check_compile(out: Path, strategies, native) -> list[Result]:
    """Check one ``compile --placement spectral`` output directory."""
    results = {s: Result(f"{out.name}/{s}") for s in strategies}
    for strategy, res in results.items():
        path = out / f"schedule_{strategy}__spectral.json"
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            res.problems.append(f"cannot read {path.name}: {exc}")
            continue
        res.problems += check_schedule(doc, native)
        if not res.problems:
            errors = [float(x) for x in doc["per_qubit_error"]]
            res.makespan_ns = float(doc["total_time_ns"])
            res.dephasing = sum(errors) / len(errors)
            res.ops = len(doc["ops"])

    def all_fail(msg: str) -> None:
        for res in results.values():
            res.problems.append(msg)

    try:
        rows = _read_csv(out / "reports__spectral.csv", REPORT_COLUMNS)
    except (OSError, ValueError) as exc:
        all_fail(f"reports CSV: {exc}")
        return list(results.values())
    if sorted(r["strategy"] for r in rows) != sorted(strategies):
        all_fail(f"reports CSV rows {[r['strategy'] for r in rows]}")
        return list(results.values())
    by_strategy = {}
    for row in rows:
        res = results[row["strategy"]]
        try:
            values = _finite(row, REPORT_COLUMNS[1:])
        except ValueError as exc:
            res.problems.append(f"reports CSV: {exc}")
            continue
        by_strategy[row["strategy"]] = values
        if res.problems:
            continue
        if abs(values["total_time_ns"] - res.makespan_ns) > 1e-3:
            res.problems.append("reports CSV total_time_ns disagrees with the schedule")
        if not math.isclose(values["mean_dC"], res.dephasing, rel_tol=1e-9):
            res.problems.append("reports CSV mean_dC disagrees with the schedule")

    # compile writes the cross-strategy ratios only when it maps them all
    if len(strategies) > 1 and "baseline" in by_strategy:
        try:
            ratios = _read_csv(out / "compare__spectral.csv", COMPARE_COLUMNS)
        except (OSError, ValueError) as exc:
            all_fail(f"compare CSV: {exc}")
            return list(results.values())
        base = by_strategy["baseline"]
        for row in ratios:
            res = results.get(row["strategy"])
            mine = by_strategy.get(row["strategy"])
            if res is None or mine is None:
                all_fail(f"compare CSV row {row['strategy']!r}")
                continue
            try:
                values = _finite(row, COMPARE_COLUMNS[1:])
            except ValueError as exc:
                res.problems.append(f"compare CSV: {exc}")
                continue
            if not (
                math.isclose(values["time_ratio"], base["total_time_ns"] / mine["total_time_ns"], rel_tol=1e-9)
                and math.isclose(values["error_ratio"], base["mean_dC"] / mine["mean_dC"], rel_tol=1e-9)
            ):
                res.problems.append("compare CSV ratio disagrees with the reports")
        if len(ratios) != len(strategies):
            all_fail(f"compare CSV has {len(ratios)} rows")
    return list(results.values())


def check_bench(out: Path, seed: int, runs: int, families, strategies) -> list[Result]:
    """Check ``bench.csv``: one finite row per family x strategy x placement."""
    keys = {}
    for family in families:
        for strategy in strategies:
            placements = [("spectral", "")] + [("random", str(seed + i)) for i in range(runs)]
            for pmode, pseed in placements:
                key = (family, strategy, pmode, pseed)
                keys[key] = Result("/".join(k for k in key if k))
    try:
        rows = _read_csv(out / "bench.csv", BENCH_COLUMNS)
    except (OSError, ValueError) as exc:
        for res in keys.values():
            res.problems.append(f"bench CSV: {exc}")
        return list(keys.values())
    seen = set()
    for row in rows:
        key = (row["family"], row["strategy"], row["placement"], row["seed"])
        if key not in keys or key in seen:
            for res in keys.values():
                res.problems.append(f"bench CSV has an unexpected row {row}")
            break
        seen.add(key)
        res = keys[key]
        try:
            values = _finite(row, BENCH_COLUMNS[4:])
        except ValueError as exc:
            res.problems.append(f"bench CSV: {exc}")
            continue
        if not (values["total_time_ns"] > 0 and values["mean_dC"] > 0 and values["std_dC"] >= 0):
            res.problems.append(f"bench CSV: non-positive values {values}")
            continue
        res.makespan_ns = values["total_time_ns"]
        res.dephasing = values["mean_dC"]
    for key in keys.keys() - seen:
        keys[key].problems.append("missing from bench.csv")
    return list(keys.values())
