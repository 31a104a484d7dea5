"""The checker accepts what spinbus writes and rejects broken schedules."""
import copy
import json
import random

import pytest

import checker
import workloads as wl
from spinbus import cli


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """All five strategies on a small seeded QAOA circuit, as written to disk."""
    tmp = tmp_path_factory.mktemp("compile")
    gates = wl.qaoa_gates(8, random.Random(3))
    qasm = tmp / "in.qasm"
    qasm.write_text(wl.emit_qasm(8, gates))
    out = tmp / "out"
    argv = ["compile", "--input", str(qasm), "--strategy", "all",
            "--placement", "spectral", "--out", str(out)]
    assert cli.main(argv) == 0
    return out, wl.native_operands(gates)


def load(out, strategy):
    return json.loads((out / f"schedule_{strategy}__spectral.json").read_text())


def test_accepts_untouched_outputs(compiled):
    out, native = compiled
    results = checker.check_compile(out, wl.STRATEGIES, native)
    assert [r.problems for r in results] == [[]] * len(wl.STRATEGIES)
    assert all(r.makespan_ns > 0 and r.dephasing > 0 and r.ops > 0 for r in results)


def first(doc, pred):
    return next(op for op in doc["ops"] if pred(op))


def shift_gate(doc):
    first(doc, lambda op: "gate" in op)["t0_ns"] += 1.0


def shift_return(doc):
    first(doc, lambda op: "q" in op and op["from"]["kind"] == "zone")["t0_ns"] -= 1.0


def scale_dc(doc):
    first(doc, lambda op: "q" in op)["dC"] *= 1.01


def drop_shuttle(doc):
    doc["ops"].remove(first(doc, lambda op: "q" in op))


def swap_final_sites(doc):
    sites = doc["final_sites"]
    sites[0], sites[1] = sites[1], sites[0]


@pytest.mark.parametrize("strategy", wl.STRATEGIES)
@pytest.mark.parametrize(
    "mutate", [shift_gate, shift_return, scale_dc, drop_shuttle, swap_final_sites]
)
def test_rejects_mutation(compiled, strategy, mutate):
    out, native = compiled
    doc = load(out, strategy)
    assert checker.check_schedule(doc, native) == []
    broken = copy.deepcopy(doc)
    mutate(broken)
    assert checker.check_schedule(broken, native)


def test_rejects_report_csv_with_a_missing_row(compiled, tmp_path):
    out, native = compiled
    copy_out = tmp_path / "out"
    copy_out.mkdir()
    for path in out.iterdir():
        (copy_out / path.name).write_bytes(path.read_bytes())
    report = copy_out / "reports__spectral.csv"
    report.write_text("".join(report.read_text().splitlines(keepends=True)[:-1]))
    results = checker.check_compile(copy_out, wl.STRATEGIES, native)
    assert all(r.problems for r in results)


def test_bench_csv(tmp_path):
    out = tmp_path / "bench"
    argv = ["bench", "--n", "4", "--runs", "1", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    results = checker.check_bench(out, 5, 1, wl.FAMILIES, wl.STRATEGIES)
    assert len(results) == len(wl.FAMILIES) * len(wl.STRATEGIES) * 2
    assert all(not r.problems and r.makespan_ns > 0 for r in results)

    lines = (out / "bench.csv").read_text().splitlines(keepends=True)
    (out / "bench.csv").write_text("".join(lines[:-1]))
    assert sum(1 for r in checker.check_bench(out, 5, 1, wl.FAMILIES, wl.STRATEGIES) if r.problems) == 1

    lines[1] = ",".join(lines[1].split(",")[:4] + ["nan", "1.0", "0.0"]) + "\n"
    (out / "bench.csv").write_text("".join(lines))
    assert sum(1 for r in checker.check_bench(out, 5, 1, wl.FAMILIES, wl.STRATEGIES) if r.problems) == 1
