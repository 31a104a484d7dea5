"""spinbus benchmark: run one workload through ``spinbus.cli.main`` in this
process, check every output, and print the metrics as one JSON line.

    python3 perfbench/run.py --workload {suite16,deep64,wide128} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time (the median of repeated fresh imports + input writes +
warm-ups, SETUPS_PER_PASS before every pass, so that they sample the same
stretch of time as the passes), the median wall time of repeated passes
over the workload's command list in about ``--seconds``, peak RSS, and the
geometric means of the schedules' makespan and dephasing. Both times are
scaled to a reference machine speed measured by the probe in ``pace.py``,
which neither calls nor changes the program. ``--trace 1``
runs one untraced pass and one pass under the outside-in tracer (warm-up
commands included, so every layer is timed) and prints per-layer metrics. Metric names and
units come from BENCHMARK.json. The program is imported from ``src/`` of
the checkout this file sits in; without it the run exits 2.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()  # benchmark start, before any other import

import argparse  # noqa: E402
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checker
import pace
import workloads as wl
from tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected_outputs.json"
SETUPS_PER_PASS = 3


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``spinbus.cli`` afresh from this checkout's ``src/``."""
    if not (SRC / "spinbus" / "__init__.py").is_file():
        raise ProgramMissing(f"no spinbus package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "spinbus" or m.startswith("spinbus.")]:
        del sys.modules[name]
    cli = importlib.import_module("spinbus.cli")
    if Path(cli.__file__).resolve().parent != SRC / "spinbus":
        raise ProgramMissing(f"imported spinbus from {cli.__file__}, not {SRC}")
    return cli


def run_command(cli, argv) -> tuple[int, str]:
    """Exit code and captured output of one CLI call; a crash is code -1."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the workload keeps going; the failure is counted
        return -1, sink.getvalue() + traceback.format_exc()
    return code, sink.getvalue()


@dataclass
class Pass:
    wall: float  # seconds, probe time excluded
    outcomes: list[tuple[int, str]]
    digests: list[dict[str, str]]
    probes: list[float] = field(default_factory=list)  # machine-speed probes around and in the pass

    @property
    def reference_wall(self) -> float:
        return pace.reference_seconds(self.wall, self.probes)


def run_pass(cli, commands, tracer: Tracer | None = None, first_id: int = 0, paced: bool = False) -> Pass:
    """Run the commands once; ``paced`` probes the machine's speed during the pass."""
    for command in commands:
        shutil.rmtree(command.out, ignore_errors=True)
    outcomes = []
    probes = [pace.probe()] if paced else []
    with pace.Sampler() if paced else contextlib.nullcontext() as sampler:
        start = time.perf_counter()
        for k, command in enumerate(commands):
            if tracer is not None:
                tracer.command = first_id + k
            outcomes.append(run_command(cli, command.argv))
        wall = time.perf_counter() - start
    if paced:
        wall -= sampler.spent
        probes += sampler.probes + [pace.probe()]
    return Pass(wall, outcomes, [wl.output_digests(c.out) for c in commands], probes)


def setup(name: str, seed: int, started: float):
    """Import the program, write the inputs and warm up; returns the time
    since ``started`` with the program module and the two command lists."""
    cli = import_program()
    workload = wl.make_workload(name, seed, WORK / name)
    warmup = wl.make_warmup(seed, WORK / name)
    workload.write_inputs()
    warmup.write_inputs()
    for command in warmup.commands:
        code, log = run_command(cli, command.argv)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(command.argv)} exited {code}:\n{log}")
    return time.perf_counter() - started, cli, workload, warmup


def check_outputs(workload: wl.Workload, command: wl.Command) -> list[checker.Result]:
    if command.is_bench:
        return checker.check_bench(
            command.out, workload.seed, wl.SUITE_RUNS, wl.FAMILIES, command.strategies
        )
    return checker.check_compile(command.out, command.strategies, command.native)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Verdict:
    attempted: int
    failed: int
    makespan_gm_ns: float
    dephasing_gm: float
    ops: int
    outputs_changed: int | None
    problems: list[str]


def evaluate(workload: wl.Workload, passes: list[Pass]) -> Verdict:
    """Check the last pass's files; earlier passes must match them byte for byte.

    A schedule fails when its command exits nonzero or raises, when the
    checker rejects it, or when a pass wrote different bytes for it.
    """
    last = passes[-1]
    results = [check_outputs(workload, c) for c in workload.commands]
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        for k, (command, checked) in enumerate(zip(workload.commands, results)):
            code, log = p.outcomes[k]
            attempted += command.schedules
            if code != 0:
                failed += command.schedules
                problems.append(f"{' '.join(command.argv[:2])} exited {code}: {log[-400:]}")
            elif p.digests[k] != last.digests[k]:
                failed += command.schedules
                problems.append(f"{command.out.name}: outputs differ between passes")
            else:
                rejected = [r for r in checked if r.problems]
                failed += len(rejected)
                problems += [f"{r.key}: {r.problems[:3]}" for r in rejected]
    good = [r for checked in results for r in checked if not r.problems]
    return Verdict(
        attempted=attempted,
        failed=failed,
        makespan_gm_ns=geomean([r.makespan_ns for r in good]) if good else math.nan,
        dephasing_gm=geomean([r.dephasing for r in good]) if good else math.nan,
        ops=sum(r.ops for r in good),
        outputs_changed=outputs_changed(workload, last),
        problems=problems,
    )


def labelled_digests(workload: wl.Workload, done: Pass) -> dict[str, str]:
    """Digest of every file a pass wrote, keyed "<output dir>/<file>"."""
    return {
        f"{c.out.name}/{path}": digest
        for c, digests in zip(workload.commands, done.digests)
        for path, digest in digests.items()
    }


def outputs_changed(workload: wl.Workload, last: Pass) -> int | None:
    """Output files whose bytes differ from the recorded digests for this
    seed; None when no digests were recorded for it."""
    try:
        expected = json.loads(EXPECTED.read_text())[workload.name][str(workload.seed)]
    except (OSError, KeyError):
        return None
    actual = labelled_digests(workload, last)
    return sum(1 for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))


def tracing_targets(tally: Counter, placements: list) -> list[Target]:
    """The public functions of each layer, with what to count at each."""

    def parsed(args, kwargs, circuit):
        tally["qasm.gates"] += len(circuit.gates)

    def decomposed(args, kwargs, circuit):
        tally["circuit.native_gates"] += len(circuit.gates)

    def sliced(args, kwargs, sc):
        tally["circuit.layers"] += len(sc.layers)

    def placed(args, kwargs, placement):
        placements.append((args[0].weights, placement.perm))

    def mapped(args, kwargs, schedule):
        tally["mapper.ops"] += len(schedule.ops)
        tally["mapper.shuttles"] += sum(1 for op in schedule.ops if hasattr(op, "qubit"))

    def validated(args, kwargs, violations):
        tally["mapper.validated_ops"] += len(args[0].ops)
        tally["mapper.violations"] += len(violations)

    def serialized(args, kwargs, text):
        tally["mapper.json_bytes"] += len(text)

    mapper = ["map_strategy", "map_baseline", "map_parallel", "map_min_return",
              "map_tunable_velocity", "map_swap_return"]
    return [
        Target("spinbus.cli", "main", "cli.self_s"),
        Target("spinbus.qasm", "parse_qasm", "qasm.parse_s", parsed),
        Target("spinbus.benchgen", "generate", "benchgen.generate_s"),
        Target("spinbus.circuit", "decompose", "circuit.decompose_s", decomposed),
        Target("spinbus.circuit", "slice_circuit", "circuit.slice_s", sliced),
        Target("spinbus.placement", "build_interaction_graph", "placement.graph_s"),
        Target("spinbus.placement", "spectral_placement", "placement.spectral_s", placed),
        Target("spinbus.placement", "fiedler_vector", "placement.fiedler_s"),
        Target("spinbus.placement", "random_placement", "placement.random_s"),
        Target("spinbus.error_model", "optimal_velocity", "error_model.optimal_velocity_s"),
        Target("spinbus.error_model", "phase_error", ""),
        *[Target("spinbus.mapper", name, "mapper.map_s", mapped) for name in mapper],
        Target("spinbus.mapper", "validate_schedule", "mapper.validate_s", validated),
        Target("spinbus.mapper", "schedule_to_json", "mapper.to_json_s", serialized),
        Target("spinbus.metrics", "summarize", "metrics.summarize_s"),
    ]


def minla(weights, perm) -> float:
    """Weighted linear-arrangement cost: sum of w(u, v) |site(u) - site(v)|."""
    w = [[float(x) for x in row] for row in weights]
    n = len(perm)
    return sum(w[u][v] * abs(perm[u] - perm[v]) for u in range(n) for v in range(u + 1, n))


def reload_violations(workload: wl.Workload) -> int:
    """Violations found revalidating every schedule read back through
    ``schedule_from_json`` (the wire-format read path)."""
    mapper = importlib.import_module("spinbus.mapper")
    circuit = importlib.import_module("spinbus.circuit")
    qasm = importlib.import_module("spinbus.qasm")
    total = 0
    for command in workload.commands:
        native = circuit.decompose(qasm.parse_qasm(command.source.read_text()))
        for strategy in command.strategies:
            text = (command.out / f"schedule_{strategy}__spectral.json").read_text()
            schedule = mapper.schedule_from_json(text, native)
            total += len(mapper.validate_schedule(schedule, schedule.arch))
    return total


def traced_run(cli, workload: wl.Workload, warmup: wl.Workload) -> tuple[dict, Verdict]:
    untraced = run_pass(cli, workload.commands)
    tally: Counter = Counter()
    placements: list = []
    tracer = Tracer("spinbus", tracing_targets(tally, placements))
    with tracer:
        warm = run_pass(cli, warmup.commands, tracer)
        traced = run_pass(cli, workload.commands, tracer, len(warmup.commands))
    spans_path = WORK / workload.name / "spans.json"
    spans_path.write_text(json.dumps([list(vars(s).values()) for s in tracer.spans]))
    if tracer.absent:
        print(f"trace: absent functions {tracer.absent}")

    own = tracer.layer_self_times()
    traced_wall = warm.wall + traced.wall
    print(
        f"trace: {len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}; self times sum "
        f"to {sum(own.values()):.3f} s of {traced_wall:.3f} s traced wall; top layers "
        + ", ".join(f"{k} {v / traced_wall:.1%}" for k, v in sorted(own.items(), key=lambda kv: -kv[1])[:4])
    )
    verdict = evaluate(workload, [untraced, traced])

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    costs = [c for c in (minla(w, p) for w, p in placements) if c > 0]
    metrics = {
        **own,
        "mapper.validate_ops_per_s": rate(tally["mapper.validated_ops"], own["mapper.validate_s"]),
        "mapper.violations": tally["mapper.violations"],
        "placement.minla_gm": geomean(costs) if costs else 0.0,
        "mapper.ops": tally["mapper.ops"],
        "mapper.shuttles": tally["mapper.shuttles"],
        "error_model.optimal_velocity_calls": tracer.count("error_model.optimal_velocity"),
        "error_model.phase_error_calls": tracer.count("error_model.phase_error"),
        "mapper.json_mb": tally["mapper.json_bytes"] / 1e6,
        "qasm.gates_per_s": rate(tally["qasm.gates"], own["qasm.parse_s"]),
        "circuit.native_gates": tally["circuit.native_gates"],
        "circuit.layers": tally["circuit.layers"],
        "mapper.reload_violations": reload_violations(workload) if workload.name == "deep64" else 0,
        "check.outputs_changed": verdict.outputs_changed or 0,
        "trace.overhead_frac": traced.wall / untraced.wall - 1.0,
    }
    return metrics, verdict


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, Verdict]:
    setup_times: list[float] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            # the first set-up runs from benchmark start, so it has no probe before it
            probes = [pace.probe()] if setup_times else []
            started = time.perf_counter() if setup_times else STARTED
            elapsed, cli, workload, _ = setup(name, seed, started)
            probes.append(pace.probe())
            setup_times.append(pace.reference_seconds(elapsed, probes))
        passes.append(run_pass(cli, workload.commands, paced=True))
        # start another pass while at least half of it fits in the budget
        if time.perf_counter() - start + statistics.median(p.wall for p in passes) / 2 > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict = evaluate(workload, passes)
    print(
        f"{workload.name}: {len(passes)} passes "
        f"[{', '.join(f'{p.wall:.3f}' for p in passes)}] s, "
        f"[{', '.join(f'{p.reference_wall:.3f}' for p in passes)}] s at reference speed; "
        f"{workload.schedules} schedules per pass"
        + (f", {verdict.ops} schedule ops" if verdict.ops else "")
    )
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.reference_wall for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "makespan_gm_ns": verdict.makespan_gm_ns,
        "dephasing_gm": verdict.dephasing_gm,
    }
    return metrics, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    try:
        if args.trace:
            _, cli, workload, warmup = setup(args.workload, args.seed, STARTED)
            metrics, verdict = traced_run(cli, workload, warmup)
        else:
            metrics, verdict = timed_run(args.workload, args.seed, args.seconds)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    for line in verdict.problems[:10]:
        print(f"FAILED {line}")
    changed = verdict.outputs_changed
    print(
        f"outputs: {'no digests recorded for this seed' if changed is None else f'{changed} files differ from the recorded digests'}"
    )
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
