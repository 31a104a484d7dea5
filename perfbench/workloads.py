"""Workload inputs and command lists for the spinbus benchmark.

Every input is derived from the workload seed with Python's own
``random.Random``, and the QASM text is written here, so the inputs depend
on neither ``spinbus.benchgen`` nor ``spinbus.qasm.export_qasm``. The
compiler sees only the QASM files (deep64, wide128) or the seed of its own
generators (suite16).

Workloads (why each was chosen is recorded in BENCHMARK.json):

  suite16  ``bench --n 16 --runs 2``: 7 families x 5 strategies x
           (spectral + 2 random placements) = 105 small schedules
  deep64   one QAOA MaxCut circuit on G(64, 1/2), ``compile --strategy all
           --placement spectral``: five schedules of ~26k ops each
  wide128  ten 128-qubit depth-8 brickwork circuits on a hidden line of the
           qubits, ``compile --strategy baseline --placement spectral`` each
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

STRATEGIES = ("baseline", "parallel", "min_return", "tunable_velocity", "swap_return")
FAMILIES = ("ghz", "graph_state", "dj", "qft", "qpe", "qaoa", "random")
WORKLOADS = ("suite16", "deep64", "wide128")

SUITE_N = 16
SUITE_RUNS = 2
DEEP_N = 64
WIDE_N = 128
WIDE_DEPTH = 8
WIDE_CIRCUITS = 10


@dataclass(frozen=True)
class Command:
    """One ``spinbus`` invocation and what the checker expects from it."""

    argv: tuple[str, ...]
    out: Path
    strategies: tuple[str, ...]
    source: Path | None = None  # the QASM input, for compile --input
    # operand tuples of the native circuit in gate-index order, for the
    # checker; None where the benchmark did not write the circuit
    native: tuple[tuple[int, ...], ...] | None = None

    @property
    def is_bench(self) -> bool:
        return self.argv[0] == "bench"

    @property
    def schedules(self) -> int:
        if self.is_bench:
            return len(FAMILIES) * len(self.strategies) * (1 + SUITE_RUNS)
        return len(self.strategies)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    inputs: dict[Path, str]
    commands: tuple[Command, ...]

    @property
    def schedules(self) -> int:
        return sum(c.schedules for c in self.commands)

    def write_inputs(self) -> None:
        for path, text in self.inputs.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


# A gate is (name, qubits, angle or None), names as in OpenQASM 2.0.
def qaoa_gates(n: int, rng: random.Random) -> list[tuple]:
    """One QAOA MaxCut round on a G(n, 1/2) random graph."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    gamma = rng.random() * 2.0 * math.pi
    beta = rng.random() * 2.0 * math.pi
    gates = [("h", (q,), None) for q in range(n)]
    for u, v in edges:
        gates += [("cx", (u, v), None), ("rz", (v,), gamma), ("cx", (u, v), None)]
    gates += [("rx", (q,), beta) for q in range(n)]
    return gates


def brickwork_gates(n: int, depth: int, rng: random.Random) -> list[tuple]:
    """Brickwork on a hidden line of the qubits, in a seeded order.

    Even layers rotate every qubit; odd layers apply CX to alternately the
    even and the odd neighbour pairs of the line. The interaction graph is
    that line, so spectral placement has a well-defined answer to find.
    """
    line = list(range(n))
    rng.shuffle(line)
    gates = []
    for layer in range(depth):
        if layer % 2 == 0:
            for q in range(n):
                kind = ("rx", "ry", "rz")[rng.randrange(3)]
                gates.append((kind, (q,), rng.random() * 2.0 * math.pi))
        else:
            offset = (layer // 2) % 2
            gates += [("cx", (line[i], line[i + 1]), None) for i in range(offset, n - 1, 2)]
    return gates


def emit_qasm(n: int, gates: list[tuple]) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for name, qubits, angle in gates:
        operands = ",".join(f"q[{q}]" for q in qubits)
        if angle is None:
            lines.append(f"{name} {operands};")
        else:
            lines.append(f"{name}({angle!r}) {operands};")
    return "\n".join(lines) + "\n"


def native_operands(gates: list[tuple]) -> tuple[tuple[int, ...], ...]:
    """Operands of the {rx, rz, h, cz} circuit, by the documented identities.

    ry(t) q -> rz q, rx q, rz q;  cx c,t -> h t, cz c,t, h t.
    """
    out: list[tuple[int, ...]] = []
    for name, qubits, _ in gates:
        if name in ("h", "rx", "rz", "cz"):
            out.append(qubits)
        elif name == "ry":
            out += [qubits] * 3
        elif name == "cx":
            out += [(qubits[1],), qubits, (qubits[1],)]
        else:
            raise ValueError(f"no native expansion for {name!r}")
    return tuple(out)


def _compile(path: Path, out: Path, strategy: str, gates) -> Command:
    argv = ("compile", "--input", str(path), "--strategy", strategy,
            "--placement", "spectral", "--out", str(out))
    strategies = STRATEGIES if strategy == "all" else (strategy,)
    return Command(argv, out, strategies, path, native_operands(gates))


def make_workload(name: str, seed: int, work: Path) -> Workload:
    """Inputs and commands of one workload; all paths live under ``work``."""
    rng = random.Random(seed)
    inputs: dict[Path, str] = {}
    commands: list[Command] = []
    if name == "suite16":
        out = work / "out" / "suite16"
        argv = ("bench", "--n", str(SUITE_N), "--runs", str(SUITE_RUNS),
                "--seed", str(seed), "--out", str(out))
        commands.append(Command(argv, out, STRATEGIES))
    elif name == "deep64":
        gates = qaoa_gates(DEEP_N, rng)
        path = work / "in" / "deep64.qasm"
        inputs[path] = emit_qasm(DEEP_N, gates)
        commands.append(_compile(path, work / "out" / "deep64", "all", gates))
    elif name == "wide128":
        for k in range(WIDE_CIRCUITS):
            gates = brickwork_gates(WIDE_N, WIDE_DEPTH, rng)
            path = work / "in" / f"wide128_{k}.qasm"
            inputs[path] = emit_qasm(WIDE_N, gates)
            out = work / "out" / f"wide128_{k}"
            commands.append(_compile(path, out, "baseline", gates))
    else:
        raise ValueError(f"unknown workload {name!r}; pick from {WORKLOADS}")
    return Workload(name, seed, inputs, tuple(commands))


def make_warmup(seed: int, work: Path) -> Workload:
    """Two 6-qubit compiles that between them call every traced function
    except the spectral-placement ones, which every workload calls itself."""
    rng = random.Random(seed)
    gates = brickwork_gates(6, 4, rng)
    path = work / "warmup" / "warm.qasm"
    gen_out = work / "warmup" / "gen"
    gen = Command(
        ("compile", "--gen", "qaoa", "--n", "6", "--seed", str(seed), "--strategy",
         "all", "--placement", "random", "--runs", "1", "--out", str(gen_out)),
        gen_out, STRATEGIES,
    )
    qasm_out = work / "warmup" / "qasm"
    qasm = Command(
        ("compile", "--input", str(path), "--strategy", "all", "--placement",
         "identity", "--out", str(qasm_out)),
        qasm_out, STRATEGIES,
    )
    return Workload("warmup", seed, {path: emit_qasm(6, gates)}, (gen, qasm))


def output_digests(out_root: Path) -> dict[str, str]:
    """Short SHA-256 of every file under ``out_root``, keyed by relative path."""
    return {
        p.relative_to(out_root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(out_root.rglob("*"))
        if p.is_file()
    }
