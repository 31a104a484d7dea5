"""Command-line frontend: compile one circuit, run the benchmark matrix,
or sweep placement impact over qubit counts.

Exit codes: 0 success, 1 QASM parse error, 2 invalid configuration,
3 internal schedule-validation failure (always a bug).

Configuration merges three layers, later wins: built-in defaults, the
--config JSON file, explicit flags. All emitted CSV/JSON is
byte-deterministic under fixed seeds: rows are sorted, floats printed with
repr, newlines fixed to "\n".
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .architecture import ArchitectureSpec, Location, distance
from .benchgen import FAMILIES, BenchmarkSpec, generate
from .circuit import Circuit, decompose, slice_circuit
from .error_model import V_BRACKET, ErrorModelParams, optimal_velocity, phase_error
from .mapper import STRATEGIES, STRATEGY_FLAGS, map_strategy
from .metrics import compare, left_sum, mean_std, reports_to_csv, reports_to_json, summarize
from .placement import (
    Placement,
    build_interaction_graph,
    random_placement,
    spectral_placement,
)
from .qasm import QasmError, parse_qasm
from .schedule import schedule_to_json
from .validate import validate_schedule

PLACEMENT_MODES = ("spectral", "random", "identity")

BENCH_HEADER = "family,strategy,placement,seed,total_time_ns,mean_dC,std_dC"
SWEEP_HEADER = "family,n,depth,strategy,time_ratio,error_ratio"
COMPARE_HEADER = "strategy,time_ratio,error_ratio"


def _duration_ns(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"want a finite number of ns >= 0, got {text!r}")
    return value


# The one declaration of every option: key -> (default, type, choices, help).
# It builds the subparsers, gives the defaults, names the keys a --config
# file may hold (all but "config") and converts their values.
_COMMON_OPTIONS = {
    "arch_config": (None, str, None, "architecture JSON (um/ns units)"),
    "error_config": (None, str, None, "error-model JSON (nm/us/ueV units)"),
    "config": (None, str, None, "JSON config file; flags override it"),
    "out": ("out", str, None, "output directory (default: out)"),
    "seed": (0, int, None, None),
    "runs": (10, int, None, "random-placement repetitions"),
    "qaoa_rounds": (1, int, None, None),
}

OPTIONS = {
    "compile": {
        **_COMMON_OPTIONS,
        "input": (None, str, None, "OpenQASM 2.0 file"),
        "gen": (None, str, FAMILIES, "generate a benchmark family"),
        "n": (None, int, None, "qubit count for --gen"),
        "depth": (None, int, None, "depth for --gen random"),
        "strategy": ("all", str, ("all",) + STRATEGIES, None),
        "placement": ("spectral", str, PLACEMENT_MODES, None),
        "measure_duration": (
            None, _duration_ns, None, "schedule MEASURE as a gate of this many ns"
        ),
        "format": ("json,csv", str, None, "comma-set of json,csv"),
    },
    "bench": {
        **_COMMON_OPTIONS,
        "n": (16, int, None, None),
        "families": (",".join(FAMILIES), str, None, None),
    },
    "sweep": {
        **_COMMON_OPTIONS,
        "n_min": (10, int, None, None),
        "n_max": (30, int, None, None),
        "n_step": (5, int, None, None),
        "families": (",".join(FAMILIES), str, None, None),
    },
}


class ConfigError(Exception):
    pass


class ValidationFailure(Exception):
    pass


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(x)


def _load_json_file(path: str, what: str) -> dict:
    """The JSON object held in ``path``; anything else is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: NUL in path, bad UTF-8, huge int
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    return cfg


def _convert(key: str, value, option: tuple):
    """A config-file value, converted and checked as argparse does the flag's
    text; a list joins with commas where the option takes text."""
    _, kind, choices, _ = option
    if isinstance(value, list) and kind is str:
        value = ",".join(map(str, value))
    try:
        value = kind(str(value))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    if choices is not None and value not in choices:
        raise ConfigError(f"bad value for {key!r}: {value!r}; pick from {choices}")
    return value


def _merge_config(cmd: str, given: dict) -> argparse.Namespace:
    """Defaults, then the --config file (JSON null leaves a key unset), then flags."""
    options = OPTIONS[cmd]
    merged = {key: option[0] for key, option in options.items()}
    if given.get("config"):
        for key, value in _load_json_file(given["config"], "config file").items():
            if key not in options or key == "config":
                raise ConfigError(f"unknown config key {key!r} for {cmd}")
            if value is not None:
                merged[key] = _convert(key, value, options[key])
    merged.update(given)
    return argparse.Namespace(cmd=cmd, **merged)


def _build_arch(n: int, path: str | None) -> ArchitectureSpec:
    try:
        if path is None:
            return ArchitectureSpec(n_sites=n)
        cfg = _load_json_file(path, "architecture config")
        cfg.setdefault("n_sites", n)
        arch = ArchitectureSpec.from_config(cfg)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad architecture: {exc}") from exc
    if arch.n_sites != n:
        raise ConfigError(
            f"architecture has {arch.n_sites} sites but the circuit needs {n}"
        )
    return arch


def _build_errp(path: str | None) -> ErrorModelParams:
    if path is None:
        return ErrorModelParams()
    try:
        return ErrorModelParams.from_config(_load_json_file(path, "error-model config"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad error-model config: {exc}") from exc


def _check_model(arch: ArchitectureSpec, errp: ErrorModelParams, strategies, sliced, measure_duration) -> None:
    """ConfigError unless every schedule of ``sliced`` keeps its times and
    errors, and the reports their sums and squares, finite.

    The error model must evaluate, without raising and to a finite value,
    over the longest move on the bus (site 0 to the last zone) at every
    velocity the strategies shuttle at: the default velocity, and for a
    tunable strategy the optimum, whose search evaluates the model across
    its whole velocity bracket (a shorter move's optimum does no worse).
    A schedule has fewer than ``ops`` ops, none longer than that move at
    the slowest velocity or the longest gate, so ``ops`` times the longest
    op bounds its time, and ``ops`` times the worst error bounds a qubit's
    error, twice that its distance from the mean.
    """
    longest = distance(Location.site(0), Location.zone(arch.n_sites - 1), arch)
    slowest, errors = [], []
    try:
        for tunable in sorted({STRATEGY_FLAGS[s][2] for s in strategies}):
            v = optimal_velocity(longest, errp) if tunable else arch.default_velocity
            slowest.append(V_BRACKET[0] if tunable else v)
            errors.append(phase_error(v, longest, errp))
    except ArithmeticError as exc:  # ZeroDivisionError, OverflowError
        raise ConfigError(f"the error model fails at the velocities in use: {exc!r}") from exc
    if not all(map(math.isfinite, errors)):
        raise ConfigError(f"the error model is not finite over the longest move, {longest} m")
    ops = 4 * len(sliced.circuit.gates) + 1
    worst_time = ops * max(longest / min(slowest), arch.t_1q, arch.t_2q, measure_duration or 0.0)
    worst_spread = 2 * ops * max(errors)
    if not (math.isfinite(worst_time * 1e9) and math.isfinite(worst_spread * worst_spread * arch.n_sites)):
        raise ConfigError(
            f"schedule times or errors of this circuit could overflow a float: up to {ops} ops of "
            f"up to {worst_time / ops} s, each shuttle adding up to {max(errors)}"
        )


def _out_dir(path: str) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc}") from exc
    return Path(path)


def _write_text(path: Path, text: str) -> None:
    """Write one output file; failing to is a ConfigError, not a traceback."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc


def _check_writable(path: Path) -> None:
    """Open ``path`` for appending and close it, so an unwritable output file
    fails before any mapping; append mode leaves an existing file intact."""
    try:
        path.open("a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc


def _load_circuit(args: argparse.Namespace) -> Circuit:
    if bool(args.input) == bool(args.gen):
        raise ConfigError("exactly one of --input and --gen is required")
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {args.input!r}: {exc}") from exc
        return parse_qasm(text)
    if args.n is None:
        raise ConfigError("--gen needs --n")
    spec = _benchmark_spec(
        family=args.gen,
        n=args.n,
        seed=args.seed,
        qaoa_rounds=args.qaoa_rounds,
        depth=args.depth,
    )
    return generate(spec)


def _benchmark_spec(**fields) -> BenchmarkSpec:
    try:
        return BenchmarkSpec(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _placements(
    mode: str, sliced, n: int, seed: int, runs: int
) -> list[tuple[str, int | None, Placement]]:
    """``(mode, seed, placement)`` rows; seed is None except for random."""
    if mode == "spectral":
        return [("spectral", None, spectral_placement(build_interaction_graph(sliced)))]
    if mode == "identity":
        return [("identity", None, Placement.identity(n))]
    if runs < 1:
        raise ConfigError("--runs must be >= 1")
    return [("random", seed + i, random_placement(n, seed + i)) for i in range(runs)]


def _run_matrix(cases, modes, strategies, args, errp, measure_duration=None):
    """Map, validate and summarize every case x placement x strategy.

    A case is ``(tag, sliced, arch)``. Yields ``(tag, mode, seed, strategy,
    schedule, report)`` lazily and drops its own reference to each schedule
    before mapping the next, so a consumer that drops it too keeps at most
    one schedule alive (the peak memory of a long compile).
    """
    for tag, sliced, arch in cases:
        _check_model(arch, errp, strategies, sliced, measure_duration)
        placements = [
            row
            for mode in modes
            for row in _placements(mode, sliced, arch.n_sites, args.seed, args.runs)
        ]
        for mode, seed, placement in placements:
            for strategy in strategies:
                schedule = map_strategy(
                    strategy, sliced, arch, placement, errp, measure_duration
                )
                violations = validate_schedule(schedule, arch)
                if violations:
                    lines = "; ".join(f"[{v.rule}] {v.message}" for v in violations[:5])
                    raise ValidationFailure(
                        f"{strategy}: schedule failed validation "
                        f"({len(violations)} issues): {lines}"
                    )
                yield tag, mode, seed, strategy, schedule, summarize(schedule)
                del schedule  # not held while the next one is mapped


def cmd_compile(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args)
    sliced = slice_circuit(decompose(circuit))
    arch = _build_arch(circuit.num_qubits, args.arch_config)
    errp = _build_errp(args.error_config)
    measure_duration = (
        None if args.measure_duration is None else args.measure_duration * 1e-9
    )
    strategies = list(STRATEGIES) if args.strategy == "all" else [args.strategy]
    formats = {f.strip() for f in args.format.split(",")} - {""}
    if not formats or not formats <= {"json", "csv"}:
        raise ConfigError(f"--format wants json,csv subsets, got {args.format!r}")

    out_dir = _out_dir(args.out)

    per_placement: dict[str, list] = {}
    per_strategy: dict[str, list] = {s: [] for s in strategies}
    cases = [(None, sliced, arch)]
    matrix = _run_matrix(
        cases, [args.placement], strategies, args, errp, measure_duration
    )
    for _, mode, seed, strategy, schedule, report in matrix:
        ptag = mode if seed is None else f"{mode}_s{seed}"
        if "json" in formats:
            path = out_dir / f"schedule_{strategy}__{ptag}.json"
            _write_text(path, schedule_to_json(schedule))
        per_placement.setdefault(ptag, []).append(report)
        per_strategy[strategy].append(report)
        del schedule  # only one schedule alive at a time; see _run_matrix

    for ptag, reports in per_placement.items():
        if "csv" in formats:
            _write_text(out_dir / f"reports__{ptag}.csv", reports_to_csv(reports))
        if "json" in formats:
            _write_text(out_dir / f"reports__{ptag}.json", reports_to_json(reports))
        if len(reports) == len(STRATEGIES) and "csv" in formats:
            rows = [COMPARE_HEADER]
            for ratios in compare(reports):
                rows.append(
                    f"{ratios.strategy},{_fmt(ratios.time_ratio)},{_fmt(ratios.error_ratio)}"
                )
            _write_text(out_dir / f"compare__{ptag}.csv", "\n".join(rows) + "\n")

    for strategy in strategies:
        reports = per_strategy[strategy]
        times = [r.total_time * 1e9 for r in reports]
        errors = [r.mean_error for r in reports]
        if len(reports) == 1:
            print(
                f"{strategy}: placement={next(iter(per_placement))} "
                f"total_time_ns={times[0]:.3f} mean_dC={errors[0]:.6e}"
            )
        else:
            t_mean, t_std = mean_std(times)
            e_mean, e_std = mean_std(errors)
            print(
                f"{strategy}: placement={args.placement} runs={len(reports)} "
                f"total_time_ns={t_mean:.3f}+-{t_std:.3f} "
                f"mean_dC={e_mean:.6e}+-{e_std:.6e}"
            )
    return 0


def _parse_families(text: str) -> list[str]:
    families = [f.strip() for f in text.split(",") if f.strip()]
    for family in families:
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}; pick from {FAMILIES}")
    if not families:
        raise ConfigError("no families selected")
    return families


def _family_cases(families: list[str], sizes, args: argparse.Namespace):
    """One case per size x family; the tag is (family, n, depth) as strings.

    Every size is checked before the first circuit is built, so an
    out-of-range size fails before anything is mapped.
    """
    archs = {n: _build_arch(n, args.arch_config) for n in sizes}
    specs = [
        _benchmark_spec(
            family=family, n=n, seed=args.seed, qaoa_rounds=args.qaoa_rounds
        )
        for n in sizes
        for family in families
    ]
    for spec in specs:
        sliced = slice_circuit(decompose(generate(spec)))
        yield (spec.family, str(spec.n), str(sliced.depth)), sliced, archs[spec.n]


def _write_rows(out_dir: Path, name: str, header: str, rows: list[tuple]) -> None:
    text = "\n".join([header] + [",".join(r) for r in sorted(rows)]) + "\n"
    _write_text(out_dir / name, text)
    print(f"{name.split('.')[0]}: {len(rows)} rows -> {out_dir / name}")


def cmd_bench(args: argparse.Namespace) -> int:
    cases = _family_cases(_parse_families(args.families), [args.n], args)
    errp = _build_errp(args.error_config)
    out_dir = _out_dir(args.out)
    _check_writable(out_dir / "bench.csv")

    rows = [
        (
            tag[0],
            strategy,
            mode,
            "" if seed is None else str(seed),
            repr(report.total_time * 1e9),
            repr(report.mean_error),
            repr(report.std_error),
        )
        for tag, mode, seed, strategy, _, report in _run_matrix(
            cases, ("spectral", "random"), STRATEGIES, args, errp
        )
    ]
    _write_rows(out_dir, "bench.csv", BENCH_HEADER, rows)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    families = _parse_families(args.families)
    if not (2 <= args.n_min <= args.n_max and args.n_step >= 1):
        raise ConfigError("need 2 <= n-min <= n-max and n-step >= 1")
    sizes = range(args.n_min, args.n_max + 1, args.n_step)
    cases = _family_cases(families, sizes, args)
    errp = _build_errp(args.error_config)
    out_dir = _out_dir(args.out)
    _check_writable(out_dir / "sweep.csv")

    spectral, randoms = {}, {}
    matrix = _run_matrix(cases, ("spectral", "random"), STRATEGIES, args, errp)
    for tag, mode, _, strategy, _, report in matrix:
        if mode == "spectral":
            spectral[tag, strategy] = report
        else:
            randoms.setdefault((tag, strategy), []).append(report)

    rows = []
    for (tag, strategy), base in spectral.items():
        rand = randoms[tag, strategy]
        rand_time = left_sum(r.total_time for r in rand) / len(rand)
        rand_err = left_sum(r.mean_error for r in rand) / len(rand)
        time_ratio = None if base.total_time == 0.0 else rand_time / base.total_time
        error_ratio = None if base.mean_error == 0.0 else rand_err / base.mean_error
        rows.append((*tag, strategy, _fmt(time_ratio), _fmt(error_ratio)))
    _write_rows(out_dir, "sweep.csv", SWEEP_HEADER, rows)
    return 0


_COMMANDS = {
    "compile": (cmd_compile, "compile one circuit"),
    "bench": (cmd_bench, "families x strategies x placements matrix"),
    "sweep": (cmd_sweep, "placement-impact ratios over qubit counts"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="spinbus",
        description="Compile quantum circuits onto a 1D spin-qubit shuttling bus.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, options in OPTIONS.items():
        p = sub.add_parser(cmd, argument_default=argparse.SUPPRESS, help=_COMMANDS[cmd][1])
        for key, (_, kind, choices, help_text) in options.items():
            p.add_argument(
                "--" + key.replace("_", "-"), type=kind, choices=choices, help=help_text
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    cmd = given.pop("cmd")
    try:
        args = _merge_config(cmd, given)
        return _COMMANDS[cmd][0](args)
    except QasmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
