import contextlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbus.architecture import ArchitectureSpec
from spinbus.benchgen import FAMILIES, BenchmarkSpec, generate
from spinbus.circuit import decompose, slice_circuit
from spinbus.cli import (
    BENCH_HEADER, COMPARE_HEADER, MAX_QUBITS, OPTIONS, PLACEMENT_MODES, SWEEP_HEADER, _build_parser, main,
)
from spinbus.mapper import STRATEGIES, map_strategy
from spinbus.placement import Placement, random_placement
from spinbus.validate import Violation

GHZ_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
"""

MEASURE_QASM = "qreg q[3]; creg c[3]; h q[0]; measure q -> c;"


def run_cli(*args):
    return main([str(a) for a in args])


def _must_not_map(*args, **kwargs):
    raise AssertionError("mapped before the output file was checked")


def exit_code(*args):
    """The exit code of a run, whether main returns it or argparse exits."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


class TestCompile:
    def test_generated_all_strategies(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "compile", "--gen", "ghz", "--n", 6, "--strategy", "all",
            "--placement", "spectral", "--out", out,
        )
        assert code == 0
        for strategy in STRATEGIES:
            assert (out / f"schedule_{strategy}__spectral.json").exists()
        reports = (out / "reports__spectral.csv").read_text()
        assert reports.startswith("strategy,total_time_ns,")
        assert len(reports.splitlines()) == 1 + len(STRATEGIES)
        compare_lines = (out / "compare__spectral.csv").read_text().splitlines()
        assert compare_lines[0] == COMPARE_HEADER
        stdout = capsys.readouterr().out
        assert stdout.count("total_time_ns=") == len(STRATEGIES)

    def test_undefined_ratios_are_empty_cells(self, tmp_path):
        # a lone barrier is never scheduled, so every schedule takes no time
        # and no error, and every ratio divides by zero
        qasm = tmp_path / "fence.qasm"
        qasm.write_text("OPENQASM 2.0; qreg q[2]; barrier q;")
        assert run_cli("compile", "--input", qasm, "--out", tmp_path / "out") == 0
        assert (tmp_path / "out" / "compare__spectral.csv").read_bytes() == (
            b"strategy,time_ratio,error_ratio\n"
            b"baseline,,\nparallel,,\nmin_return,,\ntunable_velocity,,\nswap_return,,\n"
        )

    def test_qasm_input(self, tmp_path):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(GHZ_QASM)
        code = run_cli(
            "compile", "--input", qasm, "--strategy", "min_return",
            "--out", tmp_path / "out",
        )
        assert code == 0
        assert (tmp_path / "out" / "schedule_min_return__spectral.json").exists()

    def test_unwritable_schedule_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "schedule_baseline__spectral.json").mkdir(parents=True)
        code = run_cli(
            "compile", "--gen", "ghz", "--n", 4, "--strategy", "baseline", "--out", out
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "schedule_baseline__spectral.json" in err

    def test_schedule_files_parse_back(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("compile", "--gen", "dj", "--n", 5, "--out", out) == 0
        for path in out.glob("schedule_*.json"):
            doc = json.loads(path.read_text())
            assert {"strategy", "arch", "placement", "error_params", "ops"} <= set(doc)

    def test_random_placement_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "compile", "--gen", "qaoa", "--n", 5, "--strategy", "min_return",
            "--placement", "random", "--runs", 3, "--seed", 7, "--out", out,
        )
        assert code == 0
        for seed in (7, 8, 9):
            assert (out / f"schedule_min_return__random_s{seed}.json").exists()
        assert "+-" in capsys.readouterr().out  # mean +- std across seeds

    @pytest.mark.parametrize("family", ["qft", "qaoa", "qpe"])
    @pytest.mark.parametrize(
        "placement, tags",
        [(["spectral"], ["spectral"]), (["random", "--runs", 2], ["random_s0", "random_s1"])],
        ids=("spectral", "random-runs-2"),
    )
    def test_one_strategy_writes_what_all_writes(self, tmp_path, family, placement, tags):
        flags = ["compile", "--gen", family, "--n", 8, "--placement", *placement]
        every = tmp_path / "all"
        assert run_cli(*flags, "--strategy", "all", "--out", every) == 0
        for strategy in STRATEGIES:
            one = tmp_path / strategy
            assert run_cli(*flags, "--strategy", strategy, "--out", one) == 0
            names = sorted(p.name for p in one.glob("schedule_*.json"))
            assert names == [f"schedule_{strategy}__{tag}.json" for tag in tags]
            for name in names:
                assert (one / name).read_bytes() == (every / name).read_bytes(), name
            for tag in tags:
                header, row = (one / f"reports__{tag}.csv").read_text().splitlines()
                lines = (every / f"reports__{tag}.csv").read_text().splitlines()
                assert [line for line in lines if line.startswith(f"{strategy},")] == [row]
                assert lines[0] == header

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[2]; h q[0]")  # missing semicolon at EOF
        code = run_cli("compile", "--input", bad, "--out", tmp_path / "out")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unsupported_construct_exits_1(self, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[2]; ccx q[0],q[1];")
        assert run_cli("compile", "--input", bad, "--out", tmp_path / "out") == 1

    def test_missing_input_exits_2(self, tmp_path):
        assert run_cli("compile", "--out", tmp_path / "out") == 2

    def test_both_inputs_exit_2(self, tmp_path):
        qasm = tmp_path / "a.qasm"
        qasm.write_text(GHZ_QASM)
        code = run_cli(
            "compile", "--input", qasm, "--gen", "ghz", "--n", 4,
            "--out", tmp_path / "out",
        )
        assert code == 2

    def test_unreadable_input_exits_2(self, tmp_path):
        assert run_cli("compile", "--input", tmp_path / "nope.qasm",
                       "--out", tmp_path / "out") == 2

    def test_bad_arch_config_exits_2(self, tmp_path):
        cfg = tmp_path / "arch.json"
        cfg.write_text(json.dumps({"n_sites": 3}))  # mismatches a 6-qubit circuit
        code = run_cli(
            "compile", "--gen", "ghz", "--n", 6, "--arch-config", cfg,
            "--out", tmp_path / "out",
        )
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gen": "ghz", "n": 4, "strategy": "baseline"}))
        out = tmp_path / "out"
        code = run_cli(
            "compile", "--config", cfg, "--strategy", "parallel", "--out", out
        )
        assert code == 0
        assert (out / "schedule_parallel__spectral.json").exists()
        assert not (out / "schedule_baseline__spectral.json").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gen": "ghz", "n": 4, "bogus": 1}))
        assert run_cli("compile", "--config", cfg, "--out", tmp_path / "out") == 2

    def test_arch_and_error_overrides_used(self, tmp_path):
        arch_cfg = tmp_path / "arch.json"
        arch_cfg.write_text(json.dumps({"default_velocity_mps": 5.0}))
        err_cfg = tmp_path / "err.json"
        err_cfg.write_text(json.dumps({"t2_star_us": 10.0}))
        out = tmp_path / "out"
        code = run_cli(
            "compile", "--gen", "ghz", "--n", 4, "--strategy", "baseline",
            "--arch-config", arch_cfg, "--error-config", err_cfg, "--out", out,
        )
        assert code == 0
        doc = json.loads((out / "schedule_baseline__spectral.json").read_text())
        assert doc["arch"]["default_velocity_mps"] == 5.0
        assert doc["error_params"]["t2_star_us"] == 10.0

    def test_measure_duration_flag(self, tmp_path):
        qasm = tmp_path / "m.qasm"
        qasm.write_text("qreg q[2]; creg c[2]; h q[0]; measure q -> c;")
        out = tmp_path / "out"
        code = run_cli(
            "compile", "--input", qasm, "--strategy", "baseline",
            "--measure-duration", 250, "--out", out,
        )
        assert code == 0
        doc = json.loads((out / "schedule_baseline__spectral.json").read_text())
        gate_ops = [op for op in doc["ops"] if "gate" in op]
        assert len(gate_ops) == 3  # H plus two measures
        assert any(op["dur_ns"] == 250.0 for op in gate_ops)

    @pytest.mark.parametrize("value", ["nan", "-50", "inf", "-inf", "x"])
    def test_measure_duration_out_of_range_exits_2(self, tmp_path, capsys, value):
        qasm = tmp_path / "m.qasm"
        qasm.write_text(MEASURE_QASM)
        cfg = tmp_path / "run.json"
        cfg.write_text('{"measure_duration": %s}' % json.dumps(value))
        base = ("compile", "--input", qasm, "--strategy", "baseline", "--out", tmp_path)
        for extra in (("--measure-duration", value), ("--config", cfg)):
            assert exit_code(*base, *extra) == 2, extra
            err = capsys.readouterr().err  # a flag error comes after argparse's usage
            assert sum("error: " in line for line in err.splitlines()) == 1

    def test_measure_duration_zero(self, tmp_path):
        qasm = tmp_path / "m.qasm"
        qasm.write_text(MEASURE_QASM)
        code = run_cli(
            "compile", "--input", qasm, "--strategy", "baseline",
            "--measure-duration", 0, "--out", tmp_path / "out",
        )
        assert code == 0

    def test_csv_only_format(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "compile", "--gen", "ghz", "--n", 4, "--format", "csv", "--out", out
        )
        assert code == 0
        assert list(out.glob("*.json")) == []
        assert (out / "reports__spectral.csv").exists()

    def test_identity_placement(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("compile", "--gen", "ghz", "--n", 4, "--placement", "identity", "--out", out)
        assert code == 0
        for strategy in STRATEGIES:
            doc = json.loads((out / f"schedule_{strategy}__identity.json").read_text())
            assert doc["placement"] == [0, 1, 2, 3]
        assert (out / "reports__identity.csv").exists()

    def test_invalid_schedule_exits_3(self, tmp_path, capsys, monkeypatch):
        violation = Violation("a", 0, "injected")
        monkeypatch.setattr("spinbus.cli.validate_schedule", lambda s, spec: [violation])
        code = run_cli("compile", "--gen", "ghz", "--n", 4, "--out", tmp_path / "out")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "[a] injected" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--placement", "random", "--runs", 0), "--runs must be >= 1"),
            (("--format", "xml"), "--format wants"),
            (("--format", ","), "--format wants"),
        ],
    )
    def test_bad_option_value_exits_2(self, tmp_path, capsys, flags, message):
        code = run_cli("compile", "--gen", "ghz", "--n", 4, *flags, "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


class TestBench:
    def test_matrix_shape(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "bench", "--n", 5, "--families", "ghz,dj", "--runs", 2, "--out", out
        )
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == BENCH_HEADER
        # 2 families x 5 strategies x (1 spectral + 2 random)
        assert len(lines) == 1 + 2 * 5 * 3
        rows = [line.split(",") for line in lines[1:]]
        assert {r[0] for r in rows} == {"ghz", "dj"}
        assert {r[2] for r in rows} == {"spectral", "random"}
        for r in rows:
            float(r[4]), float(r[5]), float(r[6])  # numeric payload columns

    def test_unknown_family_exits_2(self, tmp_path):
        assert run_cli("bench", "--families", "nope", "--out", tmp_path / "o") == 2

    def test_no_family_exits_2(self, tmp_path, capsys):
        assert run_cli("bench", "--families", ",", "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: no families selected\n"

    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        (out / "bench.csv").mkdir(parents=True)
        monkeypatch.setattr("spinbus.cli.map_strategy", _must_not_map)
        code = run_cli("bench", "--n", 4, "--families", "ghz", "--runs", 1, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "bench.csv" in err

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "bench", "--n", 5, "--families", "ghz,qaoa", "--runs", 2,
                "--seed", 3, "--out", out,
            ) == 0
        assert (a / "bench.csv").read_bytes() == (b / "bench.csv").read_bytes()


class TestSweep:
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        (out / "sweep.csv").mkdir(parents=True)
        monkeypatch.setattr("spinbus.cli.map_strategy", _must_not_map)
        code = run_cli("sweep", "--families", "ghz", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "sweep.csv" in err

    def test_row_structure(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--n-min", 4, "--n-max", 6, "--n-step", 2,
            "--families", "ghz", "--runs", 2, "--out", out,
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 2 * 5  # two sizes x five strategies
        for line in lines[1:]:
            family, n, depth, strategy, tr, er = line.split(",")
            assert family == "ghz"
            assert int(n) in (4, 6)
            assert int(depth) > 0
            assert strategy in STRATEGIES
            assert float(tr) > 0 and float(er) > 0

    def test_bad_range_exits_2(self, tmp_path):
        assert run_cli("sweep", "--n-min", 8, "--n-max", 4, "--out", tmp_path / "o") == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "sweep", "--n-min", 4, "--n-max", 5, "--n-step", 1,
                "--families", "graph_state", "--runs", 2, "--out", out,
            ) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, name, error_config",
    [
        (["bench", "--n", 1], "bench.csv", None),
        (["sweep", "--n-max", 70], "sweep.csv", None),
        (["bench", "--runs", 0, "--n", 4, "--families", "ghz"], "bench.csv", None),
        (["compile", "--gen", "ghz", "--n", 4, "--placement", "random", "--runs", 0], "reports__random_s0.csv", None),
        # the overflow bound of _check_model
        (["compile", "--gen", "ghz", "--n", 4], "reports__spectral.csv", {"l_c_nm": 1e300}),
    ],
    ids=["bench-n-1", "sweep-n-max-70", "bench-runs-0", "compile-runs-0", "compile-overflow"],
)
def test_failed_run_leaves_no_output(tmp_path, capsys, argv, name, error_config):
    # these errors were once found only when the lazy cases were first
    # read, after the output directory (and the CSV) had been created
    if error_config is not None:
        (tmp_path / "errors.json").write_text(json.dumps(error_config))
        argv = [*argv, "--error-config", tmp_path / "errors.json"]
    assert run_cli(*argv, "--out", tmp_path / "new") == 2
    assert not (tmp_path / "new").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / name).write_bytes(b"kept\r\n")
    assert run_cli(*argv, "--out", tmp_path / "old") == 2
    assert (tmp_path / "old" / name).read_bytes() == b"kept\r\n"


@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--config", "{", "is not valid JSON"),
        # L_s / d_bar overflows, so the longest move has an infinite error
        ("--error-config", '{"d_bar_nm": 1e-311}', "the error model is not finite over the longest move"),
    ],
    ids=["config-not-json", "error-model-not-finite"],
)
def test_config_error_leaves_no_output(tmp_path, capsys, option, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli("compile", "--gen", "ghz", "--n", 4, option, cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()


class TestQubitCountRange:
    """Qubit counts outside the generators' [2, 64], and registers outside
    [2, MAX_QUBITS], are configuration errors."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.one_of(st.integers(-1000, 1), st.integers(65, 10**6)))
    def test_out_of_range_n_exits_2(self, n):
        # n-min = n-max = n, so no sweep size in range gets mapped first
        for argv in (
            ["bench", "--n", n],
            ["sweep", "--n-min", n, "--n-max", n],
            ["compile", "--gen", "ghz", "--n", n],
        ):
            err = io.StringIO()
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
                code = run_cli(*argv, "--out", out)
            assert code == 2, argv
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    def test_one_qubit_qasm_exits_2(self, tmp_path, capsys):
        qasm = tmp_path / "one.qasm"
        qasm.write_text("qreg q[1]; h q[0];")
        assert run_cli("compile", "--input", qasm, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # one past MAX_QUBITS, one whose slicing ran out of memory and one
    # beyond any index, whose slicing raised OverflowError
    @pytest.mark.parametrize("n", [MAX_QUBITS + 1, 3_000_000_000, 10**20 - 1])
    def test_oversized_register_exits_2(self, tmp_path, capsys, n):
        qasm = tmp_path / "big.qasm"
        qasm.write_text(f"qreg q[{n}];")
        assert run_cli("compile", "--input", qasm, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == f"error: {n} qubits is more than the {MAX_QUBITS} the compiler places\n"


class TestConfigFiles:
    """Bad --arch-config / --error-config files exit 2 with one error line."""

    def _run(self, tmp_path, capsys, option, text, qasm=None):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        source = ["--gen", "ghz", "--n", 4] if qasm is None else ["--input", qasm]
        code = run_cli(
            "compile", *source, "--strategy", "baseline", option, cfg,
            "--out", tmp_path / "out",
        )
        err = capsys.readouterr().err
        return code, err

    @pytest.mark.parametrize("option", ["--arch-config", "--error-config"])
    @pytest.mark.parametrize("text", ["[]", "[1, 2]", "3", '"x"', "null"])
    def test_non_object_exits_2(self, tmp_path, capsys, option, text):
        code, err = self._run(tmp_path, capsys, option, text)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_configs_write_the_defaults_bytes(self, tmp_path):
        # a key left out of --error-config was once re-derived from a second
        # copy of its default, 100.0 * 1e-9 for l_c = 100e-9, so this run
        # wrote other dC values and another report than one without the flags
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        flags = ["compile", "--gen", "qaoa", "--n", 8, "--strategy", "swap_return"]
        assert run_cli(*flags, "--out", tmp_path / "plain") == 0
        assert run_cli(*flags, "--arch-config", empty, "--error-config", empty, "--out", tmp_path / "empty") == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "empty").iterdir())
        assert "schedule_swap_return__spectral.json" in names
        for name in names:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "empty" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "option, cfg",
        [
            ("--arch-config", {"velocity_mps": 5}),
            ("--arch-config", {"n_sites": 4, "site_pitch": 2.0}),
            ("--error-config", {"t2_star": 10.0}),
            ("--error-config", {"l_c_nm": 100.0, "hbar": 1e-34}),
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, option, cfg):
        code, err = self._run(tmp_path, capsys, option, json.dumps(cfg))
        assert code == 2
        assert "unknown" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "option, text",
        [
            ("--arch-config", '{"default_velocity_mps": 1e400}'),
            ("--arch-config", '{"site_pitch_um": 1e400}'),
            ("--arch-config", '{"t_2q_ns": NaN}'),
            ("--arch-config", '{"zone_offset_um": null}'),
            pytest.param("--arch-config", '{"site_pitch_um": 1%s}' % ("0" * 400), id="huge-int"),
            ("--arch-config", '{"n_sites": 1e400}'),
            ("--arch-config", '{"n_sites": 4.7}'),
            ("--arch-config", '{"zone_offset_um": true, "t_1q_ns": "20"}'),
            ("--error-config", '{"l_c_nm": [1]}'),
            ("--error-config", '{"l_c_nm": true}'),
            pytest.param("--error-config", '{"d_bar_nm": 1%s}' % ("0" * 400), id="huge-int-err"),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, option, text):
        code, err = self._run(tmp_path, capsys, option, text)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("literal", ["0.", ".1", "1e0"])
    def test_malformed_qasm_index_exits_1(self, tmp_path, capsys, literal):
        qasm = tmp_path / "bad.qasm"
        qasm.write_text(f"qreg q[2]; h q[{literal}];")
        assert run_cli("compile", "--input", qasm, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


_ARCH_KEYS = ("n_sites", "site_pitch_um", "zone_offset_um", "default_velocity_mps", "t_1q_ns", "t_2q_ns")
_ERROR_KEYS = ("l_c_nm", "t2_star_us", "l_dot_nm", "e_vs0_uev", "d_bar_nm", "a_x_pi_per_nm")


def _compile_with_config(tmp_path, capsys, option, cfg, strategy):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_cli(
        "compile", "--gen", "qaoa", "--n", 6, "--strategy", strategy, option, path,
        "--out", tmp_path / "out",
    )
    return code, capsys.readouterr().err


class TestExtremeConfigs:
    """Finite but extreme config values exit 0 or 2, never a traceback or 3."""

    @pytest.mark.parametrize(
        "option, cfg, message, strategies",
        [
            # the error model once raised ZeroDivisionError and OverflowError;
            # the tunable strategies never shuttle at the default velocity
            ("--arch-config", {"default_velocity_mps": 1e-160}, "ZeroDivisionError", ["baseline"]),
            ("--arch-config", {"default_velocity_mps": 1e160}, "OverflowError", ["baseline"]),
            ("--error-config", {"t2_star_us": 1e-300}, "ZeroDivisionError", ["baseline", "swap_return"]),
            # the offset was absorbed in rounding: exit 3, zero-distance shuttle
            ("--arch-config", {"site_pitch_um": 1e250, "zone_offset_um": 1.0}, "do not stay increasing",
             ["baseline", "swap_return"]),
            ("--arch-config", {"site_pitch_um": 2.9e28, "zone_offset_um": 1.0}, "do not stay increasing",
             ["baseline", "swap_return"]),
            # finite errors whose squares overflowed in the report's std
            ("--error-config", {"l_c_nm": 7.8e183}, "could overflow", ["baseline", "swap_return"]),
            ("--arch-config", {"default_velocity_mps": 1.9e-84}, "could overflow", ["baseline"]),
        ],
    )
    def test_reproducers_exit_2(self, tmp_path, capsys, option, cfg, message, strategies):
        for strategy in strategies:
            code, err = _compile_with_config(tmp_path, capsys, option, cfg, strategy)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @settings(max_examples=100, deadline=None)
    @given(
        key=st.sampled_from(_ARCH_KEYS + _ERROR_KEYS),
        value=st.floats(-300, 300).map(lambda e: 10.0**e),
    )
    def test_any_single_key_exits_0_or_2(self, key, value):
        option = "--arch-config" if key in _ARCH_KEYS else "--error-config"
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cfg.json"
            with open(path, "w") as fh:
                json.dump({key: value}, fh)
            for strategy in ("baseline", "swap_return"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run_cli(
                        "compile", "--gen", "qaoa", "--n", 6, "--strategy", strategy,
                        option, path, "--out", f"{tmp}/out",
                    )
                err = err.getvalue()
                assert (code, err) == (0, "") or (
                    code == 2 and err.startswith("error: ") and err.count("\n") == 1
                ), (key, value, strategy, code, err)


class TestScheduleBounds:
    """``_check_model`` bounds a schedule's time and a qubit's error by
    ``4 * len(gates) + 1`` times the longest op and the worst shuttle error.
    It rests on two facts, not on the op count: a schedule runs at most one
    episode of three phases per gate, and a qubit shuttles exactly twice
    per scheduled gate it is an operand of."""

    @pytest.mark.parametrize("placement", ("spectral", "random"))
    def test_both_facts_at_16_qubits(self, bench16, errp, placement):
        for arch16, sc, schedules in bench16.values():
            c, bound = sc.circuit, 4 * len(sc.circuit.gates) + 1
            for strategy in STRATEGIES:
                s = schedules[strategy]
                if placement == "random":
                    s = map_strategy(strategy, sc, arch16, random_placement(16, 0), errp)
                sh, gt = s.ops.shuttles, s.ops.gates
                # every episode's gates start together, after its out phase
                episodes = len(np.unique(gt.start))
                assert episodes <= len(gt.gate_index) <= len(c.gates)
                longest = max(sh.duration.max(), gt.duration.max())
                assert s.total_time <= 3 * episodes * longest * (1 + 1e-12) < bound * longest
                operands = c.operands_of(gt.gate_index)[1]
                shuttles = np.bincount(sh.qubit, minlength=c.num_qubits)
                assert shuttles.tolist() == (2 * np.bincount(operands, minlength=c.num_qubits)).tolist()
                assert max(s.per_qubit_error) <= shuttles.max() * sh.delta_c.max() * (1 + 1e-12)
                assert shuttles.max() < bound

    def test_a_schedule_may_hold_more_ops_than_the_bound(self, errp):
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family="graph_state", n=16, seed=0))))
        s = map_strategy("baseline", sc, ArchitectureSpec(n_sites=16), Placement.identity(16), errp)
        assert len(s.ops) == 353 > 4 * len(sc.circuit.gates) + 1 == 309


def test_parser_built_once():
    assert _build_parser() is _build_parser()


# JSON values of every kind the exit-code property draws from
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.sampled_from(FAMILIES + PLACEMENT_MODES + STRATEGIES + ("all", "csv")),
)
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))
# values each option accepts; sizes, which set how much work a run does, stay small
_VALID = {
    **{key: st.sampled_from(opt[2]) for key, opt in OPTIONS["compile"].items() if opt[2]},
    "n": st.integers(-2, 8),
    "runs": st.integers(-2, 3),
    "depth": st.integers(-2, 8),
    "qaoa_rounds": st.integers(-2, 3),
    "seed": st.integers(-(10**400), 10**400),
    "measure_duration": st.floats(0, 1e12),
    "format": st.sampled_from(["csv", "json", ["json", "csv"]]),
}
_SIZES = ("n", "runs", "depth", "qaoa_rounds")


def _config_value(key):
    """A value the option accepts three times in four, else any JSON value
    (for a size, any but an integer)."""
    other = _JSON_VALUES
    if key in _SIZES:
        other = _JSON_VALUES.filter(lambda v: type(v) is not int)
    if key not in _VALID:
        return other
    return st.integers(0, 3).flatmap(lambda i: _VALID[key] if i else other)


def _config_dict(keys):
    return st.fixed_dictionaries({key: _config_value(key) for key in keys})


# a circuit (gen, n) that often runs, then up to four keys of any kind
_COMPILE_CONFIGS = st.tuples(
    _config_dict(["gen", "n"]),
    st.lists(
        st.sampled_from(sorted(OPTIONS["compile"]) + ["bogus", "N", "strategies"]),
        unique=True,
        max_size=4,
    ).flatmap(_config_dict),
).map(lambda parts: {**parts[0], **parts[1]})


class TestRunConfig:
    """The --config file: the options' own keys, converted like the flags."""

    def _run(self, tmp_path, capsys, cfg, *flags):
        path = tmp_path / "run.json"
        path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
        code = run_cli("compile", "--config", path, *flags)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"gen": "ghz", "n": "abc"},
            {"gen": "random", "n": 4, "depth": "x"},
            {"gen": "ghz", "n": 4, "measure_duration": "x"},
            {"gen": "ghz", "n": [4]},
            {"gen": "ghz", "n": 4.7},
            {"gen": "ghz", "n": 4, "seed": 1.9},
            {"gen": "ghz", "n": True},
            {"gen": "ghz", "n": 4, "strategy": "fastest"},
            {"gen": "ghz", "n": 4, "placement": "sorted"},
            {"gen": "ghz", "n": 4, "placement": ["random", "spectral"]},
            {"gen": "bell", "n": 4},
            {"gen": "ghz", "n": 4, "config": "other.json"},
            {"input": "a\x00b.qasm"},
            {"gen": "ghz", "n": 4, "arch_config": "a\x00b.json"},
            pytest.param(b'{"n": 1%s}' % (b"0" * 5000), id="over-int-digit-limit"),
            pytest.param(b'{"gen": "\xff"}', id="not-utf-8"),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, cfg):
        code, err = self._run(tmp_path, capsys, cfg, "--out", tmp_path / "out")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_null_means_unset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"gen": "ghz", "n": 4, "out": None, "strategy": None, "seed": None}
        ))
        assert run_cli("compile", "--config", cfg, "--format", "csv") == 0
        compare = (tmp_path / "out" / "compare__spectral.csv").read_text()
        assert len(compare.splitlines()) == 1 + len(STRATEGIES)  # --strategy all

    @pytest.mark.parametrize("out", ["a\x00b", "taken"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("a file, not a directory")
        code, err = self._run(tmp_path, capsys, {"gen": "ghz", "n": 4, "out": out})
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, cfg",
        [
            (
                ["compile", "--gen", "qaoa", "--n", "5", "--placement", "random",
                 "--runs", "2", "--seed", "3", "--measure-duration", "40"],
                {"gen": "qaoa", "n": 5, "placement": "random", "runs": 2, "seed": 3,
                 "measure_duration": 40},
            ),
            (
                ["bench", "--n", "4", "--families", "ghz,dj", "--runs", "2",
                 "--qaoa-rounds", "2"],
                {"n": "4", "families": ["ghz", "dj"], "runs": 2, "qaoa_rounds": 2},
            ),
            (
                ["sweep", "--n-min", "4", "--n-max", "5", "--n-step", "1",
                 "--families", "ghz", "--runs", "2"],
                {"n_min": 4, "n_max": 5, "n_step": 1, "families": "ghz", "runs": 2},
            ),
        ],
    )
    def test_config_file_matches_flags(self, tmp_path, flags, cfg):
        by_flags, by_file = tmp_path / "flags", tmp_path / "file"
        assert run_cli(*flags, "--out", by_flags) == 0
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(flags[0], "--config", path, "--out", by_file) == 0
        names = sorted(p.name for p in by_flags.iterdir())
        assert names and names == sorted(p.name for p in by_file.iterdir())
        for name in names:
            assert (by_flags / name).read_bytes() == (by_file / name).read_bytes(), name

    @settings(max_examples=60, deadline=None)
    @given(cfg=_COMPILE_CONFIGS)
    def test_exit_codes(self, cfg):
        """Any --config file: exit 0, 1 or 2, never a traceback, and a
        failure is one `error:` line."""
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/run.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([
                    "compile", "--config", path, "--strategy", "baseline",
                    "--format", "csv", "--out", f"{tmp}/out",
                ])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
