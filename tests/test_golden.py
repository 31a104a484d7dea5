"""Golden output bytes: the files the CLI writes, pinned across commits.

The determinism tests elsewhere compare two runs of the same code; these
compare against recorded SHA-256 digests, so a refactor that claims "same
behaviour" is checked against the code it replaced. A change that alters
any of these files on purpose re-records the digests here and says so in
CHANGES.md.
"""
import hashlib

import pytest

from spinbus.cli import main

# One QASM text through ``compile --input``: every gate name, an expression
# angle, a bare-register broadcast, a barrier and a register measure.
QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q;
x q[0]; y q[1]; z q[2]; s q[3];
sdg q[0]; t q[1]; tdg q[2];
rx(0.25) q[3]; ry(-pi/2) q[0]; rz(3*pi/4) q[1];
cx q[0],q[2]; cz q[1],q[3]; swap q[2],q[1];
barrier q[0],q[1],q[3];
cz q[3],q[0];
measure q -> c;
"""
INPUT = "circuit.qasm"  # QASM, written next to the run's output

RUNS = {
    "bench": ["bench", "--n", 6, "--families", "ghz,qaoa,dj", "--runs", 2],
    "sweep": [
        "sweep", "--n-min", 4, "--n-max", 6, "--n-step", 2,
        "--families", "ghz,qaoa,dj", "--runs", 2,
    ],
    "spectral": ["compile", "--gen", "qft", "--n", 8, "--strategy", "all"],
    "random": [
        "compile", "--gen", "qft", "--n", 8, "--strategy", "all",
        "--placement", "random", "--runs", 2,
    ],
    "qasm": ["compile", "--input", INPUT, "--strategy", "all"],
    "qasm_measured": ["compile", "--input", INPUT, "--strategy", "all", "--measure-duration", 100],
}

GOLDEN = {
    "bench": {
        "bench.csv": "de8dbc4414fca436262269a6203432ca2695a32c9133033c561a68bda5ba9efc",
    },
    "sweep": {
        "sweep.csv": "b2402f961d40bcc110365da00f246b8626324d22259352cbdc21443fba539e2b",
    },
    "spectral": {
        "compare__spectral.csv": "24dc4cce0237cd6743bf68070000d50d79cc5e341540a0c2ace795d695fd3f48",
        "reports__spectral.csv": "2935102f438d8a9dc8cc11b80e3043688f29828be3173748346e3e8a963acba8",
        "reports__spectral.json": "c86aa55ceeb6fc312854fd675a6a5c271b7932d80d24b4191233875e35ad7789",
        "schedule_baseline__spectral.json": "42ef6aee98ad7ce7ac163420ea20afbb76518e64d84b9698b54415638e28a305",
        "schedule_min_return__spectral.json": "27b6b1fb6b912bae52e0da050bfbaa141622331cb0e3ca12917d1817ea8ff6c0",
        "schedule_parallel__spectral.json": "a006d0afe5eda126816b20e32edb08a7d329682fabdf8228565d9ef80d113f01",
        "schedule_swap_return__spectral.json": "767a4addfc26238d2cb8be9b6019b6782556d968d95f329e469be539cf3476d0",
        "schedule_tunable_velocity__spectral.json": "f7de569cab8f05059a2eb5b4e007d4ef6f408dc80895713162509614ceb0903f",
    },
    "random": {
        "compare__random_s0.csv": "3c2a80e303241c0132dd19c84a9ba3395a9e2717d4a018df5fdac40edff0362c",
        "compare__random_s1.csv": "c9a2357f7d1d2d3a0f697f2442af684bb54f516514606cde657873db1225b2a5",
        "reports__random_s0.csv": "e2e9266e1f65a2a4a62fbcd53879b85e46d6b2e6ec5f90e162cb93773fccda44",
        "reports__random_s0.json": "ca15b17ddc0e3c16e7825c7a6098378b2a7a0eb61b47c9a61ac2ea9a585843d6",
        "reports__random_s1.csv": "1321263012c7df7bc24faabf19471d5fa8d8f692f940693eabc4815d973177fa",
        "reports__random_s1.json": "d75a99b90edca2fd294ebacd6de7e6ba29a765cf54575a53973f36e9453c939c",
        "schedule_baseline__random_s0.json": "cbf6cd91283582a34bc4a73e3feb41ae9514f8884e26c9408f29d3764227ce45",
        "schedule_baseline__random_s1.json": "d0e61753802f20766c059f39c674ee92d5a54207e766d20d738681eca00d357a",
        "schedule_min_return__random_s0.json": "88791174a4c45cbc3448b67b123094c027bbda99860ade8a180163fd202d91ce",
        "schedule_min_return__random_s1.json": "d30cadbc6560a1cf26a2cc2fb78a0c23ba980cec48d0e7d6e37b799debdef370",
        "schedule_parallel__random_s0.json": "00d43775aa341bda735b8e3a72135fe9b3a49e7c25f98594faa86969cd509637",
        "schedule_parallel__random_s1.json": "2aaf309ec3e227d79ade81c2168cc9b70c0fa3048deb41d7d303d4d900276124",
        "schedule_swap_return__random_s0.json": "bed0b012912d793553b123f684ddef56aa36eddb00e38d63d13f0ab1617b7a64",
        "schedule_swap_return__random_s1.json": "9d175c1d2cfb84eb93b5787690996776fa3cf5ca328d1200c3e54a9ecc20a740",
        "schedule_tunable_velocity__random_s0.json": "298433d12f79141c8e216d0eb7ecca521cb78b49e5fa9cbce800e6ada2d79911",
        "schedule_tunable_velocity__random_s1.json": "170ca17af06949bf9bbb9472da76a643e6ec7d876cf559a09e51e4422026a026",
    },
    "qasm": {
        "compare__spectral.csv": "771c22056bb6ee06d743578e84befeb65b84a2646cd7a87238133c3d1975586d",
        "reports__spectral.csv": "f18a9ffe21e4dc8a8bef0710b5cb32d4808999125e263b9b5dde0d960fcde251",
        "reports__spectral.json": "65d14f25c2e45ee31a500f7cb4730489896ca9cd15147bbb2ebced82e664d7eb",
        "schedule_baseline__spectral.json": "548f9cf0423124d9f08feff50e91f880ea840a24cf4076af27d7cde9bd8494b0",
        "schedule_min_return__spectral.json": "d746d221a997e758920219e78d0194efa5c078ecccc18b259f1c247e9147b241",
        "schedule_parallel__spectral.json": "927031c54041725654ab609b6620f2d93aac4bf56862225ff7755d76c736f9de",
        "schedule_swap_return__spectral.json": "326e2a7ebad747a88e986c6f4a0ad8cc8d5b413f0f303314ffb5ab7d468b064e",
        "schedule_tunable_velocity__spectral.json": "7e74a396df6ad97f05ab31485f26c56fb28cd6d2cd1c935989f761bedbdeabdd",
    },
    "qasm_measured": {
        "compare__spectral.csv": "7547430a2ac8d641d0e40804b7b6897c94ef323f76fd9087a1b7b5c0f2c69029",
        "reports__spectral.csv": "a0d46308d32d599012f2c5ca14d26692c8004dea37e4f8289ff04f8973e7bb81",
        "reports__spectral.json": "2dbfb1d2dc1cb3d58a6920148d6490bc25ae24282f52a98c07ce3fa3a0bf7791",
        "schedule_baseline__spectral.json": "d847c2faa6497f1cb4e499f7999c08e99cf4aee6e022f60d9eabe798631672bd",
        "schedule_min_return__spectral.json": "55d72df6cf9f2d334d002119bc9e5787a31bdd95b322846f7d69889b9ec056f4",
        "schedule_parallel__spectral.json": "aa7cfc6e6aa3da1451007777dfaea44d2970ab1916e7b218a19aef71c1018676",
        "schedule_swap_return__spectral.json": "0747a61ea1322cc157c19ada9ebf20005d25dccc7ba041e88c761a6e367490a4",
        "schedule_tunable_velocity__spectral.json": "c4ccade45db244fde2d705d718d3e82d02cacf93e7f8d8d8cf5acc61d57bad6c",
    },
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_output_bytes(tmp_path, run):
    out = tmp_path / run
    (tmp_path / INPUT).write_text(QASM)
    args = [tmp_path / a if a == INPUT else a for a in RUNS[run]]
    assert main([str(a) for a in args + ["--out", out]]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert digests == GOLDEN[run]
