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
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_output_bytes(tmp_path, run):
    out = tmp_path / run
    assert main([str(a) for a in RUNS[run] + ["--out", out]]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert digests == GOLDEN[run]
