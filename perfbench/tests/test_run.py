"""The harness around the checker and tracer."""
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from spinbus import InteractionGraph, Placement, minla_cost

BENCH = Path(__file__).resolve().parent.parent


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_minla_agrees_with_the_program():
    rng = random.Random(9)
    n = 12
    w = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                w[u, v] = w[v, u] = rng.random()
    perm = list(range(n))
    rng.shuffle(perm)
    want = minla_cost(InteractionGraph(w), Placement(tuple(perm)))
    assert run.minla(w, perm) == pytest.approx(want, rel=1e-12)
