"""The machine-speed probe that scales the timed passes."""
import signal
import time

import pytest

import pace


def test_reference_seconds_scales_by_the_probe():
    assert pace.reference_seconds(10.0, [pace.REFERENCE_S]) == pytest.approx(10.0)
    # a machine running at half speed doubles both times
    slow = [2 * pace.REFERENCE_S, 2 * pace.REFERENCE_S]
    assert pace.reference_seconds(20.0, slow) == pytest.approx(10.0)


def test_sampler_probes_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        end = time.perf_counter() + 3 * pace.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.probes) >= 2
    assert sampler.spent >= sum(sampler.probes)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
