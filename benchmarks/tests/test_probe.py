"""Tests of the speed probe's conversion from elapsed to reference seconds.

Run with: python3 -m pytest benchmarks/tests
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from child import SpeedProbe  # noqa: E402


def probe_with(samples):
    probe = SpeedProbe()
    probe.samples = list(samples)
    return probe


def test_constant_speed_scales_elapsed_time():
    probe = probe_with((t, 0.5) for t in (1.0, 2.0, 3.0))
    assert probe.reference_seconds(0.0, 4.0) == pytest.approx(2.0)
    assert probe.reference_seconds(1.5, 2.5) == pytest.approx(0.5)


def test_stretch_between_probes_takes_their_mean_speed():
    probe = probe_with([(1.0, 1.0), (3.0, 0.5)])
    # [0, 1] at 1.0, [1, 3] at 0.75, [3, 4] at 0.5
    assert probe.reference_seconds(0.0, 4.0) == pytest.approx(1.0 + 1.5 + 0.5)


def test_stretch_without_probe_takes_the_nearest_speed():
    probe = probe_with([(1.0, 1.0), (10.0, 0.5)])
    assert probe.reference_seconds(8.0, 9.0) == pytest.approx(0.5)
    assert probe.reference_seconds(1.5, 2.0) == pytest.approx(0.5)


def test_stretch_before_any_probe_takes_a_probe_now():
    probe = SpeedProbe()
    assert probe.reference_seconds(0.0, 1.0) > 0
    assert len(probe.samples) == 1


def test_probe_thread_samples_until_stopped():
    probe = SpeedProbe()
    probe._thread.start()  # start() would also pin this test process to one CPU
    for _ in range(500):
        if len(probe.samples) >= 3:
            break
        probe._stop.wait(0.01)
    probe.stop()
    assert len(probe.samples) >= 3
    count = len(probe.samples)
    assert all(speed > 0 for _t, speed in probe.samples)
    probe._stop.wait(0.05)
    assert len(probe.samples) == count
