"""Host-speed normalisation of measured host time."""

import time

from perfbench.speed import PERIOD_S, REFERENCE_S, SpeedProbe


def test_normalise_scales_by_the_mean_speed_and_drops_sample_time():
    probe = SpeedProbe()
    # Two in-window samples at half the reference speed, one after the
    # window at the reference speed: the mean factor is (0.5+0.5+1)/3.
    probe.samples = [2 * REFERENCE_S, 2 * REFERENCE_S]
    probe.spent = sum(probe.samples)
    probe.samples.append(REFERENCE_S)
    seconds = 3.0 + probe.spent
    assert abs(probe.normalise(seconds) - 3.0 * 2 / 3) < 1e-12


def test_probe_samples_while_the_window_is_open():
    probe = SpeedProbe()
    probe.start()
    deadline = time.perf_counter() + 3 * PERIOD_S + 0.05
    while time.perf_counter() < deadline:
        pass
    probe.stop()
    assert len(probe.samples) >= 3 + 1
    assert probe.spent == sum(probe.samples[:-1])
    assert probe.normalise(3 * PERIOD_S) > 0
