import os
import time

import pytest

import speed

REF = speed.REFERENCE_S


def test_window_speed_averages_inverse_durations_inside_the_window():
    samples = [(0.5, REF), (1.0, REF), (1.5, 2 * REF), (2.0, REF / 2), (3.0, REF)]
    # [1.0, 2.0): the probes at 1.0 and 1.5 -> speeds 1 and 0.5.
    assert speed.window_speed(samples, 1.0, 2.0) == pytest.approx(0.75)
    # Inverse durations, not durations: twice as slow then twice as fast
    # is 1.25x the reference on average, where mean durations would say 0.8x.
    assert speed.window_speed(samples, 1.5, 2.5) == pytest.approx(1.25)


def test_window_without_probes_raises():
    with pytest.raises(ValueError):
        speed.window_speed([(0.0, REF), (5.0, REF)], 1.0, 2.0)


def test_sampler_probes_this_process_and_forked_children(tmp_path):
    sampler = speed.Sampler(str(tmp_path / "speed"))
    sampler.start()
    try:
        pid = os.fork()
        if pid == 0:  # the child samples on its own; it never returns to pytest
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                pass
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert status == 0
        with sampler.pause():
            before = len(sampler.samples())
            paused_at = time.monotonic()
            time.sleep(0.35)
        resumed_at = time.monotonic()
        time.sleep(0.35)
    finally:
        sampler.stop()
    files = sorted(os.listdir(tmp_path / "speed"))
    assert files == sorted([f"{os.getpid()}.bin", f"{pid}.bin"])
    samples = sampler.samples()
    # Nothing started in this process while it was paused; it probed again after.
    assert len(samples) >= before
    assert not [t for t, _ in samples if paused_at + 0.01 < t < resumed_at]
    assert [t for t, _ in samples if t >= resumed_at]
    assert sampler.speed(sampler.started, time.monotonic()) > 0
    assert os.path.getsize(tmp_path / "speed" / f"{pid}.bin") >= 3 * 16
