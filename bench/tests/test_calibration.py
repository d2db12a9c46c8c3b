"""Host-speed scaling of op times."""

import pytest

import calibration
import run


def test_each_op_is_scaled_by_the_task_times_on_either_side():
    ref = calibration.REFERENCE_MS
    records = [{"ms": 10.0, "cal_ms": ref}, {"ms": 30.0, "cal_ms": 3 * ref}]
    # op 0 sits between ref and 3 ref, op 1 between 3 ref and the end's ref
    assert run.scaled_op_ms(records, ref) == pytest.approx([5.0, 15.0])


def test_setup_is_scaled_by_the_task_times_before_and_after_it():
    ref = calibration.REFERENCE_MS
    samples = [
        {"setup_s": 0.2, "spawn_cal_ms": 3 * ref, "setup_cal_ms": ref},
        {"setup_s": 0.1, "spawn_cal_ms": ref, "setup_cal_ms": ref},
    ]
    assert run.scaled_setup_s(samples) == pytest.approx([0.1, 0.1])


def test_the_task_takes_a_positive_time():
    assert calibration.calibration_ms() > 0.0
