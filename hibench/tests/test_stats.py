"""The per-slice-minimum estimator and the tail-percentile rule."""

import pytest

from hibench.stats import slice_minimum, tail_percentile


def test_each_slice_takes_its_minimum_from_any_repetition():
    reps = [
        [3.0, 1.0, 5.0],
        [2.0, 4.0, 6.0],
        [9.0, 2.0, 1.0],
    ]
    assert slice_minimum(reps) == [2.0, 1.0, 1.0]


def test_additive_noise_is_removed_when_each_slice_has_one_clean_repetition():
    clean = [1.0, 2.0, 3.0, 4.0]
    noisy = [
        [c + (0.5 if i != k else 0.0) for i, c in enumerate(clean)]
        for k in range(len(clean))
    ]
    assert slice_minimum(noisy) == clean


def test_repetitions_must_have_the_same_slices():
    with pytest.raises(ValueError):
        slice_minimum([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        slice_minimum([])


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(200))
    assert tail_percentile(values, 95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        tail_percentile(values[:199], 95)
    assert tail_percentile(values[:20], 50) == pytest.approx(9.5)


def test_repetition_count_depends_only_on_the_time_budget():
    from hibench.jobs import MIN_REPS, SIM_OBJECT

    assert SIM_OBJECT.repetitions(0.1) == MIN_REPS
    assert SIM_OBJECT.repetitions(10 * SIM_OBJECT.rep_s) == 10
