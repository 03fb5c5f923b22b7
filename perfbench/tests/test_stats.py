import pytest

import stats


def test_nearest_rank_leaves_an_exact_count_beyond():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 500) == 50
    assert stats.percentile(samples, 900) == 90
    assert stats.samples_beyond(100, 900) == 10
    assert stats.percentile([7.0], 900) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # the median has only 9 samples beyond it
        (20, 500),
        (99, 500),  # p90 would leave 9 beyond
        (100, 900),
        (999, 900),
        (1000, 990),
        (10000, 999),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_beyond(n, expected):
    assert stats.tail_permille(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.percentile([], 500)
