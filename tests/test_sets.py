import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kmspec import ClosedSetSpec
from kmspec.errors import InvalidInputError


def test_interval_distance_values():
    K = ClosedSetSpec(intervals=((1.0, 2.0),))
    assert K.distance(1.5) == 0.0
    assert K.distance(0.0) == 1.0
    assert K.distance(3.5) == 1.5
    assert K.distance(2.0) == 0.0
    assert K.distance(2.0 + 1e-9) > 0.0


def test_points_and_mixed():
    K = ClosedSetSpec(intervals=((5.0, 6.0),), points=(0.0, -3.0))
    grid = np.array([-3.0, 0.0, 5.5, -1.5, 7.0])
    d = K.distance(grid)
    assert list(d) == [0.0, 0.0, 0.0, 1.5, 1.0]


def test_unbounded_interval():
    K = ClosedSetSpec(intervals=((3.0, math.inf),))
    assert K.distance(10.0) == 0.0
    assert K.distance(0.0) == 3.0
    assert K.distance(1e300) == 0.0


def test_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        ClosedSetSpec()
    with pytest.raises(InvalidInputError):
        ClosedSetSpec(intervals=((2.0, 1.0),))
    with pytest.raises(InvalidInputError):
        ClosedSetSpec(intervals=((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(InvalidInputError):
        ClosedSetSpec(points=(math.inf,))


def test_from_config_decimal_strings():
    K = ClosedSetSpec.from_config(
        {"intervals": [["1", "2"], ["3", "inf"]], "points": ["-0.5"]})
    assert K.intervals == ((1.0, 2.0), (3.0, math.inf))
    assert K.points == (-0.5,)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_distance_is_one_lipschitz(x, y):
    K = ClosedSetSpec(intervals=((-1.0, 1.0), (4.0, 5.0)), points=(10.0,))
    assert abs(K.distance(x) - K.distance(y)) <= abs(x - y) + 1e-12


@given(st.floats(-50, 50))
def test_distance_zero_iff_member(x):
    K = ClosedSetSpec(intervals=((-1.0, 1.0),), points=(3.0,))
    inside = -1.0 <= x <= 1.0 or x == 3.0
    assert (K.distance(x) == 0.0) == inside
