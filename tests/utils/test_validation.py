"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.utils.validation import (
    check_2d,
    check_positive,
    check_probability,
)


class TestCheck2d:
    def test_accepts_2d(self):
        array = check_2d([[1, 2], [3, 4]])
        assert array.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            check_2d(np.zeros(3))

    def test_rejects_3d(self):
        with pytest.raises(ShapeError, match="my_tensor"):
            check_2d(np.zeros((2, 2, 2)), "my_tensor")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            check_positive(0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigError, match="width"):
            check_positive(-1, "width")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability(value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5.0])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ConfigError):
            check_probability(value)
