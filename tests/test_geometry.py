"""The two parameter rules every constructor shares: ``integer`` and
``positive_finite``."""

import math
import re

import numpy as np
import pytest

from labelgrid.geometry import integer, positive_finite

INTEGRAL = [3, np.int64(3), 3.0, np.float64(3.0)]


class TestInteger:
    @pytest.mark.parametrize("value", INTEGRAL)
    def test_integral_values_come_back_as_int(self, value):
        got = integer("n", value, 0)
        assert got == 3 and type(got) is int

    # int() would truncate 2.5 and take True as 1
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, True, "3", None])
    def test_non_integers_are_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError,
                           match=f"^n must be an integer >= 0, got {re.escape(repr(value))}$"):
            integer("n", value, 0)
        with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 9\), got "):
            integer("n", value, 0, 9)

    @pytest.mark.parametrize("value, low, high, ok", [
        (2, 2, None, True), (1, 2, None, False), (2.0, 2, None, True), (1.0, 2, None, False),
        (-5, -5, None, True), (-6, -5, None, False),
        (0, 0, 4, True), (3, 0, 4, True), (4, 0, 4, False), (-1, 0, 4, False),
        (np.int64(3), 0, 4, True), (np.int64(4), 0, 4, False),
        (2 ** 64 - 1, 0, 2 ** 64, True), (2 ** 64, 0, 2 ** 64, False),
    ])
    def test_bounds_are_low_inclusive_high_exclusive(self, value, low, high, ok):
        if ok:
            assert integer("n", value, low, high) == value
            return
        bounds = f">= {low}" if high is None else rf"in \[{low}, {high}\)"
        with pytest.raises(ValueError,
                           match=f"^n must be an integer {bounds}, got {re.escape(repr(value))}$"):
            integer("n", value, low, high)


class TestPositiveFinite:
    @pytest.mark.parametrize("value", INTEGRAL + [2.5, 5e-324, 1.7976931348623157e308, True])
    def test_positive_finite_values_pass(self, value):
        assert positive_finite("x", value) is None

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, -1, -5e-324, math.nan, math.inf,
                                       -math.inf, np.float64("nan"), np.float32("inf")])
    def test_the_rest_are_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError,
                           match=f"^x must be positive and finite, got {re.escape(repr(value))}$"):
            positive_finite("x", value)

    @pytest.mark.parametrize("value", ["3", None])
    def test_a_non_number_fails_the_comparison(self, value):
        with pytest.raises(TypeError):
            positive_finite("x", value)
