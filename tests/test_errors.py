"""The one range rule: errors.require refuses what is not finite or not
above its bound, with the error type asked for and a message that opens
with the field's name."""

import math

import pytest

from gravdiff.errors import ConfigError, DomainError, StepSizeError, require

FORMS = [(0.0, True, "positive"), (0.0, False, "non-negative"),
         (1.0, False, ">= 1"), (1.0, True, "> 1")]


@pytest.mark.parametrize("low,strict,bound", FORMS)
@pytest.mark.parametrize("error", [DomainError, ConfigError, StepSizeError])
def test_refuses_non_finite_and_below_bound(low, strict, bound, error):
    below = [low - 1.0, math.nextafter(low, -math.inf), -math.inf]
    for value in [math.nan, math.inf, *below, *([low] if strict else [])]:
        with pytest.raises(error) as info:
            require("beta", value, low, strict=strict, error=error)
        assert str(info.value) == f"beta must be {bound} and finite, got {value!r}"


@pytest.mark.parametrize("low,strict,bound", FORMS)
def test_accepts_finite_values_above_bound(low, strict, bound):
    above = [math.nextafter(low, math.inf), low + 1.0, 1e308]
    for value in [*above, *([] if strict else [low])]:
        assert require("x", value, low, strict=strict) is None


def test_default_is_positive_domain_error():
    with pytest.raises(DomainError, match=r"^m1 must be positive and finite, got 0\.0$"):
        require("m1", 0.0)
    with pytest.raises(ValueError):
        require("m1", -1.0)
