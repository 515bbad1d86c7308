"""Scalar log-domain helpers.

Probability masses in this package can be far below the smallest positive
double (a canonical atom mass at index 4 has log around -1597), so masses are
carried as natural logs and only exponentiated where the result is known to be
representable. Array-shaped reductions use scipy.special.logsumexp; the
helpers here cover the scalar cases that come up in closed-form expectations.
"""

from __future__ import annotations

import math

LOG_ZERO = float("-inf")
LOG_HALF = math.log(0.5)


def exp_diff(log_a: float, log_b: float) -> float:
    """e^log_a - e^log_b for log_a >= log_b, accurate when nearly equal."""
    if log_b == LOG_ZERO:
        return math.exp(log_a)
    if log_b > log_a:
        raise ValueError("exp_diff expects log_a >= log_b")
    # e^a - e^b = e^a * (1 - e^(b-a)) = e^a * (-expm1(b-a))
    return math.exp(log_a) * (-math.expm1(log_b - log_a))
