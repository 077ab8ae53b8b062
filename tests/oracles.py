"""Exact Windkessel values that the time-stepped 0D models are checked against.

Only the tests use these, so the package never imports ``scipy.integrate``.
"""

import bisect
import math

from scipy.integrate import quad


def time_constant(model) -> float:
    """The Windkessel's distal time constant ``R_d C``."""
    return model.R_d * model.C


def analytic_pressure(model, q_times, q_values, t, pi0=0.0):
    """Exact Windkessel outlet pressure for a piecewise-linear flow history.

    Evaluates

        P(t) = int_0^t exp(-(t-s)/tau) Q(s)/C ds + R_p Q(t) + P_d(t)
               + exp(-t/tau) pi0,

    with tau = R_d C, integrating the convolution by adaptive
    Gauss-Kronrod quadrature segment by segment so the result can serve
    as an oracle for the time-stepped solution.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    times = [float(v) for v in q_times]
    values = [float(v) for v in q_values]
    if len(times) != len(values) or len(times) < 1:
        raise ValueError("flow history must pair times with values")
    tau = time_constant(model)

    def q_of(s):
        if len(times) == 1:
            return values[0]
        lo, hi = times[0], times[-1]
        if s <= lo:
            return values[0]
        if s >= hi:
            return values[-1]
        i = bisect.bisect_right(times, s) - 1
        w = (s - times[i]) / (times[i + 1] - times[i])
        return values[i] + w * (values[i + 1] - values[i])

    # Integrate each linear segment of Q separately so the integrand is
    # smooth on every quadrature interval.
    breaks = sorted({0.0, t} | {s for s in times if 0.0 < s < t})
    conv = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        part, _ = quad(
            lambda s: math.exp(-(t - s) / tau) * q_of(s) / model.C,
            a,
            b,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        conv += part
    return (
        conv
        + model.R_p * q_of(t)
        + model.distal_pressure(t)
        + math.exp(-t / tau) * pi0
    )
