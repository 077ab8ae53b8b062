"""Zero-dimensional outflow models: three-element Windkessel and resistance.

The Windkessel state variable ``pi`` is the pressure drop across the
distal resistor.  It obeys

    d(pi)/dt = -pi / (R_d C) + Q / C,
    P(t) = R_p Q(t) + pi(t) + P_d(t),

and reduces to ``P = R Q + P_d`` with ``R = R_p + R_d`` when the
compliance vanishes.  Units are CGS: resistances in g/(s cm^4),
compliance in cm^4 s^2 / g, pressures in dyn/cm^2, flows in cm^3/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union


def _as_pressure_fn(value) -> Callable[[float], float]:
    if callable(value):
        return value
    const = float(value)
    return lambda t: const


@dataclass(frozen=True)
class Windkessel:
    """Three-element Windkessel: proximal resistor, compliance, distal resistor."""

    R_p: float
    C: float
    R_d: float
    P_d: Union[float, Callable[[float], float]] = 0.0

    def __post_init__(self):
        if self.R_p < 0.0 or self.R_d < 0.0:
            raise ValueError("resistances must be non-negative")
        if self.C <= 0.0:
            raise ValueError("compliance must be positive")

    def distal_pressure(self, t: float) -> float:
        return _as_pressure_fn(self.P_d)(t)

    @property
    def time_constant(self) -> float:
        return self.R_d * self.C


@dataclass(frozen=True)
class Resistance:
    """Pure resistance outflow model, P = R Q + P_d."""

    R: float
    P_d: Union[float, Callable[[float], float]] = 0.0

    def __post_init__(self):
        if self.R < 0.0:
            raise ValueError("resistance must be non-negative")

    def distal_pressure(self, t: float) -> float:
        return _as_pressure_fn(self.P_d)(t)


LumpedModel = Union[Windkessel, Resistance]


def rcr_rhs(pi: float, q: float, model: Windkessel) -> float:
    """Right-hand side of the Windkessel state equation."""
    return -pi / (model.R_d * model.C) + q / model.C


def rk4_advance(model: Windkessel, pi_n, q_n, q_np1, dt, n_ts, t_n=0.0):
    """Advance the Windkessel state over one flow step.

    The interval is subdivided into ``n_ts`` equal pieces; the flow rate
    at the sub-steps is interpolated linearly between ``q_n`` and
    ``q_np1``.  Each piece takes one explicit Runge-Kutta step with
    stage abscissae 1/3 and 2/3 and weights (1, 3, 3, 1)/8.

    Returns ``(p_np1, pi_np1)``: the outlet pressure at the end of the
    step and the updated state variable.
    """
    if n_ts < 1:
        raise ValueError("n_ts must be at least 1")
    h = dt / n_ts
    dq = q_np1 - q_n
    pi = float(pi_n)
    for m in range(n_ts):
        qm = q_n + dq * (m / n_ts)
        qm1 = q_n + dq * ((m + 1) / n_ts)
        k1 = rcr_rhs(pi, qm, model)
        k2 = rcr_rhs(pi + k1 * h / 3.0, (2.0 * qm + qm1) / 3.0, model)
        k3 = rcr_rhs(pi - k1 * h / 3.0 + k2 * h, (qm + 2.0 * qm1) / 3.0, model)
        k4 = rcr_rhs(pi + (k1 - k2 + k3) * h, qm1, model)
        pi = pi + h * (k1 + 3.0 * k2 + 3.0 * k3 + k4) / 8.0
    p = model.R_p * q_np1 + pi + model.distal_pressure(t_n + dt)
    return p, pi


def analytic_pressure(model: Windkessel, q_times, q_values, t, pi0=0.0):
    """Exact Windkessel outlet pressure for a piecewise-linear flow history.

    Evaluates

        P(t) = int_0^t exp(-(t-s)/tau) Q(s)/C ds + R_p Q(t) + P_d(t)
               + exp(-t/tau) pi0,

    with tau = R_d C, integrating the convolution by adaptive
    Gauss-Kronrod quadrature segment by segment so the result can serve
    as an oracle for the time-stepped solution.
    """
    from scipy.integrate import quad  # the oracle's only use; slow to import

    if t < 0.0:
        raise ValueError("t must be non-negative")
    times = [float(v) for v in q_times]
    values = [float(v) for v in q_values]
    if len(times) != len(values) or len(times) < 1:
        raise ValueError("flow history must pair times with values")
    tau = model.time_constant

    def q_of(s):
        if len(times) == 1:
            return values[0]
        lo, hi = times[0], times[-1]
        if s <= lo:
            return values[0]
        if s >= hi:
            return values[-1]
        import bisect

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


def resistance_pressure(q: float, t: float, model: Resistance) -> float:
    """Outlet pressure of the pure resistance model."""
    return model.R * q + model.distal_pressure(t)


def tangent_m(model: LumpedModel, dt, n_ts) -> float:
    """Exact derivative of the end-of-step pressure with respect to the flow rate.

    Resistance models have the value R.  The Runge-Kutta update of the
    Windkessel is affine in ``q_np1``, so its derivative is the pressure
    reached from a zero state, zero distal pressure and a flow ramping
    from 0 to 1; it does not depend on the state.
    """
    if isinstance(model, Resistance):
        return model.R
    return rk4_advance(replace(model, P_d=0.0), 0.0, 0.0, 1.0, dt, n_ts)[0]


def advance_outlet(model: LumpedModel, pi_n, q_n, q_np1, dt, n_ts, t_n=0.0):
    """End-of-step pressure and state for either model variant."""
    if isinstance(model, Resistance):
        return resistance_pressure(q_np1, t_n + dt, model), pi_n
    return rk4_advance(model, pi_n, q_n, q_np1, dt, n_ts, t_n)


def initial_pressure(model: LumpedModel, pi0=0.0, q0=0.0, t0=0.0) -> float:
    """Outlet pressure consistent with the state at the initial time."""
    if isinstance(model, Resistance):
        return resistance_pressure(q0, t0, model)
    return model.R_p * q0 + pi0 + model.distal_pressure(t0)
