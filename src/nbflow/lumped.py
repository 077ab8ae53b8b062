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

from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np


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


def resistance_pressure(q: float, t: float, model: Resistance) -> float:
    """Outlet pressure of the pure resistance model."""
    return model.R * q + model.distal_pressure(t)


def tangent_m(models, dt, n_ts) -> np.ndarray:
    """Exact derivative of each end-of-step pressure with respect to its flow rate, (k,).

    Resistance models have the value R.  The Runge-Kutta update of the
    Windkessel is affine in ``q_np1``, so its derivative is the pressure
    reached from a zero state, zero distal pressure and a flow ramping
    from 0 to 1; it does not depend on the state.
    """
    return np.array([
        model.R if isinstance(model, Resistance)
        else rk4_advance(replace(model, P_d=0.0), 0.0, 0.0, 1.0, dt, n_ts)[0]
        for model in models
    ], dtype=float)


def advance_outlet(models, pi_n, q_n, q_np1, dt, n_ts, t_n=0.0):
    """End-of-step pressures and states ``(p, pi)`` of every outlet, each (k,).

    ``pi_n``, ``q_n`` and ``q_np1`` are (k,) in the order of ``models``.
    Each Windkessel takes its own scalar ``rk4_advance`` on Python floats;
    a resistance keeps its state.
    """
    columns = np.asarray([pi_n, q_n, q_np1], dtype=float).tolist()
    out = [
        (resistance_pressure(q1, t_n + dt, model), pi0) if isinstance(model, Resistance)
        else rk4_advance(model, pi0, q0, q1, dt, n_ts, t_n)
        for model, pi0, q0, q1 in zip(models, *columns)
    ]
    p, pi = np.array(out, dtype=float).reshape(len(out), 2).T
    return p, pi


def initial_pressure(models, pi0, t0=0.0) -> np.ndarray:
    """Outlet pressures at zero flow with Windkessel states ``pi0``, (k,)."""
    return np.array([
        model.distal_pressure(t0) if isinstance(model, Resistance)
        else pi + model.distal_pressure(t0)
        for model, pi in zip(models, np.asarray(pi0, dtype=float).tolist())
    ], dtype=float)
