import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbflow.lumped import (
    Resistance,
    Windkessel,
    advance_outlet,
    initial_pressure,
    rcr_rhs,
    resistance_pressure,
    rk4_advance,
    tangent_m,
)

from oracles import analytic_pressure, time_constant

WK = Windkessel(R_p=100.0, C=1e-4, R_d=1233.0)


def test_rcr_rhs_equilibrium():
    q = 7.5
    assert rcr_rhs(WK.R_d * q, q, WK) == pytest.approx(0.0, abs=1e-12)


def test_rcr_rhs_unit():
    assert rcr_rhs(0.0, 1.0, Windkessel(R_p=1.0, C=1.0, R_d=1.0)) == 1.0


def test_rcr_rhs_arithmetic():
    model = Windkessel(R_p=0.0, C=0.5, R_d=4.0)
    assert rcr_rhs(2.0, 3.0, model) == pytest.approx(5.0, rel=1e-14)


def test_model_validation():
    with pytest.raises(ValueError):
        Windkessel(R_p=-1.0, C=1.0, R_d=1.0)
    with pytest.raises(ValueError):
        Windkessel(R_p=1.0, C=0.0, R_d=1.0)
    with pytest.raises(ValueError):
        Resistance(R=-5.0)
    with pytest.raises(ValueError):
        rk4_advance(WK, 0.0, 0.0, 0.0, 1e-3, 0)


@pytest.mark.parametrize("make, message", [
    (lambda: Windkessel(R_p=1.0, C=1.0, R_d=0.0), "distal resistance must be positive"),
    (lambda: Windkessel(R_p=1.0, C=1.0, R_d=math.inf), "distal resistance must be positive"),
    (lambda: Windkessel(R_p=math.nan, C=1.0, R_d=1.0), "proximal resistance must be non-neg"),
    (lambda: Windkessel(R_p=1.0, C=math.inf, R_d=1.0), "compliance must be positive and finite"),
    (lambda: Resistance(R=math.nan), "resistance must be non-negative and finite"),
    (lambda: Resistance(R=math.inf), "resistance must be non-negative and finite"),
], ids=["Rd-zero", "Rd-inf", "Rp-nan", "C-inf", "R-nan", "R-inf"])
def test_model_rejects_value_out_of_range(make, message):
    # R_d = 0 divided by zero in every step's rcr_rhs; nan and inf were accepted.
    with pytest.raises(ValueError, match=f"^{message}"):
        make()


def test_rk4_decay_matches_exponential():
    # Q = 0: pi decays exactly exponentially; one step over a fraction of
    # the time constant must track it with fourth-order accuracy.
    pi0 = 500.0
    dt = 0.25 * time_constant(WK)
    for n_ts in (2, 4):
        p, pi = rk4_advance(WK, pi0, 0.0, 0.0, dt, n_ts)
        exact = pi0 * math.exp(-dt / time_constant(WK))
        h_rel = (dt / time_constant(WK)) / n_ts
        assert abs(pi - exact) < h_rel**4 * pi0
        assert p == pytest.approx(pi, abs=1e-12)  # R_p Q and P_d vanish


def test_rk4_equilibrium_state():
    q = 12.0
    model = Windkessel(R_p=50.0, C=2e-4, R_d=900.0, P_d=7.0)
    p, pi = rk4_advance(model, model.R_d * q, q, q, 1e-2, 20)
    assert pi == pytest.approx(model.R_d * q, rel=1e-14)
    assert p == pytest.approx(model.R_p * q + model.R_d * q + 7.0, rel=1e-14)


def test_rk4_subinterval_halving_shrinks_error_16x():
    q = 100.0
    pi0 = 5.0
    dt = 1e-3
    exact = analytic_pressure(WK, [0.0, dt], [q, q], dt, pi0=pi0)
    e1 = abs(rk4_advance(WK, pi0, q, q, dt, 1)[0] - exact)
    e2 = abs(rk4_advance(WK, pi0, q, q, dt, 2)[0] - exact)
    assert 14.0 < e1 / e2 < 18.0


def test_rk4_fourth_order_sweep():
    # March over one time constant; errors against the piecewise-linear
    # analytic oracle must decay at fourth order in the substep width.
    tau = time_constant(WK)
    steps = 8
    dt = tau / steps
    times = [i * dt for i in range(steps + 1)]
    for flow in (lambda t: 100.0, lambda t: 100.0 * (1 + 0.5 * math.sin(2 * math.pi * t / tau))):
        qs = [flow(t) for t in times]
        exact = analytic_pressure(WK, times, qs, tau, pi0=0.0)
        errors = []
        for n_ts in (5, 10, 20, 40):
            pi = 0.0
            p = None
            for i in range(steps):
                p, pi = rk4_advance(WK, pi, qs[i], qs[i + 1], dt, n_ts, times[i])
            errors.append(abs(p - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert all(3.7 <= o <= 4.3 for o in orders), orders


def test_analytic_zero_flow_pure_decay():
    model = Windkessel(R_p=100.0, C=1e-4, R_d=1233.0, P_d=0.0)
    pi0 = 321.0
    t = 0.2
    p = analytic_pressure(model, [0.0, t], [0.0, 0.0], t, pi0=pi0)
    assert p == pytest.approx(pi0 * math.exp(-t / time_constant(model)), rel=1e-12)


def test_analytic_steady_limit():
    q = 42.0
    model = Windkessel(R_p=100.0, C=1e-4, R_d=1233.0, P_d=11.0)
    t = 30.0 * time_constant(model)
    p = analytic_pressure(model, [0.0, t], [q, q], t, pi0=0.0)
    assert p == pytest.approx((model.R_p + model.R_d) * q + 11.0, rel=1e-10)


def test_analytic_constant_flow_closed_form():
    q = 37.0
    pi0 = 7.0
    model = Windkessel(R_p=80.0, C=2e-4, R_d=1500.0, P_d=3.0)
    tau = time_constant(model)
    for t in (0.1 * tau, tau, 4.0 * tau):
        quadrature = analytic_pressure(model, [0.0, t], [q, q], t, pi0=pi0)
        closed = (
            model.R_p * q
            + model.R_d * q * (1.0 - math.exp(-t / tau))
            + math.exp(-t / tau) * pi0
            + 3.0
        )
        assert quadrature == pytest.approx(closed, rel=1e-10)


def test_analytic_rejects_negative_time():
    with pytest.raises(ValueError):
        analytic_pressure(WK, [0.0, 1.0], [0.0, 0.0], -0.5)


def test_resistance_pressure_values():
    assert resistance_pressure(100.0, 0.0, Resistance(R=1333.0)) == 133300.0
    assert resistance_pressure(0.0, 1.5, Resistance(R=1333.0, P_d=9.0)) == 9.0
    assert resistance_pressure(0.5, 0.0, Resistance(R=1e5, P_d=10.0)) == 50010.0


def test_tangent_resistance_exact():
    model = Resistance(R=1333.0)
    for dt, n_ts in ((1e-3, 1), (2e-2, 40), (1.0, 7)):
        assert tangent_m([model], dt, n_ts).tolist() == [1333.0]


def test_tangent_large_compliance_limit():
    model = Windkessel(R_p=77.0, C=1e8, R_d=1.0)
    (m,) = tangent_m([model], 1e-3, 10)
    assert m == pytest.approx(77.0, rel=1e-6)


def test_tangent_matches_symbolic_rk4_derivative():
    sympy = pytest.importorskip("sympy")
    q1 = sympy.Symbol("q1")
    r_p, r_d, c = sympy.Rational(100), sympy.Rational(1233), sympy.Rational(1, 10000)
    dt, n_ts = sympy.Rational(1, 1000), 10
    h = dt / n_ts
    q_n = sympy.Integer(80)
    pi = sympy.Integer(0)

    def rhs(p, q):
        return -p / (r_d * c) + q / c

    for m in range(n_ts):
        qm = q_n + (q1 - q_n) * sympy.Rational(m, n_ts)
        qm1 = q_n + (q1 - q_n) * sympy.Rational(m + 1, n_ts)
        k1 = rhs(pi, qm)
        k2 = rhs(pi + k1 * h / 3, (2 * qm + qm1) / 3)
        k3 = rhs(pi - k1 * h / 3 + k2 * h, (qm + 2 * qm1) / 3)
        k4 = rhs(pi + (k1 - k2 + k3) * h, qm1)
        pi = pi + h * (k1 + 3 * k2 + 3 * k3 + k4) / 8
    exact = float(sympy.diff(r_p * q1 + pi, q1))
    assert tangent_m([WK], 1e-3, 10)[0] == pytest.approx(exact, rel=1e-14)


@given(
    pi_a=st.floats(-1e3, 1e3),
    pi_b=st.floats(-1e3, 1e3),
    q_a=st.floats(-100, 100),
    q_b=st.floats(-100, 100),
    alpha=st.floats(-2, 2),
)
@settings(max_examples=25, deadline=None)
def test_rk4_state_map_is_affine(pi_a, pi_b, q_a, q_b, alpha):
    """Superposition of the one-step map in (pi, q_n, q_np1)."""
    dt, n_ts = 2e-3, 4

    def final_pi(pi0, qn, qn1):
        _, pi = rk4_advance(WK, pi0, qn, qn1, dt, n_ts)
        return pi

    mixed = final_pi(
        alpha * pi_a + (1 - alpha) * pi_b,
        alpha * q_a + (1 - alpha) * q_b,
        alpha * q_b + (1 - alpha) * q_a,
    )
    split = alpha * final_pi(pi_a, q_a, q_b) + (1 - alpha) * final_pi(pi_b, q_b, q_a)
    scale = max(1.0, abs(mixed), abs(split))
    assert abs(mixed - split) <= 1e-12 * scale


def test_windkessel_converges_to_resistance_as_compliance_vanishes():
    # Fixed final time far beyond the shrinking time constant: the
    # residual transient exp(-t/tau) disappears as C -> 0+.
    q = 25.0
    r_p, r_d = 200.0, 800.0
    target = resistance_pressure(q, 0.0, Resistance(R=r_p + r_d))
    t_final, steps = 0.5, 20
    dt = t_final / steps
    errors = []
    for c in (1e-4, 1e-5):
        model = Windkessel(R_p=r_p, C=c, R_d=r_d)
        n_ts = max(200, int(10 * dt / time_constant(model)))
        pi, p = 0.0, None
        for i in range(steps):
            p, pi = rk4_advance(model, pi, q, q, dt, n_ts, i * dt)
        errors.append(abs(p - target))
    assert errors[1] < errors[0]
    assert errors[1] < 1e-8 * target


def test_advance_outlet_dispatch():
    models = [Resistance(R=10.0, P_d=1.0), WK, Resistance(R=2.0)]
    p, pi = advance_outlet(models, [5.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, 1.0, 4.0],
                           1e-3, 4)
    assert p.shape == pi.shape == (3,)
    assert p[0] == pytest.approx(31.0) and p[2] == 8.0
    assert pi[0] == 5.0 and pi[2] == 0.0  # untouched for resistance models
    # The Windkessel entry is its own scalar rk4_advance, bit for bit.
    assert (p[1], pi[1]) == rk4_advance(WK, 0.0, 1.0, 1.0, 1e-3, 4)
    assert pi[1] > 0.0
    empty = advance_outlet([], [], [], [], 1e-3, 4)
    assert [a.shape for a in empty] == [(0,), (0,)]


def test_tangent_m_dispatch():
    m = tangent_m([Resistance(R=7.0), WK], 1e-3, 10)
    assert m.shape == (2,) and m[0] == 7.0
    assert m[1] == rk4_advance(WK, 0.0, 0.0, 1.0, 1e-3, 10)[0]
    assert tangent_m([], 1e-3, 10).shape == (0,)


def test_initial_pressure():
    models = [Resistance(R=100.0, P_d=4.0), WK, Windkessel(R_p=1.0, C=1.0, R_d=1.0, P_d=3.0)]
    p = initial_pressure(models, [0.0, 10.0, 2.0], 0.0)
    assert p.tolist() == [4.0, 10.0, 5.0]
