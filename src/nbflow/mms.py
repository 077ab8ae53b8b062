"""Manufactured solutions and error norms for convergence studies.

Each solution provides velocity, pressure, their time derivatives and
the body force that makes it satisfy the strong form of the flow
equations.  ``ShearFlowSolution`` is linear in space, so linear elements
represent it exactly and time-stepping errors can be measured in
isolation; its pressure depends on z only, which makes the z = z_cap
plane an exact traction outlet with a spatially uniform normal load.
``TaylorGreenSolution`` is steady and trigonometric in space for spatial
convergence sweeps.
"""

from __future__ import annotations

import numpy as np


class ShearFlowSolution:
    """Time-pulsating planar shear, linear in space and divergence free.

    v(x, t) = (a(t) y, b(t) x, 0) with two incommensurate frequencies and
    p(x, t) = p_amp cos(2 pi f1 t) z.  The third velocity component and
    the z-derivatives of the others vanish, so on a z = const cap the
    exact traction is -p n: the cap can be modeled as a zero-resistance
    outlet with the distal pressure set to ``cap_pressure``.
    """

    def __init__(self, rho, mu=0.0, s1=2.0, s2=1.5, f1=0.45, f2=0.3,
                 p_amp=10.0, z_cap=1.0):
        self.rho = float(rho)
        self.mu = float(mu)
        self.s1, self.s2 = float(s1), float(s2)
        self.f1, self.f2 = float(f1), float(f2)
        self.p_amp = float(p_amp)
        self.z_cap = float(z_cap)

    def _ab(self, t):
        return (
            self.s1 * (1.0 + 0.5 * np.sin(2.0 * np.pi * self.f1 * t)),
            self.s2 * 0.7 * np.cos(2.0 * np.pi * self.f2 * t),
        )

    def _ab_dot(self, t):
        w1, w2 = 2.0 * np.pi * self.f1, 2.0 * np.pi * self.f2
        return (
            self.s1 * 0.5 * w1 * np.cos(w1 * t),
            -self.s2 * 0.7 * w2 * np.sin(w2 * t),
        )

    def velocity(self, x, t):
        x = np.asarray(x, dtype=float)
        a, b = self._ab(t)
        out = np.zeros_like(x)
        out[..., 0] = a * x[..., 1]
        out[..., 1] = b * x[..., 0]
        return out

    def velocity_rate(self, x, t):
        x = np.asarray(x, dtype=float)
        ad, bd = self._ab_dot(t)
        out = np.zeros_like(x)
        out[..., 0] = ad * x[..., 1]
        out[..., 1] = bd * x[..., 0]
        return out

    def pressure(self, x, t):
        x = np.asarray(x, dtype=float)
        return self.p_amp * np.cos(2.0 * np.pi * self.f1 * t) * x[..., 2]

    def pressure_rate(self, x, t):
        x = np.asarray(x, dtype=float)
        w1 = 2.0 * np.pi * self.f1
        return -self.p_amp * w1 * np.sin(w1 * t) * x[..., 2]

    def cap_pressure(self, t):
        """Exact traction magnitude on the z = z_cap outlet plane."""
        return self.p_amp * np.cos(2.0 * np.pi * self.f1 * t) * self.z_cap

    def body_force(self, x, t):
        x = np.asarray(x, dtype=float)
        a, b = self._ab(t)
        out = self.velocity_rate(x, t)
        out[..., 0] += a * b * x[..., 0]
        out[..., 1] += a * b * x[..., 1]
        out[..., 2] += self.p_amp * np.cos(2.0 * np.pi * self.f1 * t) / self.rho
        return out


class TaylorGreenSolution:
    """Steady planar vortex array with a trigonometric pressure."""

    def __init__(self, rho, mu, speed=1.0, p_amp=1.0):
        self.rho = float(rho)
        self.mu = float(mu)
        self.speed = float(speed)
        self.p_amp = float(p_amp)

    def velocity(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        px, py = np.pi * x[..., 0], np.pi * x[..., 1]
        out[..., 0] = -self.speed * np.cos(px) * np.sin(py)
        out[..., 1] = self.speed * np.sin(px) * np.cos(py)
        return out

    def velocity_rate(self, x, t=0.0):
        return np.zeros_like(np.asarray(x, dtype=float))

    def pressure(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        return self.p_amp * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    def pressure_rate(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def body_force(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        px, py = np.pi * x[..., 0], np.pi * x[..., 1]
        u2 = self.speed**2
        # Convection.
        out[..., 0] = -0.5 * np.pi * u2 * np.sin(2.0 * px)
        out[..., 1] = -0.5 * np.pi * u2 * np.sin(2.0 * py)
        # Pressure gradient over density.
        out[..., 0] += self.p_amp * np.pi * np.cos(px) * np.sin(py) / self.rho
        out[..., 1] += self.p_amp * np.pi * np.sin(px) * np.cos(py) / self.rho
        # Minus the viscous Laplacian over density.
        nu = self.mu / self.rho
        out[..., 0] += -2.0 * np.pi**2 * nu * self.speed * np.cos(px) * np.sin(py)
        out[..., 1] += 2.0 * np.pi**2 * nu * self.speed * np.sin(px) * np.cos(py)
        return out


SOLUTIONS = {"shear": ShearFlowSolution, "taylor_green": TaylorGreenSolution}
# The solutions each study mode runs, its default first.
STUDIES = {"temporal": ("shear", "taylor_green"), "spatial": ("taylor_green",)}


def l2_error(mesh, nodal, exact_fn, t) -> float:
    """L2 norm of (interpolated nodal field - exact field) over the mesh."""
    from .quadrature import TET4_BARY

    nodal = np.asarray(nodal, dtype=float)
    xq = np.einsum("qa,eai->eqi", TET4_BARY, mesh.nodes[mesh.tets])
    if nodal.ndim == 2:
        fq = np.einsum("qa,eai->eqi", TET4_BARY, nodal[mesh.tets])
        diff = fq - exact_fn(xq, t)
        sq = np.einsum("eqi,eqi->eq", diff, diff)
    else:
        fq = np.einsum("qa,ea->eq", TET4_BARY, nodal[mesh.tets])
        diff = fq - exact_fn(xq, t)
        sq = diff * diff
    w = mesh.volumes / TET4_BARY.shape[0]
    return float(np.sqrt(np.einsum("e,eq->", w, sq)))


def observed_orders(values) -> list:
    """Orders from successive halvings: log2 of consecutive error ratios."""
    values = list(values)
    return [float(np.log2(values[i] / values[i + 1])) for i in range(len(values) - 1)]


def fitted_order(step_sizes, errors) -> float:
    """Least-squares slope of log(error) against log(step size)."""
    x = np.log(np.asarray(step_sizes, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
