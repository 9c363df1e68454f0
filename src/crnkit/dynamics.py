"""Deterministic mass-action dynamics.

The rate vector field is the sum over transitions of
rate * (output - input) * x^input, with the 0**0 == 1 convention so the
empty complex contributes a constant source term.  Integration defaults
to classic fixed-step RK4 for reproducibility; an adaptive RK45 is
available through :func:`scipy.integrate.solve_ivp`.  Equilibria come
from pseudo-transient continuation, which ends as Newton's method.

Trajectories must stay in the nonnegative orthant: entries in
[-1e-12, 0) are treated as roundoff and clamped to zero, anything lower
aborts with ``E_NEG`` (the step was too large).  A state that stops being
finite (finite-time blow-up) aborts with ``E_EXPLODE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeState,
    NoConvergence,
    PopulationExplosion,
    StepSizeUnderflow,
)
from .network import Network, validate_classical

__all__ = [
    "rate_vector_field",
    "Trajectory",
    "integrate_rate",
    "find_equilibrium",
]

_CLAMP = 1e-12
_RK45_ATOL = 1e-10
_MAX_STEPS = 200  # step budget of find_equilibrium; converging networks tried took <= 54


def rate_vector_field(net: Network, x) -> np.ndarray:
    """Net production rate of each species at the classical state ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.num_species,):
        raise DimensionMismatch(f"state has shape {x.shape}, expected ({net.num_species},)")
    return net.mass_action.field(x)


@dataclass(frozen=True)
class Trajectory:
    """Times (strictly increasing, starting at 0) and one state row per time."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise ValueError("times and states must have matching leading length")
        if times.size and (np.diff(times) <= 0).any():
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, species) -> str:
        lines = ["t," + ",".join(species)]
        for t, row in zip(self.times, self.states):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
        return "\n".join(lines) + "\n"


def _clamp_state(x: np.ndarray) -> np.ndarray:
    low = x.min(initial=0.0)
    if low < 0:
        if low < -_CLAMP:
            raise NegativeState(
                f"state entry reached {low:.3e}; below the roundoff clamp, "
                "reduce the step size"
            )
        x = np.where(x < 0, 0.0, x)
    return x


def _rk4_step(field, x: np.ndarray, h: float) -> np.ndarray:
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _default_step(kernel, x0: np.ndarray) -> float:
    # crude Lipschitz estimate: infinity norm of the Jacobian at x0
    lipschitz = float(np.abs(kernel.jacobian(x0)).sum(axis=1).max(initial=0.0))
    if not np.isfinite(lipschitz):
        raise PopulationExplosion("the rate field overflows at the initial state")
    if lipschitz <= 0:
        return 0.01
    return min(0.01, 0.1 / lipschitz)


def _finite_trajectory(times: np.ndarray, states: np.ndarray) -> Trajectory:
    blown = ~np.isfinite(states).all(axis=1)
    if blown.any():
        raise PopulationExplosion(
            f"the rate equation left the finite range by t={times[blown.argmax()]:.6g}"
        )
    return Trajectory(times, states)


def integrate_rate(
    net: Network,
    x0,
    t_end: float,
    method: str = "rk4",
    step: float | None = None,
    rtol: float = 1e-8,
) -> Trajectory:
    """Integrate the rate equation from ``x0`` over [0, t_end].

    ``method`` is ``"rk4"`` (fixed step; ``step`` defaults to
    min(0.01, 0.1/L) with L a Jacobian-based Lipschitz estimate at x0) or
    ``"rk45"`` (adaptive, scipy, controlled by ``rtol`` and an absolute
    tolerance of 1e-10).
    """
    x0 = validate_classical(x0, net.num_species)
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    kernel = net.mass_action
    field = kernel.field
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "rk4":
            h = float(step) if step is not None else _default_step(kernel, x0)
            if not h > 0:
                raise ValueError("step must be positive")
            n_full = int(t_end / h)
            remainder = t_end - n_full * h
            times = [0.0]
            states = [x0]
            x = x0
            for i in range(n_full):
                x = _clamp_state(_rk4_step(field, x, h))
                times.append((i + 1) * h)
                states.append(x)
            if remainder > 1e-12 * max(1.0, t_end):
                x = _clamp_state(_rk4_step(field, x, remainder))
                times.append(t_end)
                states.append(x)
            return _finite_trajectory(np.array(times), np.array(states))
        if method == "rk45":
            from scipy.integrate import solve_ivp  # slow to import; rk4 runs without it

            sol = solve_ivp(
                lambda _t, y: field(y), (0.0, t_end), x0,
                method="RK45", rtol=rtol, atol=_RK45_ATOL,
            )
            if not sol.success:
                raise StepSizeUnderflow(sol.message)
            return _finite_trajectory(sol.t, np.array([_clamp_state(row) for row in sol.y.T]))
    raise ValueError(f"unknown method {method!r}")


def find_equilibrium(net: Network, x0, tol: float = 1e-9) -> np.ndarray:
    """Equilibrium of the rate equation in x0's stoichiometric class.

    Pseudo-transient continuation (Kelley & Keyes 1998): backward-Euler
    steps (I/dt - B^T J B) y = B^T f(x), x += B y, with J the exact
    Jacobian and B an orthonormal basis of range(Gamma), halved with dt
    until x >= -1e-12.  dt starts at the default RK4 step and grows by
    switched evolution relaxation, dt *= |f_old|/|f_new|, at least doubling
    while |f| falls, so the loop ends as Newton's method.  While B^T J B has
    an eigenvalue of real part g > 0, dt doubles even as |f| rises, up to
    1/(2g): beyond 1/g a step would head for the unstable point instead.

    Returns the limit of this pseudo-time flow from x0, the only positive
    equilibrium of x0's class for a deficiency-zero network, once |f|_inf
    <= 1e-14 (1 + max|x|) or once |f| stops falling while <= tol (1 +
    max|x|) and B^T J B has no growing mode, so a slow flow's start point
    does not pass for its equilibrium.  After ``_MAX_STEPS`` steps or at a
    singular step it raises ``E_EXPLODE`` if |f| grew and ``E_NOCONV`` if
    not; non-finite values raise ``E_EXPLODE``.
    """
    x = validate_classical(x0, net.num_species).copy()
    if not tol > 0:
        raise ValueError("tol must be positive")
    kernel = net.mass_action
    u_mat, sing, _ = np.linalg.svd(net.stoichiometric_matrix().astype(float), full_matrices=False)
    basis = u_mat[:, : int((sing > sing.max(initial=0.0) * 1e-12).sum())]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dt = _default_step(kernel, x)
        fx = kernel.field(x)
        norm = start = np.abs(fx).max(initial=0.0)
        for _ in range(_MAX_STEPS):
            if not (np.isfinite(norm) and np.isfinite(x).all()):
                raise PopulationExplosion("the rate field left the finite range")
            scale = 1.0 + np.abs(x).max(initial=0.0)
            if norm <= 1e-14 * scale:
                return x
            jac = basis.T @ kernel.jacobian(x) @ basis
            growth = np.linalg.eigvals(jac).real.max(initial=0.0)
            if growth > 0:
                dt = min(dt, 0.5 / growth)
            try:
                step = basis @ np.linalg.solve(np.eye(len(jac)) / dt - jac, basis.T @ fx)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(step).all():
                break
            while (x + step).min() < -_CLAMP:
                step *= 0.5
                dt *= 0.5
            candidate = _clamp_state(x + step)
            f_new = kernel.field(candidate)
            norm_new = np.abs(f_new).max()
            if not norm_new < norm and norm <= tol * scale and growth <= 0:
                return x
            ratio = norm / norm_new
            dt *= max(ratio, 2.0) if ratio > 1 or growth > 0 else ratio
            x, fx, norm = candidate, f_new, norm_new
    if not norm <= start:
        raise PopulationExplosion(f"field norm grew from {start:.3e} to {norm:.3e}")
    raise NoConvergence(f"field norm {norm:.3e} still above tolerance")
