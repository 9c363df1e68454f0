"""Deterministic mass-action dynamics.

The rate vector field is the sum over transitions of
rate * (output - input) * x^input, with the 0**0 == 1 convention so the
empty complex contributes a constant source term.  Integration is classic
RK4, on a fixed grid or step-controlled by an embedded error estimate,
within a step budget.  Equilibria come from pseudo-transient continuation,
which ends as Newton iteration.

Trajectories must stay in the nonnegative orthant: entries in
[-1e-12, 0) are treated as roundoff and clamped to zero, anything lower
aborts with ``E_NEG`` (the step was too large).  A state that stops being
finite (finite-time blow-up) aborts with ``E_EXPLODE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidValue,
    NegativeState,
    NoConvergence,
    PopulationExplosion,
)
from .network import Network, validate_classical

__all__ = [
    "rate_vector_field",
    "Trajectory",
    "integrate_rate",
    "find_equilibrium",
]

_CLAMP = 1e-12
_MAX_RATE_STEPS = 2**14  # tries of integrate_rate; about 2 s on small networks
_ZONNEVELD_A = np.array([5.0, 7.0, 13.0, -1.0]) / 32.0  # the fifth stage, at c = 3/4
_ZONNEVELD_E = np.array([2 / 3, -2.0, -2.0, -2.0, 16 / 3])  # RK4 minus third-order weights
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


def _rk4_step(field, x: np.ndarray, h: float):
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (k1, k2, k3, k4)


def _default_step(kernel, x0: np.ndarray) -> float:
    # crude Lipschitz estimate: infinity norm of the Jacobian at x0
    lipschitz = float(np.abs(kernel.jacobian(x0)).sum(axis=1).max(initial=0.0))
    if not np.isfinite(lipschitz):
        raise PopulationExplosion("the rate field overflows at the initial state")
    if lipschitz <= 0:
        return 0.01
    return min(0.01, 0.1 / lipschitz)


def integrate_rate(
    net: Network, x0, t_end: float, step: float | None = None, rtol: float = 3e-8
) -> Trajectory:
    """Integrate the rate equation from ``x0`` over [0, t_end] with classic RK4.

    With ``step`` h the rows are at h, 2h, ... and t_end.  Without it the
    step starts at min(0.01, 0.1/L), L a Lipschitz estimate at x0, and is
    kept when Zonneveld's embedded fifth stage (Hairer-Norsett-Wanner I,
    Table II.4.1) puts its error at most 1e-12 + rtol*max|x|.  More than
    ``_MAX_RATE_STEPS`` steps or tries is ``E_BUDGET``; a step too small to
    move t is a finite-time blow-up, ``E_EXPLODE``.
    """
    x0 = validate_classical(x0, net.num_species)
    if not (0 < t_end < np.inf and 0 < rtol < np.inf and (step is None or 0 < step < np.inf)):
        raise InvalidValue(f"t_end, step, rtol must be finite and > 0: {t_end}, {step}, {rtol}")
    if step is not None and not t_end / step <= _MAX_RATE_STEPS:
        raise BudgetExceeded(f"t_end / step exceeds the budget of {_MAX_RATE_STEPS} steps")
    field = net.mass_action.field
    times, states, x = [0.0], [x0], x0
    with np.errstate(over="ignore", invalid="ignore"):
        if step is not None:
            h, n_full = float(step), int(t_end / step)
            grid = [((i + 1) * h, h) for i in range(n_full)]
            if n_full == 0 or t_end - n_full * h > 1e-12 * max(1.0, t_end):
                grid.append((t_end, t_end - n_full * h))
            for t, dt in grid:
                x = _clamp_state(_rk4_step(field, x, dt)[0])
                times.append(t)
                states.append(x)
        else:
            t, h = 0.0, _default_step(net.mass_action, x0)
            for _ in range(_MAX_RATE_STEPS):
                h = min(h, t_end - t)
                last = h == t_end - t
                x_new, stages = _rk4_step(field, x, h)
                k5 = field(x + h * (_ZONNEVELD_A @ stages))
                err = h * np.abs(_ZONNEVELD_E @ (*stages, k5)).max(initial=0.0)
                tol = 1e-12 + rtol * x.max(initial=0.0)
                if err <= tol:
                    t = t_end if last else t + h
                    x = _clamp_state(x_new)
                    times.append(t)
                    states.append(x)
                    if last:
                        break
                # a NaN err passes no comparison, so max() keeps 0.2 and the step shrinks
                h *= min(5.0, max(0.2, 0.9 * float(tol / err) ** 0.25)) if err else 5.0
                if t + h == t:
                    raise PopulationExplosion(f"the step fell below the float spacing of t={t:.6g}")
            else:
                raise BudgetExceeded(f"t_end not reached in {_MAX_RATE_STEPS} steps")
    times, states = np.array(times), np.array(states)
    blown = ~np.isfinite(states).all(axis=1)
    if blown.any():
        at = times[blown.argmax()]
        raise PopulationExplosion(f"the rate equation left the finite range by t={at:.6g}")
    return Trajectory(times, states)


def find_equilibrium(net: Network, x0, tol: float = 1e-9) -> np.ndarray:
    """Equilibrium of the rate equation in x0's stoichiometric class.

    Pseudo-transient continuation (Kelley & Keyes 1998): backward-Euler
    steps (I/dt - B^T J B) y = B^T f(x), x += B y, with J the exact
    Jacobian and B an orthonormal basis of range(Gamma), halved with dt
    until x >= -1e-12.  dt starts at the default RK4 step and grows by
    switched evolution relaxation, dt *= |f_old|/|f_new|, at least doubling
    while |f| falls, so the loop ends as Newton iteration.  While B^T J B has
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
    if not 0 < tol < np.inf:
        raise InvalidValue(f"tol must be positive and finite, got {tol}")
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
