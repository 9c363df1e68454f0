"""Deterministic mass-action dynamics, with the kernel :class:`MassAction`
and :func:`validate_classical` that the master equation and the SSA share.

The rate vector field is the sum over transitions of
rate * (output - input) * x^input, with the 0**0 == 1 convention so the
empty complex contributes a constant source term.  The field, its Jacobian
and the RK4 loop run on Python floats in a fixed order of operations, with
no numpy ufunc and no BLAS call, so ``crn rate`` prints the same bytes on
every CPU.  Integration is classic RK4, step-controlled by an embedded error
estimate, within a step budget.  Equilibria come from pseudo-transient
continuation, which ends as Newton iteration; it keeps numpy's LAPACK calls.

Trajectories must stay in the nonnegative orthant: entries in
[-1e-12, 0) are treated as roundoff and clamped to zero, anything lower
aborts with ``E_NEG`` (the tolerance let a step overshoot).  A state that
stops being finite (finite-time blow-up) aborts with ``E_EXPLODE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidValue,
    NegativeConcentration,
    NegativeState,
    NoConvergence,
    PopulationExplosion,
)
from .network import Network

__all__ = [
    "rate_vector_field",
    "Trajectory",
    "integrate_rate",
    "find_equilibrium",
]

_CLAMP = 1e-12
_MAX_RATE_STEPS = 2**14  # tries of integrate_rate; about 2 s on small networks
_MAX_STEPS = 200  # step budget of find_equilibrium; converging networks tried took <= 54
_SQUARING_ABOVE = 8  # a larger stoichiometric coefficient is raised by binary powering


class MassAction:
    """Mass-action kernel: the transitions as (transitions x species) arrays,
    and once more as one sparse table.

    ``inputs`` s and ``outputs`` t hold the complexes, ``change`` is t - s as
    floats and ``rates`` the rate constants r.  The rate equation is
    sum_tau r(tau) (t - s) x^s and the master-equation generator is
    sum_tau r(tau) (a+^t - a+^s) a^s, where a^s on a pure state n gives the
    falling factorial of n; both are read from these arrays.  The monomial
    uses 0**0 == 1, so the empty complex contributes r(tau).

    ``table`` holds one entry (r, factors, moves) per transition:
    ``factors`` the pairs (i, s_i) with s_i > 0 and ``moves`` the pairs
    (i, t_i - s_i) with t_i != s_i.  The empty complex has no factor, so
    0**0 == 1 holds by construction.  :meth:`field` and :meth:`jacobian` read
    the table on Python floats in a fixed order, so their bits do not depend
    on the CPU; :meth:`flux` keeps numpy's ``power``.
    """

    def __init__(self, net: Network):
        shape = (net.num_transitions, net.num_species)
        self.inputs = np.array([tr.input for tr in net.transitions], dtype=np.int64).reshape(shape)
        self.outputs = np.array([tr.output for tr in net.transitions], dtype=np.int64).reshape(shape)
        self.change = (self.outputs - self.inputs).astype(float)
        self.rates = np.array([tr.rate for tr in net.transitions], dtype=float)
        for array in (self.inputs, self.outputs, self.change, self.rates):
            array.setflags(write=False)

    @cached_property
    def table(self) -> tuple:
        """Built on first use: the master equation and the SSA never read it."""
        return tuple(
            (
                rate,
                tuple((i, need) for i, need in enumerate(inputs) if need),
                tuple((i, c) for i, c in enumerate(change) if c),
            )
            for rate, inputs, change in zip(
                self.rates.tolist(), self.inputs.tolist(), self.change.tolist()
            )
        )

    def flux(self, x: np.ndarray) -> np.ndarray:
        """Firing rate r(tau) x^s of every transition at the classical state ``x``."""
        return self.rates * (x ** self.inputs).prod(axis=1)

    def field(self, x) -> np.ndarray:
        """Rate-equation vector field sum_tau r(tau) (t - s) x^s, from :meth:`field_floats`."""
        return np.array(self.field_floats(np.asarray(x, dtype=float).tolist()))

    def jacobian(self, x) -> np.ndarray:
        """Exact derivative of :meth:`field`, from :meth:`jacobian_floats`."""
        k = len(x)
        return np.array(self.jacobian_floats(np.asarray(x, dtype=float).tolist())).reshape(k, k)

    def field_floats(self, x: list[float]) -> list[float]:
        """The field at the state ``x``, a list of floats, as a list.

        Each flux is ((r x_a) x_a) x_b ... over ``factors``, one factor at a
        time (see :func:`_times_power`); then, transition by transition,
        out[i] += (t_i - s_i) * flux for each move.
        """
        out = [0.0] * len(x)
        for flux, factors, moves in self.table:
            for i, need in factors:
                if need == 1:
                    flux *= x[i]
                else:
                    flux = _times_power(flux, x[i], need)
            for i, c in moves:
                out[i] += c * flux
        return out

    def jacobian_floats(self, x: list[float]) -> list[list[float]]:
        """Exact Jacobian of :meth:`field_floats` at ``x``, as rows.

        d(r x^s)/dx_l = s_l r x^(s - e_l) is (r s_l) times the factors of
        x^(s - e_l), in ``factors`` order as in the field; then, transition by
        transition and species by species, jac[i][l] += (t_i - s_i) * slope.
        """
        k = len(x)
        jac = [[0.0] * k for _ in range(k)]
        for rate, factors, moves in self.table:
            for l, need_l in factors:
                slope = rate * need_l
                for m, need in factors:
                    slope = _times_power(slope, x[m], need - 1 if m == l else need)
                for i, c in moves:
                    jac[i][l] += c * slope
        return jac

    def falling(self, counts, j: int):
        """prod_i n_i (n_i - 1) ... (n_i - s_i + 1) of transition j.

        ``counts[i]`` holds the counts of species i: a column of a state
        array, a scalar, or one axis of an open grid (``np.ix_``), since the
        factors broadcast.  Zero whenever some n_i < s_i, since the product
        then passes through 0; 1.0 for the empty complex.
        """
        values = 1.0
        for i, need in enumerate(self.inputs[j].tolist()):
            for m in range(need):
                values = values * (counts[i] - m)
        return values


def _times_power(acc: float, v: float, n: int) -> float:
    """acc * v**n with float multiplies only, so its bits do not depend on the CPU.

    Up to ``_SQUARING_ABOVE`` factors are multiplied in one at a time,
    ((acc v) v) ...; a larger n multiplies acc by v**n from binary powering,
    about 2 log2(n) multiplies.  Both err by at most about (n - 1) roundings
    of v**n, the condition number of v**n in v.
    """
    if n <= _SQUARING_ABOVE:
        for _ in range(n):
            acc *= v
        return acc
    power = 1.0
    while True:
        if n & 1:
            power *= v
        n >>= 1
        if not n:
            return acc * power
        v *= v


def validate_classical(c, k: int) -> np.ndarray:
    """A classical state as a float array of shape (k,), finite and nonnegative."""
    c = np.asarray(c, dtype=float)
    if c.shape != (k,):
        raise DimensionMismatch(f"classical state has shape {c.shape}, expected ({k},)")
    if not np.isfinite(c).all():
        raise InvalidValue("classical state entries must be finite")
    if (c < 0).any():
        raise NegativeConcentration("classical state entries must be nonnegative")
    return c


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
            raise InvalidValue("times and states must have matching leading length")
        if times.size and (np.diff(times) <= 0).any():
            raise InvalidValue("times must be strictly increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def to_csv(self, species) -> str:
        lines = ["t," + ",".join(species)]
        for t, row in zip(self.times.tolist(), self.states.tolist()):
            lines.append(",".join(map(repr, [t] + row)))
        return "\n".join(lines) + "\n"


def _clamp_state(x: list[float]) -> list[float]:
    """``x`` with its entries in [-1e-12, 0) set to 0.0; an entry lower than
    that raises ``E_NEG``."""
    low = min(x, default=0.0)
    if low < 0:
        if low < -_CLAMP:
            raise NegativeState(
                f"state entry reached {low:.3e}; below the roundoff clamp, lower the tolerance"
            )
        x = [0.0 if v < 0 else v for v in x]
    return x


def _rk4_step(field, x: list[float], h: float):
    half = 0.5 * h
    k1 = field(x)
    k2 = field([v + half * a for v, a in zip(x, k1)])
    k3 = field([v + half * b for v, b in zip(x, k2)])
    k4 = field([v + h * c for v, c in zip(x, k3)])
    sixth = h / 6.0
    x_new = [v + sixth * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(x, k1, k2, k3, k4)]
    return x_new, (k1, k2, k3, k4)


def _default_step(kernel, x0: list[float]) -> float:
    # crude Lipschitz estimate: infinity norm of the Jacobian at x0, its rows
    # summed left to right (builtin sum() compensates from Python 3.12 on)
    lipschitz = 0.0
    for row in kernel.jacobian_floats(x0):
        norm = 0.0
        for v in row:
            norm += abs(v)
        if not math.isfinite(norm):
            raise PopulationExplosion("the rate field overflows at the initial state")
        lipschitz = max(lipschitz, norm)
    if lipschitz <= 0:
        return 0.01
    return min(0.01, 0.1 / lipschitz)


def integrate_rate(net: Network, x0, t_end: float, rtol: float = 3e-8) -> Trajectory:
    """Integrate the rate equation from ``x0`` over [0, t_end] with classic RK4.

    The step starts at min(0.01, 0.1/L), L a Lipschitz estimate at x0, and is
    kept when Zonneveld's embedded fifth stage (Hairer-Norsett-Wanner I,
    Table II.4.1) puts its error at most 1e-12 + rtol*max|x|.  More than
    ``_MAX_RATE_STEPS`` steps or tries is ``E_BUDGET``; a step too small to
    move t is a finite-time blow-up, ``E_EXPLODE``.  The loop runs on lists
    of Python floats (:meth:`MassAction.field_floats`), every combination of
    stages written out left to right; numpy only checks ``x0`` and holds the
    returned :class:`Trajectory`.
    """
    x0 = validate_classical(x0, net.num_species)
    if not (0 < t_end < math.inf and 0 < rtol < math.inf):
        raise InvalidValue(f"t_end and rtol must be finite and > 0: {t_end}, {rtol}")
    kernel = net.mass_action
    field = kernel.field_floats
    x = x0.tolist()
    times, states = [0.0], [x]
    t, h = 0.0, _default_step(kernel, x)
    for _ in range(_MAX_RATE_STEPS):
        h = min(h, t_end - t)
        last = h == t_end - t
        x_new, (k1, k2, k3, k4) = _rk4_step(field, x, h)
        # the fifth stage, at c = 3/4, weighs the stages by (5, 7, 13, -1)/32;
        # the error is RK4's minus the third-order weights, (2/3, -2, -2, -2, 16/3)
        k5 = field([v + h * (0.15625 * a + 0.21875 * b + 0.40625 * c - 0.03125 * d)
                    for v, a, b, c, d in zip(x, k1, k2, k3, k4)])
        errs = [abs(2 / 3 * a - 2.0 * b - 2.0 * c - 2.0 * d + 16 / 3 * e)
                for a, b, c, d, e in zip(k1, k2, k3, k4, k5)]
        # max() keeps a NaN only when it comes first, so a NaN stage is looked for
        err = math.nan if any(map(math.isnan, errs)) else h * max(errs, default=0.0)
        tol = 1e-12 + rtol * max(x, default=0.0)
        if err <= tol:
            t = t_end if last else t + h
            x = _clamp_state(x_new)
            times.append(t)
            states.append(x)
            if last:
                break
        # a NaN err passes no comparison, so max() keeps 0.2 and the step shrinks;
        # the fourth root is two square roots, which round alike on every CPU
        h *= min(5.0, max(0.2, 0.9 * math.sqrt(math.sqrt(tol / err)))) if err else 5.0
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
        dt = _default_step(kernel, x.tolist())
        fx = kernel.field(x)
        norm = start = np.abs(fx).max(initial=0.0)
        for _ in range(_MAX_STEPS):
            if not (np.isfinite(norm) and np.isfinite(x).all()):
                raise PopulationExplosion("the rate field left the finite range")
            scale = 1.0 + np.abs(x).max(initial=0.0)
            if norm <= 1e-14 * scale:
                return x
            jac = basis.T @ kernel.jacobian(x) @ basis
            if not np.isfinite(jac).all():
                raise PopulationExplosion("the Jacobian left the finite range")
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
            candidate = np.array(_clamp_state((x + step).tolist()))
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
