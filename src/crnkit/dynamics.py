"""Deterministic mass-action dynamics, with the kernel :class:`MassAction`
and :func:`validate_classical` that the master equation and the SSA share.

The rate vector field is the sum over transitions of
rate * (output - input) * x^input, with the 0**0 == 1 convention so the
empty complex contributes a constant source term.  The field, its Jacobian
and the RK4 loop run on Python floats in a fixed order of operations, with
no numpy ufunc and no BLAS call, so ``crn rate`` prints the same bytes on
every CPU.  The field and its exact Jacobian, the one kernel of both
subcommands, are straight-line code generated once per network structure
and bound to the rates (:attr:`MassAction.compiled`).  Integration is
classic RK4, step-controlled by an embedded error estimate, within a step
budget, as a loop generated once per species count.  Equilibria come from
pseudo-transient continuation, which ends as Newton iteration, in the
coordinates of the pivot species of the exact elimination of the changes;
its linear algebra (a Cholesky test, Gaussian elimination and a Hessenberg
QR for the eigenvalues) runs on Python floats too, with no LAPACK call, so
``crn equilibrium`` prints the same bytes on every CPU as well.

Trajectories must stay in the nonnegative orthant: entries in
[-1e-12, 0) are treated as roundoff and clamped to zero, anything lower
aborts with ``E_NEG`` (the tolerance let a step overshoot).  A state that
stops being finite (finite-time blow-up) aborts with ``E_EXPLODE``.
"""

from __future__ import annotations

import builtins
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress
from operator import add

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
from .structure import _changes, _pivot_rows

__all__ = [
    "rate_vector_field",
    "Trajectory",
    "integrate_rate",
    "find_equilibrium",
]

_CLAMP = 1e-12
_MAX_RATE_STEPS = 2**14  # tries of integrate_rate; about 0.07 s at 3 species, 0.7 s at 40
_MAX_STEPS = 200  # step budget of find_equilibrium; converging networks tried took <= 54
_SQUARING_ABOVE = 8  # a larger stoichiometric coefficient is raised by binary powering


class MassAction:
    """Mass-action kernel: the transitions as one sparse table.

    With input complex s, output t and rate constant r per transition, the
    rate equation is sum_tau r(tau) (t - s) x^s and the master-equation
    generator is sum_tau r(tau) (a+^t - a+^s) a^s, where a^s on a pure
    state n gives the falling factorial of n; both are read from the
    table.

    ``table`` holds one entry (r, factors, moves) per transition:
    ``factors`` the pairs (i, s_i) with s_i > 0 and ``moves`` the pairs
    (i, t_i - s_i) with t_i != s_i, both in Python ints; the SSA jumps
    by the moves.  The empty complex has no factor, so
    0**0 == 1 holds by construction.  :attr:`compiled` is the field and its
    exact Jacobian, generated from the table's structure, and :meth:`flux`
    a loop over the table, both on Python floats in a fixed order, so their
    bits do not depend on the CPU.  :attr:`reduction` holds the coordinates
    of :func:`find_equilibrium`.
    """

    def __init__(self, net: Network):
        self._transitions = net.transitions
        self._k = net.num_species

    @cached_property
    def table(self) -> tuple:
        """Built on first use from the transitions' count vectors, with no
        dense array; a move is the int t_i - s_i, which a float operand
        converts as ``float()`` does."""
        species = tuple(range(self._k))  # compress() then yields no new ints
        table = []
        for tr in self._transitions:
            s, t = tr.input, tr.output
            need = [*compress(species, s)]
            factors = tuple((i, s[i]) for i in need)
            held = sorted({*need, *compress(species, t)})
            moves = tuple((i, t[i] - s[i]) for i in held if t[i] != s[i])
            table.append((tr.rate, factors, moves))
        return tuple(table)

    @cached_property
    def reduction(self) -> tuple:
        """(pivots, spread): the pivot species of the exact elimination of the
        changes (``structure._pivot_rows``), in increasing order, and per
        species j its pairs (a, p_c[j] / p_c[c]) over the pivots c =
        pivots[a] with p_c[j] != 0.

        Each change is sum_c (change_c / p_c[c]) p_c, so a move of the
        pivots by y moves species j by sum of coefficient * y[a] over its
        pairs; a pivot's one pair is (its own position, 1.0).
        """
        rows = _pivot_rows(_changes(self._transitions), self._k)
        pivots = tuple(sorted(rows))
        spread = tuple(
            tuple((a, rows[c][j] / rows[c][c]) for a, c in enumerate(pivots) if rows[c][j])
            for j in range(self._k)
        )
        return pivots, spread

    @cached_property
    def compiled(self) -> tuple:
        """(field, jacobian) of :func:`_emit`, bound to this network's rates:
        ``field(x0, ..., x{k-1})`` is the field as a list and ``jacobian``
        its exact Jacobian, one tuple of (column, value) pairs per row in
        increasing column order, for the entries some transition writes."""
        structure = tuple((factors, moves) for _, factors, moves in self.table)
        return _emit(structure, self._k)(tuple(rate for rate, _, _ in self.table))

    def flux(self, x) -> list[float]:
        """Firing rate r(tau) x^s of every transition at the classical state
        ``x``, as r times the product of the powers x_i**s_i in species
        order, each libm's ``pow``.  A power beyond the float range is inf,
        so a product of 0 and inf is NaN."""
        x = [*map(float, x)]
        fluxes = []
        for rate, factors, _ in self.table:
            product = 1.0
            for i, need in factors:
                try:
                    product *= x[i] ** need
                except OverflowError:
                    product *= math.inf
            fluxes.append(rate * product)
        return fluxes

    def falling(self, counts, j: int):
        """prod_i n_i (n_i - 1) ... (n_i - s_i + 1) of transition j.

        ``counts[i]`` holds the counts of species i: one axis of the
        generator's open grid (``np.ix_``) or a column of a state array,
        since the factors broadcast.  Zero whenever some n_i < s_i, since
        the product then passes through 0; 1.0 for the empty complex.
        """
        values = 1.0
        for i, need in self.table[j][1]:
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


@lru_cache(maxsize=32)
def _emit(structure: tuple, k: int):
    """``bind(r)``, compiled once per structure, the (factors, moves) of each
    transition of :attr:`MassAction.table` over k species, as
    ``collections.namedtuple`` compiles its classes.  ``bind`` takes the
    rates, in transition order, into closure cells and returns
    :attr:`MassAction.compiled`.  The source holds only ints (the changes
    among them), identifiers made here and ``0.0``, never input text; each
    factor and each move is its own statement, since a chained product or
    sum of thousands of terms overflows the compiler's recursion limit.

    The float operations are those of the table loops the tests keep, in
    the same order.  A flux is ((r x_a) x_a) x_b ..., the slope
    d(r x^s)/dx_l is (r s_l) times the factors of x^(s - e_l), each power
    as :func:`_times_power` forms it, and each move adds (t_i - s_i) times
    the flux to field entry i and times the slope to Jacobian entry (i, l).
    An entry's first write is 0.0 + c * term, which rounds as adding to the
    loops' 0.0 does; the int c times a float rounds as float(c) times it
    does, and a change of 1 or -1 adds or subtracts the term, which rounds
    as adding 1.0 * term or -1.0 * term does.
    """
    args = ", ".join(f"x{i}" for i in range(k))
    field, jacobian = [f"    def field({args}):"], [f"    def jacobian({args}):"]
    written: set[str] = set()
    columns: list[set[int]] = [set() for _ in range(k)]
    for j, (factors, moves) in enumerate(structure):
        if not moves:
            continue
        flux = _product(field, "f", f"r{j}", factors)
        for i, c in moves:
            field.append(_add(f"o{i}", c, flux, written))
        for l, need_l in factors:
            start = f"r{j}" if need_l == 1 else f"(r{j} * {need_l})"
            powers = [(m, need - 1 if m == l else need) for m, need in factors]
            slope = _product(jacobian, "s", start, powers)
            for i, c in moves:
                jacobian.append(_add(f"j{i}_{l}", c, slope, written))
                columns[i].add(l)
    entries = (f"o{i}" if f"o{i}" in written else "0.0" for i in range(k))
    field.append(f"        return [{', '.join(entries)}]")
    rows = ("(" + "".join(f"({l}, j{i}_{l}), " for l in sorted(row)) + ")"
            for i, row in enumerate(columns))
    jacobian.append(f"        return ({''.join(f'{row}, ' for row in rows)})")
    rates = ", ".join(f"r{j}" for j in range(len(structure)))
    lines = ["def bind(r):", f"    [{rates}] = r", *field, *jacobian, "    return field, jacobian"]
    return _define("bind", lines, {"power": _times_power})


def _product(lines: list[str], name: str, acc: str, powers) -> str:
    """Append to ``lines`` the statements that multiply the source expression
    ``acc`` by x_i**n into ``name``, over the pairs (i, n) of ``powers``, as
    :func:`_times_power` does; return what holds the product."""
    for i, n in powers:
        if n > _SQUARING_ABOVE:
            lines.append(f"        {name} = power({acc}, x{i}, {n})")
            acc = name
        else:
            for _ in range(n):
                lines.append(f"        {name} = {acc} * x{i}")
                acc = name
    return acc


def _add(entry: str, c: int, term: str, written: set[str]) -> str:
    """The statement that adds c * term to ``entry``: the first for that
    entry (``written`` records it) starts from 0.0."""
    sign = "-" if c == -1 else "+"
    term = term if c in (1, -1) else f"{c} * {term}"
    line = f"{entry} {sign}= {term}" if entry in written else f"{entry} = 0.0 {sign} {term}"
    written.add(entry)
    return "        " + line


@lru_cache(maxsize=32)
def _rate_loop(k: int):
    """The step-controlled RK4 loop of :func:`integrate_rate` over k species,
    shared by every network of k species: it reads no rate and no table.

    ``rate_loop(field, x, h, t_end, rtol, steps)`` keeps the state in the
    locals x0 ... x{k-1} and calls ``field`` on them for each of a try's
    five stages; it returns the times and the state rows, each row a list.
    Every float operation is that of the loop written on lists (the tests
    keep it), in the same order: max() over the locals returns what max()
    over the list does, a NaN included, and ``_clamp_state`` runs only when
    min() of the new state is below 0, the one case where it does anything.
    """

    def entries(form: str) -> str:
        return ", ".join(form.format(i=i) for i in range(k))

    def extreme(fn: str, form: str, empty: str) -> str:
        # max() or min() of one float, or of none, is a TypeError
        return f"{fn}({entries(form)})" if k > 1 else form.format(i=0) if k else empty

    # the fifth stage, at c = 3/4, weighs the stages by (5, 7, 13, -1)/32;
    # the error is RK4's minus the third-order weights, (2/3, -2, -2, -2, 16/3)
    fifth = "x{i} + h * (0.15625 * a{i} + 0.21875 * b{i} + 0.40625 * c{i} - 0.03125 * d{i})"
    error = "abs(2 / 3 * a{i} - 2.0 * b{i} - 2.0 * c{i} - 2.0 * d{i} + 16 / 3 * e{i})"
    step = "x{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"
    # max() keeps a NaN only when it comes first, so a NaN stage is looked for
    err = f"h * {extreme('max', 'q{i}', '0.0')}"
    if k:
        err = f"nan if {' or '.join(f'q{i} != q{i}' for i in range(k))} else {err}"
    lines = [
        "def rate_loop(field, x, h, t_end, rtol, steps):",
        f"    [{entries('x{i}')}] = x",
        "    t = 0.0",
        "    times = [t]",
        "    states = [x]",
        "    for _ in range(steps):",
        "        rest = t_end - t",
        "        if rest < h:",
        "            h = rest",
        "        last = h == rest",
        f"        tol = 1e-12 + rtol * {extreme('max', 'x{i}', '0.0')}",
        "        half = 0.5 * h",
        f"        [{entries('a{i}')}] = field({entries('x{i}')})",
        f"        [{entries('b{i}')}] = field({entries('x{i} + half * a{i}')})",
        f"        [{entries('c{i}')}] = field({entries('x{i} + half * b{i}')})",
        f"        [{entries('d{i}')}] = field({entries('x{i} + h * c{i}')})",
        f"        [{entries('e{i}')}] = field({entries(fifth)})",
        *(f"        q{i} = {error.format(i=i)}" for i in range(k)),
        f"        err = {err}",
        "        if err <= tol:",
        "            t = t_end if last else t + h",
        "            sixth = h / 6.0",
        *(f"            x{i} = {step.format(i=i)}" for i in range(k)),
        *([f"            if {extreme('min', 'x{i}', '')} < 0:",
           f"                [{entries('x{i}')}] = clamp([{entries('x{i}')}])"] if k else []),
        "            times.append(t)",
        f"            states.append([{entries('x{i}')}])",
        "            if last:",
        "                return times, states",
        # a NaN err passes no comparison, so max() keeps 0.2 and the step shrinks;
        # the fourth root is two square roots, which round alike on every CPU
        "        h *= min(5.0, max(0.2, 0.9 * sqrt(sqrt(tol / err)))) if err else 5.0",
        "        if t + h == t:",
        "            raise PopulationExplosion(",
        '                f"the step fell below the float spacing of t={t:.6g}")',
        '    raise BudgetExceeded(f"t_end not reached in {steps} steps")',
    ]
    namespace = {
        "sqrt": math.sqrt,
        "nan": math.nan,
        "clamp": _clamp_state,
        "PopulationExplosion": PopulationExplosion,
        "BudgetExceeded": BudgetExceeded,
    }
    return _define("rate_loop", lines, namespace)


def _define(name: str, lines: list[str], namespace: dict):
    """The function ``name`` that the source ``lines`` define, executed in
    ``namespace``; its builtins are those the source names, in the
    functions nested in it too, and no other."""
    code = compile("\n".join(lines) + "\n", f"<crnkit.dynamics {name}>", "exec")
    names, bodies = set(), [code]
    while bodies:
        body = bodies.pop()
        names.update(body.co_names)
        bodies += [const for const in body.co_consts if hasattr(const, "co_names")]
    namespace["__builtins__"] = {n: getattr(builtins, n) for n in names if hasattr(builtins, n)}
    exec(code, namespace)
    return namespace[name]


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
    return np.array(net.mass_action.compiled[0](*x.tolist()))


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
        sep = "," if self.states.shape[1] else ""  # a row of no species is t alone
        for t, row in zip(self.times.tolist(), self.states.tolist()):
            lines.append(f"{t!r}{sep}{','.join(map(repr, row))}")
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


def _default_step(kernel, x0: list[float]) -> float:
    # crude Lipschitz estimate: infinity norm of the Jacobian at x0, each row's
    # |entries| added left to right in increasing column order (builtin sum()
    # compensates from Python 3.12 on); a zero entry left out adds 0.0, which
    # is exact
    lipschitz = 0.0
    for row in kernel.compiled[1](*x0):
        norm = 0.0
        for _, v in row:
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
    move t is a finite-time blow-up, ``E_EXPLODE``.  The loop runs on Python
    floats, as code generated for the species count that keeps the state in
    locals, every combination of stages written out left to right; each
    stage calls the generated field of :attr:`MassAction.compiled`, whose
    Jacobian gives L.  numpy only checks ``x0`` and holds the returned
    :class:`Trajectory`.
    """
    x0 = validate_classical(x0, net.num_species)
    if not (0 < t_end < math.inf and 0 < rtol < math.inf):
        raise InvalidValue(f"t_end and rtol must be finite and > 0: {t_end}, {rtol}")
    kernel = net.mass_action
    x = x0.tolist()
    h = _default_step(kernel, x)
    times, states = _rate_loop(len(x))(kernel.compiled[0], x, h, t_end, rtol, _MAX_RATE_STEPS)
    times, states = np.array(times), np.array(states)
    blown = ~np.isfinite(states).all(axis=1)
    if blown.any():
        at = times[blown.argmax()]
        raise PopulationExplosion(f"the rate equation left the finite range by t={at:.6g}")
    return Trajectory(times, states)


def find_equilibrium(net: Network, x0, tol: float = 1e-9) -> np.ndarray:
    """Equilibrium of the rate equation in x0's stoichiometric class.

    Pseudo-transient continuation (Kelley & Keyes 1998): backward-Euler
    steps (I/dt - J_red) y = f_P(x) in the coordinates of the pivot species
    P of the exact elimination of the changes (:attr:`MassAction.reduction`),
    whose moves fix every other species' move.  J_red is the exact Jacobian
    of f_P in those coordinates, J itself when there is no conservation law;
    f and J come from the generated kernel, :attr:`MassAction.compiled`.
    A step is halved with dt until x >= -1e-12.  dt starts at the default
    RK4 step and grows by switched evolution relaxation, dt *= |f_old|/|f_new|,
    at least doubling while |f| falls, so the loop ends as Newton iteration.
    While J_red has an eigenvalue of real part g > 0, dt doubles even as |f|
    rises, up to 1/(2g): beyond 1/g a step would head for the unstable point
    instead.  g is 0 when -(J_red + J_red^T) is positive definite, and comes
    from a Hessenberg QR (:func:`_largest_real_part`) otherwise.

    Returns the limit of this pseudo-time flow from x0, the only positive
    equilibrium of x0's class for a deficiency-zero network, once |f|_inf
    <= 1e-14 (1 + max|x|) or once |f| stops falling while <= tol (1 +
    max|x|) and J_red has no growing mode, so a slow flow's start point
    does not pass for its equilibrium.  After ``_MAX_STEPS`` steps or at a
    zero pivot of the step's elimination it raises ``E_EXPLODE`` if |f|
    grew and ``E_NOCONV`` if not; non-finite values raise ``E_EXPLODE``.
    The loop runs on Python floats in a fixed order, with no numpy ufunc
    and no BLAS or LAPACK call, so its bits do not depend on the CPU.
    """
    x = validate_classical(x0, net.num_species).tolist()
    if not 0 < tol < math.inf:
        raise InvalidValue(f"tol must be positive and finite, got {tol}")
    kernel = net.mass_action
    pivots, spread = kernel.reduction
    field = kernel.compiled[0]
    dt = _default_step(kernel, x)
    fx = field(*x)
    norm = start = _sup_norm(fx)
    for _ in range(_MAX_STEPS):
        size = _sup_norm(x)
        if not (norm < math.inf and size < math.inf):
            raise PopulationExplosion("the rate field left the finite range")
        scale = 1.0 + size
        if norm <= 1e-14 * scale:
            return np.array(x)
        jac = _reduced_jacobian(kernel, x)
        if not _sup_norm([*chain.from_iterable(jac)]) < math.inf:
            raise PopulationExplosion("the Jacobian left the finite range")
        growth = 0.0 if _dissipative(jac) else max(0.0, _largest_real_part(jac))
        if growth > 0:
            dt = min(dt, 0.5 / growth)
        shift = 1.0 / dt if dt else math.inf
        matrix = [[-v for v in row] for row in jac]
        for i, row in enumerate(matrix):
            row[i] = shift - jac[i][i]
        y = _eliminate(matrix, [fx[p] for p in pivots])
        if y is None:
            break
        step = _spread(spread, y)
        if not _sup_norm(step) < math.inf:
            break
        while min(map(add, x, step)) < -_CLAMP:
            step = [0.5 * v for v in step]
            dt *= 0.5
        candidate = _clamp_state(list(map(add, x, step)))
        f_new = field(*candidate)
        norm_new = _sup_norm(f_new)
        if not norm_new < norm and norm <= tol * scale and growth <= 0:
            return np.array(x)
        ratio = norm / norm_new if norm_new else math.inf
        dt *= max(ratio, 2.0) if ratio > 1 or growth > 0 else ratio
        x, fx, norm = candidate, f_new, norm_new
    if not norm <= start:
        raise PopulationExplosion(f"field norm grew from {start:.3e} to {norm:.3e}")
    raise NoConvergence(f"field norm {norm:.3e} still above tolerance")


def _sup_norm(values: list[float]) -> float:
    """max |v| over ``values``, 0.0 for none; NaN if they hold a NaN (which
    max() passes over unless it comes first) or both infinities."""
    top = max(map(abs, values), default=0.0)
    total = sum(values)
    return top if total == total else math.nan


def _spread(spread: tuple, y: list[float]) -> list[float]:
    """The move of every species when the pivots of
    :attr:`MassAction.reduction` move by ``y``, summed left to right."""
    step = []
    for pairs in spread:
        v = 0.0
        for a, c in pairs:
            v += c * y[a]
        step.append(v)
    return step


def _reduced_jacobian(kernel, x: list[float]) -> list[list[float]]:
    """The Jacobian of the pivots' field in the pivots' coordinates, P J B
    with B the map :func:`_spread`, as dense rows: each pivot's row of J
    times B, its nonzero entries taken in increasing column order.  With
    every species a pivot, B is the identity, and the rows are J's."""
    pivots, spread = kernel.reduction
    rows = kernel.compiled[1](*x)
    reduced = []
    for p in pivots:
        row = [0.0] * len(pivots)
        for l, v in rows[p]:
            if v:
                for b, c in spread[l]:
                    row[b] += v * c
        reduced.append(row)
    return reduced


def _dissipative(a: list[list[float]]) -> bool:
    """Whether -(a + a^T) is positive definite, by its Cholesky factorisation
    in the square-root-free form LDL^T on the upper triangle: every pivot
    must be positive and finite.  Then a's field of values, and so every
    eigenvalue of a, lies in the open left half-plane."""
    n = len(a)
    if not all(row[i] < 0 for i, row in enumerate(a)):
        return False  # a diagonal entry of -(a + a^T) that is not positive
    s = [[-(a[i][j] + a[j][i]) for j in range(n)] for i in range(n)]
    for j, row in enumerate(s):
        d = row[j]
        if not 0 < d < math.inf:
            return False
        for i in range(j + 1, n):
            f = row[i] / d
            if f:
                other = s[i]
                for l in range(i, n):
                    other[l] -= f * row[l]
    return True


def _eliminate(m: list[list[float]], b: list[float]) -> list[float] | None:
    """The solution of m y = b by Gaussian elimination with partial pivoting
    (the first largest |entry| of the column) and back substitution, on
    ``m`` and ``b`` in place; None at a zero pivot, where m is singular."""
    n = len(b)
    for j in range(n):
        p, top = j, abs(m[j][j])
        for i in range(j + 1, n):
            if abs(m[i][j]) > top:
                p, top = i, abs(m[i][j])
        if not top:
            return None
        m[j], m[p], b[j], b[p] = m[p], m[j], b[p], b[j]
        row, pivot = m[j], m[j][j]
        for i in range(j + 1, n):
            other = m[i]
            f = other[j] / pivot
            if f:
                for l in range(j + 1, n):
                    other[l] -= f * row[l]
                b[i] -= f * b[j]
    y = [0.0] * n
    for j in range(n - 1, -1, -1):
        row, v = m[j], b[j]
        for l in range(j + 1, n):
            v -= row[l] * y[l]
        y[j] = v / row[j]
    return y


def _largest_real_part(a: list[list[float]]) -> float:
    """The largest real part of an eigenvalue of the square matrix ``a``
    (rows of finite floats, at least one), which is left unchanged.

    ``a`` is scaled by a power of 2 to a largest |entry| in [0.5, 1), which
    is exact, reduced to upper Hessenberg form (:func:`_hessenberg`), and
    its eigenvalues found by the Francis double-shift QR iteration without
    eigenvectors (EISPACK ``hqr``, Golub & Van Loan 7.5), with exceptional
    shifts after 10 and 20 tries on one eigenvalue.  More than 30
    iterations per row in all raise ``E_NOCONV``.  An exact zero on the
    subdiagonal always splits the matrix, so no division by zero occurs.
    """
    n = len(a)
    top = max(map(abs, chain.from_iterable(a)))
    if not top:
        return 0.0
    e = math.frexp(top)[1]
    h = _hessenberg([[math.ldexp(v, -e) for v in row] for row in a])
    # a subdiagonal entry within the rounding of the sum of |entries| is 0;
    # the sum runs left to right, as builtin sum() does only before Python 3.12
    total = 0.0
    for row in h:
        for v in row:
            total += abs(v)
    negligible = 2.220446049250313e-16 * total
    best, t, its, budget = -math.inf, 0.0, 0, 30 * n
    hi, sqrt = n - 1, math.sqrt
    while hi >= 0:
        # l starts the active block, after the last negligible subdiagonal entry
        l = hi
        while l > 0:
            row = h[l]
            if not row[l - 1] or abs(row[l - 1]) <= negligible:
                row[l - 1] = 0.0
                break
            l -= 1
        x = h[hi][hi]
        if l == hi:  # one real eigenvalue splits off
            best = max(best, x + t)
            hi, its = hi - 1, 0
            continue
        y = h[hi - 1][hi - 1]
        w = h[hi][hi - 1] * h[hi - 1][hi]
        if l == hi - 1:  # a 2 x 2 block: two real eigenvalues or a complex pair
            p = 0.5 * (y - x)
            q = p * p + w
            z = sqrt(abs(q))
            x += t
            if q >= 0:
                z = p + z if p >= 0 else p - z
                best = max(best, x + z, x - w / z if z else x)
            else:
                best = max(best, x + p)
            hi, its = hi - 2, 0
            continue
        if not budget:
            raise NoConvergence("the eigenvalue iteration of the Jacobian did not converge")
        budget -= 1
        if its in (10, 20):  # exceptional shift
            t += x
            for i in range(hi + 1):
                h[i][i] -= x
            s = abs(h[hi][hi - 1]) + abs(h[hi - 1][hi - 2])
            x = y = 0.75 * s
            w = -0.4375 * s * s
        its += 1
        # the first column of (H - s1)(H - s2), s1 and s2 the eigenvalues of
        # the trailing 2 x 2 block, at the active block's first row l; the
        # sweep then chases the bulge it makes down to row hi
        row, below = h[l], h[l + 1]
        z = row[l]
        r, s = x - z, y - z
        p = (r * s - w) / below[l] + row[l + 1]
        q = below[l + 1] - z - r - s
        r = h[l + 2][l + 1]
        s = abs(p) + abs(q) + abs(r)
        p, q, r = p / s, q / s, r / s
        for i in range(l + 2, hi + 1):
            h[i][i - 2] = 0.0
            if i != l + 2:
                h[i][i - 3] = 0.0
        for k in range(l, hi):
            last = k == hi - 1
            k1, k2 = k + 1, k + 2
            top_row, mid_row = h[k], h[k1]
            if k != l:
                p, q = top_row[k - 1], mid_row[k - 1]
                r = 0.0 if last else h[k2][k - 1]
                x = abs(p) + abs(q) + abs(r)
                if x:
                    p, q, r = p / x, q / x, r / x
            s = sqrt(p * p + q * q + r * r)
            if p < 0:
                s = -s
            if not s:
                continue
            if k != l:
                top_row[k - 1] = -s * x
            p += s
            x, y, z = p / s, q / s, r / s
            q, r = q / p, r / p
            # the reflector on rows k to k + 2, then on columns k to k + 2
            if last:
                for j in range(k, hi + 1):
                    p = top_row[j] + q * mid_row[j]
                    mid_row[j] -= p * y
                    top_row[j] -= p * x
                for row in h[l : hi + 1]:
                    p = x * row[k] + y * row[k1]
                    row[k1] -= p * q
                    row[k] -= p
                continue
            low_row = h[k2]
            for j in range(k, hi + 1):
                p = top_row[j] + q * mid_row[j] + r * low_row[j]
                low_row[j] -= p * z
                mid_row[j] -= p * y
                top_row[j] -= p * x
            for row in h[l : min(hi, k + 3) + 1]:
                p = x * row[k] + y * row[k1] + z * row[k2]
                row[k2] -= p * r
                row[k1] -= p * q
                row[k] -= p
    # times 2.0 last: a real part beyond the float range gives inf, where
    # ldexp would raise OverflowError
    return math.ldexp(best, e - 1) * 2.0


def _hessenberg(h: list[list[float]]) -> list[list[float]]:
    """``h``, rows of a square matrix, brought to upper Hessenberg form in
    place by similarity transforms (EISPACK ``elmhes``): column by column,
    the largest |entry| below the diagonal is swapped to the subdiagonal,
    the rows below it are cleared by row operations, and then each row's
    entry in that column gains the multipliers times its entries in the
    cleared rows' columns, so the eigenvalues stay; cleared entries are 0."""
    n = len(h)
    for m in range(1, n - 1):
        p, top = m, abs(h[m][m - 1])
        for i in range(m + 1, n):
            if abs(h[i][m - 1]) > top:
                p, top = i, abs(h[i][m - 1])
        if not top:
            continue
        if p != m:
            h[p], h[m] = h[m], h[p]
            for row in h:
                row[p], row[m] = row[m], row[p]
        pivot_row = h[m]
        x = pivot_row[m - 1]
        multipliers = []
        for i in range(m + 1, n):
            row = h[i]
            y = row[m - 1]
            if y:
                y /= x
                row[m - 1] = 0.0
                for j in range(m, n):
                    row[j] -= y * pivot_row[j]
                multipliers.append((i, y))
        if multipliers:
            for row in h:
                v = row[m]
                for i, y in multipliers:
                    v += y * row[i]
                row[m] = v
    return h
