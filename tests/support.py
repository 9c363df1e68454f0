"""Shared helpers for the test suite: random generators and tiny oracles."""

import itertools
import math
import random
import string
from fractions import Fraction
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.stats import poisson

from crnkit import dynamics, fock
from crnkit import (
    BudgetExceeded,
    CountVector,
    EmptySector,
    InvalidValue,
    MixedState,
    Network,
    NoConvergence,
    PopulationExplosion,
    SymmetryOverflow,
    Transition,
    TruncationBox,
    coherent_state,
    conserved_quantities,
    format_network,
    network_margin,
)
from crnkit.dynamics import validate_classical

_NAME_START = string.ascii_letters + "_"
_NAME_REST = string.ascii_letters + string.digits + "_"


def random_identifier(rng: random.Random, taken: set[str]) -> str:
    while True:
        name = rng.choice(_NAME_START) + "".join(
            rng.choice(_NAME_REST) for _ in range(rng.randint(0, 5))
        )
        if name not in taken:
            taken.add(name)
            return name


def random_rate(rng: random.Random) -> float:
    # spread across magnitudes, incl. values without short decimal forms
    return rng.uniform(0.1, 9.9) * 10.0 ** rng.randint(-6, 6)


def random_network(
    rng: random.Random,
    max_species: int = 4,
    max_transitions: int = 5,
    max_coeff: int = 3,
    allow_empty: bool = True,
) -> Network:
    k = rng.randint(1, max_species)
    taken: set[str] = set()
    species = tuple(random_identifier(rng, taken) for _ in range(k))
    lo = 0 if allow_empty else 1
    transitions = []
    for _ in range(rng.randint(lo, max_transitions)):
        inp = CountVector(rng.randint(0, max_coeff) for _ in range(k))
        out = CountVector(rng.randint(0, max_coeff) for _ in range(k))
        transitions.append(Transition(inp, out, random_rate(rng)))
    return Network(species, tuple(transitions))


def closed_network(
    rng: random.Random, max_species: int = 3, max_transitions: int = 5, max_coeff: int = 3
) -> Network:
    """2 to ``max_species`` species and transitions between distinct complexes
    of equal mass w . y, for a random weight w_i in {1, 2}: w . n is conserved,
    so the network has at least one conservation law."""
    k = rng.randint(2, max(2, max_species))
    w = [rng.randint(1, 2) for _ in range(k)]
    by_mass: dict[int, list[tuple[int, ...]]] = {}
    for y in itertools.product(range(max_coeff + 1), repeat=k):
        by_mass.setdefault(sum(a * b for a, b in zip(w, y)), []).append(y)
    groups = [group for group in by_mass.values() if len(group) > 1]
    transitions = []
    for _ in range(rng.randint(1, max_transitions)):
        a, b = rng.sample(rng.choice(groups), 2)
        transitions.append(Transition(CountVector(a), CountVector(b), random_rate(rng)))
    return Network(tuple(f"S{i}" for i in range(k)), tuple(transitions))


def with_extreme_rates(rng: random.Random, net: Network) -> Network:
    """``net`` with about a third of its rates raised to 1e300, 1e306 or
    1.7e308, where mass-action fluxes and their sums leave the float range."""
    transitions = tuple(
        Transition(tr.input, tr.output, rng.choice((1e300, 1e306, 1.7e308)))
        if rng.random() < 0.3 else tr
        for tr in net.transitions
    )
    return Network(net.species, transitions)


# every token class of the .crn grammar, near misses of it ("<", "007",
# "1e999") and characters outside it
_CRN_TOKENS = (
    "A", "B", "C", "X1", "_s", "species", "0", "1", "2", "3", "10", "007", "2.5", ".5",
    "1e-3", "1E+2", "1e999", "->", "<->", "<", ">", "-", "+", "@", ",", ":", "#", "$", "\t",
)


def crn_corpus(seed: int, size: int) -> list[str]:
    """Seeded ``.crn`` texts for comparing parser revisions, in equal shares:
    formatted random networks (from a pool of 200) with up to three
    single-character or token edits, lines of random tokens (sometimes glued
    together, sometimes under a species header), and random printable
    characters."""
    rng = random.Random(seed)
    networks = [format_network(random_network(rng, max_transitions=3)) for _ in range(200)]
    texts = []
    for i in range(size):
        if i % 3 == 0:
            text = rng.choice(networks)
            for _ in range(rng.randint(0, 3)):
                pos = rng.randint(0, len(text))
                edit = rng.randrange(3)
                if edit == 0:
                    text = text[:pos] + text[pos + 1:]
                else:
                    piece = rng.choice(_CRN_TOKENS) if edit == 1 else rng.choice(string.printable)
                    text = text[:pos] + piece + text[pos:]
        elif i % 3 == 1:
            sep = rng.choice((" ", " ", ""))
            lines = [
                sep.join(rng.choice(_CRN_TOKENS) for _ in range(rng.randint(0, 9)))
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.2:
                lines.insert(rng.randint(0, len(lines)), "species: A B")
            text = "\n".join(lines)
        else:
            text = "".join(rng.choices(string.printable, k=rng.randint(0, 40)))
        texts.append(text)
    return texts


def sparse_network(rng: random.Random, k: int, m: int, max_coeff: int = 3) -> Network:
    """k species S0..S{k-1} and m transitions between distinct complexes of
    one to three species with coefficients 1..max_coeff, the shape of the
    benchmark's scan networks."""
    species = tuple(f"S{i}" for i in range(k))

    def cx():
        v = [0] * k
        for i in rng.sample(range(k), rng.randint(1, min(3, k))):
            v[i] = rng.randint(1, max_coeff)
        return CountVector(v)

    transitions = []
    for _ in range(m):
        a, b = cx(), cx()
        while b == a:
            b = cx()
        transitions.append(Transition(a, b, random_rate(rng)))
    return Network(species, tuple(transitions))


def _fraction_rref(rows: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column indices."""
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def fraction_rank_and_laws(changes: np.ndarray) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Oracle for the rank and the canonical integer left null space of an
    (m, k) integer matrix, such as a network's stoichiometric matrix
    transposed: a Fraction RREF, each free column's null vector cleared of
    denominators, made coprime with its first nonzero entry positive, and
    the basis sorted."""
    k = changes.shape[1]
    rows = [[Fraction(int(v)) for v in row] for row in changes.tolist()]
    pivots = _fraction_rref(rows)
    basis = []
    for free in sorted(set(range(k)) - set(pivots)):
        vec = [Fraction(0)] * k
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][free]
        scale = math.lcm(*(f.denominator for f in vec))
        ints = [int(f * scale) for f in vec]
        g = math.gcd(*ints)
        sign = -1 if next(v for v in ints if v != 0) < 0 else 1
        basis.append(tuple(sign * v // g for v in ints))
    return len(pivots), tuple(sorted(basis))


def closure_weakly_reversible(graph) -> bool:
    """Oracle for weak reversibility: every edge's target reaches its source,
    read from the transitive closure of the complex graph (Warshall)."""
    n = len(graph.vertices)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b, _ in graph.edges:
        reach[a][b] = True
    for via in range(n):
        for i in range(n):
            if reach[i][via]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[via])]
    return all(reach[b][a] for a, b, _ in graph.edges)


def union_find_classes(graph) -> tuple[tuple[int, ...], ...]:
    """Oracle for the linkage classes: union-find over the edges, classes
    ordered by smallest member, members sorted."""
    parent = list(range(len(graph.vertices)))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b, _ in graph.edges:
        parent[root(a)] = root(b)
    classes: dict[int, list[int]] = {}
    for v in range(len(parent)):
        classes.setdefault(root(v), []).append(v)
    return tuple(sorted(tuple(members) for members in classes.values()))


def balanced_reversible_network(rng: random.Random) -> tuple[Network, np.ndarray]:
    """Random union of reversible pairs with rates tuned so a random state
    balances every complex pairwise (backward rate = forward * c^in / c^out)."""
    k = rng.randint(1, 3)
    taken: set[str] = set()
    species = tuple(random_identifier(rng, taken) for _ in range(k))
    c = np.array([rng.uniform(0.5, 2.0) for _ in range(k)])
    transitions = []
    for _ in range(rng.randint(1, 3)):
        while True:
            inp = CountVector(rng.randint(0, 2) for _ in range(k))
            out = CountVector(rng.randint(0, 2) for _ in range(k))
            if inp != out:
                break
        forward = rng.uniform(0.2, 3.0)
        mono_in = float(np.prod(c ** np.array(inp)))
        mono_out = float(np.prod(c ** np.array(out)))
        backward = forward * mono_in / mono_out
        transitions.append(Transition(inp, out, forward))
        transitions.append(Transition(out, inp, backward))
    return Network(species, tuple(transitions)), c


def field_floats(kernel, x: list[float]) -> list[float]:
    """Reference of the generated field (``MassAction.compiled``): the
    kernel's ``table`` read in a loop on the list of floats ``x``.

    Each flux is ((r x_a) x_a) x_b ... over ``factors``, one factor at a
    time (``dynamics._times_power``); then, transition by transition,
    out[i] += (t_i - s_i) * flux for each move.
    """
    out = [0.0] * len(x)
    for flux, factors, moves in kernel.table:
        for i, need in factors:
            if need == 1:
                flux *= x[i]
            else:
                flux = dynamics._times_power(flux, x[i], need)
        for i, c in moves:
            out[i] += c * flux
    return out


def jacobian_entries(kernel, x: list[float]) -> list[dict]:
    """Reference of the generated Jacobian (``MassAction.compiled``): the
    entries at ``x`` that some transition writes, as one dict {l: value}
    per row i, from the kernel's ``table`` read in a loop.

    Transition by transition and species l of its input complex by
    species, the slope d(r x^s)/dx_l = s_l r x^(s - e_l) is (r s_l) times
    the factors of x^(s - e_l) in ``factors`` order, as in the field; then
    entry (i, l) += (t_i - s_i) * slope for each move.
    """
    rows: list[dict] = [{} for _ in x]
    for rate, factors, moves in kernel.table:
        for l, need_l in factors:
            slope = rate * need_l
            for m, need in factors:
                slope = dynamics._times_power(slope, x[m], need - 1 if m == l else need)
            for i, c in moves:
                row = rows[i]
                row[l] = row.get(l, 0.0) + c * slope
    return rows


def dense_rows(entries: list[dict]) -> list[list[float]]:
    """The rows of :func:`jacobian_entries` filled with 0.0 to a square."""
    columns = range(len(entries))
    return [[row.get(l, 0.0) for l in columns] for row in entries]


def reference_try(field, x: list[float], h: float):
    """One try of ``integrate_rate``'s loop: one classic RK4 step of h from
    the list ``x`` on the list field ``field`` (such as
    :func:`field_floats`), Zonneveld's fifth stage and the error
    entries, each combination of stages a list comprehension written out
    left to right.  Returns the new state and the error entries."""
    half = 0.5 * h
    k1 = field(x)
    k2 = field([v + half * a for v, a in zip(x, k1)])
    k3 = field([v + half * b for v, b in zip(x, k2)])
    k4 = field([v + h * c for v, c in zip(x, k3)])
    sixth = h / 6.0
    x_new = [v + sixth * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(x, k1, k2, k3, k4)]
    k5 = field([v + h * (0.15625 * a + 0.21875 * b + 0.40625 * c - 0.03125 * d)
                for v, a, b, c, d in zip(x, k1, k2, k3, k4)])
    errs = [abs(2 / 3 * a - 2.0 * b - 2.0 * c - 2.0 * d + 16 / 3 * e)
            for a, b, c, d, e in zip(k1, k2, k3, k4, k5)]
    return x_new, errs


def table_loop_rate(net: Network, x0, t_end: float, rtol: float = 3e-8, field=None):
    """Reference of ``integrate_rate``: its step-controlled loop on lists of
    floats, every try :func:`reference_try` on ``field``, by default
    :func:`field_floats` (the table loop).  It reads
    ``dynamics._MAX_RATE_STEPS`` when called, and ends in the same typed
    errors with the same messages."""
    x0 = validate_classical(x0, net.num_species)
    if not (0 < t_end < math.inf and 0 < rtol < math.inf):
        raise InvalidValue(f"t_end and rtol must be finite and > 0: {t_end}, {rtol}")
    kernel = net.mass_action
    field = field or (lambda x: field_floats(kernel, x))
    x = x0.tolist()
    times, states = [0.0], [x]
    t, h = 0.0, dynamics._default_step(kernel, x)
    for _ in range(dynamics._MAX_RATE_STEPS):
        h = min(h, t_end - t)
        last = h == t_end - t
        x_new, errs = reference_try(field, x, h)
        # max() keeps a NaN only when it comes first, so a NaN stage is looked for
        err = math.nan if any(map(math.isnan, errs)) else h * max(errs, default=0.0)
        tol = 1e-12 + rtol * max(x, default=0.0)
        if err <= tol:
            t = t_end if last else t + h
            x = dynamics._clamp_state(x_new)
            times.append(t)
            states.append(x)
            if last:
                break
        h *= min(5.0, max(0.2, 0.9 * math.sqrt(math.sqrt(tol / err)))) if err else 5.0
        if t + h == t:
            raise PopulationExplosion(f"the step fell below the float spacing of t={t:.6g}")
    else:
        raise BudgetExceeded(f"t_end not reached in {dynamics._MAX_RATE_STEPS} steps")
    times, states = np.array(times), np.array(states)
    blown = ~np.isfinite(states).all(axis=1)
    if blown.any():
        at = times[blown.argmax()]
        raise PopulationExplosion(f"the rate equation left the finite range by t={at:.6g}")
    return dynamics.Trajectory(times, states)


def lapack_equilibrium(net: Network, x0, tol: float = 1e-9) -> np.ndarray:
    """Reference of ``find_equilibrium``: the same pseudo-transient
    continuation on numpy arrays, in the coordinates of an orthonormal basis
    B of range(Gamma) from LAPACK's ``svd``, with the growth from
    ``eigvals`` of B^T J B and each step from ``solve``.  It ends in the
    same typed errors; its bits depend on the OpenBLAS core."""
    x = validate_classical(x0, net.num_species).copy()
    if not 0 < tol < np.inf:
        raise InvalidValue(f"tol must be positive and finite, got {tol}")
    kernel = net.mass_action
    u_mat, sing, _ = np.linalg.svd(net.stoichiometric_matrix().astype(float), full_matrices=False)
    basis = u_mat[:, : int((sing > sing.max(initial=0.0) * 1e-12).sum())]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dt = dynamics._default_step(kernel, x.tolist())
        fx = np.array(field_floats(kernel, x.tolist()))
        norm = start = np.abs(fx).max(initial=0.0)
        for _ in range(dynamics._MAX_STEPS):
            if not (np.isfinite(norm) and np.isfinite(x).all()):
                raise PopulationExplosion("the rate field left the finite range")
            scale = 1.0 + np.abs(x).max(initial=0.0)
            if norm <= 1e-14 * scale:
                return x
            jac = basis.T @ np.array(dense_rows(jacobian_entries(kernel, x.tolist()))) @ basis
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
            while (x + step).min() < -dynamics._CLAMP:
                step *= 0.5
                dt *= 0.5
            candidate = np.array(dynamics._clamp_state((x + step).tolist()))
            f_new = np.array(field_floats(kernel, candidate.tolist()))
            norm_new = np.abs(f_new).max()
            if not norm_new < norm and norm <= tol * scale and growth <= 0:
                return x
            ratio = norm / norm_new
            dt *= max(ratio, 2.0) if ratio > 1 or growth > 0 else ratio
            x, fx, norm = candidate, f_new, norm_new
    if not norm <= start:
        raise PopulationExplosion(f"field norm grew from {start:.3e} to {norm:.3e}")
    raise NoConvergence(f"field norm {norm:.3e} still above tolerance")


def bd_rk4_grid_error(net_bd: Network, h: float, t_end: float = 5.0) -> float:
    """Largest error of classic RK4 on the fixed grid h, 2h, ... <= t_end,
    against the birth-death closed form 3 (1 - e^-t) from x = 0.

    The steps are :func:`reference_try`, the try of ``integrate_rate``'s
    loop, on the generated field of ``MassAction.compiled``, the field that
    loop calls, so the observed order is that of the integrator's own step."""
    field = net_bd.mass_action.compiled[0]
    x, err = [0.0], 0.0
    for i in range(1, int(t_end / h + 1e-9) + 1):
        x = reference_try(lambda x: field(*x), x, h)[0]
        err = max(err, abs(x[0] - 3.0 * (1.0 - math.exp(-i * h))))
    return err


def dense_arrays(net) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, t, r): the input and output complexes of ``net``'s transitions
    as (transitions x species) int64 arrays, and their rate constants."""
    shape = (net.num_transitions, net.num_species)
    inputs = np.array([tr.input for tr in net.transitions], dtype=np.int64).reshape(shape)
    outputs = np.array([tr.output for tr in net.transitions], dtype=np.int64).reshape(shape)
    return inputs, outputs, np.array([tr.rate for tr in net.transitions], dtype=float)


def dense_change(net, magnitude: bool = False) -> np.ndarray:
    """t - s per transition as a float (transitions x species) array, or
    |t - s| with ``magnitude``."""
    inputs, outputs, _ = dense_arrays(net)
    change = (outputs - inputs).astype(float)
    return np.abs(change) if magnitude else change


def dense_field(net, x: np.ndarray, magnitude: bool = False) -> np.ndarray:
    """Oracle of the rate field: sum_tau r (t - s) x^s from the network's
    dense arrays, with numpy's pow and a BLAS product; with ``magnitude``,
    |t - s| in place of t - s, the size of its terms."""
    inputs, _, rates = dense_arrays(net)
    return rates * (x ** inputs).prod(axis=1) @ dense_change(net, magnitude)


def dense_jacobian(net, x: np.ndarray, magnitude: bool = False) -> np.ndarray:
    """Exact Jacobian of :func:`dense_field` via an m x k x k tensor, with
    d(x^s)/dx_i = s_i x^(s - e_i); ``magnitude`` as there."""
    inputs, _, rates = dense_arrays(net)
    k = x.size
    # factors[tau, i, l] is x_l^s_l, except d/dx_i of it on the diagonal l == i
    factors = np.repeat((x ** inputs)[:, None, :], k, axis=1)
    diag = np.arange(k)
    factors[:, diag, diag] = inputs * x ** np.maximum(inputs - 1, 0)
    return dense_change(net, magnitude).T @ (rates[:, None] * factors.prod(axis=2))


def ordered_selection_count(counts, needs) -> int:
    """Brute-force oracle: ordered ways to pick each input multiset,
    enumerated species by species with itertools.permutations."""
    total = 1
    for n, s in zip(counts, needs):
        total *= sum(1 for _ in itertools.permutations(range(n), s))
    return total


def interior_mask(box, margin):
    """Flat mask of the box states at least ``margin`` below every cap, from the state array."""
    return np.all(box.states() <= np.array(box.caps) - margin, axis=1)


def sigma_box(c, margin: int, nsigma: float) -> TruncationBox:
    """The box with caps ceil(c_i + nsigma sqrt(c_i)) + margin, at least 1:
    ``default_box`` at ``nsigma`` standard deviations instead of ten."""
    return TruncationBox(tuple(max(math.ceil(ci + nsigma * math.sqrt(ci)) + margin, 1) for ci in c))


def max_abs(op) -> float:
    """max |entry| of a ``SparseOperator``, 0.0 when it stores none."""
    return float(np.abs(op.matrix.data).max(initial=0.0))


def exp_product(logs) -> np.ndarray:
    """``math.exp`` of each entry of the (states, species) array ``logs``,
    multiplied along each row in species order: product-Poisson weights by
    the state array, one row per state."""
    return reduce(np.multiply, np.frompyfunc(math.exp, 1, 1)(logs).astype(float).T)


def poisson_weights(c, caps) -> np.ndarray:
    """Product-Poisson weight per state of the box with ``caps`` (a cap may be
    0), from the state array and ``scipy.stats.poisson.logpmf``
    (:func:`exp_product`).  A product below the float range is 0.0."""
    states = np.indices(tuple(cap + 1 for cap in caps)).reshape(len(caps), -1).T
    return exp_product(poisson.logpmf(states, np.asarray(c, dtype=float)))


def symmetry_weights(c, w, s, box) -> np.ndarray:
    """exp(s O_w) psi_c per state of ``box``, normalized, from the state array:
    species i weighs e^(s w_i n_i) Pois(n_i; c_i), scaled to a largest weight
    of 1, and the species are multiplied in order (:func:`exp_product`)."""
    states = box.states()
    logs = poisson.logpmf(states, c) + (float(s) * np.array(w, dtype=float)) * states
    logs -= logs.max(axis=0)
    weights = exp_product(logs)
    weights /= weights.sum()
    return weights


# stationary_histogram runs compared with a product-Poisson law by
# compare_to_poisson, and their pinned results: (network, n0, (burn_in,
# samples, interval, seed), c, the histogram's caps, repr of the TV distance,
# hex of the empirical means' bytes).  The diatomic box lies far below its
# mean c_1 = 800: its largest weight is 1.1e-218 and 13% of them are 0.0.
POISSON_COMPARISONS = [
    ("species: A\n0 -> A @ 3\nA -> 0 @ 1", (0,), (5.0, 2000, 0.5, 41), (3.0,), (10,),
     "0.014471938784017719", "54e3a59bc4a00740"),
    ("X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1", (100, 0), (5.0, 500, 0.2, 43), (800.0, 20.0), (98, 24),
     "0.999926201962178", "6de7fba9f142574037894160e5d02b40"),
]


def full_array_noether_report(net, c, box, s, lam=None):
    """``noether_report`` by whole-box arrays: w . n, the tilted log weight
    of each species per state, their product, the relative error and the
    projected residual each as an array over the box, with a mask for the
    sector.

    The doc's ``max_rel_err_interior`` reads every interior lane whose
    reference weight is above 0, with no warning when a ratio to a
    subnormal weight overflows; the extra key ``max_rel_err_normal`` reads
    only those whose reference weight is a normal float."""
    c = validate_classical(c, box.k)
    fock._firing(net, box)
    basis = conserved_quantities(net)
    doc = {
        "conserved_basis": [list(w) for w in basis],
        "commutator_max_abs": [0.0] * len(basis),
    }
    if not basis:
        return doc
    w = basis[0]
    values = fock._sector_values(w, box)
    if not np.isfinite(s):
        raise InvalidValue(f"s must be finite, got {s}")
    if float(np.abs(values).max(initial=0.0)) * abs(float(s)) > fock._LOG_DBL_MAX:
        raise SymmetryOverflow("exp(s*O) leaves double precision")
    got = symmetry_weights(c, w, s, box)
    MixedState(box, got)
    with np.errstate(over="ignore"):
        predicted = np.exp(float(s) * np.array(w, dtype=float)) * c
    reference, _ = coherent_state(predicted, box)
    margin = network_margin(net)
    inside = interior_mask(box, margin)
    ref, got = reference.weights[inside], got[inside]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = np.abs(np.where(ref > 0, got / ref - 1.0, 0.0))
    if lam is None:
        lam = int(round(float(np.dot(w, c))))
    psi, _ = coherent_state(c, box)
    sector = values == int(lam)
    mass = float(psi.weights[sector].sum())
    if not sector.any() or mass <= 0.0:
        raise EmptySector(f"no probability mass in the sector w.n == {lam}")
    projected = np.where(sector, fock._coherent_residual(net, c, box, psi.weights), 0.0)
    projected /= mass
    doc["symmetry"] = {
        "w": list(w),
        "s": s,
        "predicted_c": [float(v) for v in predicted],
        "max_rel_err_interior": float(rel.max(initial=0.0)),
        "max_rel_err_normal": float(rel.max(initial=0.0, where=ref >= np.finfo(float).tiny)),
    }
    doc["projection"] = {
        "w": list(w),
        "lam": lam,
        "interior_residual_l1": fock._report(projected, psi, margin).interior_l1,
    }
    return doc


def dense_ladders(box):
    """Dense annihilation/creation matrices built state by state from their
    definitions; independent of the package's operator assembly."""
    states = [tuple(int(v) for v in row) for row in box.states()]
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    lowers, raisers = [], []
    for i in range(box.k):
        a = np.zeros((size, size))
        c = np.zeros((size, size))
        for idx, n in enumerate(states):
            if n[i] > 0:
                m = list(n)
                m[i] -= 1
                a[index[tuple(m)], idx] = n[i]
            if n[i] < box.caps[i]:
                m = list(n)
                m[i] += 1
                c[index[tuple(m)], idx] = 1.0
        lowers.append(a)
        raisers.append(c)
    return lowers, raisers


def dense_hamiltonian(net, box):
    """Generator composed from the dense ladders: per transition, rate times
    the gain block (creation^output)(annihilation^input) minus its column
    sums on the diagonal, which is exactly the truncate-pair boundary rule."""
    lowers, raisers = dense_ladders(box)
    out = np.zeros((box.size, box.size))
    for tr in net.transitions:
        gain = np.eye(box.size)
        for ladders, counts in ((lowers, tr.input), (raisers, tr.output)):
            for ladder, count in zip(ladders, counts):
                gain = np.linalg.matrix_power(ladder, count) @ gain
        out += tr.rate * (gain - np.diag(gain.sum(axis=0)))
    return out


def coo_hamiltonian(net, box):
    """The generator as unsummed COO triplets, assembled from the full state
    array: per transition, +flux at (target, source) and -flux at (source,
    source) for every source whose falling factorial is positive, both
    dropped when the target leaves the box.  Returns (rows, cols, vals)."""
    states = box.states()
    caps = np.asarray(box.caps, dtype=np.int64)
    inputs, outputs, rates = dense_arrays(net)
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for j in range(net.num_transitions):
        fall = np.broadcast_to(net.mass_action.falling(states.T, j), states.shape[:1])
        active = np.flatnonzero(fall > 0)
        targets = states[active] + (outputs[j] - inputs[j])
        inside = np.all((targets >= 0) & (targets <= caps), axis=1)
        src = active[inside]
        tgt = np.ravel_multi_index(targets[inside].T, box.shape)
        flux = rates[j] * fall[src]
        rows.extend((tgt, src))
        cols.extend((src, src))
        vals.extend((flux, -flux))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def csr_uniformization(H, psi0, t):
    """exp(t H) psi0 as ``evolve_master`` computed it on CSR: the same
    Poisson weights, then one CSR mat-vec with P = H/L + I per term.
    The reference for the banded step, which must give the same bytes;
    for t > 0 and a nonzero diagonal only.  Returns the weight array."""
    lam = float(np.abs(H.diagonal()).max(initial=0.0))
    mean = lam * t
    terms = fock._poisson_isf(fock._POISSON_TAIL, mean)
    weights = fock._poisson_table(mean, int(terms))
    weights /= weights.sum()
    step = H.matrix / lam + sp.identity(H.box.size, format="csr")
    vec = psi0.weights
    out = weights[0] * vec
    for weight in weights[1:]:
        vec = step @ vec
        out += weight * vec
    return out


def _direct_prepare(net):
    inputs, outputs, rates = dense_arrays(net)
    return [
        (rate, tuple((i, s) for i, s in enumerate(need) if s > 0), tuple(delta))
        for rate, need, delta in zip(rates.tolist(), inputs.tolist(), (outputs - inputs).tolist())
    ]


def _direct_propensities(compiled, state):
    values = []
    total = 0.0
    for rate, pairs, _ in compiled:
        value = rate
        for i, need in pairs:
            count = state[i]
            if count < need:
                value = 0.0
                break
            for j in range(need):
                value *= count - j
        values.append(value)
        total += value
    return values, total


def _direct_pick(values, total, u):
    acc = 0.0
    target = u * total
    for j, v in enumerate(values):
        acc += v
        if target < acc:
            return j
    return len(values) - 1


def _direct_jump(net, compiled, state, values, total, u, t, max_count):
    delta = compiled[_direct_pick(values, total, u)][2]
    for i, d in enumerate(delta):
        state[i] += d
        if state[i] > max_count:
            raise PopulationExplosion(
                f"species {net.species[i]} exceeded {max_count} at t={t:.6g}"
            )


def direct_simulate(net, n0, t_end, seed, max_count, max_jumps=None):
    """Gillespie's direct method, propensities recomputed and scanned
    linearly at every jump; returns (times, states) as lists.  Stops
    after ``max_jumps`` jumps when that is given."""
    compiled = _direct_prepare(net)
    rng = random.Random(seed)
    state = list(n0)
    t = 0.0
    times, states = [0.0], [tuple(state)]
    while max_jumps is None or len(times) <= max_jumps:
        values, total = _direct_propensities(compiled, state)
        if total <= 0.0:
            break
        wait = rng.expovariate(total)
        if t + wait > t_end:
            break
        t += wait
        _direct_jump(net, compiled, state, values, total, rng.random(), t, max_count)
        times.append(t)
        states.append(tuple(state))
    return times, states


def direct_histogram(net, n0, burn_in, sample_count, sample_interval, seed, max_count):
    """Fixed-interval snapshot counts of the direct method's chain."""
    compiled = _direct_prepare(net)
    rng = random.Random(seed)
    state = list(n0)
    counts = {}
    t = 0.0
    next_sample = float(burn_in)
    taken = 0
    while taken < sample_count:
        values, total = _direct_propensities(compiled, state)
        if total <= 0.0:
            key = tuple(state)
            counts[key] = counts.get(key, 0) + (sample_count - taken)
            break
        t_jump = t + rng.expovariate(total)
        while taken < sample_count and next_sample < t_jump:
            key = tuple(state)
            counts[key] = counts.get(key, 0) + 1
            taken += 1
            next_sample += sample_interval
        _direct_jump(net, compiled, state, values, total, rng.random(), t_jump, max_count)
        t = t_jump
    return counts
