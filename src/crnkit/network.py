"""Core data model for mass-action reaction networks (stochastic Petri nets).

A :class:`Network` is an ordered species list plus a sequence of
:class:`Transition` objects, each with an input complex, an output complex
and a positive rate constant.  Complexes and pure states are dense
nonnegative integer vectors in species order (:class:`CountVector`).

Everything here is immutable after construction, and the derived views
(complex graph, stoichiometric matrix, bipartite Petri graph) are pure
functions of the network, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NegativeConcentration

__all__ = [
    "CountVector",
    "Transition",
    "Network",
    "ComplexGraph",
    "PetriBipartite",
    "MassAction",
    "validate_classical",
    "validate_counts",
]


class CountVector(tuple):
    """Dense vector of integers in 0..2**63 - 1, in species order.

    Represents both complexes (reactant/product multisets) and pure states
    (exact molecule counts).  Behaves like a tuple: hashable, iterable,
    ordered lexicographically.  The kernels hold counts as int64, so an
    entry that is negative, fractional, not finite or at least 2**63
    raises ``E_VALUE``.
    """

    __slots__ = ()

    def __new__(cls, counts):
        if type(counts) is cls:  # immutable, and checked when it was built
            return counts
        values = []
        for v in counts:
            try:
                iv = int(v)
            except (ValueError, OverflowError) as exc:  # int() of NaN, of inf
                raise InvalidValue(str(exc)) from None
            if iv != v or iv < 0:
                raise InvalidValue(f"count entries must be nonnegative integers, got {v!r}")
            if iv >= 2**63:
                raise InvalidValue(f"count entries must be below 2**63, the int64 range, got {v!r}")
            values.append(iv)
        return super().__new__(cls, values)

    def __repr__(self):
        return f"CountVector({tuple.__repr__(self)})"


def _count_vector(counts: dict, names) -> CountVector:
    """The :class:`CountVector` of ``counts[name]`` (0 for a missing name)
    over ``names``, unchecked: every count must already be an int in
    0..2**63 - 1, as the parser checks each one where it reads it."""
    return tuple.__new__(CountVector, map(counts.get, names, repeat(0)))


@dataclass(frozen=True)
class Transition:
    """One reaction: ``input`` complex turns into ``output`` at rate ``rate``.

    The optional ``label`` is carried for reporting only and does not take
    part in equality.
    """

    input: CountVector
    output: CountVector
    rate: float
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "input", CountVector(self.input))
        object.__setattr__(self, "output", CountVector(self.output))
        object.__setattr__(self, "rate", float(self.rate))
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate constant must be positive and finite, got {self.rate}")
        if len(self.input) != len(self.output):
            raise DimensionMismatch(
                f"input complex has length {len(self.input)}, output {len(self.output)}"
            )


@dataclass(frozen=True)
class ComplexGraph:
    """Directed multigraph on complexes: one edge per transition.

    ``edges`` holds ``(source_index, target_index, transition_index)``
    triples into ``vertices`` and the owning network's transition list.
    """

    vertices: tuple[CountVector, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(CountVector(v) for v in self.vertices))
        object.__setattr__(self, "edges", tuple((int(a), int(b), int(t)) for a, b, t in self.edges))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("complex graph vertices must be distinct")
        n = len(self.vertices)
        for a, b, _ in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge endpoint out of range: ({a}, {b})")


@dataclass(frozen=True)
class PetriBipartite:
    """Bipartite multigraph view: species and transition vertices.

    ``input_edges`` holds ``(species_index, transition_index, multiplicity)``
    for every nonzero input count; ``output_edges`` holds
    ``(transition_index, species_index, multiplicity)`` for outputs.
    """

    species: tuple[str, ...]
    transitions: tuple[str, ...]
    input_edges: tuple[tuple[int, int, int], ...]
    output_edges: tuple[tuple[int, int, int], ...]

    def to_dot(self) -> str:
        """Render as a Graphviz digraph, one drawn edge per multiplicity unit."""
        lines = ["digraph petri {"]
        for i, name in enumerate(self.species):
            lines.append(f'  s{i} [shape=circle, label="{name}"];')
        for j, name in enumerate(self.transitions):
            lines.append(f'  t{j} [shape=box, label="{name}"];')
        for i, j, mult in self.input_edges:
            lines.extend([f"  s{i} -> t{j};"] * mult)
        for j, i, mult in self.output_edges:
            lines.extend([f"  t{j} -> s{i};"] * mult)
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Network:
    """A stochastic reaction network over an ordered species list.

    Self-loops (input == output) are kept; they are the zero operator, and
    the parser reports them as ``E_SELF_LOOP`` diagnostics.
    """

    species: tuple[str, ...]
    transitions: tuple[Transition, ...] = ()

    def __post_init__(self):
        species = tuple(str(s) for s in self.species)
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if any(not s for s in species):
            raise ValueError("species names must be nonempty")
        if len(set(species)) != len(species):
            raise ValueError("species names must be unique")
        k = len(species)
        for j, tr in enumerate(self.transitions):
            if not isinstance(tr, Transition):
                raise TypeError(f"transitions[{j}] is not a Transition")
            if len(tr.input) != k:
                raise DimensionMismatch(
                    f"transition {j} has complexes of length {len(tr.input)}, expected {k}"
                )

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def complexes(self) -> tuple[CountVector, ...]:
        """All distinct input and output complexes, lexicographically sorted."""
        seen = {tr.input for tr in self.transitions}
        seen.update(tr.output for tr in self.transitions)
        return tuple(sorted(seen))

    def complex_graph(self) -> ComplexGraph:
        """Directed graph with the complexes as vertices, one edge per transition."""
        vertices = self.complexes()
        index = {v: i for i, v in enumerate(vertices)}
        edges = tuple(
            (index[tr.input], index[tr.output], j) for j, tr in enumerate(self.transitions)
        )
        return ComplexGraph(vertices, edges)

    @cached_property
    def mass_action(self) -> "MassAction":
        """The compiled mass-action kernel, built once per network."""
        return MassAction(self)

    def stoichiometric_matrix(self) -> np.ndarray:
        """Net-change matrix: column j equals output minus input of transition j,
        as a (species x transitions) integer matrix."""
        kernel = self.mass_action
        return (kernel.outputs - kernel.inputs).T.copy()

    def petri_bipartite(self) -> PetriBipartite:
        """Species/transition bipartite multigraph with edge multiplicities."""
        labels = tuple(tr.label or f"t{j}" for j, tr in enumerate(self.transitions))
        input_edges = []
        output_edges = []
        for j, tr in enumerate(self.transitions):
            for i, mult in enumerate(tr.input):
                if mult:
                    input_edges.append((i, j, mult))
            for i, mult in enumerate(tr.output):
                if mult:
                    output_edges.append((j, i, mult))
        return PetriBipartite(self.species, labels, tuple(input_edges), tuple(output_edges))


class MassAction:
    """Mass-action kernel: the transitions as (transitions x species) arrays.

    ``inputs`` s and ``outputs`` t hold the complexes, ``change`` is t - s as
    floats and ``rates`` the rate constants r.  The rate equation is
    sum_tau r(tau) (t - s) x^s and the master-equation generator is
    sum_tau r(tau) (a+^t - a+^s) a^s, where a^s on a pure state n gives the
    falling factorial of n; both are read from these arrays.  The monomial
    uses 0**0 == 1, so the empty complex contributes r(tau).
    """

    def __init__(self, net: Network):
        shape = (net.num_transitions, net.num_species)
        self.inputs = np.array([tr.input for tr in net.transitions], dtype=np.int64).reshape(shape)
        self.outputs = np.array([tr.output for tr in net.transitions], dtype=np.int64).reshape(shape)
        self.change = (self.outputs - self.inputs).astype(float)
        self.rates = np.array([tr.rate for tr in net.transitions], dtype=float)
        for array in (self.inputs, self.outputs, self.change, self.rates):
            array.setflags(write=False)

    def flux(self, x: np.ndarray) -> np.ndarray:
        """Firing rate r(tau) x^s of every transition at the classical state ``x``."""
        return self.rates * (x ** self.inputs).prod(axis=1)

    def field(self, x: np.ndarray) -> np.ndarray:
        """Rate-equation vector field sum_tau r(tau) (t - s) x^s."""
        return self.flux(x) @ self.change

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact derivative of :meth:`field`, using d(x^s)/dx_i = s_i x^(s - e_i)."""
        k = x.size
        # factors[tau, i, l] is x_l^s_l, except d/dx_i of it on the diagonal l == i
        factors = np.repeat((x ** self.inputs)[:, None, :], k, axis=1)
        diag = np.arange(k)
        factors[:, diag, diag] = self.inputs * x ** np.maximum(self.inputs - 1, 0)
        return self.change.T @ (self.rates[:, None] * factors.prod(axis=2))

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


def validate_counts(n, k: int) -> CountVector:
    """A pure state as a :class:`CountVector` of length k.

    A count that is negative, fractional, not finite or at least 2**63
    raises ``E_VALUE``, a wrong length ``E_DIM``.
    """
    n = CountVector(n)
    if len(n) != k:
        raise DimensionMismatch(f"state has length {len(n)}, expected {k}")
    return n
