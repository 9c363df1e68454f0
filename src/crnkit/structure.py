"""Stoichiometric and graph-theoretic structure analysis.

Linkage classes, weak reversibility, deficiency, integer conservation laws
and the complex-balance test.  Deficiency and conservation laws are
integer-valued certificates, so rank and null space come from one exact
integer elimination over Python ints; floats only enter the balance test,
which is a numerical statement about a given state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, PopulationExplosion
from .network import ComplexGraph, CountVector, Network, validate_classical

__all__ = [
    "linkage_classes",
    "strongly_connected_components",
    "conserved_quantities",
    "StructureReport",
    "structure_report",
    "ComplexBalanceRow",
    "BalanceReport",
    "complex_balance_report",
]


# ---------------------------------------------------------------------------
# exact integer elimination

def _rank_and_laws(changes: np.ndarray) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rank and canonical integer left null space of an (m, k) integer array
    of state changes, from one fraction-free Gauss-Jordan elimination over
    Python ints (Bareiss 1968).

    The rows are the nonzero changes; a law w has w . row = 0 for each.
    Clearing column c of a row with entry b against the pivot row with
    entry a replaces it by a*row - b*pivot_row divided by its gcd, so every
    entry stays an integer.
    Reduced pivot row j reads p_j x[c_j] + sum_f row_j[f] x[f] = 0, so free
    column f gives the null vector with L = lcm|p_j| at f and
    -row_j[f] * L / p_j at c_j, both exact.  That vector is made coprime with
    its first nonzero entry positive; RREF is unique, so the sorted basis is
    the one a rational RREF gives.
    """
    k = changes.shape[1]
    rows = [row for row in changes.tolist() if any(row)]
    pivots: list[int] = []
    for c in range(k):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        pivot = rows[r]
        a = pivot[c]
        for i, row in enumerate(rows):
            b = row[c]
            if b and i != r:
                new = [a * x - b * y for x, y in zip(row, pivot)]
                g = math.gcd(*new) or 1
                rows[i] = [x // g for x in new]
        pivots.append(c)
    scale = math.lcm(*(rows[j][c] for j, c in enumerate(pivots)))
    basis = []
    for free in sorted(set(range(k)) - set(pivots)):
        vec = [0] * k
        vec[free] = scale
        for j, c in enumerate(pivots):
            vec[c] = -rows[j][free] * (scale // rows[j][c])
        g = math.gcd(*vec)
        if next(v for v in vec if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in vec))
    return len(pivots), tuple(sorted(basis))


def conserved_quantities(net: Network) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis of the left null space of the stoichiometric matrix.

    Each vector w satisfies w . (output - input) = 0 exactly for every
    transition.  Vectors are coprime, their first nonzero entry is positive,
    and the basis is sorted lexicographically.
    """
    return _rank_and_laws(net.stoichiometric_matrix().T)[1]


# ---------------------------------------------------------------------------
# graph analysis

def _adjacency(graph: ComplexGraph, directed: bool) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in graph.vertices]
    for a, b, _ in graph.edges:
        adj[a].append(b)
        if not directed and a != b:
            adj[b].append(a)
    return adj


def _strong_components(adj: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Tarjan's algorithm, iterative; components ordered by smallest member."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, child = work[-1]
            if child == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(child, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(component)))
    return tuple(sorted(components, key=lambda c: c[0]))


def linkage_classes(graph: ComplexGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the underlying undirected graph, which are the
    strong components once every edge is also reversed.

    Classes are ordered by smallest member; members are sorted.
    """
    return _strong_components(_adjacency(graph, directed=False))


def strongly_connected_components(graph: ComplexGraph) -> tuple[tuple[int, ...], ...]:
    """Strong components of the directed graph; ordered by smallest member."""
    return _strong_components(_adjacency(graph, directed=True))


# ---------------------------------------------------------------------------
# structure report

@dataclass(frozen=True)
class StructureReport:
    num_complexes: int
    linkage_classes: tuple[tuple[int, ...], ...]
    weakly_reversible: bool
    stoich_rank: int
    deficiency: int
    conserved_basis: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "num_complexes": self.num_complexes,
            "linkage_classes": [list(c) for c in self.linkage_classes],
            "weakly_reversible": self.weakly_reversible,
            "stoich_rank": self.stoich_rank,
            "deficiency": self.deficiency,
            "conserved_basis": [list(w) for w in self.conserved_basis],
        }


def structure_report(net: Network) -> StructureReport:
    """Full structural summary: complexes, linkage classes, rank, deficiency, laws."""
    graph = net.complex_graph()
    classes = linkage_classes(graph)
    rank, basis = _rank_and_laws(net.stoichiometric_matrix().T)
    defect = len(graph.vertices) - len(classes) - rank
    assert defect >= 0, "deficiency must be nonnegative"
    assert len(basis) == net.num_species - rank
    return StructureReport(
        num_complexes=len(graph.vertices),
        linkage_classes=classes,
        # each strong component lies inside one linkage class, so the counts are
        # equal exactly when no linkage class splits into several
        weakly_reversible=len(strongly_connected_components(graph)) == len(classes),
        stoich_rank=rank,
        deficiency=defect,
        conserved_basis=basis,
    )


# ---------------------------------------------------------------------------
# complex balance

@dataclass(frozen=True)
class ComplexBalanceRow:
    complex: CountVector
    production: float
    consumption: float
    residual: float  # consumption - production


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    tol: float
    scale: float  # 1 + largest complex throughput
    rows: tuple[ComplexBalanceRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "complex_balanced": self.balanced,
            "tol": self.tol,
            "scale": self.scale,
            "complexes": [
                {
                    "complex": list(row.complex),
                    "production": row.production,
                    "consumption": row.consumption,
                    "residual": row.residual,
                }
                for row in self.rows
            ],
        }


def complex_balance_report(net: Network, c, tol: float = 1e-9) -> BalanceReport:
    """Per-complex production/consumption balance of the state ``c``.

    For each complex, consumption sums r(tau) * c^input over transitions
    consuming it, production sums the same monomials over transitions
    producing it.  The verdict is relative: balanced iff every
    |consumption - production| <= tol * (1 + max complex throughput).  A
    flux or sum beyond the float range raises ``E_EXPLODE``.
    """
    c = validate_classical(c, net.num_species)
    if not 0 < tol < math.inf:
        raise InvalidValue(f"tol must be positive and finite, got {tol}")
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN
        flux = net.mass_action.flux(c)
    graph = net.complex_graph()
    n = len(graph.vertices)
    source, target, _ = np.array(graph.edges, dtype=np.int64).reshape(-1, 3).T
    # every flux is in one consumption sum, so a non-finite flux shows there
    consumption = np.bincount(source, weights=flux, minlength=n)
    production = np.bincount(target, weights=flux, minlength=n)
    if not (np.isfinite(consumption).all() and np.isfinite(production).all()):
        raise PopulationExplosion("a mass-action flux or its per-complex sum overflows at c")
    rows = tuple(
        ComplexBalanceRow(kappa, float(p), float(q), float(q - p))
        for kappa, p, q in zip(graph.vertices, production, consumption)
    )
    throughput = max((max(r.production, r.consumption) for r in rows), default=0.0)
    scale = 1.0 + throughput
    balanced = all(abs(r.residual) <= tol * scale for r in rows)
    return BalanceReport(balanced, tol, scale, rows)
