"""Stoichiometric and graph-theoretic structure analysis.

Linkage classes, weak reversibility, deficiency, integer conservation laws
and the complex-balance test.  Deficiency and conservation laws are
integer-valued certificates, so rank and null-space computations run over
exact rational arithmetic (:class:`fractions.Fraction`); floats only enter
the balance test, which is a numerical statement about a given state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import ComplexGraph, CountVector, Network, validate_classical

__all__ = [
    "linkage_classes",
    "strongly_connected_components",
    "is_weakly_reversible",
    "stoichiometric_rank",
    "conserved_quantities",
    "StructureReport",
    "structure_report",
    "deficiency",
    "ComplexBalanceRow",
    "BalanceReport",
    "complex_balance_report",
    "is_complex_balanced",
]


# ---------------------------------------------------------------------------
# exact rational elimination

def _rref(rows: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column indices."""
    pivots = []
    if not rows:
        return pivots
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
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


def _fraction_rows(mat: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(int(v)) for v in row] for row in mat]


def stoichiometric_rank(net: Network) -> int:
    """Rank of the stoichiometric matrix over the rationals (exact)."""
    rows = _fraction_rows(net.stoichiometric_matrix().T)
    return len(_rref(rows))


def _canonical_int_vector(vec: list[Fraction]) -> tuple[int, ...]:
    scale = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * scale) for f in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    first = next((v for v in ints if v != 0), 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def conserved_quantities(net: Network) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis of the left null space of the stoichiometric matrix.

    Each vector w satisfies w . (output - input) = 0 exactly for every
    transition.  Vectors are coprime, their first nonzero entry is positive,
    and the basis is sorted lexicographically.
    """
    k = net.num_species
    rows = _fraction_rows(net.stoichiometric_matrix().T)  # transitions x species
    pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(k):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * k
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][free]
        basis.append(_canonical_int_vector(vec))
    return tuple(sorted(basis))


# ---------------------------------------------------------------------------
# graph analysis

def _adjacency(graph: ComplexGraph, directed: bool) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in graph.vertices]
    for a, b, _ in graph.edges:
        adj[a].append(b)
        if not directed and a != b:
            adj[b].append(a)
    return adj


def linkage_classes(graph: ComplexGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the underlying undirected graph.

    Classes are ordered by smallest member; members are sorted.
    """
    adj = _adjacency(graph, directed=False)
    seen = [False] * len(graph.vertices)
    classes = []
    for start in range(len(graph.vertices)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            v = stack.pop()
            component.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        classes.append(tuple(sorted(component)))
    return tuple(sorted(classes, key=lambda c: c[0]))


def strongly_connected_components(graph: ComplexGraph) -> tuple[tuple[int, ...], ...]:
    """Tarjan's algorithm, iterative; components ordered by smallest member."""
    n = len(graph.vertices)
    adj = _adjacency(graph, directed=True)
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


def is_weakly_reversible(graph: ComplexGraph) -> bool:
    """True iff every connected component is strongly connected."""
    scc_of = {}
    for sid, comp in enumerate(strongly_connected_components(graph)):
        for v in comp:
            scc_of[v] = sid
    return all(
        len({scc_of[v] for v in component}) == 1 for component in linkage_classes(graph)
    )


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
    rank = stoichiometric_rank(net)
    defect = len(graph.vertices) - len(classes) - rank
    assert defect >= 0, "deficiency must be nonnegative"
    basis = conserved_quantities(net)
    assert len(basis) == net.num_species - rank
    return StructureReport(
        num_complexes=len(graph.vertices),
        linkage_classes=classes,
        weakly_reversible=is_weakly_reversible(graph),
        stoich_rank=rank,
        deficiency=defect,
        conserved_basis=basis,
    )


def deficiency(net: Network) -> int:
    """Number of complexes minus linkage classes minus stoichiometric rank."""
    return structure_report(net).deficiency


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

    @property
    def max_abs_residual(self) -> float:
        return max((abs(r.residual) for r in self.rows), default=0.0)

    def to_json_dict(self, species) -> dict:
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
    |consumption - production| <= tol * (1 + max complex throughput).
    """
    c = validate_classical(c, net.num_species)
    if not tol > 0:
        raise ValueError("tol must be positive")
    flux = net.mass_action.flux(c)
    graph = net.complex_graph()
    n = len(graph.vertices)
    source, target, _ = np.array(graph.edges, dtype=np.int64).reshape(-1, 3).T
    consumption = np.bincount(source, weights=flux, minlength=n)
    production = np.bincount(target, weights=flux, minlength=n)
    rows = tuple(
        ComplexBalanceRow(kappa, float(p), float(q), float(q - p))
        for kappa, p, q in zip(graph.vertices, production, consumption)
    )
    throughput = max((max(r.production, r.consumption) for r in rows), default=0.0)
    scale = 1.0 + throughput
    balanced = all(abs(r.residual) <= tol * scale for r in rows)
    return BalanceReport(balanced, tol, scale, rows)


def is_complex_balanced(net: Network, c, tol: float = 1e-9) -> bool:
    return complex_balance_report(net, c, tol).balanced
