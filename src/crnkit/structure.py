"""Stoichiometric and graph-theoretic structure analysis.

Linkage classes, weak reversibility, deficiency, integer conservation laws
and the complex-balance test.  Deficiency and conservation laws are
integer-valued certificates, so rank and null space come from one exact
integer elimination over Python ints, and this module loads no numpy.
Floats only enter the balance test, a numerical statement about a given
state: its fluxes and per-complex sums are loops on Python floats, and
only its check of the state (``validate_classical``) loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

from .errors import InvalidValue, PopulationExplosion
from .network import ComplexGraph, CountVector, Network

__all__ = [
    "linkage_classes",
    "conserved_quantities",
    "StructureReport",
    "structure_report",
    "ComplexBalanceRow",
    "BalanceReport",
    "complex_balance_report",
]


# ---------------------------------------------------------------------------
# exact integer elimination

def _rank_and_laws(changes, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rank and canonical integer left null space of ``changes``, rows of k
    Python ints (the state changes), from :func:`_pivot_rows`.

    A law w has w . row = 0 for every row.  Free column f gives the null
    vector with L = lcm|p_c[c]| at f and -p_c[f] * L / p_c[c] at each pivot
    column c, made coprime with its first nonzero entry positive.  RREF is
    unique up to row scaling, so this is the sorted basis of a rational RREF.
    """
    pivots = _pivot_rows(changes, k)
    scale = math.lcm(*(row[c] for c, row in pivots.items()))
    basis = []
    for free in sorted(set(range(k)) - pivots.keys()):
        vec = [0] * k
        vec[free] = scale
        for c, row in pivots.items():
            vec[c] = -row[free] * (scale // row[c])
        basis.append(tuple(_primitive(vec, sign=next(v for v in vec if v))))
    return len(pivots), tuple(sorted(basis))


def _pivot_rows(changes, k: int) -> dict[int, list[int]]:
    """The reduced row echelon form of ``changes``, rows of k Python ints,
    by fraction-free Gauss-Jordan elimination (Bareiss 1968), one row at a
    time.

    The result maps each pivot column c to its reduced row p_c, zero in
    every other pivot column, so every row of ``changes`` is
    sum_c (row[c] / p_c[c]) p_c.  A row is cleared in each pivot column c as
    a*row - b*p_c (a = p_c[c], b = row[c]) over its gcd; a row left nonzero
    makes its first nonzero column a pivot, cleared likewise from the
    earlier p_c.  At k pivots the remaining rows cannot add to the rank and
    are skipped.
    """
    pivots: dict[int, list[int]] = {}
    for row in changes:
        for c, pivot in pivots.items():
            if b := row[c]:
                row = _primitive([pivot[c] * x - b * y for x, y in zip(row, pivot)])
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = _primitive(row)
        for c, pivot in pivots.items():
            if b := pivot[lead]:
                pivots[c] = _primitive([row[lead] * x - b * y for x, y in zip(pivot, row)])
        pivots[lead] = row
        if len(pivots) == k:
            break
    return pivots


def _primitive(row: list[int], sign: int = 1) -> list[int]:
    """``row`` over the gcd of its entries, negated if ``sign`` < 0; a zero row stays zero."""
    g = (math.gcd(*row) or 1) * (1 if sign > 0 else -1)
    return [x // g for x in row]


def conserved_quantities(net: Network) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis of the left null space of the stoichiometric matrix.

    Each vector w satisfies w . (output - input) = 0 exactly for every
    transition.  Vectors are coprime, their first nonzero entry is positive,
    and the basis is sorted lexicographically.
    """
    return _rank_and_laws(_changes(net.transitions), net.num_species)[1]


def _changes(transitions) -> list[tuple[int, ...]]:
    """Output minus input of each transition, in Python ints: the one
    source of t - s, for the structure, the equilibrium coordinates, the
    Fock firings and the stoichiometric matrix."""
    return [tuple(map(sub, tr.output, tr.input)) for tr in transitions]


# ---------------------------------------------------------------------------
# graph analysis

def _adjacency(graph: ComplexGraph) -> tuple[list[list[int]], list[list[int]]]:
    """Out- and in-neighbours of each vertex."""
    out: list[list[int]] = [[] for _ in graph.vertices]
    into: list[list[int]] = [[] for _ in graph.vertices]
    for a, b, _ in graph.edges:
        out[a].append(b)
        into[b].append(a)
    return out, into


def _reach(adj: list[list[int]], start: int) -> set[int]:
    """Vertices reachable from ``start`` along ``adj``, ``start`` included."""
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def linkage_classes(graph: ComplexGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the underlying undirected graph.

    Classes are ordered by smallest member; members are sorted.
    """
    return _classes(*_adjacency(graph))


def _classes(out: list[list[int]], into: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """:func:`linkage_classes` from the out- and in-neighbours of :func:`_adjacency`."""
    both = [a + b for a, b in zip(out, into)]
    placed: set[int] = set()
    classes = []
    for v in range(len(both)):
        if v not in placed:
            members = _reach(both, v)
            placed |= members
            classes.append(tuple(sorted(members)))
    return tuple(classes)


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
    out, into = _adjacency(graph)
    classes = _classes(out, into)
    rank, basis = _rank_and_laws(_changes(net.transitions), net.num_species)
    defect = len(graph.vertices) - len(classes) - rank
    assert defect >= 0, "deficiency must be nonnegative"
    assert len(basis) == net.num_species - rank
    return StructureReport(
        num_complexes=len(graph.vertices),
        linkage_classes=classes,
        # a class is strongly connected iff its smallest member reaches every
        # member along the edges and against them; reach never leaves the class
        weakly_reversible=all(
            len(_reach(out, c[0])) == len(_reach(into, c[0])) == len(c) for c in classes
        ),
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
    from .dynamics import validate_classical
    c = validate_classical(c, net.num_species)
    if not 0 < tol < math.inf:
        raise InvalidValue(f"tol must be positive and finite, got {tol}")
    flux = net.mass_action.flux(c)
    graph = net.complex_graph()
    # each complex's sums add its fluxes in transition order, one edge each
    production, consumption = [0.0] * len(graph.vertices), [0.0] * len(graph.vertices)
    for source, target, j in graph.edges:
        consumption[source] += flux[j]
        production[target] += flux[j]
    # every flux is in one consumption sum, so a non-finite flux shows there
    if not all(map(math.isfinite, consumption + production)):
        raise PopulationExplosion("a mass-action flux or its per-complex sum overflows at c")
    rows = tuple(
        ComplexBalanceRow(kappa, p, q, q - p)
        for kappa, p, q in zip(graph.vertices, production, consumption)
    )
    scale = 1.0 + max((max(r.production, r.consumption) for r in rows), default=0.0)
    balanced = all(abs(r.residual) <= tol * scale for r in rows)
    return BalanceReport(balanced, tol, scale, rows)
