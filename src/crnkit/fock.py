"""Truncated Fock-space engine for the master equation.

States of a k-species network live on a rectangular truncation box
0 <= n_i <= cap_i.  Probability vectors are indexed by the row-major flat
enumeration of the box (the zero state has index 0) and operators are
sparse real matrices over that index set.

Boundary policy ("truncate-pair"): a transition firing whose target lands
outside the box is dropped together with its diagonal loss term.  Every
column of the generator then sums to zero, so total probability and every
linear conserved quantity are preserved exactly; the price is distorted
dynamics in a boundary layer whose width is the largest stoichiometric
coefficient.  Certification therefore reads residuals on interior states
only, at least that margin away from every cap.

The box is a product of per-species ranges, and the engine builds from
that structure instead of a states x species array.  Each ladder operator
shifts the flat index by one stride, so every operator is banded: it is
built as one array per diagonal (scipy's DIA layout).  Master evolution
steps on such a band of plain arrays; the public operators are CSR.
Per-state tables are outer products (coherent weights) or outer sums
(w . n) of 1-D ones, and the interior is a sub-box, read as slices of the
grid.

Coherent states carry the untruncated product-Poisson weights without
renormalization; the lost tail mass is reported alongside.  Each species'
1-D table is ``math.exp`` of its log-gamma log-pmf, entry by entry (no
factorial overflow), and the box's weights are their products, so no
SIMD-dispatched exp runs over the box.  The certificates assemble no
generator: a coherent state is an eigenvector of every annihilation
monomial, so H psi_c is a sum of shifted copies of the coherent grid,
one per complex, corrected on the slabs by the caps where truncate-pair
drops a firing; the commutators come from one flux per transition group.

Master evolution is uniformization: a Poisson-weighted sum of powers of the
stochastic matrix I + H/max|H_nn|, nonnegative and mass-conserving, one
mat-vec on its band per term.  That band, like the generator's, is held
to the slot budget (box states x distinct offsets).  Every conserved w . n
commutes with H (the Noether theorem), so the terms run only on the
sectors the start occupies, with laws read off H's own entries, and give
the bytes of the whole-box loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .dynamics import validate_classical
from .errors import (
    BoxMismatch,
    BudgetExceeded,
    DimensionMismatch,
    EmptySector,
    InvalidValue,
    PopulationExplosion,
    SymmetryOverflow,
)
from .network import Network, validate_counts
from .structure import _rank_and_laws, conserved_quantities

__all__ = [
    "TruncationBox",
    "SparseOperator",
    "MixedState",
    "pure_state",
    "annihilation",
    "creation",
    "number_operator",
    "linear_observable",
    "commutator",
    "hamiltonian",
    "coherent_state",
    "evolve_master",
    "network_margin",
    "default_box",
    "AckReport",
    "ack_residual",
    "master_residual",
    "project_onto",
    "apply_symmetry",
    "noether_report",
    "poisson_logpmf",
]

_DBL_MAX = np.finfo(float).max
_LOG_DBL_MAX = 709.0
_EXP_BLOCK = 2**15  # lanes per block of the residual's scaled copies and of the relative error's divide
_TINY = np.finfo(float).tiny  # the smallest normal float
_POISSON_TAIL = 1e-14  # right-tail mass dropped by evolve_master
_MAX_MATVECS = 10**6  # evolve_master's mat-vec budget
_MAX_STATES = 2**24  # largest box; every box-sized array is allocated after this check
_BOX_NSIGMA, _BOX_FLOOR = 10.0, 8  # default_box: caps this many sigma past c, at least 8
_MAX_SLOTS = 2**26  # generator slots, box states x offsets; certify's largest is about 2.9M
_TERM_BUFFER = 2**17  # floats in evolve_master's block of terms (1 MB)
_CSV_FLOOR = 1e-15  # MixedState.to_csv prints only weights above this


def _check_box_size(caps) -> None:
    """``E_BUDGET`` for a box of more than ``_MAX_STATES`` states, before any box-sized array."""
    if math.prod(c + 1 for c in caps) > _MAX_STATES:
        raise BudgetExceeded(f"a box with caps {caps} exceeds {_MAX_STATES} states")


@dataclass(frozen=True)
class TruncationBox:
    """Rectangular state box: per-species caps, inclusive, each >= 1.

    Flat indices are row-major over species order, so the last species
    varies fastest and the zero state maps to index 0.  A cap that is not
    an integer >= 1 raises ``E_VALUE``; a box of more than ``_MAX_STATES``
    states raises ``E_BUDGET`` before anything is allocated.
    """

    caps: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(validate_counts(self.caps, len(self.caps)))
        if not caps:
            raise InvalidValue("a truncation box needs at least one species")
        if any(c < 1 for c in caps):
            raise InvalidValue("caps must be at least 1")
        _check_box_size(caps)
        object.__setattr__(self, "caps", caps)

    @property
    def k(self) -> int:
        return len(self.caps)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.caps)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def strides(self) -> tuple[int, ...]:
        """Flat-index step of one more of each species."""
        return tuple(math.prod(self.shape[i + 1 :]) for i in range(self.k))

    def states(self) -> np.ndarray:
        """All box states as a new (size, k) int array in flat-index order."""
        grids = np.unravel_index(np.arange(self.size), self.shape)
        return np.column_stack(grids).astype(np.int64, copy=False)

    def index_of(self, n) -> int:
        """Flat index of the state ``n``; ``E_DIM`` for a wrong length, ``E_VALUE``
        for a count that is not a nonnegative integer or a state outside the box."""
        n = tuple(validate_counts(n, self.k))
        if any(v > cap for v, cap in zip(n, self.caps)):
            raise InvalidValue(f"state {n} lies outside the box with caps {self.caps}")
        return int(np.ravel_multi_index(n, self.shape))


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Sparse real CSR matrix over a box's flat index set; no stored zeros.

    A matrix that is not box.size x box.size raises ``E_DIM``.  Every
    builder here hands over CSR without zeros: scipy's DIA conversion,
    sparse product and sparse difference store none.
    """

    box: TruncationBox
    matrix: sp.csr_matrix

    def __post_init__(self):
        if self.matrix.shape != (self.box.size, self.box.size):
            raise DimensionMismatch(
                f"matrix shape {self.matrix.shape} does not match box size {self.box.size}"
            )

    def _check(self, other: "SparseOperator"):
        if self.box != other.box:
            raise BoxMismatch("operators live on different truncation boxes")

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.box.size,):
            raise DimensionMismatch(f"vector shape {vec.shape}, expected ({self.box.size},)")
        return self.matrix @ vec

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        self._check(other)
        return SparseOperator(self.box, self.matrix @ other.matrix)

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()


@dataclass(frozen=True, eq=False)
class MixedState:
    """Probability weights over a box's states (finitely supported mixture).

    Weights are nonnegative (not NaN) and sum to at most 1 (+1e-12 for roundoff);
    truncated tails may lose mass but never create it.  A read-only float64
    array is adopted as it is; any other input is copied.  ``total`` is the
    sum the guard computes, kept so that no reader sums the weights again.
    """

    box: TruncationBox
    weights: np.ndarray
    total: float = field(init=False, repr=False)

    def __post_init__(self):
        weights = self.weights
        if type(weights) is not np.ndarray or weights.dtype != np.float64 or weights.flags.writeable:
            weights = np.array(weights, dtype=float)
        if weights.shape != (self.box.size,):
            raise InvalidValue(f"weights shape {weights.shape}, expected ({self.box.size},)")
        if not weights.min(initial=0.0) >= 0:  # NaN fails too
            raise InvalidValue("mixed-state weights must be nonnegative")
        total = float(weights.sum())
        if total > 1.0 + 1e-12:
            raise InvalidValue("mixed-state weights must not sum above 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", total)

    def to_csv(self, species) -> str:
        """CSV dump '<species...>,probability', skipping weights <= ``_CSV_FLOOR``."""
        lines = [",".join(species) + ",probability"]
        printed = np.flatnonzero(self.weights > _CSV_FLOOR)
        coords = np.column_stack(np.unravel_index(printed, self.box.shape)).tolist()
        for state, weight in zip(coords, self.weights[printed].tolist()):
            lines.append(f"{','.join(map(str, state))},{weight!r}")
        return "\n".join(lines) + "\n"


def pure_state(box: TruncationBox, n) -> MixedState:
    """Point mass at the box state ``n``."""
    weights = np.zeros(box.size)
    weights[box.index_of(n)] = 1.0
    return MixedState(box, weights)


# ---------------------------------------------------------------------------
# elementary operators

def _diagonals(box: TruncationBox, data, offsets) -> SparseOperator:
    """The box operator with ``data[q][col]`` on the diagonal col - row = ``offsets[q]``.

    scipy's DIA-to-CSR conversion drops the zero entries and sorts each row.
    """
    shape = (box.size, box.size)
    return SparseOperator(box, sp.dia_matrix((data, offsets), shape, dtype=float).tocsr())


def _counts(i: int, box: TruncationBox) -> np.ndarray:
    """n_i per box state."""
    return _sector_values(np.eye(box.k, dtype=np.int64)[i], box)


def annihilation(i: int, box: TruncationBox) -> SparseOperator:
    """Remove one of species i: basis(n) -> n_i * basis(n - e_i)."""
    return _diagonals(box, [_counts(i, box)], [box.strides[i]])


def creation(i: int, box: TruncationBox) -> SparseOperator:
    """Add one of species i: basis(n) -> basis(n + e_i); cap rows flow out and are dropped."""
    return _diagonals(box, [_counts(i, box) < box.caps[i]], [-box.strides[i]])


def number_operator(i: int, box: TruncationBox) -> SparseOperator:
    """Diagonal count of species i (eigenvalue n_i on basis(n))."""
    return _diagonals(box, [_counts(i, box)], [0])


def linear_observable(w, box: TruncationBox) -> SparseOperator:
    """Diagonal observable sum_i w_i N_i (eigenvalue w . n on basis(n))."""
    return _diagonals(box, [_sector_values(w, box)], [0])


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """AB - BA on a common box."""
    a._check(b)
    return SparseOperator(a.box, a.matrix @ b.matrix - b.matrix @ a.matrix)


# ---------------------------------------------------------------------------
# generator assembly

def hamiltonian(net: Network, box: TruncationBox) -> SparseOperator:
    """Master-equation generator on the box under the truncate-pair policy.

    For every state n and transition with falling-factorial weight f > 0,
    the firing adds rate*f at (target, n) and subtracts it at (n, n); when
    the target lies outside the box both contributions are dropped, so all
    column sums vanish.  The canonical CSR of :func:`_generator`'s diagonals.
    """
    return SparseOperator(box, _generator(net, box).tocsr())


def _generator(net: Network, box: TruncationBox) -> sp.dia_matrix:
    """:func:`hamiltonian` as a DIA matrix whose offsets ascend.

    A firing moves the flat index by the constant (t - s) . strides, so
    each transition of :func:`_firing` fills its source sub-box of one
    diagonal, -(t - s) . strides, indexed by source, and drains the same
    sub-box of the main diagonal.  Fluxes sharing an entry add in
    transition order.  More than ``_MAX_SLOTS`` diagonal entries (box
    states x distinct offsets) raise ``E_BUDGET`` before any is allocated;
    a diagonal entry below
    -DBL_MAX/2 raises ``E_EXPLODE``, so every column's L1 norm is finite.
    Ascending offsets make scipy's DIA mat-vec add each row's terms in
    column order, as the CSR one does, so both give the same bytes.
    """
    strides, firing = box.strides, []  # (transition, diagonal offset, source sub-box)
    for j, need, delta, tops in _firing(net, box):
        offset = -sum(d * stride for d, stride in zip(delta, strides))
        firing.append((j, offset, tuple(slice(s, top + 1) for s, top in zip(need, tops))))
    offsets = sorted({0, *(f[1] for f in firing)})
    if box.size * len(offsets) > _MAX_SLOTS:
        raise BudgetExceeded(f"{box.size} states x {len(offsets)} offsets exceed {_MAX_SLOTS} slots")
    data, kernel = np.zeros((len(offsets), box.size)), net.mass_action
    blocks, zero = [row.reshape(box.shape) for row in data], offsets.index(0)
    # a diagonal's first flux is stored, not added to zeros (numpy assigns a slice
    # ~3x faster); fluxes are positive, so 0 + f, 0 - f and x - f keep every bit
    fresh = set(range(len(offsets)))
    with np.errstate(over="ignore"):
        for j, offset, sources in firing:
            grid = np.ix_(*(np.arange(s.start, s.stop) for s in sources))
            flux = kernel.rates[j] * kernel.falling(grid, j)
            for q, value in ((offsets.index(offset), flux), (zero, -flux)):
                if q in fresh:
                    fresh.discard(q)
                    blocks[q][sources] = value
                else:
                    blocks[q][sources] += value
    # |H_nn| bounds every entry of column n, and 2|H_nn| its L1 norm
    if not data[zero].min() >= -_DBL_MAX / 2:
        raise PopulationExplosion("a state's total outflow in the generator overflows")
    return sp.dia_matrix((data, offsets), (box.size, box.size))


def _firing(net: Network, box: TruncationBox) -> list:
    """(j, s, t - s, tops) per transition j that fires somewhere in the box, as lists.

    Firing j moves a source n to n + t - s, and the sources inside the box
    whose target is too form the sub-box s_i <= n_i <= tops_i = cap_i -
    max(t_i - s_i, 0).  Self-loops and transitions with an empty sub-box
    are left out: they are the zero operator on the box.  ``E_DIM`` when
    the box and the network count different species.
    """
    if box.k != net.num_species:
        raise DimensionMismatch(f"box has {box.k} species, network has {net.num_species}")
    kernel, firing = net.mass_action, []
    for j in range(net.num_transitions):
        need = kernel.inputs[j].tolist()
        delta = (kernel.outputs[j] - kernel.inputs[j]).tolist()
        tops = [cap - max(d, 0) for cap, d in zip(box.caps, delta)]
        if any(delta) and all(s <= top for s, top in zip(need, tops)):
            firing.append((j, need, delta, tops))
    return firing


def _commutator_max_abs(net: Network, box: TruncationBox, w) -> float:
    """max|[H, O_w]| on the box for an integer ``w``, with no H assembled.

    [H, O_w] holds each off-diagonal entry H_mn times o_n - o_m = -w . (t - s)
    of the firings that fill it, an integer per transition.  A firing's
    fluxes, r times the falling factorial of n, never decrease on its
    source sub-box, and
    transitions with the same t - s share that sub-box and sum their fluxes
    entry by entry, so each such group's largest entry sits at the
    sub-box's top corner: one sum per group, added in transition order as
    :func:`_generator` adds it.  The bytes are those of max|H_mn (o_n - o_m)|
    over H's entries.  A flux or an entry beyond the float range raises
    ``E_EXPLODE``; ``w`` is checked as :func:`_sector_values` checks it.
    """
    w = _checked_weights(w, box)
    kernel, corner = net.mass_action, {}  # t - s -> flux sum at the top corner
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
        for j, _, delta, tops in _firing(net, box):
            flux, key = kernel.rates[j] * kernel.falling(tops, j), tuple(delta)
            corner[key] = corner[key] + flux if key in corner else flux
        worst = 0.0
        for delta, flux in corner.items():
            entry = abs(flux * float(sum(wi * d for wi, d in zip(w, delta))))
            if not entry <= _DBL_MAX:  # NaN fails too
                raise PopulationExplosion("a generator flux or a commutator entry overflows")
            worst = max(worst, float(entry))
    return worst


# ---------------------------------------------------------------------------
# product structure of the box

def _checked_weights(w, box: TruncationBox) -> list[int]:
    """``w`` as a list of ints; ``E_DIM`` for a wrong length, ``E_VALUE`` for an
    entry that is fractional, non-finite or beyond the int64 range, or when
    sum |w_i| cap_i reaches 2**63, where int64 w . n could wrap."""
    if np.shape(w) != (box.k,):
        raise DimensionMismatch(f"weight vector shape {np.shape(w)}, expected ({box.k},)")
    entries = np.asarray(w, dtype=object).tolist()
    try:
        ints = [int(v) for v in entries]
    except (ValueError, OverflowError):  # int() of NaN, of inf
        ints = None
    if ints != entries or not all(-(2**63) <= v < 2**63 for v in ints):
        raise InvalidValue(f"weight vector entries must be int64 integers, got {entries}")
    if sum(abs(wi) * cap for wi, cap in zip(ints, box.caps)) >= 2**63:
        raise InvalidValue(f"w . n leaves the int64 range on the box {box.caps} for w = {ints}")
    return ints


def _sector_values(w, box: TruncationBox) -> np.ndarray:
    """w . n per box state for an integer weight vector ``w`` (:func:`_checked_weights`),
    flat: the outer sum of the 1-D tables w_i n_i, added in species order."""
    tables = [wi * np.arange(cap + 1) for wi, cap in zip(_checked_weights(w, box), box.caps)]
    return reduce(np.add.outer, tables).ravel()


# ---------------------------------------------------------------------------
# coherent states and residual certification

def poisson_logpmf(k, mu):
    """log Pois(k; mu) = k log mu - log k! - mu, with 0 log 0 = 0.

    The formula of ``scipy.stats.poisson``, so values agree bit for bit,
    without importing ``scipy.stats``.
    """
    return xlogy(k, mu) - gammaln(k + 1) - mu


def _poisson_table(mean: float, cap: int, tilt: float | None = None) -> np.ndarray:
    """Pois(n; mean) for n = 0 .. cap, each entry ``math.exp`` of its log-pmf.

    With ``tilt``, the log table gets tilt * n added and its largest entry
    subtracted before the exp, so the table is e^(tilt n) Pois(n; mean)
    scaled to a largest entry of 1.  ``math.exp`` is libm's scalar exp,
    which numpy's CPU-feature dispatch does not reach.
    """
    n = np.arange(cap + 1.0)
    logs = poisson_logpmf(n, mean)
    if tilt is not None:
        logs += tilt * n
        logs -= logs.max()
    return np.fromiter(map(math.exp, logs.tolist()), float, cap + 1)


def _coherent_weights(c, caps) -> np.ndarray:
    """Product-Poisson weight per state of the box with ``caps``, as a new
    writable array: the outer product of the 1-D :func:`_poisson_table`
    of each species, multiplied in species order.  A product below the
    float range is 0.0.
    """
    return reduce(np.multiply.outer, [_poisson_table(mean, cap) for mean, cap in zip(c, caps)]).ravel()


def coherent_state(c, box: TruncationBox) -> tuple[MixedState, float]:
    """Product-Poisson state with means ``c`` restricted to the box.

    Weights are the untruncated Poisson products, not renormalized; the
    second return value is the tail mass lost to truncation.
    """
    weights = _coherent_weights(validate_classical(c, box.k), box.caps)
    weights.setflags(write=False)  # MixedState adopts it without a copy
    psi = MixedState(box, weights)
    return psi, max(0.0, 1.0 - psi.total)


def network_margin(net: Network) -> int:
    """Width of the boundary layer: largest input/output coefficient of any transition."""
    kernel = net.mass_action
    return int(max(kernel.inputs.max(initial=0), kernel.outputs.max(initial=0)))


def _interior(box: TruncationBox, margin: int) -> tuple[slice, ...]:
    """The sub-box of states at least ``margin`` below every cap, as slices of the grid."""
    return tuple(slice(0, max(cap + 1 - int(margin), 0)) for cap in box.caps)


def default_box(c, margin: int) -> TruncationBox:
    """Caps sized to ceil(c_i + _BOX_NSIGMA*sqrt(c_i)) + margin, at least ``_BOX_FLOOR``.

    A Poisson tail beyond ten standard deviations is negligible at double
    precision, so residuals on the interior are pure roundoff.
    """
    c = validate_classical(c, np.size(c))
    caps = [
        max(int(np.ceil(ci + _BOX_NSIGMA * np.sqrt(ci))) + int(margin), _BOX_FLOOR) for ci in c
    ]
    return TruncationBox(tuple(caps))


@dataclass(frozen=True)
class AckReport:
    """L1 residual of H applied to a state, split into interior and full box.

    ``tail_mass`` is the state's mass missing from 1.  For the coherent
    state of :func:`ack_residual` the residual is computed with no H.
    """

    interior_l1: float
    full_l1: float
    margin: int
    tail_mass: float
    box: TruncationBox


def master_residual(net: Network, psi: MixedState) -> AckReport:
    """Residual H*psi of an arbitrary mixed state under the network's generator."""
    return _report(_generator(net, psi.box) @ psi.weights, psi, network_margin(net))


def _report(residual: np.ndarray, psi: MixedState, margin: int) -> AckReport:
    """The L1 norms of ``residual`` (flat, overwritten by its absolute values)
    as an :class:`AckReport` (:func:`_l1_norms`)."""
    interior, full = _l1_norms(residual, psi.box, margin)
    return AckReport(interior, full, margin, max(0.0, 1.0 - psi.total), psi.box)


def _l1_norms(residual: np.ndarray, box: TruncationBox, margin: int) -> tuple[float, float]:
    """The interior and the full L1 norm of ``residual`` (flat, overwritten by
    its absolute values); ``E_EXPLODE`` when the full norm leaves the float range."""
    np.abs(residual, out=residual)
    # ravel copies the sub-box in flat order, as a mask would, so the sum has the same bytes
    inside = residual.reshape(box.shape)[_interior(box, margin)].ravel()
    with np.errstate(over="ignore"):
        full = float(residual.sum())
    if not full <= _DBL_MAX:  # NaN fails too
        raise PopulationExplosion("the residual's L1 norm overflows")
    return float(inside.sum()), full


def _coherent_residual(net: Network, c: np.ndarray, box: TruncationBox, weights) -> np.ndarray:
    """H psi_c on the box under truncate-pair, flat, with no H: ``weights`` holds psi_c.

    A coherent state is an eigenvector of every annihilation monomial,
    a^s psi_c = c^s psi_c, so on all of N^k

        (H psi_c)(n) = sum_y (production_y - consumption_y) psi_c(n - y),

    where a transition's flux r c^s counts for its target complex and
    against its source complex.  That is one scaled, shifted sub-box add of
    the coherent grid per complex y (:func:`_residual_terms`), made in
    blocks of rows of the first species of about ``_EXP_BLOCK`` lanes, so
    the scaled copy is never box-sized; each entry gets its terms in the
    same order either way.  An entry beyond the float range is left to the
    caller to refuse.
    """
    grid, out = np.reshape(weights, box.shape), np.zeros(box.shape)
    step = max(1, _EXP_BLOCK // (box.size // box.shape[0]))  # rows of the first species per block
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by the caller
        for region, y, factor in _residual_terms(net, c, box):
            head = region[0]
            for row in range(head.start, head.stop, step):
                part = (slice(row, min(row + step, head.stop)), *region[1:])
                out[part] += factor * grid[tuple(slice(p.start - yi, p.stop - yi) for p, yi in zip(part, y))]
    return out.ravel()


def _residual_terms(net: Network, c: np.ndarray, box: TruncationBox):
    """The terms of :func:`_coherent_residual` in the order it adds them,
    as (sub-box, y, factor): factor psi_c(n - y) is added for every state n
    of the sub-box.

    The per-complex sums come first, in transition order.  Truncate-pair
    drops a firing whose target leaves the box, and with it two terms on
    thin slabs by the caps, put back per transition in transition order:
    the gain r c^s psi_c(n - t) where the source n - (t - s) lies beyond a
    cap, and the loss r c^s psi_c(n - s) where the target n + (t - s) does.
    Transitions that are zero on the box (:func:`_firing`) take no part.  A
    flux or a per-complex sum beyond the float range raises ``E_EXPLODE``
    when the first term is asked for.
    """
    firing, caps = _firing(net, box), box.caps
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN
        flux = net.mass_action.flux(c).tolist()
    shift = {}  # complex -> production - consumption
    for j, s, delta, _ in firing:
        t = tuple(a + d for a, d in zip(s, delta))
        shift[t] = shift.get(t, 0.0) + flux[j]
        shift[tuple(s)] = shift.get(tuple(s), 0.0) - flux[j]
    # every flux is in two sums, so a flux that is not finite shows there
    if not all(abs(v) <= _DBL_MAX for v in shift.values()):
        raise PopulationExplosion("a mass-action flux or its per-complex sum overflows at c")
    for y, coefficient in shift.items():
        if coefficient and all(yi <= cap for yi, cap in zip(y, caps)):
            yield tuple(slice(yi, cap + 1) for yi, cap in zip(y, caps)), y, coefficient
    for j, s, delta, _ in firing:
        t = [a + d for a, d in zip(s, delta)]
        for y, limits, sign in ((t, [cap + d for cap, d in zip(caps, delta)], -1.0),
                                (s, [cap - d for cap, d in zip(caps, delta)], 1.0)):
            for slab in _beyond(y, limits, caps):
                yield slab, y, sign * flux[j]


def _beyond(lo, limits, caps):
    """The states lo <= n <= caps with n_i > limits_i for some i, as disjoint sub-boxes.

    The piece of axis i holds the states whose first such coordinate is i.
    """
    upper = list(caps)
    for i, limit in enumerate(limits):
        if limit < upper[i]:
            piece = [(a, z) for a, z in zip(lo, upper)]
            piece[i] = (max(lo[i], limit + 1), caps[i])
            if all(a <= z for a, z in piece):
                yield tuple(slice(a, z + 1) for a, z in piece)
            upper[i] = limit


def ack_residual(net: Network, c, box: TruncationBox | None = None) -> AckReport:
    """Residual of the coherent state with means ``c``: the equilibrium certificate.

    A complex-balanced ``c`` makes the interior L1 residual vanish up to
    truncation tail and roundoff; an unbalanced one leaves a finite
    residual.  The box defaults to :func:`default_box` sizing.  H psi_c
    comes from the coherent-state identity (:func:`_coherent_residual`),
    so no generator is assembled; a flux or residual beyond the float
    range raises ``E_EXPLODE``.
    """
    if box is None:
        box = default_box(c, network_margin(net))
    psi, _ = coherent_state(c, box)
    residual = _coherent_residual(net, validate_classical(c, box.k), box, psi.weights)
    return _report(residual, psi, network_margin(net))


# ---------------------------------------------------------------------------
# conserved sectors and symmetries

def project_onto(psi: MixedState, w, lam: int) -> MixedState:
    """Condition ``psi`` on the sector w . n == lam and renormalize to 1."""
    lanes, mass = _sector(psi, _sector_values(w, psi.box), lam)
    weights = np.zeros(psi.box.size)
    weights[lanes] = psi.weights[lanes] / mass
    weights.setflags(write=False)  # MixedState adopts it without a copy
    return MixedState(psi.box, weights)


def _sector(psi: MixedState, values, lam: int) -> tuple[np.ndarray, float]:
    """The flat indices, ascending, of the sector w . n == lam, from w . n per
    state (``values``), and the mass ``psi`` puts there; ``E_EMPTY`` when that
    mass is 0.  A ``lam`` beyond the int64 range matches no state."""
    lam = int(lam)
    lanes = np.flatnonzero(values == lam) if -(2**63) <= lam < 2**63 else np.empty(0, dtype=np.intp)
    mass = float(psi.weights[lanes].sum())
    if not lanes.size or mass <= 0.0:
        raise EmptySector(f"no probability mass in the sector w.n == {lam}")
    return lanes, mass


def apply_symmetry(c, w, s: float, box: TruncationBox) -> tuple[MixedState, np.ndarray]:
    """Apply the diagonal symmetry exp(s * sum w_i N_i) to the coherent state of ``c``.

    Returns the renormalized state together with the predicted means
    c_i * exp(s * w_i); the state equals the coherent state of those means
    on the box, up to the renormalization constant.  A non-finite ``s``
    raises ``E_VALUE``, and so does a ``w`` whose w . n could leave the
    int64 range on the box (:func:`_checked_weights`).
    """
    return _symmetry(validate_classical(c, box.k), _checked_weights(w, box), s, box)


def _symmetry(c, w: list[int], s: float, box: TruncationBox):
    """:func:`apply_symmetry` of a validated ``c`` and ``w``.

    exp(s O_w) psi_c is a product over species, as psi_c is: species i
    weighs e^(s w_i n_i) Pois(n_i; c_i).  Each 1-D table is tilted and
    scaled to a largest entry of 1 (:func:`_poisson_table`), so no weight
    overflows, and their outer product, multiplied in species order as
    :func:`_coherent_weights` multiplies, is then normalized.  The largest
    |w . n| on the box comes from the caps, as an exact integer; beyond
    e^709 the state spans more than double precision, ``E_OVERFLOW``.
    """
    if not np.isfinite(s):
        raise InvalidValue(f"s must be finite, got {s}")
    ends = [wi * cap for wi, cap in zip(w, box.caps)]  # w_i n_i at n_i = cap_i
    span = max(sum(v for v in ends if v > 0), -sum(v for v in ends if v < 0))
    s = float(s)
    if span * abs(s) > _LOG_DBL_MAX:
        raise SymmetryOverflow(
            f"exp(s*O) spans e^{span * abs(s):.1f}, beyond double precision"
        )
    tables = [_poisson_table(mean, cap, s * wi) for mean, cap, wi in zip(c, box.caps, w)]
    weights = reduce(np.multiply.outer, tables).ravel()
    weights /= weights.sum()
    weights.setflags(write=False)  # MixedState adopts it without a copy
    with np.errstate(over="ignore"):  # an overflowing mean is inf, which coherent_state refuses
        predicted = np.exp(s * np.array(w, dtype=float)) * c
    return MixedState(box, weights), predicted


def _max_rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got / ref - 1| over the lanes where ``ref`` is a normal float,
    0.0 when there is none; ``got`` and ``ref`` are grids of one shape.

    A subnormal ``ref`` keeps fewer significant bits than its ratio would
    need.  The grids are read in blocks of whole rows of about
    ``_EXP_BLOCK`` lanes, each through a scratch buffer of ones that the
    divide fills where ``ref`` is normal, so no temporary is box-sized and
    the other lanes read 0.
    """
    step = max(1, _EXP_BLOCK // max(math.prod(got.shape[1:]), 1))
    worst = 0.0
    for row in range(0, len(got), step):
        g, f = got[row : row + step], ref[row : row + step]
        rel = np.divide(g, f, out=np.ones(g.shape), where=f >= _TINY)
        rel -= 1.0
        np.abs(rel, out=rel)
        worst = max(worst, float(rel.max(initial=0.0)))
    return worst


def noether_report(net: Network, c, box: TruncationBox, s: float, lam: int | None = None) -> dict:
    """The Noether checks of ``crn noether`` as a JSON-ready dict, with no generator assembled.

    ``commutator_max_abs`` holds max|[H, O_w]| for every vector w of the
    conserved basis (:func:`_commutator_max_abs`).  With a nonempty basis,
    its first w also gives the symmetry demo (exp(s O_w) applied to the
    coherent state of ``c`` against the coherent state of the predicted
    means: the largest relative error on the interior lanes whose
    reference weight is a normal float, :func:`_max_rel_err`) and the
    projection demo (the interior residual of the coherent state of ``c``
    conditioned on w . n == ``lam``, by default round(w . c)).  H maps
    every sector into itself, so H(1_S psi_c) = 1_S H psi_c, and the
    projection's residual is the coherent-state identity's
    (:func:`_coherent_residual`) read at the sector's lanes, divided by the
    sector's mass, and 0.0 elsewhere, with the norms of :func:`_l1_norms`.

    At most two box-sized float arrays are alive at once, next to w . n
    per state: the symmetry's weights and the reference's, freed before
    the projection; then psi_c and the residual; then the residual, which
    holds the projection, and its interior copy.  Every other array is a
    block of rows or as large as the sector.
    """
    c = validate_classical(c, box.k)
    _firing(net, box)  # E_DIM for a box of another species count, with or without a basis
    basis = conserved_quantities(net)
    doc = {
        "conserved_basis": [list(w) for w in basis],
        "commutator_max_abs": [_commutator_max_abs(net, box, w) for w in basis],
    }
    if not basis:
        return doc
    w = basis[0]
    values = _sector_values(w, box)
    psi_sym, predicted = _symmetry(c, list(w), s, box)
    reference, _ = coherent_state(predicted, box)
    margin = network_margin(net)
    inside = _interior(box, margin)
    rel = _max_rel_err(psi_sym.weights.reshape(box.shape)[inside], reference.weights.reshape(box.shape)[inside])
    del psi_sym, reference
    if lam is None:
        lam = int(round(float(np.dot(w, c))))
    psi, _ = coherent_state(c, box)
    lanes, mass = _sector(psi, values, lam)
    residual = _coherent_residual(net, c, box, psi.weights)
    del psi, values
    # the projection's residual, in the residual's own buffer: 0.0 off the sector
    projected = residual[lanes] / mass
    residual.fill(0.0)
    residual[lanes] = projected
    doc["symmetry"] = {
        "w": list(w),
        "s": s,
        "predicted_c": [float(v) for v in predicted],
        "max_rel_err_interior": rel,
    }
    doc["projection"] = {
        "w": list(w),
        "lam": lam,
        "interior_residual_l1": _l1_norms(residual, box, margin)[0],
    }
    return doc


# ---------------------------------------------------------------------------
# time evolution

def _poisson_isf(q: float, mu: float) -> float:
    """Smallest K with P(N > K) <= q for N ~ Pois(mu), by scipy.stats' own route.

    ceil of the inverse CDF at 1 - q, stepped down once when the CDF one
    below already reaches 1 - q; NaN when ``mu`` is out of range.
    """
    p = 1.0 - q
    above = np.ceil(pdtrik(p, mu))
    below = np.maximum(above - 1, 0)
    return float(below if pdtr(below, mu) >= p else above)


def _distinct(a) -> np.ndarray:
    """The distinct values of ``a`` in ascending order, as ``np.unique`` gives
    them, by a sort: numpy 2's hash-based ``np.unique`` is slower on a few
    thousand integers."""
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _uniformized_step(rows, cols, vals, size: int, lam: float):
    """P = H/lam + I as (offsets, band), from H's entries (rows, cols, vals).

    The offsets ascend, and ``band[q][col]`` is P's entry on the diagonal
    col - row = ``offsets[q]``: scipy's DIA layout, which ``dia_matvec``
    reads.  Each entry goes to the diagonal col - row, one per distinct
    offset (0 always among them), so the band holds the floats of scipy's CSR
    ``H / lam + I``: scipy divides by a scalar as data * (1/lam) and adds
    the identity entry by entry.  Entries stored twice add, as in that
    sum.  More than ``_MAX_SLOTS`` band entries (states x offsets) raise
    ``E_BUDGET`` before the band is allocated.  ``csr.todia()`` is not
    used: it warns above 100 diagonals.
    """
    change = cols - rows
    offsets = _distinct(np.append(change, 0))
    if size * len(offsets) > _MAX_SLOTS:
        raise BudgetExceeded(f"{size} states x {len(offsets)} offsets exceed {_MAX_SLOTS} slots")
    band = np.zeros((len(offsets), size))
    np.add.at(band, (np.searchsorted(offsets, change), cols), vals * (1 / lam))
    band[np.searchsorted(offsets, 0)] += 1.0
    return offsets, band


def _occupied_sectors(box: TruncationBox, rows, cols, vals, weights):
    """H's entries (rows, cols, vals) restricted to the sectors that ``weights`` occupy.

    The laws are the integer left null space of the state changes
    state(row) - state(col) of every entry.  Each change is one integer
    key, with digit change_i + cap_i in base 2 cap_i + 1, so that entries
    sharing a change count once; one offset can stand for two changes in
    a narrow box.  The occupied set S holds the states whose every value
    w . n occurs in the support of ``weights``, and no entry joins S to its
    complement.  Returns (mask of S, rows, cols, vals) in S's flat order,
    or None when S is the whole box, or when S's band (states x offsets)
    would be wider than the box's nonzeros and states.
    """
    support = np.flatnonzero(weights)
    if support.size == weights.size:
        return None
    shape, digits = box.shape, tuple(2 * cap + 1 for cap in box.caps)  # digits change_i + cap_i
    starts, ends = np.unravel_index(cols, shape), np.unravel_index(rows, shape)
    key = np.ravel_multi_index(tuple(e - s + cap for e, s, cap in zip(ends, starts, box.caps)), digits)
    changes = np.column_stack(np.unravel_index(_distinct(key), digits)) - box.caps
    laws = _rank_and_laws(changes.tolist(), box.k)[1]
    if not laws:
        return None
    inside = np.ones(box.size, dtype=bool)
    for w in laws:
        values = _sector_values(w, box)
        inside &= np.isin(values, values[support])
    if inside.all():
        return None
    keep, local = inside[rows], np.cumsum(inside) - 1
    rows, cols = local[rows[keep]], local[cols[keep]]
    # a sector's offsets need not be constant, and DIA work is states x offsets
    if inside.sum() * _distinct(np.append(cols - rows, 0)).size > max(keep.size, box.size):
        return None
    return inside, rows, cols, vals[keep]


def evolve_master(H: SparseOperator, psi0: MixedState, t: float) -> MixedState:
    """exp(t H) psi0 by uniformization: sum_{k<=K} Pois(k; L t) P^k psi0.

    L = max|H_nn| and P = I + H/L is nonnegative and column-stochastic, so
    every weight stays nonnegative and mass is conserved to roundoff.  K is
    the smallest index whose right Poisson tail is <= 1e-14 and the kept
    weights are renormalized, so the L1 error is at most 2e-14 times the
    mass of psi0 plus roundoff.  K above 10**6 raises ``E_BUDGET`` up front;
    a ``t`` that is not finite and nonnegative raises ``E_VALUE``.

    P is built as a band, one array per diagonal in ascending offset order
    (:func:`_uniformized_step`), and each term is one mat-vec on that band.
    The band holds the floats of scipy's CSR H/L + I, and each row's terms
    add in column order from 0.0, as scipy's CSR mat-vec adds them, so the
    weights have the bytes of the CSR loop.  A band over ``_MAX_SLOTS``
    entries raises ``E_BUDGET``; only a hand-built H can reach it, since
    :func:`hamiltonian` checks the same budget.

    The terms are summed in blocks of at most ``_TERM_BUFFER`` floats (two
    rows when one row is wider than half of that), and of no more rows than
    the series has terms.  Row 0 holds the sum so far; each term's mat-vec
    is one call of scipy's compiled ``dia_matvec``, the kernel a
    ``dia_matrix`` product reaches, written straight into the next zeroed
    row.  The rows are then scaled by their Poisson weights and
    summed down the columns by one ``np.add.reduce``, which adds them in
    row order, so every state gets out + w_k v_k in order k, as in a
    term-by-term loop.  numpy sums in row order only when a row holds at
    least two entries (a single column is summed pairwise), so the block is
    at least two columns wide, even for a one-state sector.

    A conserved w . n commutes with H (the Noether theorem), so P^k never
    moves weight between sectors.  The loop therefore runs on the set S of
    states in the sectors psi0 occupies (:func:`_occupied_sectors`, with
    laws worked out from H's own entries) and scatters the result back into
    the box, with the same bytes:

    1. a state outside S is 0.0 in every term;
    2. in a row inside S every dropped column holds an exact 0.0, and
       adding a +0.0 product to a nonnegative partial sum changes no bit;
    3. S keeps flat order, so each row still adds its terms in ascending
       column order;
    4. L and K are the box's, not the sector's, so the Poisson weights do
       not change.

    A term whose Poisson weight underflows to 0.0 adds +0.0 everywhere,
    which changes no bit (rule 2).
    """
    if H.box != psi0.box:
        raise BoxMismatch("generator and state live on different boxes")
    if not 0 <= t < np.inf:
        raise InvalidValue(f"t must be finite and nonnegative, got {t}")
    lam = float(np.abs(H.diagonal()).max(initial=0.0))
    if t == 0 or lam == 0:
        return psi0
    mean = lam * t
    terms = _poisson_isf(_POISSON_TAIL, mean)  # NaN when the mean is out of range
    if not terms <= _MAX_MATVECS:
        raise BudgetExceeded(f"Lambda*t = {mean:.4g} needs over {_MAX_MATVECS} mat-vecs")
    weights = _poisson_table(mean, int(terms))
    weights /= weights.sum()
    mat, vec = H.matrix, psi0.weights
    entries = np.repeat(np.arange(H.box.size), np.diff(mat.indptr)), mat.indices, mat.data
    sector = _occupied_sectors(H.box, *entries, vec)
    if sector is not None:
        inside, *entries = sector
        vec = vec[inside]
    n, width = vec.size, max(vec.size, 2)  # one column would be summed pairwise
    offsets, band = _uniformized_step(*entries, n, lam)
    vec = np.ascontiguousarray(vec)  # the kernel is called without scipy's checks
    block = np.zeros((max(min(_TERM_BUFFER // width, weights.size), 2), width))
    block[0, :n] = weights[0] * vec
    for first in range(1, weights.size, len(block) - 1):
        w = weights[first : first + len(block) - 1]
        used = block[: w.size + 1]
        for row in used[1:, :n]:
            dia_matvec(n, n, len(offsets), n, offsets, band, vec, row)
            vec = row
        vec = vec.copy()  # the next block steps from this term, unweighted
        used[1:] *= w[:, None]
        block[0] = np.add.reduce(used, axis=0)  # row by row: out + w_k v_k, k ascending
        used[1:] = 0.0  # dia_matvec adds into its output row
    out = block[0, :n]
    if sector is not None:
        box_out = np.zeros(H.box.size)
        box_out[inside] = out
        out = box_out
    return MixedState(psi0.box, out)
