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
built as one array per diagonal (scipy's DIA layout).  The certificates
read the generator's diagonals, and master evolution steps on a banded
matrix; the public operators are CSR.
Per-state tables (coherent weights, w . n) are outer sums of 1-D ones,
and the interior is a sub-box, read as slices of the grid.

Coherent states carry the untruncated product-Poisson weights (computed
through log-gamma, no factorial overflow) without renormalization; the
lost tail mass is reported alongside.

Master evolution is uniformization: a Poisson-weighted sum of powers of the
stochastic matrix I + H/max|H_nn|, nonnegative and mass-conserving, one
DIA mat-vec per term.  That band, like the generator's, is held to the
slot budget (box states x distinct offsets).  Every conserved w . n
commutes with H (the Noether theorem), so the terms run only on the
sectors the start occupies, with laws read off H's own entries, and give
the bytes of the whole-box loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .errors import (
    BoxMismatch,
    BudgetExceeded,
    DimensionMismatch,
    EmptySector,
    InvalidValue,
    PopulationExplosion,
    SymmetryOverflow,
)
from .network import Network, validate_classical, validate_counts
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
_POISSON_TAIL = 1e-14  # right-tail mass dropped by evolve_master
_MAX_MATVECS = 10**6  # evolve_master's mat-vec budget
_MAX_STATES = 2**24  # largest box; every box-sized array is allocated after this check
_MAX_SLOTS = 2**26  # generator slots, box states x offsets; certify's largest is about 2.9M
_CSV_FLOOR = 1e-15  # MixedState.to_csv prints only weights above this


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
        if math.prod(c + 1 for c in caps) > _MAX_STATES:
            raise BudgetExceeded(f"a box with caps {caps} exceeds {_MAX_STATES} states")
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

    def max_abs(self) -> float:
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()


@dataclass(frozen=True, eq=False)
class MixedState:
    """Probability weights over a box's states (finitely supported mixture).

    Weights are nonnegative (not NaN) and sum to at most 1 (+1e-12 for roundoff);
    truncated tails may lose mass but never create it.  A read-only float64
    array is adopted as it is; any other input is copied.
    """

    box: TruncationBox
    weights: np.ndarray

    def __post_init__(self):
        weights = self.weights
        if type(weights) is not np.ndarray or weights.dtype != np.float64 or weights.flags.writeable:
            weights = np.array(weights, dtype=float)
        if weights.shape != (self.box.size,):
            raise InvalidValue(f"weights shape {weights.shape}, expected ({self.box.size},)")
        if not weights.min(initial=0.0) >= 0:  # NaN fails too
            raise InvalidValue("mixed-state weights must be nonnegative")
        if weights.sum() > 1.0 + 1e-12:
            raise InvalidValue("mixed-state weights must not sum above 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

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


def _observable_commutator_max_abs(gen: sp.dia_matrix, box: TruncationBox, w) -> float:
    """max|[H, O_w]| = max|H_mn (o_n - o_m)|, o = w . n per state, from H's diagonals n - m = off."""
    o, worst, size = _sector_values(w, box), 0.0, box.size
    for off, diag in zip(gen.offsets.tolist(), gen.data):
        if off:  # H_mn sits at diag[n], over the columns n whose row m = n - off lies in the box
            n, m = slice(max(off, 0), size + min(off, 0)), slice(max(-off, 0), size - max(off, 0))
            worst = max(worst, float(np.abs(diag[n] * (o[n] - o[m])).max(initial=0.0)))
    return worst


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

    A firing moves the flat index by the constant (t - s) . strides, and
    its sources inside the box form the sub-box s_i <= n_i <= cap_i -
    max(t_i - s_i, 0), so each transition fills that sub-box of one
    diagonal, -(t - s) . strides, indexed by source, and drains the same
    sub-box of the main diagonal.  Fluxes sharing an entry add in
    transition order; self-loops cancel exactly and are skipped.  More
    than ``_MAX_SLOTS`` diagonal entries (box states x distinct offsets)
    raise ``E_BUDGET`` before any is allocated; a diagonal entry below
    -DBL_MAX/2 raises ``E_EXPLODE``, so every column's L1 norm is finite.
    Ascending offsets make scipy's DIA mat-vec add each row's terms in
    column order, as the CSR one does, so both give the same bytes.
    """
    if box.k != net.num_species:
        raise DimensionMismatch(
            f"box has {box.k} species, network has {net.num_species}"
        )
    kernel, strides = net.mass_action, box.strides
    firing = []  # (transition, diagonal offset, source sub-box)
    for j in range(net.num_transitions):
        need = kernel.inputs[j].tolist()
        delta = (kernel.outputs[j] - kernel.inputs[j]).tolist()
        tops = [cap - max(d, 0) for cap, d in zip(box.caps, delta)]
        offset = -sum(d * stride for d, stride in zip(delta, strides))
        if offset == 0 or any(s > top for s, top in zip(need, tops)):
            continue
        firing.append((j, offset, tuple(slice(s, top + 1) for s, top in zip(need, tops))))
    offsets = sorted({0, *(f[1] for f in firing)})
    if box.size * len(offsets) > _MAX_SLOTS:
        raise BudgetExceeded(f"{box.size} states x {len(offsets)} offsets exceed {_MAX_SLOTS} slots")
    data = np.zeros((len(offsets), box.size))
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


# ---------------------------------------------------------------------------
# product structure of the box

def _outer_sum(tables) -> np.ndarray:
    """tables[0][n_0] + tables[1][n_1] + ... per box state, flat, added in species order."""
    return reduce(np.add.outer, tables).ravel()


def _weight_vector(w, k: int) -> np.ndarray:
    """``w`` as an int64 vector of shape (k,); ``E_DIM`` for a wrong length, ``E_VALUE``
    for an entry that is fractional, non-finite or beyond the int64 range."""
    if np.shape(w) != (k,):
        raise DimensionMismatch(f"weight vector shape {np.shape(w)}, expected ({k},)")
    entries = np.asarray(w, dtype=object).tolist()
    try:
        ints = [int(v) for v in entries]
    except (ValueError, OverflowError):  # int() of NaN, of inf
        ints = None
    if ints != entries or not all(-(2**63) <= v < 2**63 for v in ints):
        raise InvalidValue(f"weight vector entries must be int64 integers, got {entries}")
    return np.array(ints, dtype=np.int64)


def _sector_values(w, box: TruncationBox) -> np.ndarray:
    """w . n per box state for an integer weight vector ``w`` (:func:`_weight_vector`)."""
    w = _weight_vector(w, box.k)
    return _outer_sum([wi * np.arange(cap + 1) for wi, cap in zip(w.tolist(), box.caps)])


# ---------------------------------------------------------------------------
# coherent states and residual certification

def poisson_logpmf(k, mu):
    """log Pois(k; mu) = k log mu - log k! - mu, with 0 log 0 = 0.

    The formula of ``scipy.stats.poisson``, so values agree bit for bit,
    without importing ``scipy.stats``.
    """
    return xlogy(k, mu) - gammaln(k + 1) - mu


def _log_poisson_weights(c, caps) -> np.ndarray:
    """log product-Poisson weight per state of the box with ``caps``, an outer sum of 1-D tables.

    A sum below the float range is -inf, the log of the weight 0 it stands for.
    """
    with np.errstate(over="ignore"):
        return _outer_sum([poisson_logpmf(np.arange(cap + 1.0), mean) for cap, mean in zip(caps, c)])


def coherent_state(c, box: TruncationBox) -> tuple[MixedState, float]:
    """Product-Poisson state with means ``c`` restricted to the box.

    Weights are the untruncated Poisson products, not renormalized; the
    second return value is the tail mass lost to truncation.
    """
    c = validate_classical(c, box.k)
    weights = _log_poisson_weights(c, box.caps)
    np.exp(weights, out=weights)
    weights.setflags(write=False)  # MixedState adopts it without a copy
    tail = max(0.0, 1.0 - float(weights.sum()))
    return MixedState(box, weights), tail


def network_margin(net: Network) -> int:
    """Width of the boundary layer: largest input/output coefficient of any transition."""
    kernel = net.mass_action
    return int(max(kernel.inputs.max(initial=0), kernel.outputs.max(initial=0)))


def _interior(box: TruncationBox, margin: int) -> tuple[slice, ...]:
    """The sub-box of states at least ``margin`` below every cap, as slices of the grid."""
    return tuple(slice(0, max(cap + 1 - int(margin), 0)) for cap in box.caps)


def default_box(c, margin: int, nsigma: float = 10.0, floor: int = 8) -> TruncationBox:
    """Caps sized to ceil(c_i + nsigma*sqrt(c_i)) + margin, at least ``floor``.

    A Poisson tail beyond ten standard deviations is negligible at double
    precision, so residuals on the interior are pure roundoff.
    """
    c = validate_classical(c, np.size(c))
    caps = [
        max(int(np.ceil(ci + nsigma * np.sqrt(ci))) + int(margin), int(floor)) for ci in c
    ]
    return TruncationBox(tuple(caps))


@dataclass(frozen=True)
class AckReport:
    """L1 residual of H applied to a state, split into interior and full box."""

    interior_l1: float
    full_l1: float
    margin: int
    tail_mass: float
    box: TruncationBox


def master_residual(net: Network, psi: MixedState) -> AckReport:
    """Residual H*psi of an arbitrary mixed state under the network's generator."""
    return _residual(_generator(net, psi.box), psi, network_margin(net))


def _residual(gen: sp.dia_matrix, psi: MixedState, margin: int) -> AckReport:
    residual = gen @ psi.weights
    np.abs(residual, out=residual)
    # ravel copies the sub-box in flat order, as a mask would, so the sum has the same bytes
    inside = residual.reshape(psi.box.shape)[_interior(psi.box, margin)].ravel()
    return AckReport(
        interior_l1=float(inside.sum()),
        full_l1=float(residual.sum()),
        margin=margin,
        tail_mass=max(0.0, 1.0 - psi.total),
        box=psi.box,
    )


def ack_residual(net: Network, c, box: TruncationBox | None = None) -> AckReport:
    """Residual of the coherent state with means ``c``: the equilibrium certificate.

    A complex-balanced ``c`` makes the interior L1 residual vanish up to
    truncation tail and roundoff; an unbalanced one leaves a finite
    residual.  The box defaults to :func:`default_box` sizing.
    """
    if box is None:
        box = default_box(c, network_margin(net))
    return master_residual(net, coherent_state(c, box)[0])


# ---------------------------------------------------------------------------
# conserved sectors and symmetries

def project_onto(psi: MixedState, w, lam: int) -> MixedState:
    """Condition ``psi`` on the sector w . n == lam and renormalize to 1."""
    sector = _sector_values(w, psi.box) == int(lam)
    mass = float(psi.weights[sector].sum())
    if not sector.any() or mass <= 0.0:
        raise EmptySector(f"no probability mass in the sector w.n == {lam}")
    return MixedState(psi.box, np.where(sector, psi.weights, 0.0) / mass)


def apply_symmetry(c, w, s: float, box: TruncationBox) -> tuple[MixedState, np.ndarray]:
    """Apply the diagonal symmetry exp(s * sum w_i N_i) to the coherent state of ``c``.

    Returns the renormalized state together with the predicted means
    c_i * exp(s * w_i); the state equals the coherent state of those means
    on the box, up to the renormalization constant.  A non-finite ``s``,
    or means whose log weights all fall below the float range, raise
    ``E_VALUE``.
    """
    c = validate_classical(c, box.k)
    w = _weight_vector(w, box.k)
    sector_values = _sector_values(w, box)
    if not np.isfinite(s):
        raise InvalidValue(f"s must be finite, got {s}")
    peak = float(np.abs(sector_values).max(initial=0.0)) * abs(float(s))
    if peak > _LOG_DBL_MAX:
        raise SymmetryOverflow(
            f"exp(s*O) spans e^{peak:.1f}, beyond double precision"
        )
    log_weights = _log_poisson_weights(c, box.caps) + float(s) * sector_values
    top = log_weights.max()
    if top == -np.inf:
        raise InvalidValue(f"every coherent weight of c underflows on the box {box.caps}")
    weights = np.exp(log_weights - top)
    weights /= weights.sum()
    with np.errstate(over="ignore"):  # an overflowing mean is inf, which coherent_state refuses
        predicted = np.exp(float(s) * w.astype(float)) * c
    return MixedState(box, weights), predicted


def noether_report(net: Network, c, box: TruncationBox, s: float, lam: int | None = None) -> dict:
    """The Noether checks of ``crn noether`` as a JSON-ready dict, from one H assembly.

    ``commutator_max_abs`` holds max|[H, O_w]| for every vector w of the
    conserved basis.  With a nonempty basis, its first w also gives the
    symmetry demo (exp(s O_w) applied to the coherent state of ``c``
    against the coherent state of the predicted means: the largest
    relative error on the interior) and the projection demo (the interior
    residual of the coherent state of ``c`` conditioned on w . n == ``lam``,
    by default round(w . c)).
    """
    c = validate_classical(c, box.k)
    basis = conserved_quantities(net)
    gen = _generator(net, box)
    doc = {
        "conserved_basis": [list(w) for w in basis],
        "commutator_max_abs": [_observable_commutator_max_abs(gen, box, w) for w in basis],
    }
    if not basis:
        return doc
    w = basis[0]
    psi_sym, predicted = apply_symmetry(c, w, s, box)
    reference, _ = coherent_state(predicted, box)
    margin = network_margin(net)
    inside = _interior(box, margin)
    ref = reference.weights.reshape(box.shape)[inside]
    got = psi_sym.weights.reshape(box.shape)[inside]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(np.where(ref > 0, got / ref - 1.0, 0.0))
    if lam is None:
        lam = int(round(float(np.dot(w, c))))
    projected = project_onto(coherent_state(c, box)[0], w, lam)
    doc["symmetry"] = {
        "w": list(w),
        "s": s,
        "predicted_c": [float(v) for v in predicted],
        "max_rel_err_interior": float(rel.max(initial=0.0)),
    }
    doc["projection"] = {
        "w": list(w),
        "lam": lam,
        "interior_residual_l1": _residual(gen, projected, margin).interior_l1,
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


def _uniformized_step(rows, cols, vals, size: int, lam: float) -> sp.dia_matrix:
    """P = H/lam + I as a DIA matrix whose offsets ascend, from H's entries (rows, cols, vals).

    Each entry goes to the diagonal col - row, one per distinct offset (0
    always among them), so the band holds the floats of scipy's CSR
    ``H / lam + I``: scipy divides by a scalar as data * (1/lam) and adds
    the identity entry by entry.  Entries stored twice add, as in that
    sum.  More than ``_MAX_SLOTS`` band entries (states x offsets) raise
    ``E_BUDGET`` before the band is allocated.  ``csr.todia()`` is not
    used: it warns above 100 diagonals.
    """
    offsets, slot = np.unique(np.append(cols - rows, 0), return_inverse=True)
    if size * len(offsets) > _MAX_SLOTS:
        raise BudgetExceeded(f"{size} states x {len(offsets)} offsets exceed {_MAX_SLOTS} slots")
    data = np.zeros((len(offsets), size))
    np.add.at(data, (slot[:-1], cols), vals * (1 / lam))
    data[slot[-1]] += 1.0
    return sp.dia_matrix((data, offsets), (size, size))


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
    changes = np.column_stack(np.unravel_index(np.unique(key), digits)) - box.caps
    laws = _rank_and_laws(changes)[1]
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
    if inside.sum() * np.unique(np.append(cols - rows, 0)).size > max(keep.size, box.size):
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

    P is built as a banded (DIA) matrix with ascending offsets
    (:func:`_uniformized_step`), and each term is one mat-vec on that band.
    The band holds the floats of scipy's CSR H/L + I, and each row's terms
    add in column order from 0.0, as scipy's CSR mat-vec adds them, so the
    weights have the bytes of the CSR loop.  A band over ``_MAX_SLOTS``
    entries raises ``E_BUDGET``; only a hand-built H can reach it, since
    :func:`hamiltonian` checks the same budget.

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
    so it is skipped.
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
    weights = np.exp(poisson_logpmf(np.arange(int(terms) + 1), mean))
    weights /= weights.sum()
    mat, vec = H.matrix, psi0.weights
    entries = np.repeat(np.arange(H.box.size), np.diff(mat.indptr)), mat.indices, mat.data
    sector = _occupied_sectors(H.box, *entries, vec)
    if sector is not None:
        inside, *entries = sector
        vec = vec[inside]
    step = _uniformized_step(*entries, vec.size, lam)
    out = weights[0] * vec
    for weight in weights[1:].tolist():
        vec = step @ vec
        if weight:
            out += weight * vec
    if sector is not None:
        box_out = np.zeros(H.box.size)
        box_out[inside] = out
        out = box_out
    return MixedState(psi0.box, out)
