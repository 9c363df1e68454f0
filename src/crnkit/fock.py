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
stored as one array per diagonal (scipy's DIA layout) and converted to
CSR once.  Per-state tables (coherent weights, w . n, the interior) are
outer sums of 1-D ones.

Coherent states carry the untruncated product-Poisson weights (computed
through log-gamma, no factorial overflow) without renormalization; the
lost tail mass is reported alongside.

Master evolution is uniformization: a Poisson-weighted sum of powers of the
stochastic matrix I + H/max|H_nn|, nonnegative and mass-conserving.
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
from .network import Network, validate_classical
from .structure import conserved_quantities

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
    "interior_mask",
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
    varies fastest and the zero state maps to index 0.  A box of more than
    ``_MAX_STATES`` states raises ``E_BUDGET`` before anything is allocated.
    """

    caps: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(int(c) for c in self.caps)
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
        return int(np.prod(self.shape))

    @property
    def strides(self) -> tuple[int, ...]:
        """Flat-index step of one more of each species."""
        return tuple(math.prod(self.shape[i + 1 :]) for i in range(self.k))

    def states(self) -> np.ndarray:
        """All box states as a new (size, k) int array in flat-index order."""
        grids = np.unravel_index(np.arange(self.size), self.shape)
        return np.column_stack(grids).astype(np.int64, copy=False)

    def index_of(self, n) -> int:
        """Flat index of the state ``n``; ``E_DIM`` for a wrong length, ``E_VALUE`` outside the box."""
        n = tuple(int(v) for v in n)
        if len(n) != self.k:
            raise DimensionMismatch(f"state has length {len(n)}, expected {self.k}")
        if not self.contains(n):
            raise InvalidValue(f"state {n} lies outside the box with caps {self.caps}")
        return int(np.ravel_multi_index(n, self.shape))

    def state_at(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(int(index), self.shape))

    def contains(self, n) -> bool:
        return all(0 <= int(v) <= cap for v, cap in zip(n, self.caps)) and len(
            tuple(n)
        ) == self.k


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

    Weights are nonnegative and sum to at most 1 (+1e-12 for roundoff);
    truncated tails may lose mass but never create it.
    """

    box: TruncationBox
    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (self.box.size,):
            raise InvalidValue(f"weights shape {weights.shape}, expected ({self.box.size},)")
        if weights.min(initial=0.0) < 0:
            raise InvalidValue("mixed-state weights must be nonnegative")
        if weights.sum() > 1.0 + 1e-12:
            raise InvalidValue("mixed-state weights must not sum above 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def weight_of(self, n) -> float:
        return float(self.weights[self.box.index_of(n)])

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


def _observable_commutator_max_abs(h_op: SparseOperator, w) -> float:
    """max|[H, O_w]| = max|H_mn (o_n - o_m)| over H's entries, o = w . n per state."""
    mat = h_op.matrix
    o = _sector_values(w, h_op.box)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return float(np.abs(mat.data * (o[mat.indices] - o[rows])).max(initial=0.0))


# ---------------------------------------------------------------------------
# generator assembly

def hamiltonian(net: Network, box: TruncationBox) -> SparseOperator:
    """Master-equation generator on the box under the truncate-pair policy.

    For every state n and transition with falling-factorial weight f > 0,
    the firing adds rate*f at (target, n) and subtracts it at (n, n); when
    the target lies outside the box both contributions are dropped, so all
    column sums vanish.

    A firing moves the flat index by the constant (t - s) . strides, and
    its sources inside the box form the sub-box s_i <= n_i <= cap_i -
    max(t_i - s_i, 0), so each transition fills that sub-box of one
    diagonal, -(t - s) . strides, indexed by source, and drains the same
    sub-box of the main diagonal.  Fluxes sharing an entry add in
    transition order; self-loops cancel exactly and are skipped.  More
    than ``_MAX_SLOTS`` diagonal entries (box states x distinct offsets)
    raise ``E_BUDGET`` before any is allocated; a diagonal entry below
    -DBL_MAX/2 raises ``E_EXPLODE``, so every column's L1 norm is finite.
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
    offsets = list(dict.fromkeys([0, *(f[1] for f in firing)]))
    if box.size * len(offsets) > _MAX_SLOTS:
        raise BudgetExceeded(f"{box.size} states x {len(offsets)} offsets exceed {_MAX_SLOTS} slots")
    data = np.zeros((len(offsets), box.size))
    diagonal = data[0].reshape(box.shape)
    with np.errstate(over="ignore"):
        for j, offset, sources in firing:
            grid = np.ix_(*(np.arange(s.start, s.stop) for s in sources))
            flux = kernel.rates[j] * kernel.falling(grid, j)
            data[offsets.index(offset)].reshape(box.shape)[sources] += flux
            diagonal[sources] -= flux
    # |H_nn| bounds every entry of column n, and 2|H_nn| its L1 norm
    if not data[0].min() >= -_DBL_MAX / 2:
        raise PopulationExplosion("a state's total outflow in the generator overflows")
    return _diagonals(box, data, offsets)


# ---------------------------------------------------------------------------
# product structure of the box

def _outer_sum(tables) -> np.ndarray:
    """tables[0][n_0] + tables[1][n_1] + ... per box state, flat, added in species order."""
    return reduce(np.add.outer, tables).ravel()


def _sector_values(w, box: TruncationBox) -> np.ndarray:
    """w . n per box state for an integer weight vector ``w``."""
    w = np.asarray(w, dtype=np.int64)
    if w.shape != (box.k,):
        raise DimensionMismatch(f"weight vector shape {w.shape}, expected ({box.k},)")
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
    weights = np.exp(_log_poisson_weights(c, box.caps))
    tail = max(0.0, 1.0 - float(weights.sum()))
    return MixedState(box, weights), tail


def network_margin(net: Network) -> int:
    """Width of the boundary layer: largest input/output coefficient of any transition."""
    kernel = net.mass_action
    return int(max(kernel.inputs.max(initial=0), kernel.outputs.max(initial=0)))


def interior_mask(box: TruncationBox, margin: int) -> np.ndarray:
    """Boolean mask of states at least ``margin`` below every cap."""
    mask = np.zeros(box.shape, dtype=bool)
    mask[tuple(slice(0, max(cap + 1 - int(margin), 0)) for cap in box.caps)] = True
    return mask.ravel()


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
    return _residual(hamiltonian(net, psi.box), psi, network_margin(net))


def _residual(h_op: SparseOperator, psi: MixedState, margin: int) -> AckReport:
    residual = np.abs(h_op.apply(psi.weights))
    inside = interior_mask(psi.box, margin)
    return AckReport(
        interior_l1=float(residual[inside].sum()),
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
    w = np.asarray(w, dtype=np.int64)
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
    h_op = hamiltonian(net, box)
    doc = {
        "conserved_basis": [list(w) for w in basis],
        "commutator_max_abs": [_observable_commutator_max_abs(h_op, w) for w in basis],
    }
    if not basis:
        return doc
    w = basis[0]
    psi_sym, predicted = apply_symmetry(c, w, s, box)
    reference, _ = coherent_state(predicted, box)
    margin = network_margin(net)
    inside = interior_mask(box, margin)
    ref = reference.weights[inside]
    got = psi_sym.weights[inside]
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
        "interior_residual_l1": _residual(h_op, projected, margin).interior_l1,
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


def evolve_master(H: SparseOperator, psi0: MixedState, t: float) -> MixedState:
    """exp(t H) psi0 by uniformization: sum_{k<=K} Pois(k; L t) P^k psi0.

    L = max|H_nn| and P = I + H/L is nonnegative and column-stochastic, so
    every weight stays nonnegative and mass is conserved to roundoff.  K is
    the smallest index whose right Poisson tail is <= 1e-14 and the kept
    weights are renormalized, so the L1 error is at most 2e-14 times the
    mass of psi0 plus roundoff.  K above 10**6 raises ``E_BUDGET`` up front;
    a ``t`` that is not finite and nonnegative raises ``E_VALUE``.
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
    step = H.matrix / lam + sp.identity(H.box.size, format="csr")
    vec = psi0.weights
    out = weights[0] * vec
    for weight in weights[1:]:
        vec = step @ vec
        out += weight * vec
    return MixedState(psi0.box, out)
