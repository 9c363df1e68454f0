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

Coherent states carry the untruncated product-Poisson weights (computed
through log-gamma, no factorial overflow) without renormalization; the
lost tail mass is reported alongside.

Master evolution is uniformization: a Poisson-weighted sum of powers of the
stochastic matrix I + H/max|H_nn|, nonnegative and mass-conserving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.stats import poisson

from .errors import (
    BoxMismatch,
    BudgetExceeded,
    DimensionMismatch,
    EmptySector,
    InvalidValue,
    SymmetryOverflow,
)
from .network import Network, validate_classical

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
    "dense_hamiltonian",
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
]

_LOG_DBL_MAX = 709.0
_POISSON_TAIL = 1e-14  # right-tail mass dropped by evolve_master
_MAX_MATVECS = 10**6  # evolve_master's mat-vec budget


@dataclass(frozen=True)
class TruncationBox:
    """Rectangular state box: per-species caps, inclusive, each >= 1.

    Flat indices are row-major over species order, so the last species
    varies fastest and the zero state maps to index 0.
    """

    caps: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(int(c) for c in self.caps)
        if not caps:
            raise ValueError("a truncation box needs at least one species")
        if any(c < 1 for c in caps):
            raise ValueError("caps must be at least 1")
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

    def states(self) -> np.ndarray:
        """All box states as a (size, k) int array in flat-index order."""
        cached = self.__dict__.get("_states")
        if cached is None:
            grids = np.indices(self.shape).reshape(self.k, -1).T
            cached = np.ascontiguousarray(grids, dtype=np.int64)
            cached.setflags(write=False)
            object.__setattr__(self, "_states", cached)
        return cached

    def index_of(self, n) -> int:
        return int(np.ravel_multi_index(tuple(int(v) for v in n), self.shape))

    def state_at(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(int(index), self.shape))

    def contains(self, n) -> bool:
        return all(0 <= int(v) <= cap for v, cap in zip(n, self.caps)) and len(
            tuple(n)
        ) == self.k


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Sparse real matrix over a box's flat index set; no stored zeros."""

    box: TruncationBox
    matrix: sp.csr_matrix

    @staticmethod
    def wrap(box: TruncationBox, matrix) -> "SparseOperator":
        mat = sp.csr_matrix(matrix)
        if mat.shape != (box.size, box.size):
            raise ValueError(f"matrix shape {mat.shape} does not match box size {box.size}")
        mat.eliminate_zeros()
        mat.sort_indices()
        return SparseOperator(box, mat)

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
        return SparseOperator.wrap(self.box, self.matrix @ other.matrix)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check(other)
        return SparseOperator.wrap(self.box, self.matrix + other.matrix)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._check(other)
        return SparseOperator.wrap(self.box, self.matrix - other.matrix)

    def __mul__(self, scalar: float) -> "SparseOperator":
        return SparseOperator.wrap(self.box, self.matrix * float(scalar))

    __rmul__ = __mul__

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def max_abs(self) -> float:
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def column_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def to_coordinate_text(self) -> str:
        """Coordinate dump: header with the box caps, then 'row col value' lines."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = ["# caps " + " ".join(str(c) for c in self.box.caps)]
        for i in order:
            lines.append(f"{int(coo.row[i])} {int(coo.col[i])} {float(coo.data[i])!r}")
        return "\n".join(lines) + "\n"


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
            raise ValueError(f"weights shape {weights.shape}, expected ({self.box.size},)")
        if weights.min(initial=0.0) < 0:
            raise ValueError("mixed-state weights must be nonnegative")
        if weights.sum() > 1.0 + 1e-12:
            raise ValueError("mixed-state weights must not sum above 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def weight_of(self, n) -> float:
        return float(self.weights[self.box.index_of(n)])

    def to_csv(self, species, threshold: float = 1e-15) -> str:
        """CSV dump '<species...>,probability', skipping weights <= threshold."""
        lines = [",".join(species) + ",probability"]
        states = self.box.states()
        for idx in np.flatnonzero(self.weights > threshold):
            coords = ",".join(str(int(v)) for v in states[idx])
            lines.append(f"{coords},{float(self.weights[idx])!r}")
        return "\n".join(lines) + "\n"


def pure_state(box: TruncationBox, n) -> MixedState:
    """Point mass at the box state ``n``."""
    weights = np.zeros(box.size)
    weights[box.index_of(n)] = 1.0
    return MixedState(box, weights)


# ---------------------------------------------------------------------------
# elementary operators

def annihilation(i: int, box: TruncationBox) -> SparseOperator:
    """Remove one of species i: basis(n) -> n_i * basis(n - e_i)."""
    states = box.states()
    src = np.flatnonzero(states[:, i] > 0)
    targets = states[src].copy()
    targets[:, i] -= 1
    rows = np.ravel_multi_index(targets.T, box.shape)
    mat = sp.coo_matrix(
        (states[src, i].astype(float), (rows, src)), shape=(box.size, box.size)
    )
    return SparseOperator.wrap(box, mat)


def creation(i: int, box: TruncationBox) -> SparseOperator:
    """Add one of species i: basis(n) -> basis(n + e_i); cap rows flow out and are dropped."""
    states = box.states()
    src = np.flatnonzero(states[:, i] < box.caps[i])
    targets = states[src].copy()
    targets[:, i] += 1
    rows = np.ravel_multi_index(targets.T, box.shape)
    mat = sp.coo_matrix((np.ones(src.size), (rows, src)), shape=(box.size, box.size))
    return SparseOperator.wrap(box, mat)


def number_operator(i: int, box: TruncationBox) -> SparseOperator:
    """Diagonal count of species i (eigenvalue n_i on basis(n))."""
    return SparseOperator.wrap(box, sp.diags(box.states()[:, i].astype(float)))


def linear_observable(w, box: TruncationBox) -> SparseOperator:
    """Diagonal observable sum_i w_i N_i (eigenvalue w . n on basis(n))."""
    w = np.asarray(w, dtype=np.int64)
    if w.shape != (box.k,):
        raise DimensionMismatch(f"weight vector shape {w.shape}, expected ({box.k},)")
    return SparseOperator.wrap(box, sp.diags((box.states() @ w).astype(float)))


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """AB - BA on a common box."""
    if a.box != b.box:
        raise BoxMismatch("commutator operands live on different boxes")
    return SparseOperator.wrap(a.box, a.matrix @ b.matrix - b.matrix @ a.matrix)


# ---------------------------------------------------------------------------
# generator assembly

def _falling_factorial(states: np.ndarray, exponents) -> np.ndarray:
    """prod_i n_i (n_i - 1) ... (n_i - s_i + 1) per state row; 0 when n_i < s_i."""
    values = np.ones(states.shape[0])
    for i, s_i in enumerate(exponents):
        for j in range(int(s_i)):
            values = values * (states[:, i] - j)
    return values


def hamiltonian(net: Network, box: TruncationBox, policy: str = "truncate-pair") -> SparseOperator:
    """Master-equation generator on the box under the truncate-pair policy.

    For every state n and transition with falling-factorial weight f > 0,
    the firing adds rate*f at (target, n) and subtracts it at (n, n); when
    the target lies outside the box both contributions are dropped, so all
    column sums vanish.
    """
    if policy != "truncate-pair":
        raise ValueError(f"unknown boundary policy {policy!r}")
    if box.k != net.num_species:
        raise DimensionMismatch(
            f"box has {box.k} species, network has {net.num_species}"
        )
    states = box.states()
    caps = np.asarray(box.caps, dtype=np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for tr in net.transitions:
        s = np.asarray(tr.input, dtype=np.int64)
        t = np.asarray(tr.output, dtype=np.int64)
        fall = _falling_factorial(states, s)
        active = np.flatnonzero(fall > 0)
        targets = states[active] + (t - s)
        inside = np.all((targets >= 0) & (targets <= caps), axis=1)
        src = active[inside]
        if src.size == 0:
            continue
        tgt = np.ravel_multi_index(targets[inside].T, box.shape)
        flux = tr.rate * fall[src]
        rows.extend((tgt, src))
        cols.extend((src, src))
        vals.extend((flux, -flux))
    if rows:
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(box.size, box.size),
        )
    else:
        mat = sp.coo_matrix((box.size, box.size))
    return SparseOperator.wrap(box, mat)


def dense_hamiltonian(net: Network, box: TruncationBox) -> np.ndarray:
    """Generator assembled by composing dense ladder matrices; small boxes only.

    Independent route for cross-checking :func:`hamiltonian`: per transition
    the gain block is the composition (creation^output) @ (annihilation^input)
    of dense single-species matrices built state by state, and the diagonal
    loss is the column sum of that block, which is exactly the truncate-pair
    boundary rule.
    """
    if box.size > 4096:
        raise ValueError("dense route is limited to 4096 states")
    if box.k != net.num_species:
        raise DimensionMismatch(f"box has {box.k} species, network has {net.num_species}")
    size = box.size
    states = box.states()
    lower = []
    raise_ = []
    for i in range(box.k):
        a_mat = np.zeros((size, size))
        c_mat = np.zeros((size, size))
        for idx in range(size):
            n = states[idx]
            if n[i] > 0:
                m = n.copy()
                m[i] -= 1
                a_mat[box.index_of(m), idx] = n[i]
            if n[i] < box.caps[i]:
                m = n.copy()
                m[i] += 1
                c_mat[box.index_of(m), idx] = 1.0
        lower.append(a_mat)
        raise_.append(c_mat)
    out = np.zeros((size, size))
    for tr in net.transitions:
        gain = np.eye(size)
        for i, s_i in enumerate(tr.input):
            for _ in range(s_i):
                gain = lower[i] @ gain
        for i, t_i in enumerate(tr.output):
            for _ in range(t_i):
                gain = raise_[i] @ gain
        out += tr.rate * (gain - np.diag(gain.sum(axis=0)))
    return out


# ---------------------------------------------------------------------------
# coherent states and residual certification

def _log_poisson_weights(c: np.ndarray, box: TruncationBox) -> np.ndarray:
    """log of the product-Poisson weight per box state (log-gamma based)."""
    return poisson.logpmf(box.states(), c).sum(axis=1)


def coherent_state(c, box: TruncationBox) -> tuple[MixedState, float]:
    """Product-Poisson state with means ``c`` restricted to the box.

    Weights are the untruncated Poisson products, not renormalized; the
    second return value is the tail mass lost to truncation.
    """
    c = validate_classical(c, box.k)
    weights = np.exp(_log_poisson_weights(c, box))
    tail = max(0.0, 1.0 - float(weights.sum()))
    return MixedState(box, weights), tail


def network_margin(net: Network) -> int:
    """Width of the boundary layer: largest input/output coefficient of any transition."""
    margin = 0
    for tr in net.transitions:
        margin = max(margin, max(tr.input, default=0), max(tr.output, default=0))
    return margin


def interior_mask(box: TruncationBox, margin: int) -> np.ndarray:
    """Boolean mask of states at least ``margin`` below every cap."""
    caps = np.asarray(box.caps, dtype=np.int64)
    return np.all(box.states() <= caps - int(margin), axis=1)


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
    h_op = hamiltonian(net, psi.box)
    residual = np.abs(h_op.apply(psi.weights))
    margin = network_margin(net)
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
    margin = network_margin(net)
    if box is None:
        box = default_box(c, margin)
    psi, tail = coherent_state(c, box)
    report = master_residual(net, psi)
    return AckReport(report.interior_l1, report.full_l1, report.margin, tail, box)


# ---------------------------------------------------------------------------
# conserved sectors and symmetries

def project_onto(psi: MixedState, w, lam: int) -> MixedState:
    """Condition ``psi`` on the sector w . n == lam and renormalize to 1."""
    w = np.asarray(w, dtype=np.int64)
    if w.shape != (psi.box.k,):
        raise DimensionMismatch(f"weight vector shape {w.shape}, expected ({psi.box.k},)")
    sector = (psi.box.states() @ w) == int(lam)
    mass = float(psi.weights[sector].sum())
    if not sector.any() or mass <= 0.0:
        raise EmptySector(f"no probability mass in the sector w.n == {lam}")
    return MixedState(psi.box, np.where(sector, psi.weights, 0.0) / mass)


def apply_symmetry(c, w, s: float, box: TruncationBox) -> tuple[MixedState, np.ndarray]:
    """Apply the diagonal symmetry exp(s * sum w_i N_i) to the coherent state of ``c``.

    Returns the renormalized state together with the predicted means
    c_i * exp(s * w_i); the state equals the coherent state of those means
    on the box, up to the renormalization constant.
    """
    c = validate_classical(c, box.k)
    w = np.asarray(w, dtype=np.int64)
    if w.shape != (box.k,):
        raise DimensionMismatch(f"weight vector shape {w.shape}, expected ({box.k},)")
    sector_values = box.states() @ w
    peak = float(np.abs(sector_values).max(initial=0.0)) * abs(float(s))
    if peak > _LOG_DBL_MAX:
        raise SymmetryOverflow(
            f"exp(s*O) spans e^{peak:.1f}, beyond double precision"
        )
    log_weights = _log_poisson_weights(c, box) + float(s) * sector_values
    log_weights = log_weights - log_weights.max()
    weights = np.exp(log_weights)
    weights /= weights.sum()
    predicted = np.exp(float(s) * w.astype(float)) * c
    return MixedState(box, weights), predicted


# ---------------------------------------------------------------------------
# time evolution

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
    terms = poisson.isf(_POISSON_TAIL, mean)  # NaN when the mean is out of scipy's range
    if not terms <= _MAX_MATVECS:
        raise BudgetExceeded(f"Lambda*t = {mean:.4g} needs over {_MAX_MATVECS} mat-vecs")
    weights = poisson.pmf(np.arange(int(terms) + 1), mean)
    weights /= weights.sum()
    step = H.matrix / lam + sp.identity(H.box.size, format="csr")
    vec = psi0.weights
    out = weights[0] * vec
    for weight in weights[1:]:
        vec = step @ vec
        out += weight * vec
    return MixedState(psi0.box, out)
