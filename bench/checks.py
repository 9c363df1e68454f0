"""Correctness gate: judge one job's outcome without calling crnkit.

Every reference value here (balance verdicts, ranks, conservation laws,
Poisson laws, the master-equation oracle) is computed from the benchmark's
own description of the network, so a defect in a crnkit code path cannot
also hide in its check.

Outcomes:

* ``ok``     -- the job ended as it should and its answer passed the check;
* ``failed`` -- the job crashed with a traceback, exited with another code
  than expected, wrote no output, or wrote output that is not strict JSON
  or holds non-finite numbers;
* ``wrong``  -- the job wrote a well-formed, finite answer that contradicts
  its check.  Both ``failed`` and ``wrong`` count as failed jobs; only
  ``wrong`` makes the run's ``correct`` flag false.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import expm_multiply
from scipy.stats import poisson

TYPED_ERROR = re.compile(r"error\[E_[A-Z0-9_]+\]")
REL_TOL = 1e-9          # the CLI's default balance tolerance
ROUNDOFF = 1e-9         # relative interior residual accepted as roundoff
MASS_TOL = 1e-9
ORACLE_TOL = 1e-6       # master CSV vs expm_multiply; RK4 at the CLI default dt errs ~1e-8 early on


class Failed(Exception):
    """The job gave no usable answer."""


class Wrong(Exception):
    """The job gave a well-formed answer that fails its check."""


def judge(job, rc, stderr: str, out_path: str, crash: str | None) -> tuple[str, str]:
    """Classify one job execution as ``ok``, ``failed`` or ``wrong``, with a reason."""
    try:
        _judge(job, rc, stderr, out_path, crash)
    except Wrong as exc:
        return "wrong", str(exc)
    except Failed as exc:
        return "failed", str(exc)
    return "ok", ""


def _judge(job, rc, stderr, out_path, crash):
    if crash is not None:
        raise Failed(f"traceback: {crash}")
    if job.expect.get("typed_error"):
        if rc == 1 and TYPED_ERROR.match(stderr):
            return
        raise Failed(f"exit {rc} without a typed CrnError: {stderr.strip()[:160]!r}")
    want = (0 if is_balanced(job.net, job.expect["c"]) else 1) if job.cmd == "ack" else 0
    if rc != want:
        raise Failed(f"exit {rc}, expected {want}: {stderr.strip()[:160]!r}")
    try:
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise Failed("no output written") from None
    CHECKS[job.cmd](job, text)


# ---------------------------------------------------------------------------
# independent references


def stoichiometry(net) -> np.ndarray:
    """Species x transitions integer net-change matrix."""
    return np.array([[b[i] - a[i] for a, b, _ in net.reactions]
                     for i in range(len(net.species))], dtype=np.int64).reshape(len(net.species), -1)


def conservation_laws(net) -> np.ndarray:
    """Integer basis (rows) of {w : w . (out - in) = 0 for every transition}, by exact elimination."""
    k = len(net.species)
    rows = [[Fraction(int(v)) for v in col] for col in stoichiometry(net).T]
    pivots = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(k) if c not in pivots):
        vec = [Fraction(0)] * k
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][free]
        scale = math.lcm(*(v.denominator for v in vec))
        basis.append([int(v * scale) for v in vec])
    return np.array(basis, dtype=np.int64).reshape(-1, k)


def fluxes(net, c) -> list[float]:
    return [r * math.prod(ci ** ai for ci, ai in zip(c, a)) for a, _, r in net.reactions]


def is_balanced(net, c, tol: float = REL_TOL) -> bool:
    """Per-complex production equals consumption, relative to the largest throughput."""
    flux = fluxes(net, c)
    cons, prod = {}, {}
    for (a, b, _), f in zip(net.reactions, flux):
        cons[a] = cons.get(a, 0.0) + f
        prod[b] = prod.get(b, 0.0) + f
    complexes = set(cons) | set(prod)
    scale = 1.0 + max(max(cons.get(x, 0.0), prod.get(x, 0.0)) for x in complexes)
    return all(abs(cons.get(x, 0.0) - prod.get(x, 0.0)) <= tol * scale for x in complexes)


def field(net, x) -> np.ndarray:
    out = np.zeros(len(net.species))
    for (a, b, _), f in zip(net.reactions, fluxes(net, x)):
        out += f * (np.array(b) - np.array(a))
    return out


def generator(net, caps) -> coo_matrix:
    """Master-equation generator on the box, state by state; target outside drops the firing."""
    shape = tuple(c + 1 for c in caps)
    rows, cols, vals = [], [], []
    for n in itertools.product(*(range(s) for s in shape)):
        j = np.ravel_multi_index(n, shape)
        for a, b, r in net.reactions:
            prop = r * math.prod(math.perm(ni, ai) for ni, ai in zip(n, a))
            target = tuple(ni - ai + bi for ni, ai, bi in zip(n, a, b))
            if prop > 0 and all(0 <= t <= c for t, c in zip(target, caps)):
                rows += [np.ravel_multi_index(target, shape), j]
                cols += [j, j]
                vals += [prop, -prop]
    size = math.prod(shape)
    return coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


# ---------------------------------------------------------------------------
# output readers


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise Failed(f"non-finite number {token} in JSON")
    return value


def _non_strict(token: str):
    raise Failed(f"non-strict JSON constant {token}")


def read_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_non_strict, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise Failed(f"invalid JSON: {exc}") from None


def read_csv(text: str, header: str) -> np.ndarray:
    first, _, body = text.partition("\n")
    if first != header:
        raise Failed(f"CSV header {first!r}, expected {header!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if not np.isfinite(data).all():
        raise Failed("non-finite value in CSV")
    return data


def _integers(block: np.ndarray) -> np.ndarray:
    ints = np.rint(block).astype(np.int64)
    if (ints != block).any() or (ints < 0).any():
        raise Wrong("states are not nonnegative integers")
    return ints


# ---------------------------------------------------------------------------
# per-subcommand checks


def _check_basis(net, basis):
    s_mat = stoichiometry(net)
    w = np.array(basis, dtype=np.int64).reshape(-1, len(net.species))
    rank = np.linalg.matrix_rank(s_mat.astype(float)) if s_mat.size else 0
    if len(w) != len(net.species) - rank:
        raise Wrong(f"{len(w)} conserved vectors, expected {len(net.species) - rank}")
    if (w @ s_mat).any() or (len(w) and np.linalg.matrix_rank(w.astype(float)) != len(w)):
        raise Wrong("conserved vectors do not form a basis of the left null space")
    return rank


def check_ack(job, text):
    doc = read_json(text)
    c = job.expect["c"]
    balanced = is_balanced(job.net, c)
    if doc["complex_balanced"] != balanced:
        raise Wrong(f"complex_balanced={doc['complex_balanced']}, independent check says {balanced}")
    if balanced:
        rel = doc["interior_residual_l1"] / (2.0 * sum(fluxes(job.net, c)))
        if not rel <= ROUNDOFF:
            raise Wrong(f"balanced interior residual {rel:.3g} (relative) is not roundoff")


def check_noether(job, text):
    doc = read_json(text)
    net, c = job.net, job.expect["c"]
    _check_basis(net, doc["conserved_basis"])
    caps = doc["caps"]
    bound = sum(r * math.prod(cap ** ai for cap, ai in zip(caps, a)) for a, _, r in net.reactions)
    for w, value in zip(doc["conserved_basis"], doc["commutator_max_abs"]):
        if not value <= REL_TOL * bound * (1 + sum(abs(wi) * cap for wi, cap in zip(w, caps))):
            raise Wrong(f"[H, O_w] = {value:.3g} for conserved w={w}")
    if "projection" in doc and is_balanced(net, c):
        rel = doc["projection"]["interior_residual_l1"] / (2.0 * sum(fluxes(net, c)))
        if not rel <= ROUNDOFF:
            raise Wrong(f"projected coherent state residual {rel:.3g} (relative) is not roundoff")


def check_master(job, text):
    net, exp = job.net, job.expect
    k = len(net.species)
    data = read_csv(text, ",".join(net.species) + ",probability")
    states, p = _integers(data[:, :k]), data[:, k]
    if (states > np.array(exp["caps"])).any() or (p < 0).any():
        raise Wrong("state outside the box or negative probability")
    if "n0" in exp:
        expected = 1.0
        w = conservation_laws(net)
        if (states @ w.T != np.array(exp["n0"]) @ w.T).any():
            raise Wrong("probability left the starting state's conserved sector")
    else:
        expected = math.prod(poisson.cdf(cap, ci) for cap, ci in zip(exp["caps"], exp["c"]))
    if abs(p.sum() - expected) > MASS_TOL:
        raise Wrong(f"total mass {float(p.sum())!r}, expected {float(expected)!r}")
    if exp.get("oracle"):
        h_mat = generator(net, exp["caps"])
        p0 = np.zeros(h_mat.shape[0])
        shape = tuple(c + 1 for c in exp["caps"])
        p0[np.ravel_multi_index(exp["n0"], shape)] = 1.0
        ref = expm_multiply(h_mat * exp["t"], p0)
        got = np.zeros_like(ref)
        got[np.ravel_multi_index(tuple(states.T), shape)] = p
        if np.abs(got - ref).max() > ORACLE_TOL:
            raise Wrong(f"differs from expm_multiply by {np.abs(got - ref).max():.3g}")


def _reference_law(law, states):
    kind = law[0]
    if kind == "poisson":
        return np.exp(poisson.logpmf(states, np.array(law[1])).sum(axis=1))
    _, c, w, lam = law
    weight = lambda n: math.prod(ci ** ni / math.factorial(ni) for ci, ni in zip(c, n))
    in_sector = lambda n: sum(a * b for a, b in zip(w, n)) == lam
    total = sum(weight(n) for n in itertools.product(*(range(lam // wi + 1) for wi in w))
                if in_sector(n))
    return np.array([weight(n) / total if in_sector(n) else 0.0 for n in states])


def check_ssa_hist(job, text):
    net, exp = job.net, job.expect
    k = len(net.species)
    data = read_csv(text, ",".join(net.species) + ",count,frequency")
    states, counts = _integers(data[:, :k]), _integers(data[:, k])
    if counts.sum() != exp["samples"]:
        raise Wrong(f"counts sum to {counts.sum()}, expected {exp['samples']}")
    ref = _reference_law(exp["law"], states)
    if exp["law"][0] == "sector" and (ref == 0).any():
        raise Wrong("sampled a state outside the conserved sector")
    emp = counts / exp["samples"]
    tv = 0.5 * (np.abs(emp - ref).sum() + 1.0 - ref.sum())  # unsampled states carry 1 - sum(ref)
    # ~4x the expected TV of a sample of this size with mild autocorrelation
    limit = 2.0 * float(np.sqrt(ref / exp["samples"]).sum())
    if not tv <= limit:
        raise Wrong(f"TV distance {tv:.4f} to the stationary law exceeds {limit:.4f}")


def check_ssa_path(job, text):
    net, exp = job.net, job.expect
    data = read_csv(text, "t," + ",".join(net.species))
    times, states = data[:, 0], _integers(data[:, 1:])
    if times[0] != 0.0 or (np.diff(times) <= 0).any() or times[-1] > exp["t"]:
        raise Wrong("jump times do not increase from 0 within the horizon")
    if tuple(states[0]) != tuple(exp["n0"]):
        raise Wrong("path does not start at n0")
    w = conservation_laws(net)
    if (states @ w.T != states[0] @ w.T).any():
        raise Wrong("an integer conservation law changed along the path")
    deltas = {tuple(np.array(b) - np.array(a)) for a, b, _ in net.reactions}
    if any(tuple(d) not in deltas for d in np.unique(np.diff(states, axis=0), axis=0)):
        raise Wrong("a jump is not the net change of any transition")


def check_analyze(job, text):
    doc = read_json(text)
    net = job.net
    complexes = sorted({a for a, _, _ in net.reactions} | {b for _, b, _ in net.reactions})
    parent = {x: x for x in complexes}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b, _ in net.reactions:
        parent[root(a)] = root(b)
    linkage = len({root(x) for x in complexes})
    rank = _check_basis(net, doc["conserved_basis"])
    want = {"species": list(net.species), "num_transitions": len(net.reactions),
            "num_complexes": len(complexes), "stoich_rank": int(rank),
            "deficiency": len(complexes) - linkage - int(rank)}
    got = {key: doc[key] for key in want}
    if got != want or len(doc["linkage_classes"]) != linkage:
        raise Wrong(f"structure report {got} differs from {want}")


def check_equilibrium(job, text):
    doc = read_json(text)
    x = np.array(doc["equilibrium"], dtype=float)
    residual = float(np.abs(field(job.net, x)).max())
    if (x < 0).any() or not residual <= 1e-8 * (1.0 + np.abs(x).max()):
        raise Wrong(f"equilibrium residual {residual:.3g} is not small")


def check_rate(job, text):
    net, exp = job.net, job.expect
    data = read_csv(text, "t," + ",".join(net.species))
    times, x = data[:, 0], data[:, 1:]
    if times[0] != 0.0 or (np.diff(times) <= 0).any() or abs(times[-1] - exp["t"]) > 1e-9:
        raise Wrong("trajectory times do not run from 0 to t_end")
    if (x < 0).any() or np.abs(x[0] - exp["x0"]).max() > 1e-12:
        raise Wrong("trajectory leaves the orthant or does not start at x0")
    w = conservation_laws(net).astype(float)
    drift = np.abs(x @ w.T - x[0] @ w.T).max(initial=0.0)
    if drift > 1e-9 * (1.0 + np.abs(x[0] @ w.T).max(initial=0.0)):
        raise Wrong(f"conserved quantity drifted by {drift:.3g}")


CHECKS = {
    "ack": check_ack,
    "noether": check_noether,
    "master": check_master,
    "ssa_hist": check_ssa_hist,
    "ssa_path": check_ssa_path,
    "analyze": check_analyze,
    "equilibrium": check_equilibrium,
    "rate": check_rate,
}
