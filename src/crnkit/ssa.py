"""Gillespie direct-method simulation of the master equation's jump process.

Propensities follow stochastic mass action: rate constant times the number
of ordered ways to pick the input multiset out of the present counts (a
falling factorial per species).  Trajectories are exact realizations of
the jump process; sampling for stationary histograms uses fixed-interval
time snapshots, since per-jump sampling is biased toward fast states.

The generator is Python's Mersenne Twister seeded explicitly, so runs are
reproducible given (network, initial state, horizon, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from scipy.stats import poisson

from .errors import DimensionMismatch, PopulationExplosion
from .network import CountVector, Network, validate_classical

__all__ = [
    "propensity",
    "JumpTrajectory",
    "simulate",
    "Histogram",
    "stationary_histogram",
    "PoissonComparison",
    "compare_to_poisson",
]

DEFAULT_MAX_COUNT = 10**6


def propensity(net: Network, n, tau_index: int) -> float:
    """Stochastic firing rate of one transition in pure state ``n``.

    rate * prod_i n_i (n_i - 1) ... (n_i - s_i + 1); zero whenever some
    species count falls short of the input requirement.
    """
    n = CountVector(n)
    if len(n) != net.num_species:
        raise DimensionMismatch(f"state has length {len(n)}, expected {net.num_species}")
    kernel = net.mass_action
    value = kernel.rates[tau_index] * kernel.falling(np.array([n], dtype=float), tau_index)[0]
    return float(max(value, 0.0))


def _prepare(net: Network):
    """Per-transition (rate, [(species, need)...], delta) for the inner loop."""
    kernel = net.mass_action
    deltas = (kernel.outputs - kernel.inputs).tolist()
    return [
        (rate, tuple((i, s) for i, s in enumerate(need) if s > 0), tuple(delta))
        for rate, need, delta in zip(kernel.rates.tolist(), kernel.inputs.tolist(), deltas)
    ]


def _propensities(compiled, state):
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


def _pick(values, total, u):
    acc = 0.0
    target = u * total
    for j, v in enumerate(values):
        acc += v
        if target < acc:
            return j
    return len(values) - 1


@dataclass(frozen=True)
class JumpTrajectory:
    """Piecewise-constant jump path: times (starting at 0) and integer states."""

    times: np.ndarray
    states: np.ndarray
    seed: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=np.int64)
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def num_jumps(self) -> int:
        return len(self.times) - 1

    def time_average(self) -> np.ndarray:
        """Time-weighted mean count per species over the trajectory span."""
        if len(self.times) < 2:
            return self.states[0].astype(float)
        holds = np.diff(self.times)
        return (holds @ self.states[:-1]) / holds.sum()

    def to_csv(self, species) -> str:
        lines = ["t," + ",".join(species)]
        for t, row in zip(self.times, self.states):
            lines.append(",".join([repr(float(t))] + [str(int(v)) for v in row]))
        return "\n".join(lines) + "\n"


def simulate(
    net: Network,
    n0,
    t_end: float,
    seed: int = 0,
    max_count: int = DEFAULT_MAX_COUNT,
) -> JumpTrajectory:
    """Direct-method SSA from ``n0`` until ``t_end`` or absorption.

    Waiting times are exponential with the total propensity as rate; the
    jump is chosen proportionally to individual propensities.  Any species
    crossing ``max_count`` aborts with ``E_EXPLODE`` (open networks can
    grow without bound).
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    state = list(CountVector(n0))
    if len(state) != net.num_species:
        raise DimensionMismatch(f"state has length {len(state)}, expected {net.num_species}")
    compiled = _prepare(net)
    rng = random.Random(seed)
    t = 0.0
    times = [0.0]
    flat = list(state)
    while True:
        values, total = _propensities(compiled, state)
        if total <= 0.0:
            break
        wait = rng.expovariate(total)
        if t + wait > t_end:
            break
        t += wait
        chosen = _pick(values, total, rng.random())
        delta = compiled[chosen][2]
        for i, d in enumerate(delta):
            state[i] += d
            if state[i] > max_count:
                raise PopulationExplosion(
                    f"species {net.species[i]} exceeded {max_count} at t={t:.6g}"
                )
        times.append(t)
        flat.extend(state)
    states = np.array(flat, dtype=np.int64).reshape(-1, net.num_species)
    return JumpTrajectory(np.array(times), states, seed)


@dataclass(frozen=True)
class Histogram:
    """State counts inside a bounding box; counts sum to ``total``."""

    counts: dict[tuple[int, ...], int]
    total: int
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
        if sum(self.counts.values()) != self.total:
            raise ValueError("histogram counts must sum to the sample total")
        for state in self.counts:
            if len(state) != len(self.caps) or any(
                v < 0 or v > cap for v, cap in zip(state, self.caps)
            ):
                raise ValueError(f"state {state} outside the histogram box {self.caps}")

    def frequency(self, n) -> float:
        return self.counts.get(tuple(int(v) for v in n), 0) / self.total

    def to_csv(self, species) -> str:
        lines = [",".join(species) + ",count,frequency"]
        for state in sorted(self.counts):
            coords = ",".join(str(v) for v in state)
            lines.append(f"{coords},{self.counts[state]},{self.counts[state] / self.total!r}")
        return "\n".join(lines) + "\n"


def stationary_histogram(
    net: Network,
    n0,
    burn_in: float,
    sample_count: int,
    sample_interval: float,
    seed: int = 0,
    max_count: int = DEFAULT_MAX_COUNT,
) -> Histogram:
    """Fixed-interval snapshots of a long SSA run after a burn-in period.

    Records the state at burn_in, burn_in + interval, ... for
    ``sample_count`` samples.  If the chain absorbs, the absorbed state
    fills the remaining snapshots.
    """
    if burn_in < 0 or not sample_interval > 0 or sample_count < 1:
        raise ValueError("burn_in must be >= 0, sample_interval and sample_count positive")
    state = list(CountVector(n0))
    if len(state) != net.num_species:
        raise DimensionMismatch(f"state has length {len(state)}, expected {net.num_species}")
    compiled = _prepare(net)
    rng = random.Random(seed)
    counts: dict[tuple[int, ...], int] = {}
    t = 0.0
    next_sample = float(burn_in)
    taken = 0
    while taken < sample_count:
        values, total = _propensities(compiled, state)
        if total <= 0.0:
            key = tuple(state)
            counts[key] = counts.get(key, 0) + (sample_count - taken)
            taken = sample_count
            break
        t_jump = t + rng.expovariate(total)
        while taken < sample_count and next_sample < t_jump:
            key = tuple(state)
            counts[key] = counts.get(key, 0) + 1
            taken += 1
            next_sample += sample_interval
        chosen = _pick(values, total, rng.random())
        delta = compiled[chosen][2]
        for i, d in enumerate(delta):
            state[i] += d
            if state[i] > max_count:
                raise PopulationExplosion(
                    f"species {net.species[i]} exceeded {max_count} at t={t_jump:.6g}"
                )
        t = t_jump
    caps = tuple(max(s[i] for s in counts) for i in range(net.num_species))
    return Histogram(counts, sample_count, caps)


@dataclass(frozen=True)
class PoissonComparison:
    tv_distance: float
    per_species_means: np.ndarray


def compare_to_poisson(hist: Histogram, c) -> PoissonComparison:
    """Total-variation distance of the histogram to a product-Poisson law.

    Both distributions are restricted to the histogram's bounding box and
    renormalized there before the comparison.  Also reports the empirical
    per-species means.
    """
    k = len(hist.caps)
    c = validate_classical(c, k)
    shape = tuple(cap + 1 for cap in hist.caps)
    states = np.indices(shape).reshape(k, -1).T
    log_pois = poisson.logpmf(states, c).sum(axis=1)
    reference = np.exp(log_pois)
    reference /= reference.sum()
    empirical = np.zeros(states.shape[0])
    for state, count in hist.counts.items():
        empirical[int(np.ravel_multi_index(state, shape))] = count / hist.total
    tv = 0.5 * float(np.abs(empirical - reference).sum())
    means = np.zeros(k)
    for state, count in hist.counts.items():
        means += np.asarray(state, dtype=float) * count
    means /= hist.total
    return PoissonComparison(tv, means)
