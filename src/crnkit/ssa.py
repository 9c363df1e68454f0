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

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add

import numpy as np

from .errors import BudgetExceeded, InvalidValue, PopulationExplosion
from .network import Network, validate_classical, validate_counts

__all__ = [
    "JumpTrajectory",
    "simulate",
    "Histogram",
    "stationary_histogram",
    "PoissonComparison",
    "compare_to_poisson",
]

DEFAULT_MAX_COUNT = 10**6
_MEMO_STATES = 2**16
_MAX_JUMPS = 2**21  # jumps per stored path; ``crn ssa`` then peaks near 200 MB
_CSV_BLOCK = 2**15  # rows per block of the path CSV
# samples, and jumps, per histogram: over 100x the ~6e5 jumps of 1e5 birth-death samples
_MAX_HIST_JUMPS = 2**26


def _start_state(net: Network, n0) -> tuple[int, ...]:
    """``n0`` as a state tuple; a negative, fractional or huge count raises ``E_VALUE``."""
    state = tuple(validate_counts(n0, net.num_species))
    if max(state, default=0) >= 2**63:  # paths store states as int64
        raise InvalidValue("start counts must be below 2**63, the int64 range of stored states")
    return state


class _Records(dict):
    """The jump chain: ``table[state]`` is the record (total propensity,
    cumulative propensities in transition order, successor slots, state).

    A slot holds the successor's record, so a jump follows it without
    hashing; ``link`` fills it, checking ``max_count``, on its first firing.
    Past ``_MEMO_STATES`` records every slot is unlinked, then the table
    cleared, so evicted records are not kept alive by their neighbours.
    """

    def __init__(self, net: Network, max_count: int):
        kernel = net.mass_action
        self.compiled = [
            (rate, tuple((i, s) for i, s in enumerate(need) if s > 0))
            for rate, need in zip(kernel.rates.tolist(), kernel.inputs.tolist())
        ]
        self.deltas = [tuple(delta) for delta in (kernel.outputs - kernel.inputs).tolist()]
        self.last = len(self.compiled) - 1
        self.species, self.max_count = net.species, max_count

    def __missing__(self, state):
        if len(self) >= _MEMO_STATES:
            for record in self.values():
                record[2][:] = repeat(None, len(record[2]))
            self.clear()
        values = []
        for rate, pairs in self.compiled:
            value = rate
            for i, need in pairs:
                count = state[i]
                if count < need:
                    value = 0.0
                    break
                for j in range(need):
                    value *= count - j
            values.append(value)
        cumulative = list(accumulate(values))
        total = cumulative[-1] if values else 0.0
        if not total < math.inf:  # a zero wait, and rand() * inf picks the last transition
            raise PopulationExplosion(f"the total propensity overflows at state {state}")
        self[state] = record = total, cumulative, [None] * len(values), state
        return record

    def link(self, record, chosen: int, t: float):
        successor = tuple(map(add, record[3], self.deltas[chosen]))
        for name, count in zip(self.species, successor):
            if count > self.max_count:
                raise PopulationExplosion(f"species {name} exceeded {self.max_count} at t={t:.6g}")
        record[2][chosen] = found = self[successor]
        return found


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

    def to_csv(self, species, file=None) -> str | None:
        """One row per state, ``repr`` of the time then ``str`` of each count,
        formatted ``_CSV_BLOCK`` rows at a time by :func:`crnkit._pathcsv.csv_rows`.

        Returns the text; given a text stream ``file``, writes the header and
        then each block there as soon as it is formatted, and returns None,
        so no more than one block of the text is held at a time.
        """
        from ._pathcsv import csv_rows  # here, so that ``import crnkit`` does not compile it

        times, states = self.times, self.states
        if states.shape[1]:  # rows stop at the shorter of the two, as a zip would
            times, states = times[: len(states)], states[: len(times)]
        header = "t," + ",".join(species) + "\n"
        blocks = (
            csv_rows(times[i : i + _CSV_BLOCK], states[i : i + _CSV_BLOCK])
            for i in range(0, len(times), _CSV_BLOCK)
        )
        if file is None:
            return "".join([header, *blocks])
        file.write(header)
        file.writelines(blocks)
        return None


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
    crossing ``max_count``, or a total propensity beyond the float range,
    aborts with ``E_EXPLODE`` (open networks can grow without bound); a
    ``t_end`` that is not finite and positive, or a negative, fractional or
    huge count in ``n0``, raises ``E_VALUE``.  A path that reaches
    ``_MAX_JUMPS`` jumps before ``t_end`` raises ``E_BUDGET``.
    """
    if not 0 < t_end < math.inf:
        raise InvalidValue(f"t_end must be finite and positive, got {t_end}")
    table = _Records(net, max_count)
    record = table[_start_state(net, n0)]
    log, rand, last = math.log, random.Random(seed).random, table.last
    t = 0.0
    times = [0.0]
    path = []
    for _ in repeat(None, _MAX_JUMPS):
        total, cumulative, slots, state = record
        path.append(state)
        if total <= 0.0:
            break
        t += -log(1.0 - rand()) / total  # random.expovariate(total), inlined
        if t > t_end:
            break
        times.append(t)
        chosen = bisect_right(cumulative, rand() * total, 0, last)
        record = slots[chosen] or table.link(record, chosen, t)
    else:
        raise BudgetExceeded(f"the path reached {_MAX_JUMPS} jumps before t={t_end:.6g}")
    k = net.num_species
    states = np.fromiter(chain.from_iterable(path), np.int64, len(path) * k).reshape(-1, k)
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
    fills the remaining snapshots.  Out-of-domain arguments, and an interval
    below the float spacing of the last sample time, raise ``E_VALUE``; more
    than ``_MAX_HIST_JUMPS`` samples, or jumps, raise ``E_BUDGET``.
    """
    if not (0 <= burn_in < math.inf and 0 < sample_interval < math.inf and sample_count >= 1):
        raise InvalidValue(
            "burn_in must be finite and >= 0, sample_interval finite and positive, "
            "sample_count positive"
        )
    if sample_count > _MAX_HIST_JUMPS:
        raise BudgetExceeded(f"{sample_count} samples exceed the budget of {_MAX_HIST_JUMPS}")
    if sample_interval < math.ulp(burn_in + sample_count * sample_interval):
        raise InvalidValue(f"sample_interval {sample_interval!r} is below the sample-time spacing")
    table = _Records(net, max_count)
    record = table[_start_state(net, n0)]
    log, rand, last = math.log, random.Random(seed).random, table.last
    counts: dict[tuple[int, ...], int] = {}
    t = 0.0
    next_sample = float(burn_in)
    taken = 0
    for _ in repeat(None, _MAX_HIST_JUMPS):
        total, cumulative, slots, state = record
        if total <= 0.0:
            counts[state] = counts.get(state, 0) + (sample_count - taken)
            break
        t += -log(1.0 - rand()) / total
        while next_sample < t and taken < sample_count:
            counts[state] = counts.get(state, 0) + 1
            taken += 1
            next_sample += sample_interval
        chosen = bisect_right(cumulative, rand() * total, 0, last)
        record = slots[chosen] or table.link(record, chosen, t)
        if taken >= sample_count:
            break
    else:
        raise BudgetExceeded(f"the histogram reached {_MAX_HIST_JUMPS} jumps, {taken} samples")
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
    from .fock import _log_poisson_weights
    k = len(hist.caps)
    c = validate_classical(c, k)
    reference = np.exp(_log_poisson_weights(c, hist.caps))
    if not reference.sum() > 0.0:
        raise InvalidValue(f"every product-Poisson weight of c underflows on the box {hist.caps}")
    reference /= reference.sum()
    states = np.array(list(hist.counts), dtype=np.int64).reshape(-1, k)
    counts = np.array(list(hist.counts.values()))
    empirical = np.zeros(reference.size)
    empirical[np.ravel_multi_index(states.T, [cap + 1 for cap in hist.caps])] = counts / hist.total
    tv = 0.5 * float(np.abs(empirical - reference).sum())
    means = (states * counts[:, None]).sum(axis=0) / hist.total
    return PoissonComparison(tv, means)
