"""Gillespie direct-method simulation of the master equation's jump process.

Propensities follow stochastic mass action: rate constant times the number
of ordered ways to pick the input multiset out of the present counts (a
falling factorial per species).  Trajectories are exact realizations of
the jump process; sampling for stationary histograms uses fixed-interval
time snapshots, since per-jump sampling is biased toward fast states.

The uniforms are those of Python's Mersenne Twister seeded explicitly, drawn
by ``random()`` and then in numpy blocks (``_draw_blocks``), so runs are
reproducible given (network, initial state, horizon, seed).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat, starmap
from numbers import Integral

import numpy as np

from .dynamics import validate_classical
from .errors import BudgetExceeded, InvalidValue, PopulationExplosion
from .network import Network, _quoted, validate_counts

__all__ = [
    "JumpTrajectory",
    "simulate",
    "Histogram",
    "stationary_histogram",
    "PoissonComparison",
    "compare_to_poisson",
]

_MEMO_STATES = 2**16
_MAX_COUNT = 10**6  # per species; a count above it raises ``E_EXPLODE``
_MAX_JUMPS = 2**21  # jumps per stored path; ``crn ssa`` then peaks near 90 MB
_CSV_BLOCK = 2**15  # rows per block of the path CSV
# jumps drawn by random() itself: numpy's generator costs ≈0.15 ms to build and
# set, and random() ≈40-70 ns a double more than its blocks, so it pays from ≈2k jumps
_FIRST_BLOCK = 2**11
_DRAW_BLOCK = 2**12  # jumps per numpy block of uniforms after the first
# samples, and jumps, per histogram: over 100x the ~6e5 jumps of 1e5 birth-death samples
_MAX_HIST_JUMPS = 2**26


def _draw_blocks(seed, jumps: int):
    """The uniforms ``random.Random(seed).random()`` returns, two per jump
    for ``jumps`` jumps, as blocks of ``(log(1.0 - u), v)`` pairs; each
    block must be used up before the next is asked for.

    The first block, of up to ``_FIRST_BLOCK`` jumps, calls ``random()``
    itself as it is read, so a short path draws only what it uses and
    loads no numpy.random.  Later blocks of ``_DRAW_BLOCK`` jumps come from
    numpy's legacy ``RandomState`` (whose stream NEP 19 freezes), its
    MT19937 set to the generator's state after the first, which returns
    the same doubles a block at a time.  The log stays ``math.log``, as
    numpy's differs from it in the last bit on some lanes.
    """
    generator = random.Random(seed)
    first = min(_FIRST_BLOCK, jumps)
    draws = starmap(generator.random, repeat((), 2 * first))
    yield zip(map(math.log, map((1.0).__sub__, draws)), draws)  # zip reads u, then v
    jumps -= first
    if jumps <= 0:
        return
    from numpy.random import MT19937, RandomState

    _, key, _ = generator.getstate()
    rng = RandomState(MT19937(0))  # a fixed seed draws no OS entropy; set_state overwrites it
    rng.set_state(("MT19937", key[:-1], key[-1]))
    while jumps > 0:
        size = min(_DRAW_BLOCK, jumps)
        u = rng.random_sample(2 * size)
        yield zip(map(math.log, (1.0 - u[0::2]).tolist()), u[1::2].tolist())
        jumps -= size


class _Records(dict):
    """The jump chain: ``table[state]`` is the record (total propensity,
    ``heads``, successor slots, state).  ``heads`` holds the cumulative
    propensities in transition order without the last, which is the total,
    so ``bisect_right(heads, v * total)`` picks the transition a linear
    scan would.

    A slot holds the successor's record, so a jump follows it without
    hashing; ``link`` fills it on its first firing, adding the transition's
    sparse moves of :attr:`MassAction.table` and checking ``_MAX_COUNT``.
    Past ``_MEMO_STATES`` records every slot is unlinked, then the table
    cleared, so evicted records are not kept alive by their neighbours.
    """

    def __init__(self, net: Network):
        table = net.mass_action.table
        self.compiled = [(rate, factors) for rate, factors, _ in table]
        self.moves = [moves for _, _, moves in table]
        self.species = net.species

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
        heads = list(accumulate(values))
        total = heads.pop() if values else 0.0
        if not total < math.inf:  # a zero wait, and v * inf picks the last transition
            raise PopulationExplosion(f"the total propensity overflows at state {state}")
        self[state] = record = total, heads, [None] * len(values), state
        return record

    def link(self, record, chosen: int, t: float):
        successor = [*record[3]]
        for i, change in self.moves[chosen]:
            successor[i] += change
        successor = tuple(successor)
        for name, count in zip(self.species, successor):
            if count > _MAX_COUNT:
                raise PopulationExplosion(f"species {name} exceeded {_MAX_COUNT} at t={t:.6g}")
        record[2][chosen] = found = self[successor]
        return found


@dataclass(frozen=True)
class JumpTrajectory:
    """Piecewise-constant jump path: times (starting at 0) and one row of
    counts in 0..2**63 - 1 per time; any other states raise ``E_VALUE``."""

    times: np.ndarray
    states: np.ndarray
    seed: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        try:
            with np.errstate(invalid="ignore"):  # NaN cast from a float array; refused below
                states = np.asarray(self.states, dtype=np.int64)
            # an int64 array is kept as it is; other states must convert exactly,
            # so 1.5 is not floored to 1 nor a uint64 2**63 wrapped below 0
            whole = states is self.states or np.array_equal(states, self.states)
        except (OverflowError, ValueError):  # 2**63 and up, NaN or inf, in a list
            whole = False
        if not whole:
            raise InvalidValue("path states must be whole counts below 2**63, the int64 range")
        if len(states) != len(times):
            raise InvalidValue(f"{len(states)} state rows for {len(times)} times")
        if states.min(initial=0) < 0:
            raise InvalidValue("path states must be nonnegative counts")
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


def simulate(net: Network, n0, t_end: float, seed: int = 0) -> JumpTrajectory:
    """Direct-method SSA from ``n0`` until ``t_end`` or absorption.

    Waiting times are exponential with the total propensity as rate; the
    jump is chosen proportionally to individual propensities.  Any species
    crossing ``_MAX_COUNT``, or a total propensity beyond the float range,
    aborts with ``E_EXPLODE`` (open networks can grow without bound); a
    ``t_end`` that is not finite and positive, or a negative, fractional or
    huge count in ``n0``, raises ``E_VALUE``.  A path that reaches
    ``_MAX_JUMPS`` jumps before ``t_end`` raises ``E_BUDGET``.
    """
    if not 0 < t_end < math.inf:
        raise InvalidValue(f"t_end must be finite and positive, got {t_end}")
    table = _Records(net)
    record = table[tuple(validate_counts(n0, net.num_species))]
    k = net.num_species
    t = 0.0
    times, states = np.zeros(1), np.empty((0, k), np.int64)
    stored = 0  # states in ``states``; ``times`` holds their arrival times
    for block in _draw_blocks(seed, _MAX_JUMPS):
        arrivals, path = [], []
        for lg, v in block:
            total, heads, slots, state = record
            path.append(state)
            if total <= 0.0:
                break
            t -= lg / total  # t += random.expovariate(total), inlined
            if t > t_end:
                break
            arrivals.append(t)
            chosen = bisect_right(heads, v * total)
            record = slots[chosen] or table.link(record, chosen, t)
        end = stored + len(path)
        if end >= len(times):
            # realloc grows a large buffer without copying it, so the path
            # peaks near its own 8 + 8k bytes a jump, plus the quarter added last
            size = max(end + 1, len(times) + len(times) // 4)
            times.resize(size, refcheck=False)  # no view of either buffer exists
            states.resize((size, k), refcheck=False)
        times[stored + 1 : stored + 1 + len(arrivals)] = arrivals
        states[stored:end] = np.fromiter(chain.from_iterable(path), np.int64,
                                         len(path) * k).reshape(len(path), k)
        stored = end
        if len(arrivals) < len(path):  # the loop broke: absorbed, or past t_end
            break
    else:
        raise BudgetExceeded(f"the path reached {_MAX_JUMPS} jumps before t={t_end:.6g}")
    times.resize(stored, refcheck=False)
    states.resize((stored, k), refcheck=False)
    return JumpTrajectory(times, states, seed)


@dataclass(frozen=True)
class Histogram:
    """State counts inside a bounding box: sample tallies, positive ints summing to ``total``."""

    counts: dict[tuple[int, ...], int]
    total: int
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
        if not (all(isinstance(v, Integral) and v >= 1 for v in self.counts.values())
                and sum(self.counts.values()) == self.total >= 1):
            raise InvalidValue("histogram counts must be positive integers summing to the total >= 1")
        for state in self.counts:
            if len(state) != len(self.caps) or any(
                v < 0 or v > cap for v, cap in zip(state, self.caps)
            ):
                raise InvalidValue(f"state {state} outside the histogram box {self.caps}")

    def to_csv(self, species) -> str:
        lines = [",".join(species) + ",count,frequency"]
        for state in sorted(self.counts):
            coords = ",".join(str(v) for v in state)
            lines.append(f"{coords},{self.counts[state]},{self.counts[state] / self.total!r}")
        return "\n".join(lines) + "\n"


def stationary_histogram(
    net: Network, n0, burn_in: float, sample_count: int, sample_interval: float, seed: int = 0
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
        raise BudgetExceeded(f"{_quoted(sample_count)} samples exceed the budget of {_MAX_HIST_JUMPS}")
    if sample_interval < math.ulp(burn_in + sample_count * sample_interval):
        raise InvalidValue(f"sample_interval {sample_interval!r} is below the sample-time spacing")
    table = _Records(net)
    record = table[tuple(validate_counts(n0, net.num_species))]
    counts: dict[tuple[int, ...], int] = {}
    t = 0.0
    next_sample = float(burn_in)
    taken = 0
    for lg, v in chain.from_iterable(_draw_blocks(seed, _MAX_HIST_JUMPS)):
        total, heads, slots, state = record
        if total <= 0.0:
            counts[state] = counts.get(state, 0) + (sample_count - taken)
            break
        t -= lg / total
        chosen = bisect_right(heads, v * total)
        record = slots[chosen] or table.link(record, chosen, t)
        if next_sample < t:  # snapshots of ``state``, which the chain left at t
            while next_sample < t and taken < sample_count:
                counts[state] = counts.get(state, 0) + 1
                taken += 1
                next_sample += sample_interval
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
    per-species means.  A histogram of no species raises ``E_VALUE``, and
    one whose box holds more than ``fock._MAX_STATES`` states ``E_BUDGET``.
    """
    from .fock import _check_box_size, _coherent_weights
    k = len(hist.caps)
    c = validate_classical(c, k)
    if not k:
        raise InvalidValue("a Poisson comparison needs at least one species")
    _check_box_size(hist.caps)
    reference = _coherent_weights(c, hist.caps)
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
