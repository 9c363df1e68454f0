"""Shared helpers for the test suite: random generators and tiny oracles."""

import itertools
import random
import string
import warnings

import numpy as np

from crnkit import CountVector, Network, SelfLoopWarning, Transition

_NAME_START = string.ascii_letters + "_"
_NAME_REST = string.ascii_letters + string.digits + "_"


def random_identifier(rng: random.Random, taken: set[str]) -> str:
    while True:
        name = rng.choice(_NAME_START) + "".join(
            rng.choice(_NAME_REST) for _ in range(rng.randint(0, 5))
        )
        if name not in taken:
            taken.add(name)
            return name


def random_rate(rng: random.Random) -> float:
    # spread across magnitudes, incl. values without short decimal forms
    return rng.uniform(0.1, 9.9) * 10.0 ** rng.randint(-6, 6)


def random_network(
    rng: random.Random,
    max_species: int = 4,
    max_transitions: int = 5,
    max_coeff: int = 3,
    allow_empty: bool = True,
) -> Network:
    k = rng.randint(1, max_species)
    taken: set[str] = set()
    species = tuple(random_identifier(rng, taken) for _ in range(k))
    lo = 0 if allow_empty else 1
    transitions = []
    for _ in range(rng.randint(lo, max_transitions)):
        inp = CountVector(rng.randint(0, max_coeff) for _ in range(k))
        out = CountVector(rng.randint(0, max_coeff) for _ in range(k))
        transitions.append(Transition(inp, out, random_rate(rng)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SelfLoopWarning)
        return Network(species, tuple(transitions))


def balanced_reversible_network(rng: random.Random) -> tuple[Network, np.ndarray]:
    """Random union of reversible pairs with rates tuned so a random state
    balances every complex pairwise (backward rate = forward * c^in / c^out)."""
    k = rng.randint(1, 3)
    taken: set[str] = set()
    species = tuple(random_identifier(rng, taken) for _ in range(k))
    c = np.array([rng.uniform(0.5, 2.0) for _ in range(k)])
    transitions = []
    for _ in range(rng.randint(1, 3)):
        while True:
            inp = CountVector(rng.randint(0, 2) for _ in range(k))
            out = CountVector(rng.randint(0, 2) for _ in range(k))
            if inp != out:
                break
        forward = rng.uniform(0.2, 3.0)
        mono_in = float(np.prod(c ** np.array(inp)))
        mono_out = float(np.prod(c ** np.array(out)))
        backward = forward * mono_in / mono_out
        transitions.append(Transition(inp, out, forward))
        transitions.append(Transition(out, inp, backward))
    return Network(species, tuple(transitions)), c


def ordered_selection_count(counts, needs) -> int:
    """Brute-force oracle: ordered ways to pick each input multiset,
    enumerated species by species with itertools.permutations."""
    total = 1
    for n, s in zip(counts, needs):
        total *= sum(1 for _ in itertools.permutations(range(n), s))
    return total


def dense_ladders(box):
    """Dense annihilation/creation matrices built state by state from their
    definitions; independent of the package's operator assembly."""
    states = [tuple(int(v) for v in row) for row in box.states()]
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    lowers, raisers = [], []
    for i in range(box.k):
        a = np.zeros((size, size))
        c = np.zeros((size, size))
        for idx, n in enumerate(states):
            if n[i] > 0:
                m = list(n)
                m[i] -= 1
                a[index[tuple(m)], idx] = n[i]
            if n[i] < box.caps[i]:
                m = list(n)
                m[i] += 1
                c[index[tuple(m)], idx] = 1.0
        lowers.append(a)
        raisers.append(c)
    return lowers, raisers


def dense_hamiltonian(net, box):
    """Generator composed from the dense ladders: per transition, rate times
    the gain block (creation^output)(annihilation^input) minus its column
    sums on the diagonal, which is exactly the truncate-pair boundary rule."""
    lowers, raisers = dense_ladders(box)
    out = np.zeros((box.size, box.size))
    for tr in net.transitions:
        gain = np.eye(box.size)
        for ladders, counts in ((lowers, tr.input), (raisers, tr.output)):
            for ladder, count in zip(ladders, counts):
                gain = np.linalg.matrix_power(ladder, count) @ gain
        out += tr.rate * (gain - np.diag(gain.sum(axis=0)))
    return out
