"""Seeded job lists for the four benchmark workloads.

A job is one ``crn`` invocation: a generated network, the subcommand's
arguments and what the gate needs to judge the output.  Everything is
drawn from ``random.Random(seed)``; the seed moves rates, start states,
means and random topologies but never the sizes that set a job's cost,
so runs with different seeds measure the same amount of work.

Every workload runs every subcommand at least once, so every end-to-end
metric exists on every workload.  The subcommands outside a workload's
focus run as small "probe" jobs (a few ms each) that barely touch its total.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify", "evolve", "sample", "scan")
COMMANDS = ("ack", "noether", "master", "ssa_hist", "ssa_path", "analyze", "equilibrium", "rate")

# Sizes per scale.  "full" is the benchmark; "tiny" is the self-test's smoke run.
SIZES = {
    "full": {
        "ack_balanced_c": (5000.0, 100.0),      # ~1.16M states; MixedState guard defect
        "ack_unbalanced_c": (500.0, 1000.0),    # 959,640 states
        "noether_c2": 50.0,                     # c = (c2^2/2, c2): 1607 x 124 box
        "ack3_c": (30.0, 20.0, 12.0),           # ~300k states, 6 transitions
        "master_caps": (40, 40),
        "master_t": 2.0,
        "bd_caps": 60,
        "hist_samples": 100_000,
        "path_n0": (50, 0),
        "path_t": 700.0,
        # 5 small balanced networks below and 5 large ones above put the median
        # analyze job in the middle of the nine 14x30 ones, whose costs vary least.
        "scan_sizes": ((14, 30),) * 9 + ((18, 40), (20, 46), (22, 50), (22, 50), (22, 50)),
        "scan_balanced": (3, 3, 3, 3, 3),
        "probe_repeat": 5,
    },
    "tiny": {
        "ack_balanced_c": (50.0, 10.0),
        "ack_unbalanced_c": (5.0, 10.0),
        "noether_c2": 6.0,
        "ack3_c": (3.0, 2.0, 1.0),
        "master_caps": (8, 8),
        "master_t": 0.5,
        "bd_caps": 20,
        "hist_samples": 2000,
        "path_n0": (10, 0),
        "path_t": 20.0,
        "scan_sizes": ((4, 6), (6, 10), (8, 14)),
        "scan_balanced": (3,),
        "probe_repeat": 1,
    },
}


@dataclass(frozen=True)
class Net:
    """A network as the benchmark knows it, independent of crnkit's types."""

    species: tuple[str, ...]
    reactions: tuple[tuple[tuple[int, ...], tuple[int, ...], float], ...]

    def crn(self) -> str:
        def cx(v):
            terms = [(f"{a} " if a > 1 else "") + s for a, s in zip(v, self.species) if a]
            return " + ".join(terms) or "0"

        lines = ["species: " + " ".join(self.species)]
        lines += [f"{cx(a)} -> {cx(b)} @ {r!r}" for a, b, r in self.reactions]
        return "\n".join(lines) + "\n"


@dataclass
class Job:
    key: str              # unique within the workload; the job's samples are pooled by key
    cmd: str              # one of COMMANDS
    net: Net
    args: list[str]
    expect: dict = field(default_factory=dict)

    def argv(self, net_path: str, out_path: str) -> list[str]:
        sub = {"ssa_hist": "ssa", "ssa_path": "ssa"}.get(self.cmd, self.cmd)
        return [sub, net_path, *self.args, "--out", out_path]


def _csv(values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def diatomic(k1: float, k2: float) -> Net:
    """X1 -> 2 X2 @ k1, 2 X2 -> X1 @ k2; balanced means satisfy k1 c1 = k2 c2^2."""
    return Net(("X1", "X2"), (((1, 0), (0, 2), k1), ((0, 2), (1, 0), k2)))


def birth_death(kb: float, kd: float) -> Net:
    return Net(("A",), (((0,), (1,), kb), ((1,), (0,), kd)))


def _pair_rates(rng, a, b, c, lo=0.9, hi=1.1):
    """Forward rate from [lo, hi]; backward rate makes c balance the pair a <-> b."""
    forward = rng.uniform(lo, hi)
    mono = lambda v: math.prod(ci ** vi for ci, vi in zip(c, v))
    return forward, forward * mono(a) / mono(b)


def balanced_cycle(rng, k: int) -> tuple[Net, tuple[float, ...]]:
    """Deficiency-zero reversible network balanced at a seeded c near 1.

    A reversible cycle Z0 <-> Z1 <-> ... <-> Z0 plus one pair Zi + Zj <-> Zl.
    Rank k and one linkage class, so c is the unique positive equilibrium;
    rates and c stay within 10% of 1, which keeps relaxation times (and the
    cost of ``crn equilibrium``) nearly the same from seed to seed.
    """
    species = tuple(f"Z{i}" for i in range(k))
    c = tuple(rng.uniform(0.9, 1.1) for _ in species)
    unit = lambda *idx: tuple(sum(1 for i in idx if i == s) for s in range(k))
    pairs = [(unit(i), unit((i + 1) % k)) for i in range(k)]
    i, j, l = rng.sample(range(k), 3)
    pairs.append((unit(i, j), unit(l)))
    reactions = []
    for a, b in pairs:
        fwd, bwd = _pair_rates(rng, a, b, c)
        reactions += [(a, b, fwd), (b, a, bwd)]
    return Net(species, tuple(reactions)), c


def balanced_three(rng, c) -> Net:
    """3-species network of three reversible pairs, complex balanced at ``c``.

    The pairs X + Y <-> Z, 2 Z <-> 2 X and Y <-> X + Z are fixed; the seed
    picks which of P, Q, R plays X, Y and Z, and the rates.  Every seed thus
    gets the same box and the same generator work per state.
    """
    role = rng.sample(range(3), 3)

    def cx(x, y, z):
        v = [0, 0, 0]
        for r, n in zip(role, (x, y, z)):
            v[r] = n
        return tuple(v)

    reactions = []
    for a, b in ((cx(1, 1, 0), cx(0, 0, 1)), (cx(0, 0, 2), cx(2, 0, 0)), (cx(0, 1, 0), cx(1, 0, 1))):
        fwd, bwd = _pair_rates(rng, a, b, c, 0.5, 2.0)
        reactions += [(a, b, fwd), (b, a, bwd)]
    return Net(("P", "Q", "R"), tuple(reactions))


def random_network(rng, k: int, m: int) -> Net:
    """k species, m irreversible transitions between sparse random complexes."""
    species = tuple(f"S{i}" for i in range(k))

    def cx():
        v = [0] * k
        for i in rng.sample(range(k), rng.randint(1, 3)):
            v[i] = rng.randint(1, 2)
        return tuple(v)

    reactions = []
    for _ in range(m):
        a, b = cx(), cx()
        while b == a:
            b = cx()
        reactions.append((a, b, rng.uniform(0.5, 2.0)))
    return Net(species, tuple(reactions))


# ---------------------------------------------------------------------------
# job builders


def _ack(key, net, c):
    return Job(key, "ack", net, ["--c", _csv(c)], {"c": tuple(c)})


def _noether(key, net, c, s):
    return Job(key, "noether", net, ["--c", _csv(c), "--s", repr(s)], {"c": tuple(c)})


def _master_pure(key, net, caps, n0, t, oracle=False):
    return Job(key, "master", net,
               ["--n0", _csv(n0), "--caps", _csv(caps), "--t-end", repr(t)],
               {"caps": tuple(caps), "n0": tuple(n0), "t": t, "oracle": oracle})


def _master_coherent(key, net, caps, c, t):
    return Job(key, "master", net,
               ["--c", _csv(c), "--caps", _csv(caps), "--t-end", repr(t)],
               {"caps": tuple(caps), "c": tuple(c), "t": t})


def _hist(key, net, n0, samples, interval, seed, law):
    return Job(key, "ssa_hist", net,
               ["--n0", _csv(n0), "--histogram", "--samples", str(samples),
                "--interval", repr(interval), "--seed", str(seed)],
               {"samples": samples, "law": law})


def _path(key, net, n0, t, seed):
    return Job(key, "ssa_path", net, ["--n0", _csv(n0), "--t-end", repr(t), "--seed", str(seed)],
               {"n0": tuple(n0), "t": t})


def _scan_chain(key, rng, k):
    """One balanced network taken through analyze -> equilibrium -> rate."""
    net, c = balanced_cycle(rng, k)
    x0 = [ci * rng.choice((0.5, 1.5)) for ci in c]
    return [
        Job(f"{key}-analyze", "analyze", net, []),
        Job(f"{key}-equilibrium", "equilibrium", net, ["--x0", _csv(x0)]),
        Job(f"{key}-rate", "rate", net, ["--x0", _csv(x0), "--t-end", "5.0"],
            {"x0": tuple(x0), "t": 5.0}),
    ]


def _probe_chain(rng):
    """Z0 <-> Z1 @ 8, 8: linear, so its RK4 step and relaxation time do not depend on the seed."""
    net = Net(("Z0", "Z1"), (((1, 0), (0, 1), 8.0), ((0, 1), (1, 0), 8.0)))
    a = rng.uniform(0.4, 0.6)
    x0 = [2.0 - a, a]
    return [
        Job("probe-analyze", "analyze", net, []),
        Job("probe-equilibrium", "equilibrium", net, ["--x0", _csv(x0)]),
        Job("probe-rate", "rate", net, ["--x0", _csv(x0), "--t-end", "1.0"],
            {"x0": tuple(x0), "t": 1.0}),
    ]


def _probes(rng, sizes, focus) -> list[Job]:
    """Small jobs for every subcommand outside the workload's focus."""
    bd = birth_death(3.0, 1.0)
    dia = diatomic(2.0, 1.0)
    c2 = rng.uniform(1.5, 2.5)
    c_small = (c2 * c2 / 2.0, c2)
    made = {
        "ack": lambda: [_ack("probe-ack", dia, c_small)],
        "noether": lambda: [_noether("probe-noether", dia, c_small, 0.05)],
        "master": lambda: [_master_pure("probe-master", bd, (30,), (rng.randint(0, 6),), 1.0, True)],
        "ssa_hist": lambda: [_hist("probe-hist", bd, (0,), 5000, 1.0, rng.randrange(10**6),
                                   ("poisson", (3.0,)))],
        "ssa_path": lambda: [_path("probe-path", dia, (10, 0), 20.0, rng.randrange(10**6))],
    }
    jobs = [job for cmd, build in made.items() if cmd not in focus for job in build()]
    if "analyze" not in focus:
        jobs += _probe_chain(rng)
    return jobs * sizes["probe_repeat"]


def certify(rng, sizes):
    cb = sizes["ack_balanced_c"]
    k2 = rng.uniform(0.5, 2.0)
    balanced = diatomic(k2 * cb[1] ** 2 / cb[0], k2)
    unbalanced = diatomic(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    c2 = sizes["noether_c2"]
    k2n = rng.uniform(0.5, 2.0)
    c3 = sizes["ack3_c"]
    three = balanced_three(rng, c3)
    return [
        _ack("ack-dia-balanced", balanced, cb),
        _ack("ack-dia-unbalanced", unbalanced, sizes["ack_unbalanced_c"]),
        _ack("ack-three-balanced", three, c3),
        _noether("noether-dia", diatomic(2.0 * k2n, k2n), (c2 * c2 / 2.0, c2), 0.01),
    ]


def evolve(rng, sizes):
    # Rates are fixed: the CLI's default dt = 0.25 / max|H_nn| sets the step
    # count, so the seed only moves start states and means.
    caps, t = sizes["master_caps"], sizes["master_t"]
    dia = diatomic(2.0, 1.0)
    n0 = (rng.randint(caps[0] // 4, caps[0] // 2), rng.randint(0, caps[1] // 4))
    c = (rng.uniform(0.8, 1.2) * caps[0] / 5, rng.uniform(0.8, 1.2) * caps[1] / 7)
    return [
        _master_pure("master-dia-pure", dia, caps, n0, t),
        _master_coherent("master-dia-coherent", dia, caps, c, t),
        _master_pure("master-bd", birth_death(3.0, 1.0), (sizes["bd_caps"],),
                     (rng.randint(0, 10),), t, oracle=True),
    ]


def sample(rng, sizes):
    # Fixed rates: jump counts, hence SSA cost, depend on rates and horizon only.
    dia = diatomic(2.0, 1.0)
    n = sizes["hist_samples"]
    return [
        _hist("hist-bd", birth_death(3.0, 1.0), (rng.randint(0, 6),), n, 1.0,
              rng.randrange(10**6), ("poisson", (3.0,))),
        _hist("hist-dia", dia, (3, 0), n, 0.5, rng.randrange(10**6),
              ("sector", (0.5, 1.0), (2, 1), 6)),
        _path("path-dia", dia, sizes["path_n0"], sizes["path_t"], rng.randrange(10**6)),
    ]


def scan(rng, sizes):
    jobs = [Job(f"analyze-random-{i}", "analyze", random_network(rng, k, m), [])
            for i, (k, m) in enumerate(sizes["scan_sizes"])]
    for i, k in enumerate(sizes["scan_balanced"]):
        jobs += _scan_chain(f"balanced-{i}", rng, k)
    # Ill-posed inputs (ROADMAP item 5); the right outcome is a typed CrnError.
    jobs += [
        Job("illposed-autocatalysis", "equilibrium",
            Net(("A",), (((2,), (3,), 1.0),)), ["--x0", "1.0"], {"typed_error": True}),
        Job("illposed-ack-inf", "ack", diatomic(2.0, 1.0), ["--c", "inf,1.0"],
            {"typed_error": True}),
    ]
    return jobs


def build(workload: str, seed: int, scale: str = "full") -> list[Job]:
    """The workload's job list for one seed, probes included."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[scale]
    make, focus = {
        "certify": (certify, {"ack", "noether"}),
        "evolve": (evolve, {"master"}),
        "sample": (sample, {"ssa_hist", "ssa_path"}),
        "scan": (scan, {"analyze", "equilibrium", "rate"}),
    }[workload]
    return make(rng, sizes) + _probes(rng, sizes, focus)
