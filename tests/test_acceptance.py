"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import math
import random
import time
import warnings

import numpy as np
import sympy

from crnkit import (
    TruncationBox,
    ack_residual,
    apply_symmetry,
    coherent_state,
    commutator,
    complex_balance_report,
    conserved_quantities,
    find_equilibrium,
    format_network,
    hamiltonian,
    integrate_rate,
    linear_observable,
    master_residual,
    network_margin,
    parse_network,
    project_onto,
    rate_vector_field,
    simulate,
    stationary_histogram,
    structure_report,
)

from support import (
    balanced_reversible_network,
    dense_ladders,
    interior_mask,
    max_abs,
    random_network,
    sigma_box,
)


def check(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_ack_certificate(net_bd, net_diatomic):
    t0 = time.perf_counter()
    bd = ack_residual(net_bd, [3.0], TruncationBox((40,)))
    bd_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    dia = ack_residual(net_diatomic, [0.5, 1.0], TruncationBox((25, 25)))
    dia_time = time.perf_counter() - t0
    unbalanced = ack_residual(net_diatomic, [1.0, 1.0], TruncationBox((25, 25)))
    ok = (
        bd.interior_l1 <= 1e-8
        and dia.interior_l1 <= 1e-8
        and unbalanced.interior_l1 > 0.1
        and bd_time < 1.0
        and dia_time < 1.0
    )
    check(
        "C1 coherent-state residual certificate",
        ok,
        f"bd={bd.interior_l1:.2e} ({bd_time:.2f}s), dia={dia.interior_l1:.2e} "
        f"({dia_time:.2f}s), unbalanced={unbalanced.interior_l1:.3f}",
    )


def test_c02_residual_truncation_scaling(net_bd, net_diatomic):
    results = {}
    ok = True
    for name, net, c in (("bd", net_bd, [3.0]), ("dia", net_diatomic, [0.5, 1.0])):
        margin = network_margin(net)
        values = [
            ack_residual(net, c, sigma_box(c, margin, m)).interior_l1
            for m in (3.0, 5.0, 10.0)
        ]
        results[name] = values
        ok = ok and values[1] <= values[0] + 1e-14 and values[2] <= values[1] + 1e-14
        ok = ok and values[2] <= 1e-8
    check(
        "C2 residual non-increasing in box size",
        ok,
        ", ".join(f"{k}: {['%.1e' % v for v in vs]}" for k, vs in results.items()),
    )


def test_c03_structure_oracle(net_diatomic, net_catalyst):
    dia = structure_report(net_diatomic)
    cat = structure_report(net_catalyst)
    ok = (
        dia.deficiency == 0
        and dia.weakly_reversible
        and dia.conserved_basis == ((2, 1),)
        and cat.deficiency == 1
        and not cat.weakly_reversible
        and cat.conserved_basis == ((0, 0, 1, 1),)
    )
    # independent exact recomputation of rank and null-space dimension
    for net, rep in ((net_diatomic, dia), (net_catalyst, cat)):
        gamma = sympy.Matrix(net.stoichiometric_matrix().tolist())
        ok = ok and rep.stoich_rank == gamma.rank()
        null = gamma.T.nullspace()
        ok = ok and len(null) == len(rep.conserved_basis)
        for w in rep.conserved_basis:
            ok = ok and all(v == 0 for v in gamma.T * sympy.Matrix(list(w)))
    check(
        "C3 structure oracle",
        ok,
        f"dia: def={dia.deficiency} wr={dia.weakly_reversible} basis={dia.conserved_basis}; "
        f"cat: def={cat.deficiency} wr={cat.weakly_reversible} basis={cat.conserved_basis}",
    )


def test_c04_deficiency_zero_consistency(net_diatomic):
    rng = random.Random(404)
    worst = 0.0
    ok = True
    for _ in range(20):
        x0 = [rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)]
        c = find_equilibrium(net_diatomic, x0, tol=1e-10)
        report = complex_balance_report(net_diatomic, c, tol=1e-8)
        worst = max(worst, max(abs(r.residual) for r in report.rows))
        ok = ok and report.balanced
    check("C4 found equilibria are complex balanced", ok, f"worst residual {worst:.2e}")


def test_c05_balance_implies_rate_equilibrium():
    rng = random.Random(505)
    triggered = 0
    ok = True
    for i in range(100):
        if i % 2 == 0:
            net, c = balanced_reversible_network(rng)
        else:
            net = random_network(rng, max_species=3, max_transitions=4)
            c = np.array([rng.uniform(0.0, 2.0) for _ in range(net.num_species)])
        report = complex_balance_report(net, c, tol=1e-9)
        if max((abs(r.residual) for r in report.rows), default=0.0) <= 1e-12:
            triggered += 1
            ok = ok and np.abs(rate_vector_field(net, c)).max(initial=0.0) <= 1e-9
    ok = ok and triggered >= 30
    check(
        "C5 complex balance implies rate equilibrium",
        ok,
        f"{triggered}/100 states activated the implication",
    )


def test_c06_exact_noether(net_bd, net_diatomic, net_catalyst):
    worst = 0.0
    for net, caps in (
        (net_bd, (12,)),
        (net_diatomic, (12, 12)),
        (net_catalyst, (3, 3, 3, 3)),
    ):
        box = TruncationBox(caps)
        h = hamiltonian(net, box)
        for w in conserved_quantities(net):
            worst = max(worst, max_abs(commutator(h, linear_observable(w, box))))
    traj = simulate(net_diatomic, (50, 0), 700.0, seed=606)
    sector = traj.states @ np.array([2, 1])
    exact = bool((sector == 100).all())
    ok = worst <= 1e-14 and exact and traj.num_jumps >= 100_000
    check(
        "C6 exact Noether",
        ok,
        f"max |[H,O]| = {worst:.1e}; {traj.num_jumps} jumps conserve w.n exactly: {exact}",
    )


def test_c07_symmetry_action(net_diatomic):
    box = TruncationBox((25, 25))
    inside = interior_mask(box, network_margin(net_diatomic))
    worst = 0.0
    for s in (-1.0, 0.3, math.log(2.0)):
        psi, predicted = apply_symmetry([0.5, 1.0], (2, 1), s, box)
        reference, _ = coherent_state(predicted, box)
        rel = np.abs(psi.weights[inside] / reference.weights[inside] - 1.0)
        worst = max(worst, float(rel.max()))
    check("C7 symmetry action matches rescaled coherent state", worst <= 1e-10,
          f"max interior relative error {worst:.2e}")


def test_c08_projection_equilibrium(net_diatomic):
    box = TruncationBox((25, 25))
    psi, _ = coherent_state([0.5, 1.0], box)
    worst = 0.0
    for lam in (2, 4, 6):
        projected = project_onto(psi, (2, 1), lam)
        worst = max(worst, master_residual(net_diatomic, projected).interior_l1)
    check("C8 projected coherent states stay stationary", worst <= 1e-8,
          f"max interior residual {worst:.2e}")


def test_c09_ssa_vs_poisson(net_bd, net_diatomic):
    from crnkit import compare_to_poisson

    t0 = time.perf_counter()
    hist = stationary_histogram(net_bd, (0,), 50.0, 100_000, 1.0, seed=909)
    bd_tv = compare_to_poisson(hist, [3.0]).tv_distance
    bd_time = time.perf_counter() - t0

    sector_hist = stationary_histogram(net_diatomic, (3, 0), 50.0, 100_000, 0.5, seed=910)
    box = TruncationBox((10, 10))
    psi, _ = coherent_state([0.5, 1.0], box)
    projected = project_onto(psi, (2, 1), 6)
    states = box.states()
    sector = np.flatnonzero((states @ np.array([2, 1])) == 6)
    sector_tv = 0.5 * sum(
        abs(sector_hist.counts.get(tuple(states[i].tolist()), 0) / sector_hist.total
            - projected.weights[i])
        for i in sector
    )
    ok = bd_tv <= 0.02 and bd_time < 30.0 and sector_tv <= 0.03
    check(
        "C9 SSA stationary laws",
        ok,
        f"bd TV={bd_tv:.4f} in {bd_time:.1f}s; sector TV={sector_tv:.4f}",
    )


def test_c10_oracle_equivalence(net_diatomic):
    # dense brute-force composition alpha*(a2+ a2+ - a1+) a1 + beta*(a1+ - a2+ a2+) a2 a2,
    # with the pair-drop diagonal taken as the gain block's column sums
    box = TruncationBox((8, 8))
    (a1, a2), (c1, c2) = dense_ladders(box)
    alpha, beta = (tr.rate for tr in net_diatomic.transitions)
    gain_alpha = c2 @ c2 @ a1
    gain_beta = c1 @ a2 @ a2
    dense = alpha * (gain_alpha - np.diag(gain_alpha.sum(axis=0)))
    dense += beta * (gain_beta - np.diag(gain_beta.sum(axis=0)))
    sparse = hamiltonian(net_diatomic, box).matrix.toarray()
    diff = float(np.abs(sparse - dense).max())
    check("C10 sparse assembly equals dense composition", diff <= 1e-12,
          f"max entry difference {diff:.1e}")


def test_c11_integrator_order(net_bd):
    def max_err(h):
        traj = integrate_rate(net_bd, [0.0], 5.0, step=h)
        exact = 3.0 * (1.0 - np.exp(-traj.times))
        return np.abs(traj.states[:, 0] - exact).max()

    errors = [max_err(h) for h in (0.4, 0.2, 0.1, 0.05)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    check("C11 observed RK4 convergence order", min(orders) >= 3.7,
          f"orders {['%.2f' % o for o in orders]}")


def test_c12_parser_round_trip(net_bd, net_diatomic, net_catalyst):
    ok = True
    for net in (net_bd, net_diatomic, net_catalyst):
        ok = ok and parse_network(format_network(net)) == net
    rng = random.Random(1212)
    for _ in range(200):
        net = random_network(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ok = ok and parse_network(format_network(net)) == net
    check("C12 parse after format is the identity", ok, "3 fixtures + 200 random networks")
