import random
import time

import numpy as np
import pytest

from crnkit import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidValue,
    NegativeConcentration,
    NegativeState,
    Network,
    NoConvergence,
    PopulationExplosion,
    complex_balance_report,
    conserved_quantities,
    find_equilibrium,
    integrate_rate,
    parse_network,
    rate_vector_field,
)
from crnkit import dynamics

from support import balanced_reversible_network, bd_rk4_grid_error, random_network


def bd_closed_form(times, kappa=3.0, gamma=1.0):
    return (kappa / gamma) * (1.0 - np.exp(-gamma * np.asarray(times)))


class TestRateVectorField:
    def test_diatomic_equilibrium_state(self, net_diatomic):
        f = rate_vector_field(net_diatomic, [0.5, 1.0])
        assert np.abs(f).max() <= 1e-15

    def test_diatomic_pure_molecule(self, net_diatomic):
        # dx1/dt = -alpha*x1 + beta*x2^2, dx2/dt doubles the opposite flux
        f = rate_vector_field(net_diatomic, [1.0, 0.0])
        assert f.tolist() == [-2.0, 4.0]

    def test_source_uses_empty_product(self, net_bd):
        f = rate_vector_field(net_bd, [0.0])
        assert f.tolist() == [3.0]

    def test_dimension_check(self, net_bd):
        with pytest.raises(DimensionMismatch):
            rate_vector_field(net_bd, [1.0, 2.0])

    def test_kernel_jacobian_matches_central_differences(self, net_catalyst):
        # zero coordinates hit x^0 and x^(1-1); the catalyst has the empty complex
        rng = random.Random(17)
        for net in [net_catalyst] + [random_network(rng) for _ in range(30)]:
            kernel = net.mass_action
            for _ in range(3):
                x = np.array([rng.choice((0.0, rng.uniform(0.1, 3.0))) for _ in net.species])
                jac = kernel.jacobian(x)
                central = np.empty_like(jac)
                for i in range(x.size):
                    step = np.zeros(x.size)
                    step[i] = 1e-5 * max(1.0, x[i])
                    diff = kernel.field(x + step) - kernel.field(x - step)
                    central[:, i] = diff / (2 * step[i])
                # size of the field's terms, for entries whose exact value is 0
                scale = (np.abs(kernel.change).T @ kernel.flux(x + 1.0)).max(initial=0.0)
                np.testing.assert_allclose(jac, central, rtol=1e-6, atol=1e-6 * scale)

    def test_zero_at_balanced_states(self):
        rng = random.Random(71)
        for _ in range(20):
            net, c = balanced_reversible_network(rng)
            if complex_balance_report(net, c, 1e-12).balanced:
                assert np.abs(rate_vector_field(net, c)).max() <= 1e-9


class TestIntegrateRate:
    def test_bd_relaxation_matches_closed_form(self, net_bd):
        traj = integrate_rate(net_bd, [0.0], 20.0)
        exact = bd_closed_form(traj.times)
        assert np.abs(traj.states[:, 0] - exact).max() <= 1e-6
        assert abs(traj.states[-1, 0] - 3.0) <= 1e-6

    def test_equilibrium_is_fixed_point(self, net_diatomic):
        traj = integrate_rate(net_diatomic, [0.5, 1.0], 5.0)
        assert np.abs(traj.states - np.array([0.5, 1.0])).max() <= 1e-9

    def test_linear_conservation_drift(self, net_diatomic):
        traj = integrate_rate(net_diatomic, [1.0, 0.0], 10.0)
        (w,) = conserved_quantities(net_diatomic)
        drift = np.abs(traj.states @ np.array(w, dtype=float) - 2.0)
        assert drift.max() <= 1e-9

    def test_fourth_order_step_halving(self, net_bd):
        # the RK4 step kernel on fixed grids; the loop around it adapts h
        ratio = bd_rk4_grid_error(net_bd, 0.2) / bd_rk4_grid_error(net_bd, 0.1)
        assert 12.0 <= ratio <= 20.0

    def test_default_route_error_is_below_1e_7(self):
        # a fixed step of min(0.01, 0.1/L) misses this bound: its error is 1.9e-7
        net = parse_network("Z0 <-> Z1 @ 8, 8")
        traj = integrate_rate(net, [1.5, 0.5], 1.0)
        exact = 1.0 + 0.5 * np.exp(-16.0 * traj.times)
        assert np.abs(traj.states[:, 0] - exact).max() <= 1e-7
        assert np.abs(traj.states.sum(axis=1) - 2.0).max() <= 1e-14

    def test_step_budget(self, net_bd, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_RATE_STEPS", 50)
        with pytest.raises(BudgetExceeded):
            integrate_rate(net_bd, [0.0], 1e12)

    def test_horizon_shorter_than_the_grid_tolerance_takes_one_step(self, net_bd):
        # the first step, min(0.01, 0.1/L), is cut to the whole 1e-13 horizon
        traj = integrate_rate(net_bd, [1.0], 1e-13)
        assert traj.times.tolist() == [0.0, 1e-13]
        assert abs(traj.states[1, 0] - (1.0 + 2e-13)) <= 1e-15

    def test_rejects_bad_arguments(self, net_bd):
        with pytest.raises(ValueError):
            integrate_rate(net_bd, [0.0], 0.0)
        with pytest.raises(NegativeConcentration):
            integrate_rate(net_bd, [-0.5], 1.0)

    def test_oversized_step_raises_e_neg(self):
        # a tolerance this loose accepts steps that overshoot zero
        net = parse_network("2 A -> 0 @ 1")
        with pytest.raises(NegativeState):
            integrate_rate(net, [10.0], 1.0, rtol=1e3)

    def test_adaptive_blow_up_raises_e_explode(self):
        # dx/dt = x^2 blows up at t = 1/x0; the step shrinks until t stops moving
        net = parse_network("2 A -> 3 A @ 1")
        with pytest.raises(PopulationExplosion):
            integrate_rate(net, [1.0], 2.0)

    def test_trajectory_shape_and_csv(self, net_diatomic):
        traj = integrate_rate(net_diatomic, [1.0, 0.0], 1.0)
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
        assert (np.diff(traj.times) > 0).all()
        csv = traj.to_csv(net_diatomic.species)
        lines = csv.strip().split("\n")
        assert lines[0] == "t,X1,X2"
        assert len(lines) == len(traj.times) + 1
        assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.0]


class TestTrajectory:
    def test_rejects_ragged_arrays(self):
        with pytest.raises(InvalidValue, match="matching leading length"):
            dynamics.Trajectory([0.0, 1.0], [[1.0]])

    def test_rejects_times_that_do_not_increase(self):
        with pytest.raises(InvalidValue, match="strictly increasing"):
            dynamics.Trajectory([0.0, 1.0, 1.0], [[1.0], [2.0], [3.0]])


class TestFindEquilibrium:
    def test_diatomic_satisfies_both_conditions(self, net_diatomic):
        c = find_equilibrium(net_diatomic, [1.0, 0.0], tol=1e-9)
        assert abs(2 * c[0] + c[1] - 2.0) <= 1e-8
        assert abs(2 * c[0] - c[1] ** 2) <= 1e-8

    def test_bd_unique_equilibrium(self, net_bd):
        for x0 in ([0.0], [10.0], [2.5]):
            c = find_equilibrium(net_bd, x0, tol=1e-9)
            assert abs(c[0] - 3.0) <= 1e-9

    def test_transition_free_network_returns_x0(self):
        net = Network(("A",))
        assert find_equilibrium(net, [5.0]).tolist() == [5.0]

    def test_no_convergence_on_pure_growth(self):
        net = parse_network("0 -> A @ 1")
        with pytest.raises(NoConvergence):
            find_equilibrium(net, [0.0], tol=1e-9)

    def test_polished_residual_is_tiny(self, net_diatomic):
        c = find_equilibrium(net_diatomic, [0.2, 1.4], tol=1e-6)
        assert np.abs(rate_vector_field(net_diatomic, c)).max() <= 1e-12

    def test_balanced_fixtures_end_on_the_balanced_point_of_their_class(self):
        rng = random.Random(83)
        for _ in range(40):
            net, c = balanced_reversible_network(rng)
            x0 = c * np.array([rng.uniform(0.3, 3.0) for _ in c])
            x = find_equilibrium(net, x0)
            assert (x >= 0).all()
            assert complex_balance_report(net, x, 1e-8).balanced
            for w in conserved_quantities(net):
                w = np.array(w, dtype=float)
                assert abs(w @ x - w @ x0) <= 1e-12 * (np.abs(w) @ x0)
            assert np.abs(rate_vector_field(net, x)).max() <= 1e-12 * (1.0 + np.abs(x).max())

    @pytest.mark.parametrize(
        "text, x0, expected, atol",
        [
            # the field vanishes like x^2 at the equilibrium 0: Newton only halves x
            ("2 C -> 0 @ 1", [1.0], [0.0], 1e-7),
            # relaxation rates about 2000 and 1.5
            ("A <-> B @ 1000, 1000\nB <-> C @ 1, 1", [1.0, 1.0, 0.0], [2 / 3] * 3, 1e-12),
            # logistic growth from 1e-3: |f| rises a thousandfold before it falls
            ("A -> 2 A @ 1\n2 A -> A @ 1", [1e-3], [1.0], 1e-12),
            # the same, slow: |f| = 1e-9 at x0 already passes tol, yet x0 grows
            ("A -> 2 A @ 1e-6\n2 A -> A @ 1e-12", [1e-3], [1e6], 1e-6),
        ],
    )
    def test_slow_stiff_and_growing_flows_converge_fast(self, text, x0, expected, atol):
        net = parse_network(text)
        start = time.process_time()
        x = find_equilibrium(net, x0, tol=1e-9)
        assert time.process_time() - start < 0.1
        assert np.abs(x - expected).max() <= atol
        assert np.abs(rate_vector_field(net, x)).max() <= 1e-9 * (1.0 + np.abs(x).max())

    def test_clamped_step_that_stalls_ends_in_e_noconv(self, monkeypatch):
        # a step lands within the roundoff clamp below 0 and is set to 0 there;
        # the source 0 -> S3 keeps |f| near 977, so the search ends in E_NOCONV
        net = parse_network(
            "species: S0 S1 S2 S3\n"
            "2 S1 + S3 <-> 3 S0 @ 47.20481881985352, 7.769042516106988\n"
            "S2 <-> 0 @ 0.7421226146435351, 0.9684819657197182\n"
            "2 S1 <-> 3 S0 + S3 @ 0.04010781545616135, 0.002385094142367463\n"
            "0 -> S3 @ 977.2526736521054\n"
        )
        clamped = []
        clamp = dynamics._clamp_state

        def spy(x):
            clamped.append(x.min() < 0)
            return clamp(x)

        monkeypatch.setattr(dynamics, "_clamp_state", spy)
        with pytest.raises(NoConvergence):
            find_equilibrium(net, [1e-9, 0.0, 2.1373300975899365, 1e-9], tol=1e-6)
        assert any(clamped)

    def test_singular_step_after_growth_ends_in_e_explode(self, monkeypatch):
        # the autocatalytic 2 S1 -> S0 + 3 S1 drives |f| up; steps that would
        # leave the orthant are halved, and the search stops at a singular
        # backward-Euler matrix with |f| above its start
        net = parse_network(
            "species: S0 S1\n"
            "2 S0 <-> S0 @ 0.03827116068710408, 80.24202235196583\n"
            "S0 + 2 S1 <-> 2 S1 @ 15.084080652306191, 0.6842740948875449\n"
            "0 <-> 3 S0 @ 0.13991503658040116, 1.9696800025952792\n"
            "2 S1 -> S0 + 3 S1 @ 0.012176344522478953\n"
        )
        singular = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(True)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        with pytest.raises(PopulationExplosion, match="field norm grew"):
            find_equilibrium(net, [75.57364124513177, 1.033145439159036], tol=1e-12)
        assert singular

    def test_unbounded_growth_ends_fast_in_e_explode(self):
        net = parse_network("A -> 2 A @ 0.5")
        start = time.process_time()
        with pytest.raises(PopulationExplosion):
            find_equilibrium(net, [1.0])
        assert time.process_time() - start < 0.1
