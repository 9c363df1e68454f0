import math
import random

import numpy as np
import pytest

from crnkit import (
    DimensionMismatch,
    NegativeConcentration,
    NegativeState,
    Network,
    NoConvergence,
    StepSizeUnderflow,
    conserved_quantities,
    find_equilibrium,
    integrate_rate,
    is_complex_balanced,
    parse_network,
    rate_vector_field,
)

from support import balanced_reversible_network, random_network


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
            if is_complex_balanced(net, c, 1e-12):
                assert np.abs(rate_vector_field(net, c)).max() <= 1e-9


class TestIntegrateRate:
    def test_bd_relaxation_matches_closed_form(self, net_bd):
        traj = integrate_rate(net_bd, [0.0], 20.0)
        exact = bd_closed_form(traj.times)
        assert np.abs(traj.states[:, 0] - exact).max() <= 1e-6
        assert abs(traj.final_state[0] - 3.0) <= 1e-6

    def test_equilibrium_is_fixed_point(self, net_diatomic):
        traj = integrate_rate(net_diatomic, [0.5, 1.0], 5.0)
        assert np.abs(traj.states - np.array([0.5, 1.0])).max() <= 1e-9

    def test_linear_conservation_drift(self, net_diatomic):
        traj = integrate_rate(net_diatomic, [1.0, 0.0], 10.0)
        (w,) = conserved_quantities(net_diatomic)
        drift = np.abs(traj.states @ np.array(w, dtype=float) - 2.0)
        assert drift.max() <= 1e-9

    def test_fourth_order_step_halving(self, net_bd):
        def max_err(h):
            traj = integrate_rate(net_bd, [0.0], 5.0, step=h)
            return np.abs(traj.states[:, 0] - bd_closed_form(traj.times)).max()

        ratio = max_err(0.2) / max_err(0.1)
        assert 12.0 <= ratio <= 20.0

    def test_rk45_matches(self, net_bd):
        traj = integrate_rate(net_bd, [0.0], 20.0, method="rk45")
        assert abs(traj.final_state[0] - 3.0) <= 1e-5

    def test_rejects_bad_arguments(self, net_bd):
        with pytest.raises(ValueError):
            integrate_rate(net_bd, [0.0], 0.0)
        with pytest.raises(ValueError):
            integrate_rate(net_bd, [0.0], 1.0, method="euler")
        with pytest.raises(NegativeConcentration):
            integrate_rate(net_bd, [-0.5], 1.0)

    def test_oversized_step_raises_e_neg(self):
        net = parse_network("2 A -> 0 @ 1")
        with pytest.raises(NegativeState):
            integrate_rate(net, [10.0], 1.0, step=1.0)

    def test_adaptive_underflow_raises_e_step(self):
        # dx/dt = x^2 blows up at t = 1/x0; the controller must give up
        net = parse_network("2 A -> 3 A @ 1")
        with pytest.raises(StepSizeUnderflow):
            integrate_rate(net, [1.0], 2.0, method="rk45")

    def test_trajectory_shape_and_csv(self, net_diatomic):
        traj = integrate_rate(net_diatomic, [1.0, 0.0], 1.0, step=0.25)
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
        assert (np.diff(traj.times) > 0).all()
        csv = traj.to_csv(net_diatomic.species)
        lines = csv.strip().split("\n")
        assert lines[0] == "t,X1,X2"
        assert len(lines) == len(traj.times) + 1
        assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.0]


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
            find_equilibrium(net, [0.0], tol=1e-9, max_time=5.0)

    def test_polished_residual_is_tiny(self, net_diatomic):
        c = find_equilibrium(net_diatomic, [0.2, 1.4], tol=1e-6)
        assert np.abs(rate_vector_field(net_diatomic, c)).max() <= 1e-12
