import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from crnkit import (
    BudgetExceeded,
    CountVector,
    CrnError,
    DimensionMismatch,
    InvalidValue,
    NegativeConcentration,
    NegativeState,
    Network,
    NoConvergence,
    PopulationExplosion,
    Transition,
    complex_balance_report,
    conserved_quantities,
    find_equilibrium,
    integrate_rate,
    parse_network,
    rate_vector_field,
)
from crnkit import dynamics

from support import (
    balanced_reversible_network,
    bd_rk4_grid_error,
    dense_field,
    dense_jacobian,
    random_network,
    random_rate,
    reference_try,
    sparse_network,
    table_loop_rate,
)


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

    def test_table_pairs_each_input_species_with_its_multiplicity(self, net_catalyst):
        # the empty complex has no factor; moves skip the unchanged C
        assert net_catalyst.mass_action.table == (
            (1.0, (), ((0, 1.0),)),
            (2.0, ((1, 1),), ((1, -1.0),)),
            (0.5, ((0, 1), (2, 1)), ((0, -1.0), (2, -1.0), (3, 1.0))),
            (1.25, ((3, 1),), ((1, 2.0), (2, 1.0), (3, -1.0))),
        )
        assert parse_network("3 A + B -> 0 @ 2").mass_action.table[0][1] == ((0, 3), (1, 1))

    def test_large_coefficient_matches_the_dense_formulas(self):
        # one factor pair per species, whatever its coefficient: up to
        # _SQUARING_ABOVE factors are multiplied in one at a time, more by
        # binary powering, whose error grows with m as x^m's condition number
        eps = np.finfo(float).eps
        for m in (dynamics._SQUARING_ABOVE, dynamics._SQUARING_ABOVE + 1, 1000, 10**12, 2**63 - 1):
            kernel = parse_network(f"{m} A -> B @ 1.5\n0 -> A @ 1").mass_action
            assert kernel.table[0][1] == ((0, m),)
            magnitude = SimpleNamespace(
                rates=kernel.rates, inputs=kernel.inputs, change=np.abs(kernel.change)
            )
            near_one = 1.0 - math.log(m) / m
            for a in (0.0, 0.5, near_one, 1.0, 1.0 + 1.0 / m):
                x = np.array([a, 2.0])
                bound = (m + 8) * eps
                assert np.all(
                    np.abs(kernel.field(x) - dense_field(kernel, x))
                    <= bound * dense_field(magnitude, x)
                )
                assert np.all(
                    np.abs(kernel.jacobian(x) - dense_jacobian(kernel, x))
                    <= bound * dense_jacobian(magnitude, x)
                )

    def test_table_kernel_matches_the_dense_formulas(self):
        # random complexes with multiplicities up to 3, one source 0 -> X0 each,
        # and x with zero entries; the table rounds in another order than
        # numpy's pow and BLAS, so the bound is 8 ulp of the sum of |terms|
        rng = random.Random(31)
        eps = np.finfo(float).eps
        for _ in range(300):
            net = random_network(rng, max_coeff=3)
            k = net.num_species
            source = Transition(CountVector([0] * k), CountVector([1] + [0] * (k - 1)), 2.5)
            kernel = Network(net.species, net.transitions + (source,)).mass_action
            magnitude = SimpleNamespace(
                rates=kernel.rates, inputs=kernel.inputs, change=np.abs(kernel.change)
            )
            for _ in range(3):
                x = np.array([rng.choice((0.0, rng.uniform(0.1, 3.0))) for _ in range(k)])
                assert np.all(
                    np.abs(kernel.field(x) - dense_field(kernel, x))
                    <= 8 * eps * dense_field(magnitude, x)
                )
                assert np.all(
                    np.abs(kernel.jacobian(x) - dense_jacobian(kernel, x))
                    <= 8 * eps * dense_jacobian(magnitude, x)
                )

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

    def test_large_coefficient_follows_the_dense_field(self, monkeypatch):
        # m A -> 0 against 0 -> A from 0.5: x^m underflows until x nears
        # m^(-1/m), so the first quarter is exact; to t = 1 the run meets the
        # stiff approach to that equilibrium.  x^m is m factors' worth of
        # rounding, so the state follows the dense field's within m ulp
        for m, t_end in ((10**4, 1.0), (10**12, 0.25)):
            net = parse_network(f"{m} A -> 0 @ 1\n0 -> A @ 1")
            traj = integrate_rate(net, [0.5], t_end)
            kernel = net.mass_action

            calls = []

            def dense_args(*x):
                calls.append(x)
                # rejected tries past x = 1 overflow x^m, in both fields
                with np.errstate(over="ignore", invalid="ignore"):
                    return dense_field(kernel, np.array(x)).tolist()

            # the field that integrate_rate passes to each try
            with monkeypatch.context() as patch:
                patch.setattr(kernel.unrolled, "field", dense_args)
                dense = integrate_rate(net, [0.5], t_end)
            assert len(calls) >= 5 * (dense.times.size - 1)
            assert traj.times.shape == dense.times.shape
            assert np.abs(traj.states - dense.states).max() <= m * np.finfo(float).eps
            if t_end == 0.25:
                assert traj.states[-1, 0] == 0.75
        (c,) = find_equilibrium(parse_network("10000 A -> 0 @ 1\n0 -> A @ 1"), [0.5])
        assert abs(c - math.exp(-math.log(1e4) / 1e4)) <= 1e4 * np.finfo(float).eps

    def test_non_finite_stage_rejects_the_step(self, monkeypatch):
        # at the equilibrium (1, 1) every error entry is 0, so the first try
        # would pass; its fifth stage gets a NaN in the second entry, which
        # max() over the error entries passes over, since it does not come first
        net = parse_network("Z0 <-> Z1 @ 8, 8")
        kernel, calls = net.mass_action, []
        field = kernel.unrolled.field

        def poisoned(*x):
            calls.append(x)
            out = field(*x)
            if len(calls) == 5:
                out[1] = math.nan
            return out

        monkeypatch.setattr(kernel.unrolled, "field", poisoned)
        traj = integrate_rate(net, [1.0, 1.0], 1.0)
        # the first try, 0.1 over the Jacobian's norm 16, is retried with a
        # fifth of its step and never accepted
        assert traj.times[1] == 0.1 / 16 * 0.2
        assert (traj.states == 1.0).all()

    def test_trajectory_shape_and_csv(self, net_diatomic):
        traj = integrate_rate(net_diatomic, [1.0, 0.0], 1.0)
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
        assert (np.diff(traj.times) > 0).all()
        csv = traj.to_csv(net_diatomic.species)
        lines = csv.strip().split("\n")
        assert lines[0] == "t,X1,X2"
        assert len(lines) == len(traj.times) + 1
        assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.0]


def _bits(values) -> list[str]:
    return [v.hex() for v in values]


def _outcome(integrate):
    """A trajectory's bytes, or the type and message of the error it ends in."""
    try:
        traj = integrate()
    except CrnError as exc:
        return type(exc), str(exc)
    return traj.times.tobytes(), traj.states.tobytes()


class TestUnrolledTry:
    """``MassAction.unrolled`` against the table loop it replaces in
    ``integrate_rate``: the same floats, bit for bit."""

    @staticmethod
    def assert_try_matches(kernel, x, h):
        # the field's signed zeros too, which x_new and errs can hide
        unrolled = kernel.unrolled
        assert _bits(unrolled.field(*x)) == _bits(kernel.field_floats(x))
        x_new, errs = unrolled.try_step(unrolled.field, x, h)
        ref_new, ref_errs = reference_try(kernel.field_floats, x, h)
        assert (_bits(x_new), _bits(errs)) == (_bits(ref_new), _bits(ref_errs))

    def test_seeded_networks_with_zero_entries(self):
        # random complexes with a source 0 -> X0 added, and networks of the
        # benchmark's scan shape, at x with zero entries (-0.0 is a valid
        # start); steps up to 1 with rates up to 1e7 take some tries past
        # the float range, into inf and NaN entries
        rng = random.Random(97)
        for n in range(320):
            if n % 2:
                net = random_network(rng, max_coeff=3)
                k = net.num_species
                source = Transition(CountVector([0] * k), CountVector([1] + [0] * (k - 1)), 2.5)
                net = Network(net.species, net.transitions + (source,))
            else:
                net = sparse_network(rng, rng.randint(1, 8), rng.randint(1, 12))
            for _ in range(3):
                x = [rng.choice((0.0, -0.0, rng.uniform(0.1, 3.0))) for _ in net.species]
                self.assert_try_matches(net.mass_action, x, rng.choice((1e-3, 0.01, 0.1, 1.0)))

    @pytest.mark.parametrize("m", [dynamics._SQUARING_ABOVE, 9, 10**12])
    def test_multiplicities_on_both_sides_of_binary_powering(self, m):
        kernel = parse_network(f"{m} A + B -> 2 C @ 1.5\nC -> A @ 0.5\n0 -> B @ 1").mass_action
        for a in (0.0, 0.5, 1.0 - math.log(m) / m, 1.0):
            self.assert_try_matches(kernel, [a, 2.0, 0.25], 0.01)

    def test_no_species(self):
        unrolled = parse_network("0 -> 0 @ 1").mass_action.unrolled
        assert unrolled.field() == []
        assert unrolled.try_step(unrolled.field, [], 0.01) == ([], [])

    def test_trajectories_match_the_table_loop(self):
        # whole runs on scan-shaped networks, two of which end in E_BUDGET
        # after 2**14 tries, and on the 22-species, 50-transition network of
        # the entry-point script
        rng = random.Random(5)
        cases = []
        for _ in range(6):
            net = sparse_network(rng, 3, 8)
            cases.append((net, [rng.choice((0.0, rng.uniform(0.5, 2.0))) for _ in range(3)]))
        lines = ["species: " + " ".join(f"X{i}" for i in range(22))]
        for j in range(50):
            a, b = (7 * j + 3) % 22, (5 * j + 1) % 22
            c, d = a + 4 if a < 18 else a - 16, b + 8 if b < 14 else b - 12
            lines.append(f"X{a} + X{b} -> X{c} + X{d} @ 1.{j}")
        cases.append((parse_network("\n".join(lines)), [1.0] * 22))
        outcomes = [_outcome(lambda: integrate_rate(net, x0, 1.0)) for net, x0 in cases]
        assert outcomes == [_outcome(lambda: table_loop_rate(net, x0, 1.0)) for net, x0 in cases]
        assert [first for first, _ in outcomes].count(BudgetExceeded) == 2

    def test_species_moved_by_5000_transitions(self):
        # A is moved 5,000 times: one statement per move, where a chained
        # sum of that many terms would overflow the compiler's recursion limit
        rng = random.Random(3)
        forms = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 0), (1, 0)), ((1, 1), (2, 0))]
        net = Network(("A", "B"), tuple(
            Transition(CountVector(forms[j % 4][0]), CountVector(forms[j % 4][1]), random_rate(rng))
            for j in range(5000)
        ))
        assert sum(1 for _, _, moves in net.mass_action.table if moves[0][0] == 0) == 5000
        traj = integrate_rate(net, [1.0, 0.5], 1e-9)
        assert traj.times.size > 2
        assert _outcome(lambda: traj) == _outcome(lambda: table_loop_rate(net, [1.0, 0.5], 1e-9))


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
        # A's first backward-Euler step overshoots 0 by far more than roundoff:
        # y_A = -A k (B + r dt) / (1/dt + k B) = -(21/11) A at B = 0.1, k = 500,
        # r = 1000 and the first dt, about 0.1/(k B) = 0.002, so A = 5e-13 lands at
        # -4.5e-13, within the roundoff clamp below 0, on any BLAS core; B is
        # never consumed, so |f| stays at r and the search ends in E_NOCONV
        net = parse_network("species: A B\nA + B -> B @ 500\n0 -> B @ 1000\n")
        clamped = []
        clamp = dynamics._clamp_state

        def spy(x):
            clamped.append(min(x) < 0)
            return clamp(x)

        monkeypatch.setattr(dynamics, "_clamp_state", spy)
        with pytest.raises(NoConvergence):
            find_equilibrium(net, [5e-13, 0.1], tol=1e-6)
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
