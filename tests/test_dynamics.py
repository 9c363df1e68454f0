import math
import random
import sys
import time
import tracemalloc

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
    simulate,
)
from crnkit import dynamics

from support import (
    balanced_reversible_network,
    bd_rk4_grid_error,
    dense_arrays,
    dense_change,
    dense_field,
    dense_jacobian,
    dense_rows,
    field_floats,
    jacobian_entries,
    lapack_equilibrium,
    random_network,
    random_rate,
    sparse_network,
    table_loop_rate,
)


def bd_closed_form(times, kappa=3.0, gamma=1.0):
    return (kappa / gamma) * (1.0 - np.exp(-gamma * np.asarray(times)))


def _field(kernel, x) -> np.ndarray:
    """The generated field at ``x``, as an array."""
    return np.array(kernel.compiled[0](*np.asarray(x, dtype=float).tolist()))


def _jacobian(kernel, x) -> np.ndarray:
    """The generated Jacobian at ``x``, as a dense array with 0.0 where no
    transition writes."""
    rows = kernel.compiled[1](*np.asarray(x, dtype=float).tolist())
    dense = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        for l, v in row:
            dense[i, l] = v
    return dense


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
                jac = _jacobian(kernel, x)
                central = np.empty_like(jac)
                for i in range(x.size):
                    step = np.zeros(x.size)
                    step[i] = 1e-5 * max(1.0, x[i])
                    diff = _field(kernel, x + step) - _field(kernel, x - step)
                    central[:, i] = diff / (2 * step[i])
                # size of the field's terms, for entries whose exact value is 0
                terms = dense_change(net, magnitude=True).T @ kernel.flux(x + 1.0)
                scale = terms.max(initial=0.0)
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
            net = parse_network(f"{m} A -> B @ 1.5\n0 -> A @ 1")
            kernel = net.mass_action
            assert kernel.table[0][1] == ((0, m),)
            near_one = 1.0 - math.log(m) / m
            for a in (0.0, 0.5, near_one, 1.0, 1.0 + 1.0 / m):
                x = np.array([a, 2.0])
                bound = (m + 8) * eps
                assert np.all(
                    np.abs(_field(kernel, x) - dense_field(net, x))
                    <= bound * dense_field(net, x, magnitude=True)
                )
                assert np.all(
                    np.abs(_jacobian(kernel, x) - dense_jacobian(net, x))
                    <= bound * dense_jacobian(net, x, magnitude=True)
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
            net = Network(net.species, net.transitions + (source,))
            kernel = net.mass_action
            for _ in range(3):
                x = np.array([rng.choice((0.0, rng.uniform(0.1, 3.0))) for _ in range(k)])
                assert np.all(
                    np.abs(_field(kernel, x) - dense_field(net, x))
                    <= 8 * eps * dense_field(net, x, magnitude=True)
                )
                assert np.all(
                    np.abs(_jacobian(kernel, x) - dense_jacobian(net, x))
                    <= 8 * eps * dense_jacobian(net, x, magnitude=True)
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
                    return dense_field(net, np.array(x)).tolist()

            # the field that integrate_rate calls for each stage
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "compiled", (dense_args, kernel.compiled[1]))
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
        field, jacobian = kernel.compiled

        def poisoned(*x):
            calls.append(x)
            out = field(*x)
            if len(calls) == 5:
                out[1] = math.nan
            return out

        monkeypatch.setattr(kernel, "compiled", (poisoned, jacobian))
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


def _assert_generated_bits(kernel, x: list[float]):
    """The generated field and Jacobian at ``x`` are the table loops'
    (``support.field_floats`` and ``support.jacobian_entries``), bit for
    bit, and the Jacobian holds the entries the loop writes, in increasing
    column order."""
    field, jacobian = kernel.compiled
    assert _bits(field(*x)) == _bits(field_floats(kernel, x))
    assert [[(l, v.hex()) for l, v in row] for row in jacobian(*x)] == [
        [(l, v.hex()) for l, v in sorted(row.items())] for row in jacobian_entries(kernel, x)
    ]


def _outcome(integrate):
    """A trajectory's bytes, or the type and message of the error it ends in."""
    try:
        traj = integrate()
    except CrnError as exc:
        return type(exc), str(exc)
    return traj.times.tobytes(), traj.states.tobytes()


# A network of k species for each ending of integrate_rate: the lines act on
# its first species A, which starts at the given x0; species 2..k are each in
# a birth-death pair and start at 1.  Rows: lines, x0 of A, t_end, rtol, and
# the ending (E_BUDGET with the budget cut to 50 tries).
_ENDINGS = {
    "trajectory": ("A -> 2 A @ 0.5\n2 A -> A @ 0.25", 0.5, 1.0, 3e-8, "trajectory"),
    # a tolerance this loose accepts a step that overshoots zero
    "E_NEG": ("2 A -> 0 @ 1", 10.0, 1.0, 1e3, "NegativeState"),
    "E_BUDGET": ("A <-> 0 @ 1, 1", 1.0, 1e300, 3e-8, "BudgetExceeded"),
    # dx/dt = x^2 blows up at t = 1; the step shrinks until t stops moving
    "E_EXPLODE step": ("2 A -> 3 A @ 1", 1.0, 2.0, 3e-8,
                       "PopulationExplosion: the step fell below the float spacing"),
    # the first step, 0.01, adds 1e298 to the largest float: an accepted row of inf
    "E_EXPLODE row": ("0 -> A @ 1e300", sys.float_info.max, 1.0, 3e-8,
                      "PopulationExplosion: the rate equation left the finite range"),
}


def _ending_case(k: int, ending: str):
    lines, a, t_end, rtol, expected = _ENDINGS[ending]
    if not k:
        return parse_network("0 -> 0 @ 1"), [], t_end, rtol, expected
    names = ["A"] + [f"P{i}" for i in range(1, k)]
    pairs = "".join(f"P{i} <-> 0 @ 1.{i}, 0.5\n" for i in range(1, k))
    net = parse_network(f"species: {' '.join(names)}\n{lines}\n{pairs}")
    return net, [a] + [1.0] * (k - 1), t_end, rtol, expected


def _ending(outcome) -> str:
    first, second = outcome
    return "trajectory" if isinstance(first, bytes) else f"{first.__name__}: {second}"


def _entry_point_network() -> Network:
    """The 22-species, 50-transition network of the entry-point script:
    rank 18, with four conservation laws."""
    lines = ["species: " + " ".join(f"X{i}" for i in range(22))]
    for j in range(50):
        a, b = (7 * j + 3) % 22, (5 * j + 1) % 22
        c, d = a + 4 if a < 18 else a - 16, b + 8 if b < 14 else b - 12
        lines.append(f"X{a} + X{b} -> X{c} + X{d} @ 1.{j}")
    return parse_network("\n".join(lines))


class TestGeneratedCode:
    """``MassAction.compiled`` against the table loops, and ``integrate_rate``
    against the loop on lists that it replaces (``support.table_loop_rate``):
    the same floats, bit for bit."""

    def test_seeded_networks_with_zero_entries(self):
        # random complexes with a source 0 -> X0 added, and networks of the
        # benchmark's scan shape, at x with zero entries (-0.0 is a valid
        # start); the field's signed zeros too, which a run can hide.  The
        # table built from the count vectors is the one the dense arrays give
        rng = random.Random(97)
        for n in range(320):
            if n % 2:
                net = random_network(rng, max_coeff=3)
                k = net.num_species
                source = Transition(CountVector([0] * k), CountVector([1] + [0] * (k - 1)), 2.5)
                net = Network(net.species, net.transitions + (source,))
            else:
                net = sparse_network(rng, rng.randint(1, 8), rng.randint(1, 12))
            kernel = net.mass_action
            for _ in range(3):
                x = [rng.choice((0.0, -0.0, rng.uniform(0.1, 3.0))) for _ in net.species]
                _assert_generated_bits(kernel, x)
            inputs, _, rates = dense_arrays(net)
            assert kernel.table == tuple(
                (rate, tuple((i, s) for i, s in enumerate(need) if s),
                 tuple((i, c) for i, c in enumerate(change) if c))
                for rate, need, change in zip(
                    rates.tolist(), inputs.tolist(), dense_change(net).tolist()
                )
            )

    @pytest.mark.parametrize("m", [dynamics._SQUARING_ABOVE, 9, 10**12])
    def test_multiplicities_on_both_sides_of_binary_powering(self, m):
        kernel = parse_network(f"{m} A + B -> 2 C @ 1.5\nC -> A @ 0.5\n0 -> B @ 1").mass_action
        for x in ([a, 2.0, 0.25] for a in (0.0, 0.5, 1.0 - math.log(m) / m, 1.0)):
            _assert_generated_bits(kernel, x)

    def test_no_species(self):
        net = parse_network("0 -> 0 @ 1")
        field, jacobian = net.mass_action.compiled
        assert field() == [] and jacobian() == ()
        traj = integrate_rate(net, [], 1.0)
        assert traj.states.shape == (traj.times.size, 0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 22])
    def test_every_ending_at_each_species_count(self, k, monkeypatch):
        # the generator writes k = 0, 1 and 2 or more apart: no max() of
        # one float, no unpack of one name into a tuple
        endings = ["trajectory", "E_BUDGET"] if not k else list(_ENDINGS)
        for ending in endings:
            net, x0, t_end, rtol, expected = _ending_case(k, ending)
            with monkeypatch.context() as patch:
                if ending == "E_BUDGET":
                    patch.setattr(dynamics, "_MAX_RATE_STEPS", 50)
                outcome = _outcome(lambda: integrate_rate(net, x0, t_end, rtol))
                assert outcome == _outcome(lambda: table_loop_rate(net, x0, t_end, rtol))
            assert _ending(outcome).startswith(expected), (k, ending)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 22])
    def test_nan_stage_at_each_species_count(self, k, monkeypatch):
        # the first try's fifth stage gets a NaN in its last entry, which
        # max() over the error entries passes over unless it comes first;
        # the try is rejected and retried with a fifth of its step
        def poison(field):
            calls = []

            def poisoned(x):
                calls.append(x)
                out = field(x)
                if len(calls) == 5:
                    out[-1] = math.nan
                return out
            return poisoned

        net, x0, t_end, rtol, _ = _ending_case(k, "trajectory")
        plain = integrate_rate(net, x0, t_end, rtol)
        kernel = net.mass_action
        generated, jacobian = kernel.compiled
        field = poison(lambda x: generated(*x))
        monkeypatch.setattr(kernel, "compiled", (lambda *x: field(list(x)), jacobian))
        traj = integrate_rate(net, x0, t_end, rtol)
        reference = table_loop_rate(
            net, x0, t_end, rtol, field=poison(lambda x: field_floats(kernel, x))
        )
        assert _outcome(lambda: traj) == _outcome(lambda: reference)
        assert traj.times[1] == plain.times[1] * 0.2

    def test_species_named_like_generated_identifiers(self):
        # the generated source holds no species name, so names that are its
        # own identifiers or builtins change no bit
        names = ("x0", "r0", "f", "o1", "abs", "max", "exec", "__import__")
        lines = [f"S{i} -> S{(i + 1) % 8} @ 1.{i}" for i in range(8)]
        lines += ["S0 + S3 -> 2 S5 @ 0.7", "2 S6 -> S7 @ 0.3", "0 -> S2 @ 2"]
        net = parse_network("\n".join(lines))
        named = Network(names, net.transitions)
        rng = random.Random(11)
        for _ in range(3):
            x0 = [rng.choice((0.0, rng.uniform(0.5, 2.0))) for _ in names]
            outcome = _outcome(lambda: integrate_rate(named, x0, 1.0))
            assert _ending(outcome) == "trajectory"
            assert outcome == _outcome(lambda: table_loop_rate(net, x0, 1.0))

    def test_namespaces_hold_only_the_builtins_their_source_names(self):
        # with no species there is no error entry, so no abs()
        for k, names in ((0, {"max", "min", "range"}), (1, {"abs", "max", "min", "range"}),
                         (3, {"abs", "max", "min", "range"})):
            assert set(dynamics._rate_loop(k).__globals__["__builtins__"]) == names
        for function in parse_network("9 A + B -> 2 C @ 1.5\nC -> A @ 0.5").mass_action.compiled:
            assert function.__globals__["__builtins__"] == {}
        # the field and the Jacobian are nested in bind: a builtin that only a
        # nested body names is found too
        source = ["def outer():", "    def inner(v):", "        return abs(v)", "    return inner"]
        inner = dynamics._define("outer", source, {})()
        assert inner.__globals__["__builtins__"] == {"abs": abs} and inner(-2.0) == 2.0

    def test_rate_run_builds_no_dense_array(self):
        # a chain of 2,000 species: a dense (transitions x species) array
        # would hold 4M entries, and the kernel keeps only its sparse table
        k = 2000
        lines = ["species: " + " ".join(f"S{i}" for i in range(k))]
        lines += [f"S{i} -> S{i + 1} @ 1" for i in range(k - 1)]
        net = parse_network("\n".join(lines))
        traj = integrate_rate(net, [1.0] * k, 1e-3)
        assert traj.times[-1] == 1e-3
        path = simulate(net, [3] + [0] * (k - 1), 1.0, seed=1)
        assert path.states.sum(axis=1).tolist() == [3] * len(path.times)
        report = complex_balance_report(net, [1.0] * k)
        assert [r.residual for r in report.rows] == [-1.0] + [0.0] * (k - 2) + [1.0]
        kernel = net.mass_action
        assert not {"inputs", "outputs", "rates"} & set(dir(kernel))
        assert set(vars(kernel)) == {"_transitions", "_k", "table", "compiled"}

    def test_ssa_path_on_the_chain_holds_no_dense_moves(self):
        # the jumps add the kernel table's sparse moves; a tuple of k changes
        # per transition would take 2,000 x 2,000 references, about 31 MB
        k = 2000
        lines = ["species: " + " ".join(f"S{i}" for i in range(k))]
        lines += [f"S{i} -> S{i + 1} @ 1" for i in range(k - 1)]
        net = parse_network("\n".join(lines))
        tracemalloc.start()
        try:
            path = simulate(net, [3] + [0] * (k - 1), 1.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.num_jumps > 0
        assert peak < 4e6

    def test_trajectories_match_the_table_loop(self):
        # whole runs on scan-shaped networks, two of which end in E_BUDGET
        # after 2**14 tries, and on the 22-species, 50-transition network of
        # the entry-point script
        rng = random.Random(5)
        cases = []
        for _ in range(6):
            net = sparse_network(rng, 3, 8)
            cases.append((net, [rng.choice((0.0, rng.uniform(0.5, 2.0))) for _ in range(3)]))
        cases.append((_entry_point_network(), [1.0] * 22))
        for net, x0 in cases:
            _assert_generated_bits(net.mass_action, x0)
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
        # D + B -> D + A tilts A <-> B (rates K = 2**20), whose Jacobian rows
        # sum to 0; E + A -> E + 2 A at E = 0 removes the law A + B with no
        # flux, so A, B and D are the pivots.  D grows at g = 2**-36, so dt
        # doubles each step up to 0.5/g = 2**35 and |f| = g D rises from its
        # start at the balanced A = 2 B.  Once 1/dt is below half an ulp of
        # K, the rows of A and B in I/dt - J cancel exactly: a zero pivot
        net = parse_network(
            "species: A B D E\n"
            "A <-> B @ 1048576, 1048576\n"
            "D + B -> D + A @ 1024\n"
            f"D -> 2 D @ {2.0 ** -36!r}\n"
            "E + A -> E + 2 A @ 1\n"
        )
        assert net.mass_action.reduction[0] == (0, 1, 2)
        singular = []
        eliminate = dynamics._eliminate

        def spy(m, b):
            y = eliminate(m, b)
            singular.append(y is None)
            return y

        monkeypatch.setattr(dynamics, "_eliminate", spy)
        with pytest.raises(PopulationExplosion, match="field norm grew"):
            find_equilibrium(net, [2.0, 1.0, 1024.0, 0.0])
        assert singular[-1] and not any(singular[:-1])

    def test_unbounded_growth_ends_fast_in_e_explode(self):
        net = parse_network("A -> 2 A @ 0.5")
        start = time.process_time()
        with pytest.raises(PopulationExplosion):
            find_equilibrium(net, [1.0])
        assert time.process_time() - start < 0.1


def _equilibrium_outcome(search, net, x0):
    """The answer of an equilibrium search, or the type of its typed error."""
    try:
        return search(net, x0)
    except CrnError as exc:
        return type(exc)


def _reduced_jacobian_svd(net, x: np.ndarray) -> np.ndarray:
    """B^T J B at ``x``, B the reference's orthonormal basis of range(Gamma)."""
    u_mat, sing, _ = np.linalg.svd(net.stoichiometric_matrix().astype(float), full_matrices=False)
    basis = u_mat[:, : int((sing > sing.max(initial=0.0) * 1e-12).sum())]
    return basis.T @ _jacobian(net.mass_action, x) @ basis


def _same_class(net, a: np.ndarray, b: np.ndarray) -> bool:
    """Equal conservation-law values, to roundoff."""
    return all(
        abs(w @ a - w @ b) <= 1e-12 * (np.abs(w) @ (np.abs(a) + np.abs(b)))
        for w in map(np.array, conserved_quantities(net))
    )


class TestLapackReference:
    """``find_equilibrium`` against ``support.lapack_equilibrium``, the same
    pseudo-transient continuation on numpy, in the coordinates of an
    orthonormal basis, with LAPACK's svd, eigvals and solve."""

    def test_balanced_fixtures_end_where_the_reference_does(self):
        rng = random.Random(83)
        laws = 0
        for _ in range(40):
            net, c = balanced_reversible_network(rng)
            x0 = c * np.array([rng.uniform(0.3, 3.0) for _ in c])
            x, reference = find_equilibrium(net, x0), lapack_equilibrium(net, x0)
            assert np.abs(x - reference).max() <= 1e-9 * (1.0 + np.abs(reference).max())
            assert _same_class(net, x, reference)
            laws += len(conserved_quantities(net))
        assert laws  # some fixtures have laws, so the law map is used

    def test_random_networks_end_as_the_reference_does(self, monkeypatch):
        # A network is compared where its outcome is not decided by roundoff:
        # every step matrix on the reference's path has a condition number of
        # at most 1e8, and every answer is an isolated equilibrium (B^T J B
        # there has a condition number of at most 1e8).  On the rest the two
        # routes part ways as two roundings do: the reference's own outcome
        # moves between OpenBLAS cores on about 2% of these networks.  Then
        # both end in the same typed error, or in two answers of one class
        # within what the stop test allows, tol (1 + max|x|) times
        # (1 + 2 |(B^T J B)^-1|), the residual's gain into x.  An outcome at
        # the edge of a stop test (a field whose rounding floor sits at tol,
        # or a drift that reaches tol (1 + max|x|) in one route's 200 steps
        # and not the other's) may still differ: with this draw at seeds
        # 1 to 24, 5 of about 4,800 compared networks did.  A network left
        # out must still end in a typed error or in a finite, nonnegative
        # answer of x0's class.
        rng = random.Random(1)
        solve = np.linalg.solve
        conditions = []

        def spy(a, b):
            with np.errstate(all="ignore"):
                conditions.append(np.linalg.cond(a))
            return solve(a, b)

        def isolated(answer) -> bool:
            if isinstance(answer, type):
                return True
            jac = _reduced_jacobian_svd(net, answer)
            with np.errstate(all="ignore"):
                return not jac.size or np.linalg.cond(jac) <= 1e8

        compared, left_out, differ = 0, 0, []
        for n in range(340):
            net = random_network(rng)
            x0 = [rng.uniform(0.1, 3.0) for _ in net.species]
            conditions.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", spy)
                reference = _equilibrium_outcome(lapack_equilibrium, net, x0)
            outcome = _equilibrium_outcome(find_equilibrium, net, x0)
            if not (max(conditions, default=1.0) <= 1e8 and isolated(reference) and isolated(outcome)):
                left_out += 1
                assert isinstance(outcome, type) or (
                    np.isfinite(outcome).all() and (outcome >= 0).all()
                    and _same_class(net, outcome, np.array(x0))
                ), n
                continue
            compared += 1
            if isinstance(reference, type) or isinstance(outcome, type):
                if outcome is not reference:
                    differ.append(n)
                continue
            with np.errstate(all="ignore"):
                sing = np.linalg.svd(_reduced_jacobian_svd(net, reference), compute_uv=False)
            gain = 1.0 / sing.min() if sing.size else 0.0
            size = 1.0 + max(np.abs(outcome).max(), np.abs(reference).max())
            if not (np.abs(outcome - reference).max() <= 1e-9 * size * (1.0 + 2.0 * gain)
                    and _same_class(net, outcome, reference)):
                differ.append(n)
        assert compared >= 200 and left_out
        assert len(differ) <= compared // 100, differ

    def test_the_law_map_keeps_the_four_laws_of_the_22_species_network(self):
        # the entry-point script's network: rank 18 and four laws, so its
        # steps move the 18 pivots and the other four species follow
        net = _entry_point_network()
        pivots, spread = net.mass_action.reduction
        assert len(pivots) == 18 and len(conserved_quantities(net)) == 4
        assert all(pairs == ((a, 1.0),) for a, pairs in zip(range(18), (spread[p] for p in pivots)))
        x0 = np.ones(22)
        x = find_equilibrium(net, x0)
        assert _same_class(net, x, x0)
        assert np.abs(rate_vector_field(net, x)).max() <= 1e-9 * (1.0 + np.abs(x).max())


class TestLargestRealPart:
    """The growth of ``find_equilibrium``: ``_dissipative`` certifies a
    stable Jacobian, and ``_largest_real_part`` is LAPACK's largest real
    part of an eigenvalue, on Python floats."""

    def test_matches_eigvals_on_random_matrices(self):
        # Gaussian matrices; normal ones with complex pairs; orthogonal
        # similarities of diagonals with repeated and zero eigenvalues; cyclic
        # shifts, whose equal-modulus eigenvalues need the exceptional
        # shifts; zero matrices; and scales from 1e-200 to 1e200
        rng = np.random.default_rng(7)
        for trial in range(660):
            n = trial % 22 + 1
            kind = trial // 22 % 6
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            if kind == 0:
                a = rng.standard_normal((n, n))
            elif kind == 1:
                blocks = np.zeros((n, n))
                for i in range(0, n - 1, 2):
                    re, im = rng.standard_normal(2)
                    blocks[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
                if n % 2:
                    blocks[-1, -1] = rng.standard_normal()
                a = q @ blocks @ q.T
            elif kind == 2:
                a = q @ np.diag(rng.choice([0.0, 0.0, 1.0, -2.0, 0.5], size=n)) @ q.T
            elif kind == 3:
                a = np.roll(np.eye(n), 1, axis=0) * rng.choice([1.0, -1.0])
            elif kind == 4:
                a = np.zeros((n, n))
            else:
                a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-200, 201)
            expected = np.linalg.eigvals(a).real.max()
            bound = 1e-12 * np.abs(a).sum(axis=1).max()
            assert abs(dynamics._largest_real_part(a.tolist()) - expected) <= bound, (trial, n)

    def test_a_real_part_beyond_the_float_range_is_inf(self):
        # finite entries whose eigenvalue 2e308 overflows: inf, which then
        # caps dt at 0, and no OverflowError
        assert dynamics._largest_real_part([[1e308, 1e308], [1e308, 1e308]]) == math.inf

    def test_the_deflation_threshold_sums_left_to_right(self):
        # after 0.5 and 0.25 the sum of |entries| meets 274 entries of 2**-55,
        # each below half an ulp: added left to right they vanish, while a
        # compensated sum (builtin sum() from Python 3.12 on) keeps them.  The
        # subdiagonal entry d lies between eps times the two sums, so it is
        # not negligible, and the trailing block [[0, 0.25], [d, 0]] has the
        # eigenvalue sqrt(d / 4); deflated, every eigenvalue would be 0
        n, tiny = 24, 2.0**-55
        a = [[tiny if j > i else 0.0 for j in range(n)] for i in range(n)]
        a[0][1], a[n - 2][n - 1] = 0.5, 0.25
        d = a[n - 1][n - 2] = 2.0**-52 * (0.75 + 137 * tiny)
        naive = 0.0
        for row in a:
            for v in row:
                naive += abs(v)
        eps = np.finfo(float).eps
        assert eps * naive < d <= eps * math.fsum(abs(v) for row in a for v in row)
        assert dynamics._largest_real_part(a) == math.sqrt(0.25 * d)

    def test_leaves_its_argument_unchanged(self):
        a = np.random.default_rng(3).standard_normal((6, 6)).tolist()
        copy = [row[:] for row in a]
        dynamics._largest_real_part(a)
        assert a == copy

    def test_an_iteration_that_does_not_converge_ends_in_e_noconv(self):
        # no subdiagonal entry of a NaN matrix is ever negligible: the
        # iteration stops at its budget of 30 per row, with a typed error
        a = [[math.nan, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]
        start = time.process_time()
        with pytest.raises(NoConvergence):
            dynamics._largest_real_part(a)
        assert time.process_time() - start < 0.1

    def test_a_dissipative_matrix_has_only_stable_eigenvalues(self):
        # when -(a + a^T) is positive definite the field of values, and every
        # eigenvalue, lies left of 0; the test also passes on matrices far
        # from symmetric, and fails at a positive or zero diagonal entry
        rng = np.random.default_rng(11)
        passed = 0
        for trial in range(400):
            n = trial % 8 + 1
            a = rng.standard_normal((n, n)) - rng.uniform(0.0, 3.0) * np.eye(n)
            if dynamics._dissipative(a.tolist()):
                passed += 1
                assert np.linalg.eigvals(a).real.max() < 0
                assert np.linalg.eigvalsh(-(a + a.T)).min() > 0
            else:
                assert np.linalg.eigvalsh(-(a + a.T)).min() <= 1e-12 * np.abs(a).sum()
        assert passed >= 40
        assert not dynamics._dissipative([[0.0]]) and not dynamics._dissipative([[-1.0, 0.0], [0.0, 1e-300]])
        assert dynamics._dissipative([])


class TestDefaultStep:
    def test_sparse_entries_are_the_dense_jacobian_bits(self):
        # random complexes with a source, and scan-shaped networks, at x with
        # zero entries (-0.0 included): the generated Jacobian's pairs are the
        # table loop's entries
        rng = random.Random(29)
        for n in range(200):
            net = random_network(rng, max_coeff=3) if n % 2 else sparse_network(rng, 5, 8)
            kernel = net.mass_action
            x = [rng.choice((0.0, -0.0, rng.uniform(0.1, 3.0))) for _ in net.species]
            _assert_generated_bits(kernel, x)
            dense = dense_rows(jacobian_entries(kernel, x))
            # the step from the dense rows, summed left to right, as it was
            # before the sparse sums: a zero entry adds 0.0, which is exact
            lipschitz = 0.0
            for row in dense:
                norm = 0.0
                for v in row:
                    norm += abs(v)
                lipschitz = max(lipschitz, norm)
            expected = 0.01 if lipschitz <= 0 else min(0.01, 0.1 / lipschitz)
            assert dynamics._default_step(kernel, x) == expected

    def test_a_chain_of_2000_species_builds_no_dense_row(self):
        k = 2000
        lines = ["species: " + " ".join(f"S{i}" for i in range(k))]
        lines += [f"S{i} -> S{i + 1} @ 1" for i in range(k - 1)]
        kernel = parse_network("\n".join(lines)).mass_action
        kernel.compiled  # noqa: B018  generated and compiled before the count
        tracemalloc.start()
        try:
            step = dynamics._default_step(kernel, [1.0] * k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step == 0.01  # 0.1 over the row norm 2, capped
        # the dense rows would take k * k pointers, 32 MB
        assert peak < 2e6
