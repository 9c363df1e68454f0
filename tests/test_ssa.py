import math
import random

import numpy as np
import pytest
from scipy.stats import poisson

from crnkit import (
    DimensionMismatch,
    Histogram,
    InvalidValue,
    Network,
    PopulationExplosion,
    TruncationBox,
    coherent_state,
    compare_to_poisson,
    conserved_quantities,
    parse_network,
    project_onto,
    propensity,
    simulate,
    stationary_histogram,
)

from support import ordered_selection_count


class TestPropensity:
    def test_pair_recombination(self, net_diatomic):
        # two of three atoms picked in order: 3 * 2 distinct choices
        assert propensity(net_diatomic, (0, 3), 1) == 6.0

    def test_source_is_constant(self, net_bd):
        assert propensity(net_bd, (0,), 0) == 3.0
        assert propensity(net_bd, (17,), 0) == 3.0

    def test_insufficient_reactants(self, net_bd):
        assert propensity(net_bd, (0,), 1) == 0.0

    def test_matches_ordered_subset_enumeration(self):
        net = parse_network("2 A + 3 B -> 0 @ 1.5")
        for n_a in range(6):
            for n_b in range(6):
                expected = 1.5 * ordered_selection_count((n_a, n_b), (2, 3))
                assert propensity(net, (n_a, n_b), 0) == pytest.approx(expected)

    def test_dimension_check(self, net_bd):
        with pytest.raises(DimensionMismatch):
            propensity(net_bd, (1, 2), 0)


class TestSimulate:
    def test_no_transitions_stays_put(self):
        traj = simulate(Network(("A",)), (4,), 10.0, seed=1)
        assert traj.num_jumps == 0
        assert traj.times.tolist() == [0.0]
        assert traj.states.tolist() == [[4]]

    def test_conservation_is_exact(self, net_diatomic):
        traj = simulate(net_diatomic, (1, 0), 50.0, seed=3)
        assert traj.num_jumps > 10
        sector = traj.states @ np.array([2, 1])
        assert (sector == 2).all()

    def test_states_change_by_one_transition(self, net_diatomic):
        traj = simulate(net_diatomic, (4, 0), 5.0, seed=5)
        deltas = {tuple(tr.net_change()) for tr in net_diatomic.transitions}
        for jump in np.diff(traj.states, axis=0):
            assert tuple(jump) in deltas

    def test_reproducible_given_seed(self, net_bd):
        a = simulate(net_bd, (0,), 40.0, seed=123)
        b = simulate(net_bd, (0,), 40.0, seed=123)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
        c = simulate(net_bd, (0,), 40.0, seed=124)
        assert not np.array_equal(a.times, c.times)

    def test_explosion_guard(self):
        net = parse_network("0 -> A @ 1000")
        with pytest.raises(PopulationExplosion):
            simulate(net, (0,), 1e9, seed=2, max_count=50)

    def test_time_averaged_mean_over_1e6_jumps(self, net_bd):
        # stationary law is Poisson(kappa/gamma) with mean 3
        traj = simulate(net_bd, (3,), 170_000.0, seed=9)
        assert traj.num_jumps >= 1_000_000
        mean = traj.time_average()[0]
        assert abs(mean - 3.0) <= 0.05

    def test_csv_export(self, net_bd):
        traj = simulate(net_bd, (0,), 1.0, seed=4)
        lines = traj.to_csv(net_bd.species).strip().split("\n")
        assert lines[0] == "t,A"
        assert lines[1] == "0.0,0"
        assert len(lines) == len(traj.times) + 1


class TestStationaryHistogram:
    def test_point_mass_without_transitions(self):
        hist = stationary_histogram(Network(("A",)), (2,), 1.0, 50, 0.5, seed=6)
        assert hist.counts == {(2,): 50}
        assert hist.total == 50

    def test_sector_support_is_exact(self, net_diatomic):
        hist = stationary_histogram(net_diatomic, (2, 0), 5.0, 2000, 0.25, seed=7)
        for state in hist.counts:
            assert 2 * state[0] + state[1] == 4

    def test_bd_converges_to_poisson(self, net_bd):
        hist = stationary_histogram(net_bd, (0,), 50.0, 20_000, 1.0, seed=8)
        result = compare_to_poisson(hist, [3.0])
        assert result.tv_distance <= 0.05
        assert result.per_species_means[0] == pytest.approx(3.0, abs=0.1)

    def test_counts_sum_validated(self):
        with pytest.raises(ValueError):
            Histogram({(0,): 3}, 4, (1,))
        with pytest.raises(ValueError):
            Histogram({(2,): 3}, 3, (1,))

    def test_csv_export(self, net_bd):
        hist = stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=10)
        lines = hist.to_csv(net_bd.species).strip().split("\n")
        assert lines[0] == "A,count,frequency"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 200


class TestCompareToPoisson:
    def test_synthetic_poisson_sample(self):
        rng = np.random.default_rng(12)
        draws = rng.poisson(3.0, size=100_000)
        counts: dict[tuple[int, ...], int] = {}
        for v in draws:
            counts[(int(v),)] = counts.get((int(v),), 0) + 1
        hist = Histogram(counts, len(draws), (int(draws.max()),))
        result = compare_to_poisson(hist, [3.0])
        assert result.tv_distance <= 0.02

    def test_point_mass_formula(self):
        # TV to Poisson(3) truncated to [0, 12] is 1 - pmf(3)/cdf(12)
        hist = Histogram({(3,): 1000}, 1000, (12,))
        result = compare_to_poisson(hist, [3.0])
        expected = 1.0 - poisson.pmf(3, 3.0) / poisson.cdf(12, 3.0)
        assert result.tv_distance == pytest.approx(expected, abs=1e-12)

    def test_zero_mean_against_origin(self):
        hist = Histogram({(0, 0): 10}, 10, (0, 0))
        result = compare_to_poisson(hist, [0.0, 0.0])
        assert result.tv_distance == 0.0

    def test_dimension_check(self):
        hist = Histogram({(0,): 1}, 1, (0,))
        with pytest.raises(DimensionMismatch):
            compare_to_poisson(hist, [1.0, 2.0])

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_means_are_typed_errors(self, mean):
        hist = Histogram({(0,): 1}, 1, (0,))
        with pytest.raises(InvalidValue):
            compare_to_poisson(hist, [mean])


class TestSectorEquilibrium:
    def test_histogram_matches_projected_coherent_state(self, net_diatomic):
        # conditioned coherent state is the sector's stationary law
        hist = stationary_histogram(net_diatomic, (3, 0), 20.0, 20_000, 0.5, seed=21)
        box = TruncationBox((10, 10))
        psi, _ = coherent_state([0.5, 1.0], box)
        projected = project_onto(psi, (2, 1), 6)
        states = box.states()
        sector = np.flatnonzero((states @ np.array([2, 1])) == 6)
        tv = 0.5 * sum(
            abs(hist.frequency(states[i]) - projected.weights[i]) for i in sector
        )
        assert tv <= 0.05
