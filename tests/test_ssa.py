import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from crnkit import _pathcsv, fock, ssa
from crnkit import (
    BudgetExceeded,
    DimensionMismatch,
    Histogram,
    InvalidValue,
    Network,
    PopulationExplosion,
    TruncationBox,
    coherent_state,
    compare_to_poisson,
    parse_network,
    project_onto,
    simulate,
    stationary_histogram,
)

from support import (
    POISSON_COMPARISONS,
    _direct_prepare,
    _direct_propensities,
    balanced_reversible_network,
    direct_histogram,
    direct_simulate,
    ordered_selection_count,
    poisson_weights,
    random_network,
)


def record_of(net, state):
    """The SSA's record for ``state``: (total, heads, slots, state), where
    ``[*heads, total]`` are the cumulative propensities."""
    return ssa._Records(net)[tuple(state)]


class TestPropensity:
    """Stochastic mass action as the SSA's records hold it, against the
    direct-method oracle's loop."""

    def test_pair_recombination(self, net_diatomic):
        # two of three atoms picked in order: 3 * 2 distinct choices
        record = record_of(net_diatomic, (0, 3))
        assert [*record[1], record[0]] == [0.0, 6.0]

    def test_source_is_constant(self, net_bd):
        assert record_of(net_bd, (0,))[1][0] == 3.0
        assert record_of(net_bd, (17,))[1][0] == 3.0

    def test_insufficient_reactants(self, net_bd):
        record = record_of(net_bd, (0,))
        assert [*record[1], record[0]] == [3.0, 3.0]

    def test_matches_ordered_subset_enumeration(self):
        net = parse_network("2 A + 3 B -> 0 @ 1.5")
        compiled = _direct_prepare(net)
        for n_a in range(6):
            for n_b in range(6):
                expected = 1.5 * ordered_selection_count((n_a, n_b), (2, 3))
                total = record_of(net, (n_a, n_b))[0]
                assert total == pytest.approx(expected)
                assert total == _direct_propensities(compiled, (n_a, n_b))[1]

    def test_dimension_check(self, net_bd):
        with pytest.raises(DimensionMismatch):
            simulate(net_bd, (1, 2), 1.0)
        with pytest.raises(DimensionMismatch):
            stationary_histogram(net_bd, (1, 2), 0.0, 1, 1.0)

    def test_overflow_is_population_explosion(self):
        # 1.7e308 * 3 * 2 lies beyond the float range; a short species still gives 0
        net = parse_network("2 A + B -> 0 @ 1.7e308")
        with pytest.raises(PopulationExplosion, match="overflows at state \\(3, 1\\)"):
            record_of(net, (3, 1))
        assert record_of(net, (3, 0))[0] == 0.0
        assert record_of(net, (10**200, 0))[0] == 0.0

    def test_count_beyond_float_range(self):
        # 10**400 has no float: a start holding it is refused before any record;
        # a record does not convert a species its transitions do not consume
        net = parse_network("A -> 0 @ 1\nB -> 0 @ 2")
        with pytest.raises(InvalidValue):
            simulate(net, (10**400, 1), 1.0)
        b_only = parse_network("species: A B\nB -> 0 @ 2")
        assert record_of(b_only, (10**400, 1))[0] == 2.0
        assert record_of(b_only, (10**400, 0))[0] == 0.0


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
        deltas = {tuple(col) for col in net_diatomic.stoichiometric_matrix().T.tolist()}
        for jump in np.diff(traj.states, axis=0):
            assert tuple(jump) in deltas

    def test_reproducible_given_seed(self, net_bd):
        a = simulate(net_bd, (0,), 40.0, seed=123)
        b = simulate(net_bd, (0,), 40.0, seed=123)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
        c = simulate(net_bd, (0,), 40.0, seed=124)
        assert not np.array_equal(a.times, c.times)

    def test_explosion_guard(self, monkeypatch):
        net = parse_network("0 -> A @ 1000")
        monkeypatch.setattr(ssa, "_MAX_COUNT", 50)
        with pytest.raises(PopulationExplosion):
            simulate(net, (0,), 1e9, seed=2)

    def test_jump_budget(self, net_bd, monkeypatch):
        traj = simulate(net_bd, (0,), 40.0, seed=31)
        monkeypatch.setattr(ssa, "_MAX_JUMPS", traj.num_jumps + 1)
        same = simulate(net_bd, (0,), 40.0, seed=31)
        assert np.array_equal(same.times, traj.times)
        assert np.array_equal(same.states, traj.states)
        monkeypatch.setattr(ssa, "_MAX_JUMPS", traj.num_jumps)
        with pytest.raises(BudgetExceeded):
            simulate(net_bd, (0,), 40.0, seed=31)

    def test_path_is_stored_in_typed_buffers(self, net_diatomic):
        # float64 times and int64 states, 24 bytes a jump, in buffers grown by
        # a quarter; a list of Python floats and one of state references,
        # converted at the end, peaked at 66
        tracemalloc.start()
        try:
            traj = simulate(net_diatomic, (50, 0), 700.0, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.num_jumps > 100_000
        assert peak < 40 * traj.num_jumps

    def test_time_averaged_mean_over_1e6_jumps(self, net_bd):
        # stationary law is Poisson(kappa/gamma) with mean 3
        traj = simulate(net_bd, (3,), 170_000.0, seed=9)
        assert traj.num_jumps >= 1_000_000
        holds = np.diff(traj.times)  # each state is weighted by its holding time
        mean = holds @ traj.states[:-1, 0] / holds.sum()
        assert abs(mean - 3.0) <= 0.05

    def test_csv_export(self, net_bd):
        traj = simulate(net_bd, (0,), 1.0, seed=4)
        lines = traj.to_csv(net_bd.species).strip().split("\n")
        assert lines[0] == "t,A"
        assert lines[1] == "0.0,0"
        assert len(lines) == len(traj.times) + 1


def row_by_row_rows(times, states) -> list[str]:
    """The path CSV's rows as the row-at-a-time writer made them: repr of
    the time, str of each count."""
    return [",".join([repr(t), *map(str, row)]) for t, row in zip(times.tolist(), states.tolist())]


def block_rows(times, states) -> list[str]:
    return _pathcsv.csv_rows(times, states).split("\n")[:-1]


_FINITE_BITS = st.integers(0, 0x7FEF_FFFF_FFFF_FFFF).map(
    lambda b: float(np.array(b, dtype=np.int64).view(np.float64)))
_FIXED_POINT = st.floats(-4.0, 16.0).map(lambda e: 10.0**e) | st.floats(1e-4, 1e16)

# repr lanes, decade and range edges, and the largest int64 count
_EDGE_TIMES = [
    0.0, 5e-324, 1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
    9.999999999999999e-05, 0.1, 0.2, 0.3, 0.30000000000000004, 0.09999999999999999,
    *(2.0**k for k in range(-14, 54, 3)), 1e15, 9999999999999998.0, 1e16, 999.9999999999999,
    99999999999999.98, 179933300210598.38, 562949953421312.75, 1.7976931348623157e308,
]


class TestJumpTrajectoryCounts:
    """A path holds one row of int64 counts per time, each non-negative."""

    @pytest.mark.parametrize("times, states", [
        ([0.0], [[-3]]),
        ([0.0], [[2**63]]),
        ([0.0], [[1], [2]]),
        ([0.0, 0.5, 1.25], [[1], [2]]),
        ([0.0], []),
        ([0.0], [[1.5]]),
        ([0.0], [[float("nan")]]),
        ([0.0], np.array([[np.nan]])),
        ([0.0], np.array([[2**63]], dtype=np.uint64)),
    ])
    def test_rejects_what_is_no_path_of_counts(self, times, states):
        # 2**63 raised a bare OverflowError, -3 printed as "0.0,-3", 1.5
        # printed as the count 1, NaN raised numpy's bare ValueError, and
        # the CSV cut rows to the shorter of times and states
        with pytest.raises(InvalidValue):
            ssa.JumpTrajectory(times, states, seed=0)

    def test_largest_int64_count(self):
        traj = ssa.JumpTrajectory([0.0, 0.5], [[2**63 - 1], [0]], seed=0)
        assert traj.to_csv(["A"]) == f"t,A\n0.0,{2**63 - 1}\n0.5,0\n"

    def test_no_species(self):
        traj = ssa.JumpTrajectory([0.0, 1.5], np.zeros((2, 0)), seed=0)
        assert traj.to_csv([]) == "t,\n0.0\n1.5\n"

    def test_start_count_past_int64(self, net_bd):
        with pytest.raises(InvalidValue, match="below 2\\*\\*63"):
            simulate(net_bd, (2**63,), 1.0)
        with pytest.raises(InvalidValue, match="below 2\\*\\*63"):
            stationary_histogram(net_bd, (2**63,), 0.0, 3, 1.0)


class TestPathCsv:
    """The block writer against ``repr`` and ``str``, lane by lane."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FINITE_BITS | _FIXED_POINT, min_size=1, max_size=60),
           st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8))
    def test_times_are_repr_and_counts_str(self, values, counts):
        times = np.array(values)
        states = np.resize(np.array(counts, dtype=np.int64), (len(times), 2))
        assert block_rows(times, states) == row_by_row_rows(times, states)

    def test_edge_table(self):
        times = np.array(_EDGE_TIMES)
        states = np.zeros((len(times), 3), dtype=np.int64)
        states[::2, 0] = 2**63 - 1
        states[:, 1] = np.arange(len(times)) * 997
        assert block_rows(times, states) == row_by_row_rows(times, states)

    def test_signed_and_non_finite_times(self):
        # counts are never negative (JumpTrajectory refuses them), times may be
        times = np.array([-0.0, -1.5, -1.2345678901234567e-300, math.inf, -math.inf, math.nan])
        states = np.array([[1], [2**63 - 1], [7], [0], [10], [2**62]], dtype=np.int64)
        assert block_rows(times, states) == row_by_row_rows(times, states)

    def test_no_species(self):
        times = np.array([0.0, 0.25, 3.0])
        assert block_rows(times, np.zeros((3, 0), dtype=np.int64)) == ["0.0", "0.25", "3.0"]

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_block_seams(self, net_diatomic, monkeypatch, block):
        traj = simulate(net_diatomic, (10, 0), 2.0, seed=7)
        monkeypatch.setattr(ssa, "_CSV_BLOCK", block)
        lines = traj.to_csv(net_diatomic.species).split("\n")
        assert lines == ["t,X1,X2", *row_by_row_rows(traj.times, traj.states), ""]

    def test_stream_gets_each_block_as_formatted(self, net_diatomic, monkeypatch):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        traj = simulate(net_diatomic, (10, 0), 2.0, seed=7)
        monkeypatch.setattr(ssa, "_CSV_BLOCK", 3)
        stream = Recorder()
        assert traj.to_csv(net_diatomic.species, stream) is None
        rows = row_by_row_rows(traj.times, traj.states)
        assert stream.writes == ["t,X1,X2\n", *("".join(f"{row}\n" for row in rows[i : i + 3])
                                                  for i in range(0, len(rows), 3))]
        assert "".join(stream.writes) == traj.to_csv(net_diatomic.species)

    def test_hard_times_take_repr(self):
        # out of range, powers of two, a tie between 17-digit neighbours
        # (...598.375), and one between 16-digit neighbours (...312.75)
        times = np.array([0.0, 5e-324, 9.999999999999999e-05, 1e16, 0.5, 1024.0,
                          179933300210598.38, 562949953421312.75])
        assert not _pathcsv.shortest_digits(times)[-1].any()

    def test_only_the_start_time_takes_repr(self, net_diatomic):
        traj = simulate(net_diatomic, (50, 0), 100.0, seed=7)
        easy = _pathcsv.shortest_digits(traj.times)[-1]
        assert np.flatnonzero(~easy).tolist() == [0]


class TestDrawBlocks:
    """The block-drawn uniforms against ``random.Random(seed).random()``."""

    @pytest.mark.parametrize("seed", [0, 42, -7, 2**80])
    @pytest.mark.parametrize(
        "sizes",
        [
            # below, at and one past the random() block, past which numpy
            # takes over from the generator's state; then two full numpy
            # blocks and a remainder of 5 jumps
            [ssa._FIRST_BLOCK - 1],
            [ssa._FIRST_BLOCK],
            [ssa._FIRST_BLOCK, 1],
            [ssa._FIRST_BLOCK, ssa._DRAW_BLOCK, ssa._DRAW_BLOCK, 5],
        ],
    )
    def test_doubles_of_random(self, seed, sizes):
        jumps = sum(sizes)
        blocks = [list(pairs) for pairs in ssa._draw_blocks(seed, jumps)]
        assert [len(pairs) for pairs in blocks] == sizes
        rng = random.Random(seed)
        expected = [(math.log(1.0 - rng.random()), rng.random()) for _ in range(jumps)]
        assert [pair for pairs in blocks for pair in pairs] == expected

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_block_seams(self, net_bd, net_diatomic, monkeypatch, block):
        path = simulate(net_diatomic, (10, 0), 20.0, seed=7)
        hist = stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=33)
        path_jumps = simulate(net_bd, (0,), 40.0, seed=31).num_jumps
        hist_jumps = simulate(net_bd, (0,), 104.5, seed=33).num_jumps + 1
        monkeypatch.setattr(ssa, "_FIRST_BLOCK", block)
        monkeypatch.setattr(ssa, "_DRAW_BLOCK", block)
        same = simulate(net_diatomic, (10, 0), 20.0, seed=7)
        assert np.array_equal(same.times, path.times)
        assert np.array_equal(same.states, path.states)
        assert stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=33).counts == hist.counts
        # the budget boundaries of TestSimulate and TestStationaryHistogram::test_jump_budget
        monkeypatch.setattr(ssa, "_MAX_JUMPS", path_jumps + 1)
        assert simulate(net_bd, (0,), 40.0, seed=31).num_jumps == path_jumps
        monkeypatch.setattr(ssa, "_MAX_JUMPS", path_jumps)
        with pytest.raises(BudgetExceeded):
            simulate(net_bd, (0,), 40.0, seed=31)
        monkeypatch.setattr(ssa, "_MAX_HIST_JUMPS", hist_jumps)
        assert stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=33).counts == hist.counts
        monkeypatch.setattr(ssa, "_MAX_HIST_JUMPS", hist_jumps - 1)
        with pytest.raises(BudgetExceeded):
            stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=33)


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

    def test_jump_budget(self, net_bd, monkeypatch):
        hist = stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=33)
        # both draw the same numbers, so the histogram's last jump is the
        # first one after its last sample, at 5.0 + 199 * 0.5
        jumps = simulate(net_bd, (0,), 104.5, seed=33).num_jumps + 1
        monkeypatch.setattr(ssa, "_MAX_HIST_JUMPS", jumps)
        assert stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=33).counts == hist.counts
        monkeypatch.setattr(ssa, "_MAX_HIST_JUMPS", jumps - 1)
        with pytest.raises(BudgetExceeded):
            stationary_histogram(net_bd, (0,), 5.0, 200, 0.5, seed=33)
        # more samples than the budget are refused before the first jump
        monkeypatch.setattr(ssa, "_MAX_HIST_JUMPS", 199)
        with pytest.raises(BudgetExceeded):
            stationary_histogram(Network(("A",)), (2,), 1.0, 200, 0.5, seed=6)

    def test_counts_sum_validated(self):
        with pytest.raises(InvalidValue):
            Histogram({(0,): 3}, 4, (1,))
        with pytest.raises(InvalidValue):
            Histogram({(2,): 3}, 3, (1,))
        # counts are sample tallies: a zero total divided the frequencies by
        # zero, and counts of -1 or 0.5 were printed as frequencies
        for counts, total in [({(0,): 0}, 0), ({(0,): -1, (1,): 2}, 1),
                              ({(0,): 0.5, (1,): 0.5}, 1), ({(0,): 2.0}, 2), ({}, 0)]:
            with pytest.raises(InvalidValue, match="positive integers"):
                Histogram(counts, total, (1,))

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

    def test_reference_underflow_is_typed_error(self):
        # Poisson(1000) weights on {0, 1} are below exp(-993): all round to 0
        hist = Histogram({(0,): 3, (1,): 2}, 5, (1,))
        with pytest.raises(InvalidValue, match="underflows on the box \\(1,\\)"):
            compare_to_poisson(hist, [1000.0])

    def test_box_budget_before_the_weights(self):
        # 4097**2 = 16,785,409 states, just over fock._MAX_STATES = 2**24:
        # refused before the box-sized weights are allocated
        hist = Histogram({(4096, 4096): 1}, 1, (4096, 4096))
        assert 4097**2 > fock._MAX_STATES
        with pytest.raises(BudgetExceeded, match="exceeds 16777216 states"):
            compare_to_poisson(hist, [1.0, 1.0])

    def test_no_species_is_typed_error(self):
        hist = stationary_histogram(parse_network("0 -> 0 @ 1"), (), 1.0, 5, 1.0)
        assert hist.counts == {(): 5}
        with pytest.raises(InvalidValue, match="at least one species"):
            compare_to_poisson(hist, ())

    # recorded from exp of the outer sum of the log tables, before
    # compare_to_poisson moved to the coherent weights; re-recorded when those
    # became products of 1-D tables, where the birth-death TV distance moved
    # in its last digit (...715 -> ...719) and the diatomic pins held
    @pytest.mark.parametrize("text, n0, hist_args, c, caps, tv, means", POISSON_COMPARISONS)
    def test_bytes_of_the_log_weight_route(self, text, n0, hist_args, c, caps, tv, means):
        hist = stationary_histogram(parse_network(text), n0, *hist_args)
        assert hist.caps == caps
        result = compare_to_poisson(hist, c)
        assert repr(result.tv_distance) == tv
        assert result.per_species_means.tobytes().hex() == means

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_means_are_typed_errors(self, mean):
        hist = Histogram({(0,): 1}, 1, (0,))
        with pytest.raises(InvalidValue):
            compare_to_poisson(hist, [mean])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
    def test_matches_state_array_route(self, seed, k):
        # the reference law and the empirical mass from the full state array
        rng = random.Random(seed)
        caps = tuple(rng.randint(0, 6) for _ in range(k))
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(rng.randint(1, 30)):
            state = tuple(rng.randint(0, cap) for cap in caps)
            counts[state] = counts.get(state, 0) + rng.randint(1, 10**6)
        hist = Histogram(counts, sum(counts.values()), caps)
        c = [rng.choice((0.0, rng.uniform(0.0, 8.0))) for _ in range(k)]
        shape = tuple(cap + 1 for cap in caps)
        states = np.indices(shape).reshape(k, -1).T
        reference = poisson_weights(c, caps)
        reference /= reference.sum()
        empirical = np.zeros(states.shape[0])
        for state, count in counts.items():
            empirical[int(np.ravel_multi_index(state, shape))] = count / hist.total
        means = np.zeros(k)
        for state, count in counts.items():
            means += np.asarray(state, dtype=float) * count
        means /= hist.total
        result = compare_to_poisson(hist, c)
        assert result.tv_distance == 0.5 * float(np.abs(empirical - reference).sum())
        assert np.array_equal(result.per_species_means, means)


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
            abs(hist.counts.get(tuple(states[i].tolist()), 0) / hist.total - projected.weights[i])
            for i in sector
        )
        assert tv <= 0.05


def _outcome(compute):
    try:
        return compute()
    except PopulationExplosion as exc:
        return str(exc)


class TestMatchesDirectMethod:
    @settings(max_examples=100, deadline=None)
    @given(
        net_seed=st.integers(0, 2**32 - 1),
        reversible=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        max_count=st.integers(2, 40),
        jumps=st.integers(1, 300),
        fraction=st.just(1.0) | st.floats(0.5, 1.0),
        burn_in=st.floats(0.0, 1.0),
        samples=st.integers(1, 40),
        data=st.data(),
    )
    def test_same_draws_same_outputs(
        self, net_seed, reversible, seed, max_count, jumps, fraction, burn_in, samples, data
    ):
        # random networks mostly absorb or explode within a few jumps;
        # reversible ones keep long chains going
        rng = random.Random(net_seed)
        net = balanced_reversible_network(rng)[0] if reversible else random_network(rng)
        k = net.num_species
        n0 = data.draw(st.lists(st.integers(0, max_count + 1), min_size=k, max_size=k))
        # Horizons come from the oracle's own chain, so no run makes more
        # than `jumps` jumps whatever the rates: `span` is the time of the
        # last jump (fraction 1.0 puts t_end exactly on it), or a far
        # horizon when the chain explodes before it.
        try:
            times, _ = direct_simulate(net, n0, 1e300, seed, max_count, max_jumps=jumps)
            span = times[-1] or 1.0
        except PopulationExplosion:
            span = 1e300
        t_end = fraction * span

        def path():
            traj = simulate(net, n0, t_end, seed=seed)
            return traj.times.tolist(), [tuple(row) for row in traj.states.tolist()]

        args = (net, n0, burn_in * span / 2, samples, span / (2 * samples), seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ssa, "_MAX_COUNT", max_count)
            assert _outcome(path) == _outcome(
                lambda: direct_simulate(net, n0, t_end, seed, max_count)
            )
            assert _outcome(lambda: stationary_histogram(*args).counts) == _outcome(
                lambda: direct_histogram(*args, max_count)
            )

    def test_memo_eviction_does_not_change_results(self, net_bd, monkeypatch):
        traj = simulate(net_bd, (0,), 40.0, seed=31)
        hist = stationary_histogram(net_bd, (0,), 5.0, 500, 0.5, seed=32)
        visited = {tuple(row) for row in traj.states.tolist()}
        assert len(visited) > 2
        tables = []

        class Recording(ssa._Records):
            computed = 0

            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

            def __missing__(self, state):
                self.computed += 1
                return super().__missing__(state)

            def clear(self):
                # a full table unlinks every record before it lets go of them
                assert len(self) <= 2
                assert all(slot is None for record in self.values() for slot in record[2])
                super().clear()

        monkeypatch.setattr(ssa, "_Records", Recording)
        monkeypatch.setattr(ssa, "_MEMO_STATES", 2)
        small = simulate(net_bd, (0,), 40.0, seed=31)
        assert np.array_equal(small.times, traj.times)
        assert np.array_equal(small.states, traj.states)
        assert stationary_histogram(net_bd, (0,), 5.0, 500, 0.5, seed=32).counts == hist.counts
        # a bound of 2 really evicted: more records were computed than states visited
        assert tables[0].computed > len(visited)
        assert all(len(table) <= 2 for table in tables)
