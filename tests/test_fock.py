import math
import random
import tracemalloc
import warnings
from functools import reduce

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply
from scipy.stats import poisson

from crnkit import fock
from crnkit import (
    BoxMismatch,
    BudgetExceeded,
    CountVector,
    DimensionMismatch,
    EmptySector,
    InvalidValue,
    MixedState,
    NegativeConcentration,
    Network,
    PopulationExplosion,
    SparseOperator,
    SymmetryOverflow,
    Transition,
    TruncationBox,
    ack_residual,
    annihilation,
    apply_symmetry,
    coherent_state,
    commutator,
    conserved_quantities,
    creation,
    default_box,
    evolve_master,
    hamiltonian,
    linear_observable,
    master_residual,
    network_margin,
    noether_report,
    number_operator,
    parse_network,
    poisson_logpmf,
    project_onto,
    pure_state,
)

from support import (
    closed_network,
    coo_hamiltonian,
    csr_uniformization,
    dense_hamiltonian,
    dense_ladders,
    exp_product,
    full_array_noether_report,
    interior_mask,
    max_abs,
    ordered_selection_count,
    poisson_weights,
    random_network,
    sigma_box,
    symmetry_weights,
    with_extreme_rates,
)


@pytest.fixture
def decay_net():
    return parse_network("species: A\nA -> 0 @ 1")


class TestTruncationBox:
    def test_row_major_enumeration(self):
        box = TruncationBox((2, 3))
        assert box.size == 12
        assert box.index_of((0, 0)) == 0
        assert box.index_of((1, 2)) == 6
        assert np.unravel_index(6, box.shape) == (1, 2)
        states = box.states()
        assert states.shape == (12, 2)
        assert [box.index_of(s) for s in states] == list(range(12))
        assert vars(box) == {"caps": (2, 3)}  # nothing cached on the frozen box

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationBox(())
        with pytest.raises(ValueError):
            TruncationBox((0,))

    @pytest.mark.parametrize("cap", [2.7, -1, math.nan, math.inf, 2**63])
    def test_cap_that_is_no_count_is_typed_error(self, cap):
        # int() floored 2.7 to the cap 2, NaN raised a bare ValueError, inf an
        # OverflowError; 2**63 is no int64 count, so E_VALUE comes before E_BUDGET
        with pytest.raises(InvalidValue):
            TruncationBox((cap,))

    def test_contains(self):
        box = TruncationBox((2, 2))
        assert box.index_of((2, 0)) == 6
        with pytest.raises(InvalidValue):
            box.index_of((3, 0))

    @pytest.mark.parametrize("count", [1.7, 5.9, -0.5, math.nan])
    def test_count_that_is_no_count_is_typed_error(self, count):
        # int() floored 1.7 to state 1 and -0.5 to state 0, and NaN raised a bare ValueError
        with pytest.raises(InvalidValue):
            pure_state(TruncationBox((5,)), (count,))


class TestLadderOperators:
    def test_annihilation_coefficients(self):
        box = TruncationBox((3,))
        a = annihilation(0, box).matrix.toarray()
        assert a[2, 3] == 3.0
        assert a[:, 0].sum() == 0.0  # derivative of the vacuum is zero

    def test_annihilation_nnz_counts_subdiagonal(self):
        box = TruncationBox((3,))
        assert annihilation(0, box).nnz == 3

    def test_creation_shifts_and_truncates(self):
        box = TruncationBox((3,))
        c = creation(0, box).matrix.toarray()
        assert c[2, 1] == 1.0
        assert c[:, 3].sum() == 0.0  # outflow at the cap is dropped

    def test_number_operator_is_creation_annihilation(self):
        box = TruncationBox((4,))
        composed = creation(0, box) @ annihilation(0, box)
        n_op = number_operator(0, box)
        assert np.array_equal(composed.matrix.toarray(), n_op.matrix.toarray())
        assert np.array_equal(n_op.matrix.toarray().diagonal(), np.arange(5.0))

    def test_canonical_commutator_on_interior(self):
        box = TruncationBox((5,))
        c = commutator(annihilation(0, box), creation(0, box)).matrix.toarray()
        for n in range(5):
            assert c[n, n] == 1.0
        assert c[5, 5] == -5.0  # boundary row differs under truncation

    def test_linear_observable_eigenvalues(self):
        box = TruncationBox((4, 4))
        obs = linear_observable((2, 1), box)
        idx = box.index_of((1, 3))
        assert obs.matrix.toarray()[idx, idx] == 5.0

    def test_zero_weight_gives_zero_operator(self):
        assert linear_observable((0, 0), TruncationBox((3, 3))).nnz == 0

    @pytest.mark.parametrize("w, error", [
        ((0.5, 1), InvalidValue),
        ((1.9, 1), InvalidValue),
        ((2.7, 1), InvalidValue),
        ((math.nan, 1), InvalidValue),
        ((math.inf, 1), InvalidValue),
        ((2**70, 1), InvalidValue),
        ((2**63, 1), InvalidValue),
        ((2**62, 1), InvalidValue),  # int64 entries, but w . n reaches 2**63 at n = (2, 0)
        ((2, 1, 0), DimensionMismatch),
    ])
    @pytest.mark.parametrize("use", ["observable", "projection", "symmetry"])
    def test_weight_vector_that_is_no_int64_is_typed_error(self, w, error, use):
        # int64 conversion truncated 0.5 to 0, 1.9 to 1 and 2.7 to 2; NaN raised a
        # bare ValueError and 2**70 an OverflowError
        box = TruncationBox((3, 3))
        with pytest.raises(error):
            if use == "observable":
                linear_observable(w, box)
            elif use == "projection":
                project_onto(pure_state(box, (1, 1)), w, 1)
            else:
                apply_symmetry((1.0, 1.0), w, 0.3, box)

    def test_values_at_the_int64_bound_fit(self):
        # sum |w_i| cap_i = 2**63 - 1 fits, and so does every w . n
        top = linear_observable((2**62 - 1, 1), TruncationBox((2, 1))).matrix.diagonal()
        assert top[-1] == float(2**63 - 1)

    def test_wrong_matrix_shape(self):
        with pytest.raises(DimensionMismatch):
            SparseOperator(TruncationBox((3,)), sp.csr_matrix((3, 3)))

    def test_apply_to_vector_of_wrong_shape(self):
        op = number_operator(0, TruncationBox((3,)))
        with pytest.raises(DimensionMismatch):
            op.apply(np.ones(3))

    def test_box_mismatch(self):
        with pytest.raises(BoxMismatch):
            commutator(number_operator(0, TruncationBox((2,))),
                       number_operator(0, TruncationBox((3,))))


class TestHamiltonian:
    def test_decay_entries_exact(self, decay_net):
        box = TruncationBox((3,))
        h = hamiltonian(decay_net, box).matrix.toarray()
        expected = np.zeros((4, 4))
        for n in range(1, 4):
            expected[n - 1, n] = n
            expected[n, n] = -n
        assert np.array_equal(h, expected)

    def test_no_transitions_zero_operator(self):
        from crnkit import Network

        assert hamiltonian(Network(("A",)), TruncationBox((4,))).nnz == 0

    def test_column_sums_vanish(self, net_diatomic, net_bd, net_catalyst):
        for net in (net_diatomic, net_bd, net_catalyst):
            box = TruncationBox((6,) * net.num_species if net.num_species < 4 else (3,) * 4)
            sums = np.asarray(hamiltonian(net, box).matrix.sum(axis=0))
            assert np.abs(sums).max(initial=0.0) <= 1e-14

    def test_column_sums_vanish_relative_on_random_networks(self):
        # random rates span twelve decades, so the zero is relative there
        rng = random.Random(5)
        for _ in range(10):
            net = random_network(rng, max_species=3, max_transitions=4)
            box = TruncationBox((4,) * net.num_species)
            h = hamiltonian(net, box)
            mass = np.asarray(np.abs(h.matrix).sum(axis=0)).ravel().max(initial=0.0)
            sums = np.asarray(h.matrix.sum(axis=0))
            assert np.abs(sums).max(initial=0.0) <= 1e-14 * max(1.0, float(mass))

    def test_matches_dense_composition_route(self, net_diatomic, net_bd, net_catalyst):
        for net, caps in (
            (net_bd, (6,)),
            (net_diatomic, (5, 5)),
            (net_catalyst, (2, 2, 2, 2)),
        ):
            box = TruncationBox(caps)
            sparse = hamiltonian(net, box).matrix.toarray()
            dense = dense_hamiltonian(net, box)
            assert np.abs(sparse - dense).max() <= 1e-12

    def test_falling_factorial_matches_enumeration(self):
        net = parse_network("2 A + 3 B -> 0 @ 1")
        box = TruncationBox((5, 5))
        h = hamiltonian(net, box).matrix.toarray()
        zero_idx = box.index_of((0, 0))
        for n_a in range(6):
            for n_b in range(6):
                col = box.index_of((n_a, n_b))
                expected = ordered_selection_count((n_a, n_b), (2, 3))
                if (n_a, n_b) == (2, 3):
                    assert h[zero_idx, col] == expected  # lands on the vacuum
                elif expected:
                    target = box.index_of((n_a - 2, n_b - 3))
                    assert h[target, col] == expected
                    assert h[col, col] == -expected

    def test_self_loops_change_nothing(self, net_diatomic):
        looped = Network(
            net_diatomic.species,
            (*net_diatomic.transitions, Transition((1, 1), (1, 1), 1e7)),
        )
        box = TruncationBox((6, 6))
        plain, with_loop = hamiltonian(net_diatomic, box).matrix, hamiltonian(looped, box).matrix
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(with_loop, name), getattr(plain, name))

    def test_dimension_check(self, net_diatomic):
        with pytest.raises(DimensionMismatch):
            hamiltonian(net_diatomic, TruncationBox((3,)))

    def test_slot_budget(self, net_diatomic, monkeypatch):
        # 6 x 6 states, three offsets: the diagonal and one per transition
        box = TruncationBox((5, 5))
        monkeypatch.setattr(fock, "_MAX_SLOTS", 108)
        assert hamiltonian(net_diatomic, box).nnz > 0
        monkeypatch.setattr(fock, "_MAX_SLOTS", 107)
        with pytest.raises(BudgetExceeded):
            hamiltonian(net_diatomic, box)


class TestMatchesDenseLadders:
    @settings(max_examples=40, deadline=None)
    @given(
        caps=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        w=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    def test_every_species_and_observable(self, caps, w):
        # beyond one species the strides exceed 1, so ladders are off-by-stride diagonals
        box = TruncationBox(tuple(caps))
        lowers, raisers = dense_ladders(box)
        w = w[: box.k]
        ops = [(annihilation(i, box), lowers[i]) for i in range(box.k)]
        ops += [(creation(i, box), raisers[i]) for i in range(box.k)]
        ops.append((linear_observable(w, box), np.diag((box.states() @ np.array(w)).astype(float))))
        # products and commutators come from scipy as they are, with no clean-up pass
        ops += [(creation(i, box) @ annihilation(i, box), raisers[i] @ lowers[i])
                for i in range(box.k)]
        ops += [(commutator(annihilation(i, box), creation(i, box)),
                 lowers[i] @ raisers[i] - raisers[i] @ lowers[i]) for i in range(box.k)]
        for op, dense in ops:
            mat = op.matrix
            assert np.array_equal(mat.toarray(), dense)
            assert mat.nnz == np.count_nonzero(dense)  # no stored zeros
            assert (mat.data != 0).all()
            for start, stop in zip(mat.indptr[:-1], mat.indptr[1:]):
                assert (np.diff(mat.indices[start:stop]) > 0).all()


class TestMatchesCooAssembly:
    @settings(max_examples=150, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), crowded=st.booleans(), data=st.data())
    def test_same_csr_arrays(self, net_seed, crowded, data):
        # Self-loops are left out of the oracle's network: its +f - f on the
        # diagonal can round a small total to 0, which the generator skips.
        # Crowded networks give some rows more than 16 triplets, which
        # scipy's sort no longer keeps in transition order before adding.
        rng = random.Random(net_seed)
        if crowded:
            net = random_network(rng, max_species=3, max_transitions=12, max_coeff=2)
        else:
            net = random_network(rng)
        plain = Network(net.species, tuple(t for t in net.transitions if t.input != t.output))
        k = net.num_species
        box = TruncationBox(tuple(data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))))
        rows, cols, vals = coo_hamiltonian(plain, box)
        shape = (box.size, box.size)
        oracle = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=shape))
        oracle.eliminate_zeros()
        oracle.sort_indices()
        terms = sp.csr_matrix((np.ones(vals.size), (rows, cols)), shape=shape)
        terms.sort_indices()
        got = hamiltonian(net, box).matrix
        assert np.array_equal(got.indptr, oracle.indptr)
        assert np.array_equal(got.indices, oracle.indices)
        assert np.array_equal(terms.indices, oracle.indices)
        # One or two terms add the same in any order.  m terms of one sign
        # added in two orders differ by at most (m - 1) eps |sum|: 4 ulp at 5.
        few = terms.data <= 2
        assert np.array_equal(got.data[few], oracle.data[few])
        bound = (terms.data[~few] - 1) * np.finfo(float).eps * np.abs(oracle.data[~few])
        assert (np.abs(got.data[~few] - oracle.data[~few]) <= bound).all()


class TestGeneratorDiagonals:
    """``_generator``'s diagonals and the commutator the certificates compute
    without them; the CSR generator is the oracle of both."""

    @staticmethod
    def csr_commutator_max_abs(h, w):
        # one pass over the CSR entries, rows gathered from indptr
        mat, o = h.matrix, fock._sector_values(w, h.box)
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        return float(np.abs(mat.data * (o[mat.indices] - o[rows])).max(initial=0.0))

    def check(self, net, box, seed):
        rng = np.random.default_rng(seed)
        gen, h = fock._generator(net, box), hamiltonian(net, box)
        assert np.all(np.diff(gen.offsets) > 0)
        for _ in range(3):
            v = rng.random(box.size) * 10.0 ** rng.integers(-8, 9, box.size)
            v[rng.random(box.size) < 0.3] = 0.0
            assert (gen @ v).tobytes() == h.apply(v).tobytes()
        for w in [*conserved_quantities(net), *rng.integers(-3, 4, (3, box.k)).tolist()]:
            assert fock._commutator_max_abs(net, box, w) == self.csr_commutator_max_abs(h, w)

    @settings(max_examples=100, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_networks(self, net_seed, data):
        net = random_network(random.Random(net_seed), max_species=3, max_transitions=8)
        box = TruncationBox(tuple(data.draw(st.lists(st.integers(1, 5), min_size=net.num_species,
                                                     max_size=net.num_species))))
        self.check(net, box, net_seed)

    def test_self_loop_and_shared_diagonal(self):
        # at caps (3, 3) the strides are (4, 1): 3 B -> A and 0 -> B both move
        # the flat index by +1, so both fill the diagonal at offset -1
        net = parse_network("species: A B\n3 B -> A @ 1.5\n0 -> B @ 2.5\nA -> A @ 0.7\nA + B -> 0 @ 0.3")
        box = TruncationBox((3, 3))
        assert fock._generator(net, box).offsets.tolist() == [-1, 0, 5]
        for seed in range(5):
            self.check(net, box, seed)


class TestBoxProductStructure:
    @pytest.mark.parametrize("caps", [(7,), (3, 5), (2, 3, 4), (1, 2, 1, 3)])
    def test_coherent_weights_match_state_array_route(self, caps):
        box = TruncationBox(caps)
        c = np.array([0.7, 3.0, 0.0, 12.5][: box.k])
        psi, _ = coherent_state(c, box)
        assert np.array_equal(psi.weights, poisson_weights(c, caps))

    @pytest.mark.parametrize("c", [(500.0, 1000.0), (30.0, 20.0, 12.0), (1250.0, 50.0), (5000.0, 100.0)])
    def test_benchmark_boxes_match_state_array_route_at_drawn_states(self, c):
        # the certify benchmark's default boxes, up to 1.16M states, read at
        # states drawn uniformly and from the law itself; at c = (5000, 100)
        # the log-gamma tables' cancellation error puts the weights' sum at
        # 1 + 2.0e-12, which the MixedState guard refuses
        box = default_box(c, 2)
        weights = fock._coherent_weights(c, box.caps)
        rng = np.random.default_rng(3)
        states = np.vstack([rng.integers(0, np.array(box.caps) + 1, size=(1000, box.k)),
                            np.minimum(rng.poisson(c, size=(1000, box.k)), box.caps)])
        lanes = np.ravel_multi_index(states.T, box.shape)
        assert np.array_equal(weights[lanes], exp_product(poisson.logpmf(states, c)))
        if c == (5000.0, 100.0):
            with pytest.raises(InvalidValue, match="sum above 1"):
                coherent_state(c, box)
        else:
            psi, tail = coherent_state(c, box)
            assert psi.weights.tobytes() == weights.tobytes()
            assert psi.total == float(weights.sum()) and tail == max(0.0, 1.0 - psi.total)

    @pytest.mark.parametrize("caps", [(2, 5, 3), (5, 5)])
    @pytest.mark.parametrize("margin", [-1, 0, 1, 2, 3, 6, 7])
    def test_interior_slices_match_state_array_route(self, caps, margin):
        box = TruncationBox(caps)
        mask = np.zeros(box.shape, dtype=bool)
        mask[fock._interior(box, margin)] = True
        assert np.array_equal(mask.ravel(), interior_mask(box, margin))

    def test_sector_values_match_state_array_route(self):
        box = TruncationBox((3, 4, 2))
        w = (2, -1, 3)
        obs = linear_observable(w, box).matrix.toarray().diagonal()
        assert np.array_equal(obs, (box.states() @ np.array(w)).astype(float))


class TestPoissonHelpers:
    MEANS = [0.0, 1e-3, 3.0, 3120.0, 5000.0]

    @pytest.mark.parametrize("mean", MEANS)
    def test_logpmf_and_pmf_match_scipy_stats_exactly(self, mean):
        k = np.arange(int(mean + 20 * math.sqrt(mean)) + 30)
        assert np.array_equal(poisson_logpmf(k, mean), poisson.logpmf(k, mean))
        assert np.array_equal(np.exp(poisson_logpmf(k, mean)), poisson.pmf(k, mean))

    @pytest.mark.parametrize("mean", MEANS)
    @pytest.mark.parametrize("q", [1e-14, 1e-6, 0.5])
    def test_isf_matches_scipy_stats_exactly(self, mean, q):
        assert fock._poisson_isf(q, mean) == poisson.isf(q, mean)

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_isf_is_nan_out_of_range(self, mean):
        assert math.isnan(fock._poisson_isf(1e-14, mean))

    @pytest.mark.parametrize("mean", MEANS)
    def test_table_is_math_exp_of_the_logpmf(self, mean):
        # the one table every Poisson weight array is built from, plain and
        # tilted by e^(tilt n) and scaled to a largest entry of exactly 1
        cap = int(mean + 20 * math.sqrt(mean)) + 30
        n = np.arange(cap + 1)
        logs = poisson.logpmf(n, mean)
        assert np.array_equal(fock._poisson_table(mean, cap), [math.exp(v) for v in logs])
        tilted = logs - 0.3 * n
        tilted -= tilted.max()
        table = fock._poisson_table(mean, cap, -0.3)
        assert table.max() == 1.0 and np.array_equal(table, [math.exp(v) for v in tilted])


class TestCoherentState:
    def test_zero_means_point_mass(self):
        box = TruncationBox((4, 4))
        psi, tail = coherent_state([0.0, 0.0], box)
        assert psi.weights[box.index_of((0, 0))] == 1.0
        assert psi.total == 1.0 and tail == 0.0

    def test_poisson_weight_value(self):
        box = TruncationBox((10,))
        psi, _ = coherent_state([3.0], box)
        assert psi.weights[box.index_of((2,))] == pytest.approx(math.exp(-3) * 9 / 2, rel=1e-12)

    def test_product_structure(self):
        box = TruncationBox((6, 7))
        psi, _ = coherent_state([0.5, 2.0], box)
        for n1, n2 in ((0, 0), (1, 3), (4, 2), (6, 7)):
            expected = poisson.pmf(n1, 0.5) * poisson.pmf(n2, 2.0)
            assert psi.weights[box.index_of((n1, n2))] == pytest.approx(expected, rel=1e-12)

    def test_tail_mass_matches_survival(self):
        psi, tail = coherent_state([3.0], TruncationBox((3,)))
        assert tail == pytest.approx(1.0 - poisson.cdf(3, 3.0), rel=1e-12)

    def test_rejects_negative_means(self):
        with pytest.raises(NegativeConcentration):
            coherent_state([-1.0], TruncationBox((3,)))


class TestMixedState:
    def test_rejects_negative_weights(self):
        box = TruncationBox((2,))
        with pytest.raises(ValueError):
            MixedState(box, np.array([0.5, -0.1, 0.0]))

    def test_rejects_nan_weights(self):
        # NaN passed both the sign and the mass check, and a mat-vec spreads it
        with pytest.raises(InvalidValue):
            MixedState(TruncationBox((2,)), np.array([math.nan, 0.0, 0.0]))

    def test_rejects_weights_of_wrong_shape(self):
        with pytest.raises(InvalidValue, match="expected \\(3,\\)"):
            MixedState(TruncationBox((2,)), np.array([0.5, 0.5]))

    def test_rejects_excess_mass(self):
        box = TruncationBox((2,))
        with pytest.raises(ValueError):
            MixedState(box, np.array([0.8, 0.4, 0.0]))

    def test_csv_export(self):
        box = TruncationBox((2, 2))
        psi = pure_state(box, (1, 2))
        csv = psi.to_csv(("X1", "X2"))
        lines = csv.strip().split("\n")
        assert lines[0] == "X1,X2,probability"
        assert lines[1] == "1,2,1.0"
        assert len(lines) == 2


class TestEvolveMaster:
    def test_zero_time_is_identity(self, decay_net):
        box = TruncationBox((3,))
        h = hamiltonian(decay_net, box)
        psi0 = pure_state(box, (2,))
        psi = evolve_master(h, psi0, 0.0)
        assert np.array_equal(psi.weights, psi0.weights)

    def test_state_on_another_box(self, decay_net):
        h = hamiltonian(decay_net, TruncationBox((3,)))
        with pytest.raises(BoxMismatch):
            evolve_master(h, pure_state(TruncationBox((4,)), (1,)), 1.0)

    def test_single_particle_decay_closed_form(self, decay_net):
        box = TruncationBox((3,))
        h = hamiltonian(decay_net, box)
        psi0 = pure_state(box, (1,))
        psi = evolve_master(h, psi0, 2.0)
        assert psi.weights[box.index_of((1,))] == pytest.approx(math.exp(-2.0), abs=1e-8)
        late = evolve_master(h, psi0, 30.0)
        assert abs(late.weights[box.index_of((0,))] - 1.0) <= 1e-9

    def test_probability_conserved(self, net_diatomic):
        box = TruncationBox((8, 8))
        h = hamiltonian(net_diatomic, box)
        psi0 = pure_state(box, (3, 1))
        psi = evolve_master(h, psi0, 1.0)
        assert abs(psi.total - 1.0) <= 1e-10

    def test_sector_masses_preserved(self, net_diatomic):
        box = TruncationBox((8, 8))
        h = hamiltonian(net_diatomic, box)
        psi0 = pure_state(box, (3, 1))
        psi = evolve_master(h, psi0, 1.0)
        sector_values = box.states() @ np.array([2, 1])
        for lam in np.unique(sector_values):
            mask = sector_values == lam
            before = psi0.weights[mask].sum()
            after = psi.weights[mask].sum()
            assert abs(after - before) <= 1e-10

    def test_balanced_coherent_state_is_stationary(self, net_diatomic):
        box = TruncationBox((25, 25))
        h = hamiltonian(net_diatomic, box)
        psi0, _ = coherent_state([0.5, 1.0], box)
        psi = evolve_master(h, psi0, 1.0)
        inside = interior_mask(box, network_margin(net_diatomic))
        drift = np.abs(psi.weights - psi0.weights)[inside].sum()
        assert drift <= 1e-8

    @pytest.mark.parametrize(
        "net_name, caps, start, t",
        [
            ("net_diatomic", (8, 8), ("pure", (3, 1)), 1.0),
            ("net_diatomic", (8, 8), ("coherent", (2.0, 1.5)), 1.0),
            ("net_bd", (60,), ("pure", (5,)), 2.0),
        ],
    )
    def test_matches_expm_multiply(self, request, net_name, caps, start, t):
        box = TruncationBox(caps)
        h = hamiltonian(request.getfixturevalue(net_name), box)
        kind, value = start
        psi0 = pure_state(box, value) if kind == "pure" else coherent_state(value, box)[0]
        psi = evolve_master(h, psi0, t)
        reference = expm_multiply(h.matrix * t, psi0.weights)
        assert np.abs(psi.weights - reference).max() <= 1e-12

    def test_large_poisson_mean_stays_nonnegative_and_conservative(self, net_diatomic):
        # Lambda*t = 3120: the raw Poisson pmf over the window sums to 1 + 2.9e-12
        box = TruncationBox((40, 40))
        h = hamiltonian(net_diatomic, box)
        psi0 = pure_state(box, (12, 5))
        psi = evolve_master(h, psi0, 2.0)
        assert psi.weights.min() >= 0
        assert abs(psi.total - psi0.total) <= 1e-12


class TestBandedUniformization:
    """``evolve_master`` steps on a banded P; the CSR loop it replaced is the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), closed=st.booleans(),
           start=st.sampled_from(["coherent", "pure", "two sectors", "zero"]),
           scale=st.sampled_from([0.05, 1.0, 7.5, 60.0]), data=st.data())
    def test_same_bytes_as_csr_loop(self, net_seed, closed, start, scale, data):
        rng = random.Random(net_seed)
        net = (closed_network if closed else random_network)(rng, max_species=3, max_transitions=6)
        k = net.num_species
        box = TruncationBox(tuple(data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))))
        psi0 = self.start_state(start, net, box, rng)
        h = hamiltonian(net, box)
        lam = float(np.abs(h.diagonal()).max(initial=0.0))
        if lam == 0:
            assert evolve_master(h, psi0, 1.0) is psi0
            return
        t = scale / lam  # Lambda*t = scale: from one term to a few hundred
        got = evolve_master(h, psi0, t).weights
        assert got.tobytes() == csr_uniformization(h, psi0, t).tobytes()

    @staticmethod
    def start_state(kind, net, box, rng):
        if kind == "coherent":
            return coherent_state([rng.uniform(0.0, 5.0) for _ in range(net.num_species)], box)[0]
        weights = np.zeros(box.size)
        if kind == "zero":
            return MixedState(box, weights)
        first = box.index_of([rng.randint(0, cap) for cap in box.caps])
        weights[first] = 1.0
        if kind == "two sectors":  # the second state off the first's sector, where there is one
            laws = conserved_quantities(net)
            values = fock._sector_values(laws[0], box) if laws else np.arange(box.size)
            others = np.flatnonzero(values != values[first]).tolist()
            if others:
                weights[first], weights[rng.choice(others)] = 0.25, 0.75
        return MixedState(box, weights)

    @pytest.mark.parametrize("text, caps, n0, states", [
        # the evolve workload's pure start: 2 n1 + n2 = 35 holds 18 of 1,681 states
        ("X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1", (40, 40), (15, 5), 18),
        # strides (4, 2, 1): C -> B and 0 -> C change (0, 1, -1) and (0, 0, 1), both
        # one flat step; only n_A is conserved, so one change per offset would lose one
        ("species: A B C\nC -> B @ 1\n0 -> C @ 2", (3, 1, 1), (2, 0, 0), 4),
        # 2 A -> C never fires below cap 1, so n_C is conserved inside the box too
        ("A <-> B @ 1, 2\n2 A -> C @ 5", (1, 4, 4), (1, 2, 3), 2),
        # no conservation law: the whole box
        ("species: A\n0 -> A @ 3\nA -> 0 @ 1", (30,), (4,), None),
    ])
    def test_occupied_sectors(self, text, caps, n0, states):
        box = TruncationBox(caps)
        h = hamiltonian(parse_network(text), box)
        psi0 = pure_state(box, n0)
        entries = h.matrix.tocoo()
        sector = fock._occupied_sectors(box, entries.row, entries.col, entries.data, psi0.weights)
        assert (sector if sector is None else int(sector[0].sum())) == states
        got = evolve_master(h, psi0, 1.5).weights
        assert got.tobytes() == csr_uniformization(h, psi0, 1.5).tobytes()

    @pytest.mark.parametrize("start", [("pure", (15, 5)), ("coherent", (2.0, 3.0))])
    def test_evolve_workload_shape(self, net_diatomic, start):
        box = TruncationBox((40, 40))
        h = hamiltonian(net_diatomic, box)
        kind, value = start
        psi0 = pure_state(box, value) if kind == "pure" else coherent_state(value, box)[0]
        got = evolve_master(h, psi0, 2.0).weights
        assert got.tobytes() == csr_uniformization(h, psi0, 2.0).tobytes()

    def test_many_offsets_without_warning(self):
        # 0 -> iA + jB moves the flat index by -(13 i + j) on caps (12, 12):
        # 120 distinct offsets, beyond the 100 at which csr.todia() warns
        births = [Transition(CountVector((0, 0)), CountVector((i, j)), 0.01 * (1 + i + j))
                  for i in range(11) for j in range(11) if i or j]
        deaths = [Transition(CountVector(e), CountVector((0, 0)), 1.0) for e in ((1, 0), (0, 1))]
        net = Network(("A", "B"), tuple(births + deaths))
        box = TruncationBox((12, 12))
        h = hamiltonian(net, box)
        lam = np.abs(h.diagonal()).max()
        with pytest.warns(sp.SparseEfficiencyWarning):
            (h.matrix / lam + sp.identity(box.size, format="csr")).todia()
        psi0 = pure_state(box, (2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evolve_master(h, psi0, 0.7).weights
        entries = h.matrix.tocoo()
        offsets, _ = fock._uniformized_step(entries.row, entries.col, entries.data, box.size, lam)
        assert len(offsets) == 123
        assert got.tobytes() == csr_uniformization(h, psi0, 0.7).tobytes()

    def test_entries_stored_twice_add(self, net_diatomic):
        # each entry of H split into two halves, both stored: halving is exact,
        # so the band must hold the very floats of the canonical H
        box = TruncationBox((6, 6))
        h = hamiltonian(net_diatomic, box)
        mat, bounds = h.matrix, zip(h.matrix.indptr[:-1], h.matrix.indptr[1:])
        order = np.concatenate([np.tile(np.arange(a, b), 2) for a, b in bounds])
        indptr = 2 * mat.indptr
        split = SparseOperator(box, sp.csr_matrix(
            (mat.data[order] / 2, mat.indices[order], indptr), shape=mat.shape))
        assert split.nnz == 2 * h.nnz
        psi0 = pure_state(box, (2, 3))
        got = evolve_master(split, psi0, 1.3).weights
        assert got.tobytes() == evolve_master(h, psi0, 1.3).weights.tobytes()

    def test_slot_budget_before_the_band(self, monkeypatch):
        # a hand-built H with 150 off-diagonal entries in row 0, each on its own
        # diagonal: a few KB of CSR whose band would take 151 x 20,000 floats
        box = TruncationBox((19_999,))
        cols = np.arange(1, 151)
        rows = np.concatenate([np.zeros(150, dtype=np.int64), cols])
        h = SparseOperator(box, sp.csr_matrix(
            (np.concatenate([np.ones(150), -np.ones(150)]), (rows, np.concatenate([cols, cols]))),
            shape=(box.size, box.size)))
        psi0 = pure_state(box, (5,))
        slots = 151 * box.size
        monkeypatch.setattr(fock, "_MAX_SLOTS", slots - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                evolve_master(h, psi0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < slots * 8 / 10
        monkeypatch.setattr(fock, "_MAX_SLOTS", slots)
        got = evolve_master(h, psi0, 1.0).weights
        assert got.tobytes() == csr_uniformization(h, psi0, 1.0).tobytes()


class TestTermBlocks:
    """``evolve_master`` writes its terms into a block of ``_TERM_BUFFER`` floats
    and sums each block in one reduce; every block boundary keeps the CSR loop's bytes."""

    @settings(max_examples=100, deadline=None)
    @given(buffer=st.sampled_from([1, 2, 3, 37]), net_seed=st.integers(0, 2**32 - 1),
           closed=st.booleans(), start=st.sampled_from(["coherent", "pure", "two sectors", "zero"]),
           scale=st.sampled_from([0.05, 1.0, 7.5, 60.0]), data=st.data())
    def test_same_bytes_at_any_block_size(self, buffer, **case):
        # 1, 2 and 3 floats leave one term per block; 37 ends most series mid-block
        same_bytes = TestBandedUniformization.test_same_bytes_as_csr_loop.hypothesis.inner_test
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_TERM_BUFFER", buffer)
            same_bytes(TestBandedUniformization(), **case)

    @pytest.mark.parametrize("n0, states", [
        ((0, 1), 1),  # 2 n1 + n2 = 1 holds one state, whose column alone would be summed pairwise
        ((0, 0), 1),
        (None, 0),  # an all-zero start occupies no sector
    ])
    def test_small_sectors(self, net_diatomic, n0, states):
        box = TruncationBox((40, 40))
        h = hamiltonian(net_diatomic, box)
        psi0 = MixedState(box, np.zeros(box.size)) if n0 is None else pure_state(box, n0)
        entries = h.matrix.tocoo()
        sector = fock._occupied_sectors(box, entries.row, entries.col, entries.data, psi0.weights)
        assert int(sector[0].sum()) == states
        got = evolve_master(h, psi0, 2.0).weights
        assert got.tobytes() == csr_uniformization(h, psi0, 2.0).tobytes()

    def test_read_only_strided_start(self, net_diatomic):
        box = TruncationBox((12, 12))
        h = hamiltonian(net_diatomic, box)
        base = np.zeros((box.size, 2))
        base[:, 0] = coherent_state((2.0, 3.0), box)[0].weights
        view = base[:, 0]
        view.setflags(write=False)
        psi0 = MixedState(box, view)
        assert psi0.weights is view and not view.flags.c_contiguous
        got = evolve_master(h, psi0, 1.5).weights
        assert got.tobytes() == csr_uniformization(h, psi0, 1.5).tobytes()

    def test_memory_does_not_grow_with_terms(self, net_diatomic):
        # the evolve workload's 41^2 coherent start: about 3,700 terms at t = 2 and
        # 14,000 at t = 8, where holding every term would take 52 and 200 MB
        box = TruncationBox((41, 41))
        h = hamiltonian(net_diatomic, box)
        psi0 = coherent_state((2.0, 3.0), box)[0]
        lam = float(np.abs(h.diagonal()).max())
        for t in (2.0, 8.0):
            terms = int(fock._poisson_isf(fock._POISSON_TAIL, lam * t)) + 1
            tracemalloc.start()
            try:
                evolve_master(h, psi0, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the block, one Poisson weight per term, the band and a few box-sized vectors
            assert peak < 8 * (fock._TERM_BUFFER + terms + 20 * box.size)


class TestAckResidual:
    @settings(max_examples=60, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), margin=st.integers(-1, 14), data=st.data())
    def test_interior_sum_matches_mask_sum(self, net_seed, margin, data):
        # margins above a cap leave an empty interior, whose sum is 0.0
        rng = random.Random(net_seed)
        net = random_network(rng, max_species=3, max_transitions=4)
        k = net.num_species
        box = TruncationBox(tuple(data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))))
        self.check_interior_sum(net, box, margin, net_seed)

    @pytest.mark.parametrize("text, caps", [
        ("X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1", (500, 300)),
        ("A + B -> C @ 1\nC -> A + B @ 2", (99, 99, 95)),
    ])
    def test_interior_sum_matches_mask_sum_on_large_boxes(self, text, caps):
        # boxes on which summing the strided sub-box view, without the copy,
        # adds in another order and moves the last bits
        for margin in (1, 2, 3):
            self.check_interior_sum(parse_network(text), TruncationBox(caps), margin, margin)

    @staticmethod
    def check_interior_sum(net, box, margin, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(box.size) * 10.0 ** rng.integers(-12, 1, box.size)
        psi = MixedState(box, weights / (2 * weights.sum()))
        gen = fock._generator(net, box)
        expected = np.abs(gen @ psi.weights)[interior_mask(box, margin)].sum()
        got = fock._report(gen @ psi.weights, psi, margin).interior_l1
        assert np.float64(got).tobytes() == expected.tobytes()

    def test_bd_balanced_certificate(self, net_bd):
        report = ack_residual(net_bd, [3.0], TruncationBox((40,)))
        assert report.margin == 1
        assert report.interior_l1 <= 1e-10

    def test_diatomic_balanced_certificate(self, net_diatomic):
        report = ack_residual(net_diatomic, [0.5, 1.0], TruncationBox((25, 25)))
        assert report.margin == 2
        assert report.interior_l1 <= 1e-10

    def test_unbalanced_state_has_large_residual(self, net_diatomic):
        report = ack_residual(net_diatomic, [1.0, 1.0], TruncationBox((25, 25)))
        assert report.interior_l1 > 0.1

    def test_default_box_sizing(self, net_diatomic):
        box = default_box([0.5, 1.0], network_margin(net_diatomic))
        assert box.caps == (10, 13)
        assert default_box([0.0], 0).caps == (8,)

    def test_residual_shrinks_with_caps(self, net_bd, net_diatomic):
        for net, c in ((net_bd, [3.0]), (net_diatomic, [0.5, 1.0])):
            margin = network_margin(net)
            values = [
                ack_residual(net, c, sigma_box(c, margin, m)).interior_l1
                for m in (3.0, 5.0, 10.0)
            ]
            assert values[1] <= values[0] + 1e-14
            assert values[2] <= values[1] + 1e-14
            assert values[2] <= 1e-8


def rounded_coherent_weights(c, caps) -> np.ndarray:
    """Product-Poisson weights from 1-D tables of correctly rounded Poisson
    probabilities (mpmath at 30 digits), multiplied out in float: each weight
    is within k - 1 roundings of the exact one, so f(n) psi(n) and c^s psi(n - s)
    agree to a few ulp, as they do not on the log-gamma route."""
    tables = []
    with mpmath.workdps(30):
        for mean, cap in zip(c, caps):
            mean, term, table = mpmath.mpf(float(mean)), None, []
            for n in range(cap + 1):
                term = mpmath.exp(-mean) if n == 0 else term * mean / n
                table.append(float(term))
            tables.append(np.array(table))
    return reduce(np.multiply.outer, tables).ravel()


def _balanced_three(c) -> Network:
    """P + Q <-> R, 2 R <-> 2 P and Q <-> P + R, complex balanced at ``c``."""
    mono = lambda y: math.prod(ci**yi for ci, yi in zip(c, y))
    pairs = [((1, 1, 0), (0, 0, 1)), ((0, 0, 2), (2, 0, 0)), ((0, 1, 0), (1, 0, 1))]
    transitions = []
    for a, b in pairs:
        transitions += [Transition(a, b, 1.0), Transition(b, a, mono(a) / mono(b))]
    return Network(("P", "Q", "R"), tuple(transitions))


class TestCoherentIdentity:
    """H psi_c from the coherent-state identity against ``_generator(net, box) @ psi_c``."""

    ULPS = 6  # the worst gap seen over 15,000 random cases was 2.9 ulp

    def check(self, net, c, box):
        c = np.asarray(c, dtype=float)
        weights = rounded_coherent_weights(c, box.caps)
        got = fock._coherent_residual(net, c, box, weights)
        expected = fock._generator(net, box) @ weights
        throughput = net.mass_action.flux(c).sum() * weights.max()
        assert np.abs(got - expected).max() <= self.ULPS * np.finfo(float).eps * throughput

    @settings(max_examples=200, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_networks(self, net_seed, data):
        # coefficients up to 3 against caps from 1: boxes smaller than some complexes
        rng = random.Random(net_seed)
        net = random_network(rng, max_species=3, max_transitions=6)
        k = net.num_species
        box = TruncationBox(tuple(data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))))
        self.check(net, [rng.uniform(0.0, 5.0) for _ in range(k)], box)

    @pytest.mark.parametrize("text, c", [
        ("X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1", (5000.0, 100.0)),
        ("X1 -> 2 X2 @ 0.7\n2 X2 -> X1 @ 1.3", (500.0, 1000.0)),
        (None, (30.0, 20.0, 12.0)),
        ("X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1", (1250.0, 50.0)),
    ])
    def test_benchmark_boxes(self, text, c):
        # the default boxes of the benchmark's certify jobs, up to 1.16M states
        net = _balanced_three(c) if text is None else parse_network(text)
        self.check(net, c, default_box(c, network_margin(net)))

    def test_every_cap_slab_correction(self):
        # 3 A -> B cannot fire from a cap of 2 and B -> 3 A only from B's cap;
        # 0 -> A loses its firing at A's cap, and A + B -> 2 A at both caps
        net = parse_network("species: A B\n3 A -> B @ 1.5\nB -> 3 A @ 0.5\n0 -> A @ 2\nA + B -> 2 A @ 0.3")
        for caps in [(2, 3), (3, 1), (5, 4), (1, 1)]:
            self.check(net, (1.3, 2.1), TruncationBox(caps))

    def test_certificates_assemble_no_generator(self, net_diatomic, net_catalyst, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certificate assembled the generator")

        monkeypatch.setattr(fock, "_generator", refuse)
        assert ack_residual(net_diatomic, [0.5, 1.0]).interior_l1 == 0.0
        assert ack_residual(net_catalyst, [1.0, 0.5, 0.3, 0.2], TruncationBox((3, 3, 3, 3))).full_l1 > 0
        doc = noether_report(net_catalyst, [1.0, 0.5, 0.3, 0.2], TruncationBox((4, 4, 4, 4)), 0.2)
        assert doc["commutator_max_abs"] == [0.0] * len(doc["conserved_basis"])

    @pytest.mark.parametrize("c, lam", [((0.5, 1.0), 4), ((1.0, 1.0), 2), ((3.0, 0.2), 7)])
    def test_projection_matches_generator_route(self, net_diatomic, c, lam):
        # H maps the sector into itself: the identity's residual on the sector,
        # over its mass, is the generator's residual of the projected state
        # (at a balanced c both are roundoff of the throughput)
        box = TruncationBox((9, 12))
        doc = noether_report(net_diatomic, c, box, 0.0, lam=lam)
        projected = project_onto(coherent_state(c, box)[0], (2, 1), lam)
        expected = master_residual(net_diatomic, projected).interior_l1
        roundoff = 1e-13 * net_diatomic.mass_action.flux(np.array(c)).sum()
        assert doc["projection"]["interior_residual_l1"] == pytest.approx(expected, rel=1e-12, abs=roundoff)

    @pytest.mark.parametrize("text, c, caps", [
        # a flux of inf, one of 0 * inf, a per-complex sum of inf, and finite
        # sums whose residual's L1 norm is beyond the float range
        ("2 X1 <-> X2 @ 1, 2", (1e300, 1.0), (3, 3)),
        ("X1 + 2 X2 -> X3 @ 1", (0.0, 1e300, 3.0), (3, 3, 3)),
        ("species: A B\n0 -> A @ 1.7e308\nB -> A @ 1.7e308", (1.0, 1.0), (3, 3)),
        ("species: A\n0 -> A @ 1.7e308", (0.1,), (5,)),
    ])
    def test_overflow_raises(self, text, c, caps):
        with pytest.raises(PopulationExplosion):
            ack_residual(parse_network(text), c, TruncationBox(caps))

    def test_commutator_overflow_raises(self):
        net = parse_network("X1 -> 2 X2 @ 1.7e308\n2 X2 -> X1 @ 1")
        with pytest.raises(PopulationExplosion):
            noether_report(net, (1.0, 1.0), TruncationBox((3, 3)), 0.1)
        with pytest.raises(PopulationExplosion):
            fock._commutator_max_abs(parse_network("X1 -> 2 X2 @ 1e308"), TruncationBox((3, 3)), (1, 1))


class TestResidualBlocks:
    """The scaled copies of the coherent grid go in blocks of rows; each
    entry adds the same terms in the same order at any block size."""

    @settings(max_examples=100, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), block=st.integers(1, 40), data=st.data())
    def test_same_bytes_at_any_block_size(self, net_seed, block, data):
        rng = random.Random(net_seed)
        net = random_network(rng, max_species=3, max_transitions=6)
        k = net.num_species
        box = TruncationBox(tuple(data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))))
        c = np.array([rng.uniform(0.0, 5.0) for _ in range(k)])
        weights = fock._coherent_weights(c, box.caps)
        whole = fock._coherent_residual(net, c, box, weights)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_EXP_BLOCK", block)
            assert fock._coherent_residual(net, c, box, weights).tobytes() == whole.tobytes()


class TestCommutators:
    def test_noether_diatomic_exact(self, net_diatomic):
        box = TruncationBox((12, 12))
        h = hamiltonian(net_diatomic, box)
        obs = linear_observable((2, 1), box)
        assert commutator(h, obs).nnz == 0

    def test_noether_catalyst_exact(self, net_catalyst):
        box = TruncationBox((3, 3, 3, 3))
        h = hamiltonian(net_catalyst, box)
        for w in conserved_quantities(net_catalyst):
            assert max_abs(commutator(h, linear_observable(w, box))) <= 1e-14

    def test_observable_commutator_matches_product_route(self, net_catalyst):
        # any integer w, conserved or not; the product route rounds H_mn o_n and
        # o_m H_mn separately, the one-pass route rounds H_mn (o_n - o_m) once
        rng = random.Random(29)
        nets = [net_catalyst] + [random_network(rng, max_species=3) for _ in range(20)]
        for net in nets:
            box = TruncationBox(tuple(rng.randint(1, 4) for _ in net.species))
            h = hamiltonian(net, box)
            for w in [*conserved_quantities(net), *([rng.randint(-3, 3) for _ in net.species]
                                                    for _ in range(3))]:
                obs = linear_observable(w, box)
                expected = max_abs(commutator(h, obs))
                got = fock._commutator_max_abs(net, box, w)
                bound = 4 * np.finfo(float).eps * max_abs(h) * max_abs(obs)
                assert abs(got - expected) <= bound, (net, w)

    def test_diagonal_operators_commute(self):
        box = TruncationBox((4, 4))
        c = commutator(number_operator(0, box), number_operator(1, box))
        assert c.nnz == 0


class TestProjection:
    def test_sector_support_and_proportionality(self, net_diatomic):
        box = TruncationBox((10, 10))
        psi, _ = coherent_state([0.5, 1.0], box)
        projected = project_onto(psi, (2, 1), 4)
        states = box.states()
        sector = {(2, 0), (1, 2), (0, 4)}
        support = {
            tuple(states[i]) for i in np.flatnonzero(projected.weights > 0)
        }
        assert support == sector
        assert projected.total == pytest.approx(1.0, abs=1e-12)
        ratios = [
            projected.weights[box.index_of(n)] / psi.weights[box.index_of(n)]
            for n in sorted(sector)
        ]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("caps, lam", [((10, 10), 4), ((7, 30), 11), ((1, 1), 2), ((3, 3), 0)])
    def test_same_bytes_as_mask_route(self, caps, lam):
        box = TruncationBox(caps)
        psi, _ = coherent_state([2.5, 1.5], box)
        sector = fock._sector_values((2, 1), box) == lam
        expected = np.where(sector, psi.weights, 0.0) / float(psi.weights[sector].sum())
        assert project_onto(psi, (2, 1), lam).weights.tobytes() == expected.tobytes()

    def test_full_sector_of_pure_state_is_identity(self):
        box = TruncationBox((5, 5))
        psi = pure_state(box, (2, 1))
        projected = project_onto(psi, (2, 1), 5)
        assert np.array_equal(projected.weights, psi.weights)

    def test_projected_states_remain_stationary(self, net_diatomic):
        box = TruncationBox((25, 25))
        psi, _ = coherent_state([0.5, 1.0], box)
        for lam in (2, 4, 6):
            projected = project_onto(psi, (2, 1), lam)
            report = master_residual(net_diatomic, projected)
            assert report.interior_l1 <= 1e-10

    def test_empty_sector(self):
        box = TruncationBox((3, 3))
        psi = pure_state(box, (1, 0))
        with pytest.raises(EmptySector):
            project_onto(psi, (2, 1), 7)
        with pytest.raises(EmptySector):  # beyond int64, compared with no state
            project_onto(psi, (2, 1), 2**70)


class TestSymmetry:
    def test_identity_at_zero(self, net_diatomic):
        box = TruncationBox((25, 25))
        psi, predicted = apply_symmetry([0.5, 1.0], (2, 1), 0.0, box)
        assert predicted.tolist() == [0.5, 1.0]
        reference, tail = coherent_state([0.5, 1.0], box)
        rel = np.abs(psi.weights / reference.weights * (1.0 - tail) - 1.0)
        assert rel.max() <= 1e-12

    def test_predicted_means_scale_exponentially(self):
        box = TruncationBox((25, 25))
        _, predicted = apply_symmetry([0.5, 1.0], (2, 1), math.log(2.0), box)
        assert predicted == pytest.approx([2.0, 2.0], rel=1e-14)

    def test_output_is_coherent_state_of_predicted_means(self):
        box = TruncationBox((25, 25))
        for s in (-1.0, 0.3, math.log(2.0)):
            psi, predicted = apply_symmetry([0.5, 1.0], (2, 1), s, box)
            reference, _ = coherent_state(predicted, box)
            ratio = psi.weights / reference.weights
            spread = np.abs(ratio / ratio.mean() - 1.0)
            assert spread.max() <= 1e-10

    def test_overflow_guard(self):
        box = TruncationBox((25, 25))
        with pytest.raises(SymmetryOverflow):
            apply_symmetry([0.5, 1.0], (2, 1), 50.0, box)

    @pytest.mark.parametrize("c, w, s", [((1250.0, 50.0), (2, 1), 0.01), ((1250.0, 50.0), (2, 1), -0.02),
                                         ((30.0, 20.0, 12.0), (2, 1, 1), -2.44), ((5000.0, 100.0), (2, 1), 0.0)])
    def test_weights_match_state_array_route(self, c, w, s):
        # the certify benchmark's default boxes, up to 1.16M states: the
        # outer product of tilted tables keeps the bytes of the per-state
        # products, and of their sum, in the same state order
        box = default_box(c, 2)
        psi, _ = apply_symmetry(c, w, s, box)
        assert psi.weights.tobytes() == symmetry_weights(c, w, s, box).tobytes()

    @staticmethod
    def mask_route_error(net, c, box, s):
        """The largest relative error over the interior lanes, read by a flat
        mask, whose reference weight is a normal float."""
        psi, predicted = apply_symmetry(c, (2, 1), s, box)
        reference, _ = coherent_state(predicted, box)
        inside = interior_mask(box, network_margin(net))
        ref, got = reference.weights[inside], psi.weights[inside]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rel = np.abs(np.where(ref >= np.finfo(float).tiny, got / ref - 1.0, 0.0))
        return float(rel.max(initial=0.0))

    @pytest.mark.parametrize("caps", [(25, 25), (6, 9), (2, 40), (1, 1)])
    @pytest.mark.parametrize("c", [(0.5, 1.0), (30.0, 0.2)])
    def test_noether_error_matches_mask_route(self, net_diatomic, caps, c):
        # noether_report reads the interior as slices of the grid, in blocks of
        # rows; max is order-free, so the error keeps the bytes of the flat-mask route
        box = TruncationBox(caps)
        doc = noether_report(net_diatomic, c, box, 0.3, lam=2)
        assert doc["symmetry"]["max_rel_err_interior"] == self.mask_route_error(net_diatomic, c, box, 0.3)

    def test_noether_error_leaves_out_subnormal_references(self, net_diatomic):
        # 20 interior reference weights of this box are subnormal, and their
        # ratios read about 1.5e-3 where the normal lanes read about 1.5e-6
        box, c = TruncationBox((4, 200)), (0.5, 1.0)
        doc = noether_report(net_diatomic, c, box, -0.5, lam=2)
        psi, predicted = apply_symmetry(c, (2, 1), -0.5, box)
        ref = coherent_state(predicted, box)[0].weights[interior_mask(box, network_margin(net_diatomic))]
        assert ((ref > 0) & (ref < np.finfo(float).tiny)).sum() == 20
        error = doc["symmetry"]["max_rel_err_interior"]
        assert error == self.mask_route_error(net_diatomic, c, box, -0.5) < 1e-5
        assert full_array_noether_report(net_diatomic, c, box, -0.5, lam=2)["symmetry"]["max_rel_err_interior"] > 1e-3


class TestNoetherMatchesFullArrays:
    """noether_report against the whole-box arrays of ``full_array_noether_report``."""

    @staticmethod
    def outcome(report, *args):
        try:
            return report(*args)
        except Exception as exc:  # the type is compared, whichever it is
            return type(exc)

    @settings(max_examples=300, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_networks_with_a_law(self, net_seed, data):
        rng = random.Random(net_seed)
        net = closed_network(rng)
        if rng.random() < 0.15:
            net = with_extreme_rates(rng, net)
        k = net.num_species
        box = TruncationBox(tuple(data.draw(st.lists(st.integers(1, 14), min_size=k, max_size=k))))
        # mostly moderate means and s; now and then a 0 mean, a mean far out in
        # the box or beyond the float range, an s that overflows or is not finite;
        # lam mostly round(w . c), else a sector that may be empty
        c = [rng.choice((0.0, 60.0, 400.0, 1e300)) if rng.random() < 0.1 else rng.uniform(0.05, 8.0)
             for _ in range(k)]
        s = rng.choice((0.0, 60.0, -60.0, math.nan, math.inf)) if rng.random() < 0.1 else rng.uniform(-3.0, 3.0)
        lam = rng.choice((None, None, None, rng.randint(-3, 40)))
        got = self.outcome(noether_report, net, c, box, s, lam)
        expected = self.outcome(full_array_noether_report, net, c, box, s, lam)
        if isinstance(expected, dict) and "symmetry" in expected:
            symmetry = expected["symmetry"]
            symmetry["max_rel_err_interior"] = symmetry.pop("max_rel_err_normal")
        assert repr(got) == repr(expected)

    def test_benchmark_box_working_set(self, net_diatomic):
        # the benchmark's noether-dia job: c = (1250, 50) on a 1607 x 124 box of
        # 199,268 states, where the whole-box route held 7.1 box-sized float
        # arrays at its peak; subnormal reference weights lie in its interior
        c = (1250.0, 50.0)
        box = default_box(c, network_margin(net_diatomic))
        assert box.size == 199_268
        noether_report(net_diatomic, c, box, 0.01)  # first-call imports and caches
        tracemalloc.start()
        try:
            doc = noether_report(net_diatomic, c, box, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * box.size
        expected = full_array_noether_report(net_diatomic, c, box, 0.01)
        assert expected["symmetry"]["max_rel_err_interior"] > 1e3 * expected["symmetry"]["max_rel_err_normal"]
        expected["symmetry"]["max_rel_err_interior"] = expected["symmetry"].pop("max_rel_err_normal")
        assert repr(doc) == repr(expected)
