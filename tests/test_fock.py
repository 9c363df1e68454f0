import math
import random

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply
from scipy.stats import poisson

from crnkit import (
    BoxMismatch,
    DimensionMismatch,
    EmptySector,
    MixedState,
    NegativeConcentration,
    SymmetryOverflow,
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
    interior_mask,
    linear_observable,
    master_residual,
    network_margin,
    number_operator,
    parse_network,
    project_onto,
    pure_state,
)

from support import dense_hamiltonian, dense_ladders, ordered_selection_count, random_network


@pytest.fixture
def decay_net():
    return parse_network("species: A\nA -> 0 @ 1")


class TestTruncationBox:
    def test_row_major_enumeration(self):
        box = TruncationBox((2, 3))
        assert box.size == 12
        assert box.index_of((0, 0)) == 0
        assert box.index_of((1, 2)) == 6
        assert box.state_at(6) == (1, 2)
        states = box.states()
        assert states.shape == (12, 2)
        assert [box.index_of(s) for s in states] == list(range(12))

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationBox(())
        with pytest.raises(ValueError):
            TruncationBox((0,))

    def test_contains(self):
        box = TruncationBox((2, 2))
        assert box.contains((2, 0)) and not box.contains((3, 0))


class TestLadderOperators:
    def test_annihilation_coefficients(self):
        box = TruncationBox((3,))
        a = annihilation(0, box).to_dense()
        assert a[2, 3] == 3.0
        assert a[:, 0].sum() == 0.0  # derivative of the vacuum is zero

    def test_annihilation_nnz_counts_subdiagonal(self):
        box = TruncationBox((3,))
        assert annihilation(0, box).nnz == 3

    def test_creation_shifts_and_truncates(self):
        box = TruncationBox((3,))
        c = creation(0, box).to_dense()
        assert c[2, 1] == 1.0
        assert c[:, 3].sum() == 0.0  # outflow at the cap is dropped

    def test_number_operator_is_creation_annihilation(self):
        box = TruncationBox((4,))
        composed = creation(0, box) @ annihilation(0, box)
        n_op = number_operator(0, box)
        assert np.array_equal(composed.to_dense(), n_op.to_dense())
        assert np.array_equal(n_op.to_dense().diagonal(), np.arange(5.0))

    def test_canonical_commutator_on_interior(self):
        box = TruncationBox((5,))
        c = commutator(annihilation(0, box), creation(0, box)).to_dense()
        for n in range(5):
            assert c[n, n] == 1.0
        assert c[5, 5] == -5.0  # boundary row differs under truncation

    def test_linear_observable_eigenvalues(self):
        box = TruncationBox((4, 4))
        obs = linear_observable((2, 1), box)
        idx = box.index_of((1, 3))
        assert obs.to_dense()[idx, idx] == 5.0

    def test_zero_weight_gives_zero_operator(self):
        assert linear_observable((0, 0), TruncationBox((3, 3))).nnz == 0

    def test_box_mismatch(self):
        with pytest.raises(BoxMismatch):
            commutator(number_operator(0, TruncationBox((2,))),
                       number_operator(0, TruncationBox((3,))))


class TestHamiltonian:
    def test_decay_entries_exact(self, decay_net):
        box = TruncationBox((3,))
        h = hamiltonian(decay_net, box).to_dense()
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
            h = hamiltonian(net, box)
            assert np.abs(h.column_sums()).max(initial=0.0) <= 1e-14

    def test_column_sums_vanish_relative_on_random_networks(self):
        # random rates span twelve decades, so the zero is relative there
        rng = random.Random(5)
        for _ in range(10):
            net = random_network(rng, max_species=3, max_transitions=4)
            box = TruncationBox((4,) * net.num_species)
            h = hamiltonian(net, box)
            mass = np.asarray(np.abs(h.matrix).sum(axis=0)).ravel().max(initial=0.0)
            assert np.abs(h.column_sums()).max(initial=0.0) <= 1e-14 * max(1.0, float(mass))

    def test_matches_dense_composition_route(self, net_diatomic, net_bd, net_catalyst):
        for net, caps in (
            (net_bd, (6,)),
            (net_diatomic, (5, 5)),
            (net_catalyst, (2, 2, 2, 2)),
        ):
            box = TruncationBox(caps)
            sparse = hamiltonian(net, box).to_dense()
            dense = dense_hamiltonian(net, box)
            assert np.abs(sparse - dense).max() <= 1e-12

    def test_falling_factorial_matches_enumeration(self):
        net = parse_network("2 A + 3 B -> 0 @ 1")
        box = TruncationBox((5, 5))
        h = hamiltonian(net, box).to_dense()
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

    def test_rejects_unknown_policy(self, net_bd):
        with pytest.raises(ValueError):
            hamiltonian(net_bd, TruncationBox((3,)), policy="reflect")

    def test_dimension_check(self, net_diatomic):
        with pytest.raises(DimensionMismatch):
            hamiltonian(net_diatomic, TruncationBox((3,)))


class TestCoherentState:
    def test_zero_means_point_mass(self):
        box = TruncationBox((4, 4))
        psi, tail = coherent_state([0.0, 0.0], box)
        assert psi.weight_of((0, 0)) == 1.0
        assert psi.total == 1.0 and tail == 0.0

    def test_poisson_weight_value(self):
        psi, _ = coherent_state([3.0], TruncationBox((10,)))
        assert psi.weight_of((2,)) == pytest.approx(math.exp(-3) * 9 / 2, rel=1e-12)

    def test_product_structure(self):
        box = TruncationBox((6, 7))
        psi, _ = coherent_state([0.5, 2.0], box)
        for n1, n2 in ((0, 0), (1, 3), (4, 2), (6, 7)):
            expected = poisson.pmf(n1, 0.5) * poisson.pmf(n2, 2.0)
            assert psi.weight_of((n1, n2)) == pytest.approx(expected, rel=1e-12)

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

    def test_single_particle_decay_closed_form(self, decay_net):
        box = TruncationBox((3,))
        h = hamiltonian(decay_net, box)
        psi0 = pure_state(box, (1,))
        psi = evolve_master(h, psi0, 2.0)
        assert psi.weight_of((1,)) == pytest.approx(math.exp(-2.0), abs=1e-8)
        late = evolve_master(h, psi0, 30.0)
        assert abs(late.weight_of((0,)) - 1.0) <= 1e-9

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


class TestAckResidual:
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
                ack_residual(net, c, default_box(c, margin, nsigma=m, floor=1)).interior_l1
                for m in (3.0, 5.0, 10.0)
            ]
            assert values[1] <= values[0] + 1e-14
            assert values[2] <= values[1] + 1e-14
            assert values[2] <= 1e-8


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
            assert commutator(h, linear_observable(w, box)).max_abs() <= 1e-14

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
            projected.weight_of(n) / psi.weight_of(n) for n in sorted(sector)
        ]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-12)

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


class TestExports:
    def test_operator_coordinate_text(self, decay_net):
        box = TruncationBox((3,))
        text = hamiltonian(decay_net, box).to_coordinate_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# caps 3"
        parsed = [line.split() for line in lines[1:]]
        assert ["0", "1", "1.0"] in parsed and ["1", "1", "-1.0"] in parsed
        assert len(parsed) == hamiltonian(decay_net, box).nnz
