import random

import numpy as np
import pytest

from crnkit import (
    ComplexGraph,
    CountVector,
    DimensionMismatch,
    InvalidValue,
    Network,
    Transition,
)

from support import random_network


class TestCountVector:
    def test_accepts_integral_values(self):
        assert CountVector((2.0, 3)) == (2, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountVector((1, -1))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            CountVector((1.5,))

    @pytest.mark.parametrize("entry", [2**63, 2.0**63, 2**70, float("nan"), float("inf")])
    def test_rejects_what_int64_cannot_hold(self, entry):
        # the kernels hold counts as int64; 2**63 once passed here and
        # overflowed later, inf raised a bare OverflowError
        with pytest.raises(InvalidValue):
            CountVector((1, entry))

    def test_largest_int64_count(self):
        assert CountVector((2**63 - 1,)) == (2**63 - 1,)

    def test_tuple_semantics(self):
        cv = CountVector((1, 0, 2))
        assert cv[2] == 2 and len(cv) == 3 and hash(cv) == hash((1, 0, 2))

    def test_count_vector_is_kept(self):
        # built once and immutable, so it is not checked again
        cv = CountVector((1, 0, 2))
        assert CountVector(cv) is cv
        assert Transition(cv, cv, 1.0).input is cv
        assert CountVector((1, 0, 2)) is not cv


class TestTransition:
    def test_rejects_nonpositive_rate(self):
        for rate in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Transition(CountVector((1,)), CountVector((0,)), rate)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Transition(CountVector((1,)), CountVector((0, 1)), 1.0)

    def test_rejects_count_past_int64(self):
        with pytest.raises(InvalidValue):
            Transition((2**63,), (0,), 1.0)

    def test_label_not_compared(self):
        a = Transition(CountVector((1,)), CountVector((0,)), 2.0, "x")
        b = Transition(CountVector((1,)), CountVector((0,)), 2.0, "y")
        assert a == b


class TestNetworkValidation:
    def test_duplicate_species(self):
        with pytest.raises(ValueError):
            Network(("A", "A"))

    def test_empty_species_name(self):
        with pytest.raises(ValueError):
            Network(("A", ""))

    def test_transition_length_mismatch(self):
        tr = Transition(CountVector((1,)), CountVector((0,)), 1.0)
        with pytest.raises(DimensionMismatch):
            Network(("A", "B"), (tr,))

    def test_rejects_what_is_no_transition(self):
        with pytest.raises(TypeError):
            Network(("A",), (((1,), (0,), 1.0),))

    def test_self_loop_is_kept(self):
        tr = Transition(CountVector((1,)), CountVector((1,)), 1.0)
        net = Network(("A",), (tr,))
        assert net.num_transitions == 1


class TestComplexes:
    def test_diatomic(self, net_diatomic):
        assert set(net_diatomic.complexes()) == {(1, 0), (0, 2)}
        assert len(net_diatomic.complexes()) == 2

    def test_empty_network(self):
        assert Network(("A",)).complexes() == ()

    def test_catalyst_six_complexes(self, net_catalyst):
        expected = {
            (0, 0, 0, 0),  # empty
            (1, 0, 0, 0),  # A
            (0, 1, 0, 0),  # B
            (1, 0, 1, 0),  # A + C
            (0, 0, 0, 1),  # AC
            (0, 2, 1, 0),  # 2B + C
        }
        assert set(net_catalyst.complexes()) == expected

    def test_sorted_lexicographically(self, net_catalyst):
        cs = net_catalyst.complexes()
        assert list(cs) == sorted(cs)


class TestComplexGraph:
    def test_diatomic_two_cycle(self, net_diatomic):
        g = net_diatomic.complex_graph()
        assert len(g.vertices) == 2 and len(g.edges) == 2
        assert {(a, b) for a, b, _ in g.edges} == {(0, 1), (1, 0)}

    def test_empty(self):
        g = Network(("A",)).complex_graph()
        assert g.vertices == () and g.edges == ()

    def test_catalyst_counts(self, net_catalyst):
        g = net_catalyst.complex_graph()
        assert len(g.vertices) == 6 and len(g.edges) == 4

    def test_edge_order_follows_transitions(self, net_catalyst):
        g = net_catalyst.complex_graph()
        assert [t for _, _, t in g.edges] == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexGraph((CountVector((0,)),), (((0, 1, 0)),))

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError, match="distinct"):
            ComplexGraph((CountVector((1,)), CountVector((1,))), ())


class TestStoichiometricMatrix:
    def test_diatomic_columns(self, net_diatomic):
        got = net_diatomic.stoichiometric_matrix()
        assert got.tolist() == [[-1, 1], [2, -2]]

    def test_self_loop_zero_column(self):
        tr = Transition(CountVector((1,)), CountVector((1,)), 1.0)
        net = Network(("A",), (tr,))
        assert net.stoichiometric_matrix().tolist() == [[0]]

    def test_catalyst_matrix(self, net_catalyst):
        # hand-derived: columns are output minus input per transition
        expected = np.array(
            [[1, 0, -1, 0], [0, -1, 0, 2], [0, 0, -1, 1], [0, 0, 1, -1]]
        )
        assert (net_catalyst.stoichiometric_matrix() == expected).all()

    def test_int64_in_c_order(self, net_catalyst):
        gamma = net_catalyst.stoichiometric_matrix()
        assert gamma.dtype == np.int64 and gamma.flags.c_contiguous and gamma.flags.writeable

    def test_columns_match_transitions(self):
        rng = random.Random(5)
        for _ in range(25):
            net = random_network(rng)
            gamma = net.stoichiometric_matrix()
            for j, tr in enumerate(net.transitions):
                assert gamma[:, j].tolist() == [t - s for s, t in zip(tr.input, tr.output)]


class TestPetriBipartite:
    def test_catalyst_double_edge(self, net_catalyst):
        view = net_catalyst.petri_bipartite()
        b_idx = net_catalyst.species.index("B")
        delta = view.transitions.index("delta")
        assert (delta, b_idx, 2) in view.output_edges

    def test_empty_network(self):
        view = Network(("A",)).petri_bipartite()
        assert view.input_edges == () and view.output_edges == ()

    def test_bd_counts(self, net_bd):
        view = net_bd.petri_bipartite()
        assert len(view.species) == 1 and len(view.transitions) == 2
        assert len(view.input_edges) + len(view.output_edges) == 2

    def test_dot_renders_multiplicity(self, net_catalyst):
        dot = net_catalyst.petri_bipartite().to_dot()
        b_idx = net_catalyst.species.index("B")
        assert dot.count(f"t3 -> s{b_idx};") == 2

    def test_roundtrip_through_matrices(self, net_catalyst, net_bd, net_diatomic):
        # the Petri-net (i, o) matrices and the transition list carry the
        # same information; rebuilding transitions from them is the identity
        rng = random.Random(11)
        nets = [net_catalyst, net_bd, net_diatomic] + [random_network(rng) for _ in range(20)]
        for net in nets:
            kernel = net.mass_action
            rebuilt = tuple(
                Transition(CountVector(i), CountVector(o), tr.rate)
                for i, o, tr in zip(kernel.inputs, kernel.outputs, net.transitions)
            )
            assert Network(net.species, rebuilt) == Network(net.species, net.transitions)


class TestDerivedViewInvariants:
    def test_complexes_exactly_inputs_and_outputs(self):
        rng = random.Random(23)
        for _ in range(30):
            net = random_network(rng)
            expected = {tr.input for tr in net.transitions} | {
                tr.output for tr in net.transitions
            }
            assert set(net.complexes()) == expected

    def test_graph_sizes(self):
        rng = random.Random(29)
        for _ in range(30):
            net = random_network(rng)
            g = net.complex_graph()
            assert len(g.edges) == net.num_transitions
            assert len(g.vertices) == len(net.complexes())
