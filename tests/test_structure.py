import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crnkit import (
    ComplexGraph,
    CountVector,
    DimensionMismatch,
    complex_balance_report,
    conserved_quantities,
    linkage_classes,
    rate_vector_field,
    structure_report,
)
from crnkit import Network
from crnkit.structure import _rank_and_laws

from support import (
    balanced_reversible_network,
    closure_weakly_reversible,
    fraction_rank_and_laws,
    random_network,
    sparse_network,
    union_find_classes,
)


def oracle_networks():
    """Seeded ``random_network`` draws (about a fifth weakly reversible) and
    ``balanced_reversible_network`` draws (every one weakly reversible)."""
    rng = random.Random(5)
    nets = [random_network(rng) for _ in range(200)]
    return nets + [balanced_reversible_network(rng)[0] for _ in range(50)]


def isolated_graph(n):
    return ComplexGraph(tuple(CountVector((i,)) for i in range(n)), ())


class TestLinkageClasses:
    def test_diatomic_single_class(self, net_diatomic):
        assert linkage_classes(net_diatomic.complex_graph()) == ((0, 1),)

    def test_catalyst_two_classes(self, net_diatomic, net_catalyst):
        graph = net_catalyst.complex_graph()
        classes = linkage_classes(graph)
        assert len(classes) == 2
        # traced by hand: {empty, A, B} and {A+C, AC, 2B+C}
        named = [
            {tuple(graph.vertices[i]) for i in cls} for cls in classes
        ]
        assert {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)} in named
        assert {(1, 0, 1, 0), (0, 0, 0, 1), (0, 2, 1, 0)} in named

    def test_isolated_vertices(self):
        assert linkage_classes(isolated_graph(3)) == ((0,), (1,), (2,))

    def test_ordered_by_smallest_member(self):
        rng = random.Random(3)
        for _ in range(20):
            classes = linkage_classes(random_network(rng).complex_graph())
            mins = [c[0] for c in classes]
            assert mins == sorted(mins)

    def test_matches_union_find(self):
        for net in oracle_networks():
            graph = net.complex_graph()
            assert linkage_classes(graph) == union_find_classes(graph)


class TestWeakReversibility:
    def test_diatomic_true(self, net_diatomic):
        assert structure_report(net_diatomic).weakly_reversible

    def test_catalyst_false(self, net_catalyst):
        assert not structure_report(net_catalyst).weakly_reversible

    def test_empty_graph_vacuous(self):
        # no species, so no complexes: the complex graph has no vertices
        assert structure_report(Network(())).weakly_reversible

    def test_matches_transitive_closure(self):
        verdicts = []
        for net in oracle_networks():
            verdicts.append(structure_report(net).weakly_reversible)
            assert verdicts[-1] == closure_weakly_reversible(net.complex_graph())
        drawn = verdicts[:200]  # the random_network draws give both verdicts
        assert any(drawn) and not all(drawn)


class TestDeficiency:
    def test_diatomic(self, net_diatomic):
        rep = structure_report(net_diatomic)
        assert (rep.num_complexes, len(rep.linkage_classes), rep.stoich_rank) == (2, 1, 1)
        assert rep.deficiency == 0

    def test_catalyst(self, net_catalyst):
        rep = structure_report(net_catalyst)
        assert (rep.num_complexes, len(rep.linkage_classes), rep.stoich_rank) == (6, 2, 3)
        assert rep.deficiency == 1

    def test_empty_network(self):
        assert structure_report(Network(("A",))).deficiency == 0

    def test_nonnegative_on_random_networks(self):
        rng = random.Random(41)
        for _ in range(40):
            assert structure_report(random_network(rng)).deficiency >= 0

    def test_rank_matches_sympy(self):
        rng = random.Random(43)
        for _ in range(25):
            net = random_network(rng)
            gamma = sympy.Matrix(net.stoichiometric_matrix().tolist())
            assert structure_report(net).stoich_rank == gamma.rank()


class TestConservedQuantities:
    def test_diatomic_total_atoms(self, net_diatomic):
        assert conserved_quantities(net_diatomic) == ((2, 1),)

    def test_catalyst_catalyst_count(self, net_catalyst):
        # solved w . Gamma = 0 by hand over the four columns
        assert conserved_quantities(net_catalyst) == ((0, 0, 1, 1),)

    def test_bd_empty_basis(self, net_bd):
        assert conserved_quantities(net_bd) == ()

    def test_exact_orthogonality_and_canonical_form(self):
        rng = random.Random(47)
        for _ in range(40):
            net = random_network(rng)
            basis = conserved_quantities(net)
            for w in basis:
                for change in net.stoichiometric_matrix().T.tolist():
                    assert sum(wi * d for wi, d in zip(w, change)) == 0
                nonzero = [v for v in w if v != 0]
                assert nonzero and nonzero[0] > 0
                assert math.gcd(*(abs(v) for v in w)) == 1

    def test_basis_size_and_span_match_sympy(self):
        rng = random.Random(53)
        for _ in range(25):
            net = random_network(rng, allow_empty=False)
            basis = conserved_quantities(net)
            gamma_t = sympy.Matrix(net.stoichiometric_matrix().T.tolist())
            null = gamma_t.nullspace()
            assert len(basis) == len(null)
            assert len(basis) == net.num_species - structure_report(net).stoich_rank
            if basis:
                ours = sympy.Matrix([list(w) for w in basis])
                theirs = sympy.Matrix([[v for v in vec] for vec in null]).reshape(
                    len(null), net.num_species
                )
                stacked = ours.col_join(theirs)
                assert stacked.rank() == len(basis)

    def test_rank_and_basis_match_fraction_rref_oracle(self):
        rng = random.Random(59)
        nets = [sparse_network(rng, rng.randint(1, 12), rng.randint(0, 24)) for _ in range(150)]
        nets += [random_network(rng, 8, 14) for _ in range(100)]
        sizes = ((14, 10), (18, 14), (22, 18), (14, 30), (18, 40), (22, 50))
        nets += [sparse_network(rng, k, m) for k, m in sizes for _ in range(3)]
        for net in nets:
            rank = structure_report(net).stoich_rank
            assert (rank, conserved_quantities(net)) == fraction_rank_and_laws(
                net.stoichiometric_matrix().T
            )

    # the elimination takes rows one at a time and stops at full rank, so
    # the cases are the rows it skips or folds away
    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0], [0, 2, 0], [0, 0, 3], [5, 7, 11], [0, 0, 0], [-1, 0, 0]],  # after full rank
            [[2, -1, 0, 4], [2, -1, 0, 4], [0, 3, 3, 0], [0, 3, 3, 0]],  # duplicates
            [[1, -2, 3, 0], [-1, 2, -3, 0], [0, 1, 1, 1], [0, -1, -1, -1]],  # negated
            [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, -1, 0]],  # zero rows, k > m
            [[0] * 7],  # one zero row: everything is conserved
            [[2**62, -(2**62) + 1, 3], [2**62 - 1, 2**62, -5], [-(2**62), 2**62 - 1, 1],
             [1, 1, 1]],  # near +-2**62
            [[2**62, 2**62 - 1, 0, 0], [-(2**62), -(2**62) + 1, 0, 0], [0, 0, 2**62, 1]],
        ],
    )
    def test_incremental_elimination_cases(self, rows):
        changes = np.array(rows, dtype=np.int64)
        assert _rank_and_laws(rows, changes.shape[1]) == fraction_rank_and_laws(changes)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_incremental_elimination_matches_fraction_rref(self, data):
        k, m = data.draw(st.integers(0, 24)), data.draw(st.integers(0, 60))
        near = st.sampled_from([2**62, -(2**62), 2**62 - 1, -(2**62) + 1, 2**62 - 3])
        rows = []
        for _ in range(m):
            kind = data.draw(st.sampled_from(["fresh", "fresh", "duplicate", "negated", "zero"]))
            if kind == "zero":
                rows.append([0] * k)
            elif kind == "fresh" or not rows:
                row = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
                if k and data.draw(st.integers(0, 9)) == 0:  # a few entries near 2**62
                    row[data.draw(st.integers(0, k - 1))] = data.draw(near)
                rows.append(row)
            else:
                row = data.draw(st.sampled_from(rows))
                rows.append(row if kind == "duplicate" else [-x for x in row])
        changes = np.array(rows, dtype=np.int64).reshape(m, k)
        assert _rank_and_laws(rows, k) == fraction_rank_and_laws(changes)

    def test_transition_free_network_conserves_everything(self):
        net = Network(("A", "B"))
        assert conserved_quantities(net) == ((0, 1), (1, 0))


class TestComplexBalance:
    def test_diatomic_balanced_state(self, net_diatomic):
        report = complex_balance_report(net_diatomic, [0.5, 1.0], tol=1e-9)
        assert report.balanced
        by_complex = {tuple(r.complex): r for r in report.rows}
        assert by_complex[(1, 0)].consumption == pytest.approx(1.0)
        assert by_complex[(1, 0)].production == pytest.approx(1.0)

    def test_bd_balanced(self, net_bd):
        report = complex_balance_report(net_bd, [3.0])
        assert report.balanced
        by_complex = {tuple(r.complex): r for r in report.rows}
        assert by_complex[(1,)].production == pytest.approx(3.0)
        assert by_complex[(1,)].consumption == pytest.approx(3.0)

    def test_diatomic_unbalanced_residual(self, net_diatomic):
        report = complex_balance_report(net_diatomic, [1.0, 1.0])
        assert not report.balanced
        by_complex = {tuple(r.complex): r for r in report.rows}
        # consumption alpha*c1 = 2 minus production beta*c2^2 = 1
        assert by_complex[(1, 0)].residual == pytest.approx(1.0)
        assert abs(by_complex[(1, 0)].residual) == pytest.approx(1.0)

    def test_zero_state_allowed(self, net_bd):
        report = complex_balance_report(net_bd, [0.0])
        assert not report.balanced  # source still produces A

    def test_dimension_check(self, net_bd):
        with pytest.raises(DimensionMismatch):
            complex_balance_report(net_bd, [1.0, 2.0])

    def test_rows_match_per_complex_scan(self):
        # brute force: scan every transition for every complex, in order
        rng = random.Random(29)
        for _ in range(40):
            net = random_network(rng)
            c = np.array([rng.choice((0.0, rng.uniform(0.1, 3.0))) for _ in net.species])
            flux = [tr.rate * float(np.prod(c ** np.array(tr.input))) for tr in net.transitions]
            expected = []
            for kappa in net.complexes():
                out = sum(f for f, tr in zip(flux, net.transitions) if tr.input == kappa)
                into = sum(f for f, tr in zip(flux, net.transitions) if tr.output == kappa)
                expected.append((kappa, into, out, out - into))
            rows = complex_balance_report(net, c).rows
            assert [(r.complex, r.production, r.consumption, r.residual) for r in rows] == expected

    def test_balance_implies_rate_equilibrium(self):
        # engineered balanced instances keep the implication non-vacuous
        rng = random.Random(61)
        hits = 0
        for _ in range(60):
            net, c = balanced_reversible_network(rng)
            report = complex_balance_report(net, c, tol=1e-9)
            if max((abs(r.residual) for r in report.rows), default=0.0) <= 1e-12:
                hits += 1
                assert np.abs(rate_vector_field(net, c)).max() <= 1e-9
        assert hits >= 50

    def test_report_json_keys(self, net_diatomic):
        doc = complex_balance_report(net_diatomic, [0.5, 1.0]).to_json_dict()
        assert set(doc) == {"complex_balanced", "tol", "scale", "complexes"}
        assert all(
            set(row) == {"complex", "production", "consumption", "residual"}
            for row in doc["complexes"]
        )


class TestStructureReportJson:
    def test_keys_and_values(self, net_diatomic):
        doc = structure_report(net_diatomic).to_json_dict()
        assert doc == {
            "num_complexes": 2,
            "linkage_classes": [[0, 1]],
            "weakly_reversible": True,
            "stoich_rank": 1,
            "deficiency": 0,
            "conserved_basis": [[2, 1]],
        }
