import hashlib
import random
import string
import warnings

import pytest

from crnkit import (
    CountVector,
    InvalidValue,
    Network,
    ParseError,
    Transition,
    format_network,
    parse_network,
    parse_network_report,
)

from support import crn_corpus, random_network


def first_error(text):
    net, diags = parse_network_report(text)
    assert net is None
    errors = [d for d in diags if d.severity == "error"]
    assert errors
    return errors[0]


class TestParsing:
    def test_diatomic(self, net_diatomic):
        net = parse_network("X1 -> 2 X2 @ 2.0\n2 X2 -> X1 @ 1.0")
        assert net == net_diatomic
        assert net.species == ("X1", "X2")
        assert net.transitions[0].rate == 2.0

    def test_empty_complex_input(self):
        net = parse_network("0 -> A @ 3.0")
        assert net.transitions[0].input == (0,)
        assert net.transitions[0].output == (1,)

    def test_empty_complex_output(self):
        net = parse_network("A -> 0 @ 1")
        assert net.transitions[0].output == (0,)

    def test_header_fixes_order(self):
        net = parse_network("species: C B A\nA -> B @ 1")
        assert net.species == ("C", "B", "A")
        assert net.transitions[0].input == (0, 0, 1)

    def test_first_appearance_order(self):
        net = parse_network("B -> A @ 1\nA -> C @ 1")
        assert net.species == ("B", "A", "C")

    def test_unused_header_species_kept(self):
        net = parse_network("species: A B\nA -> A + A @ 1")
        assert net.species == ("A", "B")

    def test_repeated_species_sum(self):
        net = parse_network("A + A -> 0 @ 1")
        assert net.transitions[0].input == (2,)

    def test_coefficient_without_space(self):
        net = parse_network("2A -> A @ 1")
        assert net.transitions[0].input == (2,)

    def test_reversible_expands(self):
        net = parse_network("A <-> B @ 2, 3")
        assert net.num_transitions == 2
        assert net.transitions[0] == Transition(CountVector((1, 0)), CountVector((0, 1)), 2.0)
        assert net.transitions[1] == Transition(CountVector((0, 1)), CountVector((1, 0)), 3.0)

    def test_duplicate_lines_kept(self):
        net = parse_network("A -> 0 @ 1\nA -> 0 @ 1")
        assert net.num_transitions == 2

    def test_comments_and_blanks(self):
        net = parse_network("# header comment\n\nA -> B @ 1  # trailing\n\n")
        assert net.num_transitions == 1

    def test_scientific_rates(self):
        net = parse_network("A -> 0 @ 2.5e-3\n0 -> A @ 1E+2")
        assert net.transitions[0].rate == 2.5e-3
        assert net.transitions[1].rate == 100.0


class TestDiagnostics:
    def test_negative_rate_position(self):
        diag = first_error("A -> B @ -1")
        assert diag.code == "E_RATE"
        assert (diag.line, diag.column) == (1, 10)

    def test_zero_rate(self):
        assert first_error("A -> B @ 0").code == "E_RATE"

    def test_overflowing_rate(self):
        assert first_error("A -> B @ 1e999").code == "E_RATE"

    def test_unknown_species(self):
        diag = first_error("species: A\nA -> B @ 1")
        assert diag.code == "E_UNKNOWN_SPECIES"
        assert (diag.line, diag.column) == (2, 6)

    @pytest.mark.parametrize(
        "text",
        [
            "A -> @ 1",
            "A B -> C @ 1",
            "A -> B",
            "A -> B @",
            "A -> B @ 1 extra",
            "-> B @ 1",
            "A <-> B @ 1",
            "A -> B @ 1, 2",
            "2.5 A -> B @ 1",
            "0 A -> B @ 1",
            "0 + A -> B @ 1",
            "A + -> B @ 1",
            "A $ B @ 1",
            "species:",
            "species: A A",
            "A -> B @ 1\nspecies: A B",
            "species: A\nspecies: A",
            "99999999999999999999 A -> 0 @ 1",
        ],
    )
    def test_syntax_errors(self, text):
        codes = {"E_SYNTAX", "E_RATE", "E_UNKNOWN_SPECIES"}
        assert first_error(text).code in codes

    def test_coefficient_bound_position(self):
        # the kernels hold complexes as int64, so a count of 2**63 is refused
        # at the term that reaches it
        diag = first_error("A -> 99999999999999999999 B @ 1")
        assert (diag.code, diag.column) == ("E_SYNTAX", 6)
        diag = first_error("A + 9223372036854775807 A -> 0 @ 1")
        assert (diag.code, diag.column) == ("E_SYNTAX", 5)
        assert parse_network("9223372036854775807 A -> 0 @ 1").transitions[0].input == (2**63 - 1,)

    def test_parse_error_carries_diagnostics(self):
        with pytest.raises(ParseError) as info:
            parse_network("A -> B @ -1")
        assert info.value.code == "E_RATE"
        assert any(d.code == "E_RATE" for d in info.value.diagnostics)

    def test_empty_input_is_warning(self):
        net, diags = parse_network_report("")
        assert net is not None and net.num_transitions == 0
        assert any(d.code == "E_EMPTY" and d.severity == "warning" for d in diags)
        with warnings.catch_warnings():  # the diagnostic is a value, not a Python warning
            warnings.simplefilter("error")
            parse_network("species: A")
            parse_network("")

    def test_self_loop_warning_diagnostic(self):
        net, diags = parse_network_report("A -> A @ 1")
        assert net is not None and net.num_transitions == 1
        assert any(d.code == "E_SELF_LOOP" and d.severity == "warning" for d in diags)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_network("A -> A @ 1") == net

    def test_recovers_after_bad_line(self):
        net, diags = parse_network_report("A -> B @ -1\nB -> A @ 1")
        assert net is None
        assert sum(d.severity == "error" for d in diags) == 1

    def test_totality_on_garbage(self):
        rng = random.Random(99)
        alphabet = string.printable
        for _ in range(150):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            net, diags = parse_network_report(text)
            if net is None:
                errors = [d for d in diags if d.severity == "error"]
                assert errors and all(d.line >= 1 and d.column >= 1 for d in errors)


def test_parse_report_digest():
    # SHA-256 of every report field over a seeded corpus, recorded with the
    # cursor-and-token parser; a rewrite must not move a network, message,
    # code, column or diagnostic.  No coefficient in the corpus reaches
    # 2**63, so the bound on coefficients leaves the digest unchanged.
    digest = hashlib.sha256()
    for text in crn_corpus(10, 10_000):
        net, diags = parse_network_report(text)
        if net is not None:
            digest.update(repr((net.species, [(t.input, t.output, t.rate) for t in net.transitions])).encode())
        digest.update(repr([(d.line, d.column, d.code, d.message, d.severity) for d in diags]).encode())
    assert digest.hexdigest() == "be3513e501cbed4bffea411fe5f0d71b6d21c0370e95b0e7ba2cd3fa3fa78b2d"


class TestFormatting:
    def test_bd_canonical_text(self):
        net = Network(
            ("A",),
            (
                Transition(CountVector((0,)), CountVector((1,)), 1.0),
                Transition(CountVector((1,)), CountVector((0,)), 1.0),
            ),
        )
        assert format_network(net) == "species: A\n0 -> A @ 1\nA -> 0 @ 1"

    def test_unit_coefficients_omitted(self, net_diatomic):
        text = format_network(net_diatomic)
        assert "X1 -> 2 X2 @ 2" in text
        assert "1 X1" not in text

    def test_fractional_rate_rendered_shortest(self, net_diatomic):
        net = Network(
            net_diatomic.species,
            (
                Transition(net_diatomic.transitions[0].input,
                           net_diatomic.transitions[0].output, 2.5),
            ),
        )
        assert "@ 2.5" in format_network(net)

    def test_unrepresentable_species_rejected(self):
        # a coded E_VALUE, which is still a ValueError
        for name in ("not a name", "1A", "A-B", "A\nB"):
            with pytest.raises(InvalidValue, match="not representable in the .crn format") as info:
                format_network(Network(("B", name)))
            assert info.value.code == "E_VALUE" and isinstance(info.value, ValueError)


class TestRoundTrip:
    def test_fixtures(self, net_bd, net_diatomic, net_catalyst):
        for net in (net_bd, net_diatomic, net_catalyst):
            assert parse_network(format_network(net)) == net

    def test_random_networks(self):
        rng = random.Random(2024)
        for _ in range(200):
            net = random_network(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                again = parse_network(format_network(net))
            assert again == net
            assert again.species == net.species
            for a, b in zip(again.transitions, net.transitions):
                assert a.rate == b.rate

    def test_complexes_equal_the_checked_constructor(self):
        # the parser builds each complex once, unchecked, from counts it
        # checked as it read them; '<->' lines share theirs between the two
        # transitions
        rng = random.Random(2026)
        for _ in range(200):
            lines = format_network(random_network(rng)).split("\n")
            text = "\n".join(
                line.replace(" -> ", " <-> ") + ", 2" if i % 2 and " -> " in line else line
                for i, line in enumerate(lines)
            )
            net, _ = parse_network_report(text)
            for tr in net.transitions:
                for vec in (tr.input, tr.output):
                    checked = CountVector(tuple(vec))
                    assert type(vec) is CountVector and vec == checked
                    assert [type(v) for v in vec] == [int] * len(checked)
