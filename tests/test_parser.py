import hashlib
import random
import string
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnkit import parser
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

from support import crn_corpus, random_network, sparse_network


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


def fast_route(line, species, fixed):
    """What :func:`parser._read_reaction` reads from ``line`` against a
    copy of ``species``: ``(lhs items, rhs items, rates, species after)``,
    or ``None`` when it declines, which must leave the species untouched."""
    species = dict(species)
    before = list(species)
    read = parser._read_reaction(line, species, fixed)
    if read is None:
        assert list(species) == before
        return None
    lhs, rhs, rates = read
    return list(lhs.items()), list(rhs.items()), rates, list(species)


def token_route(line, species, fixed):
    """The same read through :func:`parser._tokenize` and
    :func:`parser._parse_reaction`, or the error they raise."""
    species = dict(species)
    try:
        lhs, rhs, rates = parser._parse_reaction(parser._tokenize(line), species, fixed)
    except parser._LineError as exc:
        return exc.args
    return list(lhs.items()), list(rhs.items()), rates, list(species)


def assert_routes_agree(line, species, fixed):
    fast = fast_route(line, species, fixed)
    if fast is not None:
        assert fast == token_route(line, species, fixed), line
    header = parser._read_header(line)
    if header is not None:
        tokens = parser._tokenize(line)
        assert tokens[0][:2] == ("name", "species") and tokens[1][1] == ":"
        assert list(parser._parse_header(tokens, False, False)) == list(header)


# species known before a line: none, two in the order B, A, and a header
_CONTEXTS = (({}, False), (dict.fromkeys("BA"), False), (dict.fromkeys(("A", "B", "X1")), True))

_GAP = st.sampled_from(["", " ", "\t", "  ", " \t "])
_NAMES = st.sampled_from(["A", "B", "C", "X1", "_s", "e", "E5", "species"])
# a coefficient: none, digits with leading zeros, digits around 2**63, or a
# number token that is not a coefficient ("2e5A" is the number 2e5, then A)
_COEFFICIENTS = st.one_of(
    st.just(""),
    st.builds(lambda zeros, c: "0" * zeros + str(c), st.integers(0, 2), st.integers(1, 12)),
    st.integers(2**63 - 2, 2**63 + 1).map(str),
    st.sampled_from(["0", "00", "2e5", "2.", "2E+", "1e", "3E+1", ".5"]),
)
# whole part, fraction and exponent, with a digit on one side of the point:
# ".5", "5.", "1E+2", "1e-3", and 0 or inf once parsed
_RATES = st.builds(
    lambda whole, frac, exp: (whole or ("" if frac[1:] else "3")) + frac + exp,
    st.sampled_from(["", "0", "1", "5", "12", "007"]),
    st.sampled_from(["", ".", ".5", ".25", ".0"]),
    st.sampled_from(["", "e-3", "E+2", "e5", "e999", "E-400"]),
)


@st.composite
def complexes(draw):
    if draw(st.integers(0, 5)) == 0:
        return "0"
    text = ""
    for i in range(draw(st.integers(1, 3))):  # a name may repeat: A + A
        coeff = draw(_COEFFICIENTS)
        if coeff and draw(st.integers(0, 9)) == 0:
            term = coeff  # no name: "2e5 + B" is an error, not 2 e5 + B
        else:
            term = coeff + (draw(_GAP) if coeff else "") + draw(_NAMES)
        text += term if i == 0 else draw(_GAP) + "+" + draw(_GAP) + term
    return text


@st.composite
def reaction_lines(draw):
    arrow = draw(st.sampled_from(["->", "<->"]))
    count = 2 if arrow == "<->" else 1
    if draw(st.integers(0, 9)) == 0:  # the wrong number of rates
        count = 3 - count
    rates = (draw(_GAP) + "," + draw(_GAP)).join(draw(_RATES) for _ in range(count))
    gap = lambda: draw(_GAP)
    return (f"{gap()}{draw(complexes())}{gap()}{arrow}{gap()}{draw(complexes())}"
            f"{gap()}@{gap()}{rates}{gap()}")


class TestFastRoute:
    """The fast route declines a line or reads what the token route reads;
    only the token route writes diagnostics."""

    def test_corpus_lines(self):
        for text in crn_corpus(10, 10_000):
            for raw in text.splitlines():
                line = raw.split("#", 1)[0]
                if line.strip():
                    for species, fixed in _CONTEXTS:
                        assert_routes_agree(line, species, fixed)

    @settings(max_examples=400, deadline=None)
    @given(reaction_lines(), st.lists(_NAMES, unique=True, max_size=4), st.booleans())
    def test_generated_lines(self, line, known, fixed):
        assert_routes_agree(line, dict.fromkeys(known), fixed)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_NAMES, max_size=4), _GAP, _GAP)
    def test_generated_headers(self, names, gap, sep):
        assert_routes_agree(f"{gap}species{gap}:{gap}{(sep or ' ').join(names)}{gap}", {}, False)

    def test_known_declines(self):
        # each is an error on the token route, or syntax the fast one leaves to it
        for line in ("2e5 + B -> A @ 1", "2.A -> B @ 1", "0 A -> B @ 1", "00 -> A @ 1",
                     "A -> B @ 0", "A -> B @ 1e999", "A -> B @ +1", "A -> B @ 1, 2",
                     "A <-> B @ 1", "\u0661 A -> B @ 1", "A\u00a0-> B @ 1",
                     f"{2**63} A -> B @ 1", f"{2**62} A + {2**62} A -> B @ 1"):
            for species, fixed in _CONTEXTS:
                assert fast_route(line, species, fixed) is None, line
        assert fast_route("A -> C @ 1", dict.fromkeys("AB"), True) is None

    def test_formatted_networks_never_tokenize(self, monkeypatch):
        # the benchmark's networks are formatted the same way: a header,
        # then one 'a S + b S -> ... @ repr(rate)' line per transition
        def no_tokenizer(line):
            raise AssertionError(f"tokenized {line!r}")

        monkeypatch.setattr(parser, "_tokenize", no_tokenizer)
        rng = random.Random(37)
        nets = [sparse_network(rng, 14, 30), sparse_network(rng, 22, 50)]
        nets += [random_network(rng) for _ in range(100)]
        for net in nets:
            text = format_network(net)
            again, diags = parse_network_report(text)
            assert again == net and again.species == net.species
            assert all(d.code in ("E_EMPTY", "E_SELF_LOOP") for d in diags)
            reversible = "\n".join(
                line.replace(" -> ", " <-> ") + ", 2" if " -> " in line else line
                for line in text.split("\n")
            )
            assert parse_network_report(reversible)[0].num_transitions == 2 * net.num_transitions


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
