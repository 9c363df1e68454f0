"""Read and write the ``.crn`` reaction-network text format.

One construct per line::

    # comment runs to end of line
    species: A B C          # optional header; fixes species order and names
    A + 2 B -> C @ 1.5      # one transition
    C <-> A + 2 B @ 2, 0.5  # reversible: exactly two rates, expands to two
    0 -> A @ 1e-3           # '0' is the empty complex

Species names match ``[A-Za-z_][A-Za-z0-9_]*``.  Coefficients are positive
integers below 2**63 and default to 1.  Rates are positive decimals;
scientific notation is allowed.  Without a ``species:`` header the species
order is first appearance; with one, any undeclared name is an error.
Repeated species inside a complex accumulate (``A + A`` equals ``2 A``),
to a count below 2**63 as well, and duplicate reaction lines are kept as
distinct transitions.

:func:`parse_network` raises :class:`ParseError` on the first pass over
the whole file, collecting one diagnostic per offending line;
:func:`parse_network_report` returns the diagnostics without raising.
:func:`format_network` writes the canonical form, which parses back to an
equal network (labels excepted, since the format does not carry them).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import CrnError, InvalidValue
from .network import CountVector, Network, Transition, _count_vector

__all__ = [
    "Diagnostic",
    "ParseError",
    "parse_network",
    "parse_network_report",
    "format_network",
    "format_complex",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow><->|->)"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[@,:+\-])"
    r"|(?P<bad>.)"
)


@dataclass(frozen=True)
class Diagnostic:
    """A positioned parser message; ``line`` and ``column`` are 1-based."""

    line: int
    column: int
    code: str
    message: str
    severity: str  # "error" | "warning"

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"


class ParseError(CrnError):
    """Raised when the text contains at least one error-level diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        self.code = errors[0].code if errors else "E_SYNTAX"
        super().__init__("; ".join(str(d) for d in errors))


class _LineError(Exception):
    """Internal: the current line is wrong at ``column``; parsing goes on at the next line."""

    def __init__(self, column: int, message: str, code: str = "E_SYNTAX"):
        super().__init__(column, message, code)


def _tokenize(line):
    """``(kind, text, column)`` per token, closed by an ``end`` token one past the line."""
    tokens = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "bad":
            raise _LineError(m.start() + 1, f"unexpected character {m.group()!r}")
        if kind != "ws":
            tokens.append((kind, m.group(), m.start() + 1))
    tokens.append(("end", "", len(line) + 1))
    return tokens


def _parse_complex(tokens, i, species, fixed):
    """COMPLEX from ``tokens[i]``: ``({name: count}, next index)``, ``{}`` for '0'.

    A name not yet in ``species`` is appended to it, or refused when the
    species header has ``fixed`` the list.
    """
    kind, text, column = tokens[i]
    if kind == "end":
        raise _LineError(column, "complex expected")
    if kind == "number" and text == "0":
        after = tokens[i + 1]
        if after[0] == "name":
            raise _LineError(column, "complex coefficient must be a positive integer")
        if after[1] == "+":
            raise _LineError(after[2], "'0' denotes the empty complex and cannot be combined with terms")
        return {}, i + 1
    counts: dict[str, int] = {}
    while True:
        kind, text, column = tokens[i]
        coeff = 1
        if kind == "number":
            if not text.isdigit() or int(text) <= 0:
                raise _LineError(column, "complex coefficient must be a positive integer")
            coeff = int(text)
            i += 1
        name_kind, name, name_column = tokens[i]
        if name_kind != "name":
            raise _LineError(name_column, "species name expected")
        if name not in species:
            if fixed:
                raise _LineError(name_column, f"species {name!r} not declared in the species header",
                                 "E_UNKNOWN_SPECIES")
            species[name] = None
        counts[name] = counts.get(name, 0) + coeff
        if counts[name] >= 2**63:  # the kernels hold complexes as int64
            raise _LineError(column, "complex coefficient must be below 2**63")
        if tokens[i + 1][1] != "+":
            return counts, i + 1
        i += 2


def _parse_rate(tokens, i):
    """RATE from ``tokens[i]``, an optionally signed number: ``(value, next index)``."""
    _, sign, column = tokens[i]
    if sign in ("+", "-"):
        i += 1
    kind, text, number_column = tokens[i]
    if kind != "number":
        raise _LineError(number_column, "rate constant expected")
    value = -float(text) if sign == "-" else float(text)
    if not (math.isfinite(value) and value > 0):
        raise _LineError(column, "rate constant must be a positive finite number", "E_RATE")
    return value, i + 1


def _parse_header(tokens, fixed, saw_reaction):
    """The names of a ``species:`` line, in order, as a dict."""
    if fixed:
        raise _LineError(tokens[2][2], "duplicate species header")
    if saw_reaction:
        raise _LineError(tokens[2][2], "species header must precede all reactions")
    names: dict[str, None] = {}
    for kind, text, column in tokens[2:-1]:
        if kind != "name":
            raise _LineError(column, "species name expected in header")
        if text in names:
            raise _LineError(column, f"duplicate species {text!r} in header")
        names[text] = None
    if not names:
        raise _LineError(tokens[-1][2], "at least one species name expected after 'species:'")
    return names


def _parse_reaction(tokens, species, fixed):
    """A reaction line: ``(lhs, rhs, rates)``, with two rates for '<->'."""
    lhs, i = _parse_complex(tokens, 0, species, fixed)
    kind, arrow, arrow_column = tokens[i]
    if kind != "arrow":
        raise _LineError(arrow_column, "'->' or '<->' expected")
    rhs, i = _parse_complex(tokens, i + 1, species, fixed)
    if tokens[i][1] != "@":
        raise _LineError(tokens[i][2], "'@' and a rate constant expected")
    rate, i = _parse_rate(tokens, i + 1)
    rates = [rate]
    if tokens[i][1] == ",":
        rate, i = _parse_rate(tokens, i + 1)
        rates.append(rate)
    if tokens[i][0] != "end":
        raise _LineError(tokens[i][2], "unexpected trailing tokens")
    if arrow == "->" and len(rates) == 2:
        raise _LineError(arrow_column, "'->' takes exactly one rate")
    if arrow == "<->" and len(rates) == 1:
        raise _LineError(arrow_column, "'<->' takes exactly two rates (forward, backward)")
    return lhs, rhs, rates


def parse_network_report(text: str) -> tuple[Network | None, tuple[Diagnostic, ...]]:
    """Parse ``text``; return ``(network, diagnostics)``.

    The network is ``None`` exactly when an error-level diagnostic was
    produced.  Parsing is total: every input yields either a network or at
    least one positioned error.
    """
    diagnostics: list[Diagnostic] = []
    species: dict[str, None] = {}  # insertion-ordered; a header fixes it
    fixed = False
    reactions: list[tuple[dict, dict, list[float]]] = []  # one per reaction line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            tokens = _tokenize(line)
            if tokens[0][:2] == ("name", "species") and tokens[1][1] == ":":
                species = _parse_header(tokens, fixed, bool(reactions))
                fixed = True
                continue
            lhs, rhs, rates = _parse_reaction(tokens, species, fixed)
        except _LineError as exc:
            column, message, code = exc.args
            diagnostics.append(Diagnostic(lineno, column, code, message, "error"))
            continue
        if lhs == rhs:
            diagnostics.append(
                Diagnostic(lineno, 1, "E_SELF_LOOP",
                           "self-loop reaction contributes nothing to the dynamics", "warning")
            )
        reactions.append((lhs, rhs, rates))
    if not reactions:
        diagnostics.append(Diagnostic(1, 1, "E_EMPTY", "no reactions found", "warning"))
    if any(d.severity == "error" for d in diagnostics):
        return None, tuple(diagnostics)
    names = tuple(species)
    transitions = []
    for lhs, rhs, rates in reactions:  # counts checked as read, so each complex is built once
        lhs, rhs = _count_vector(lhs, names), _count_vector(rhs, names)
        transitions.append(Transition(lhs, rhs, rates[0]))
        if len(rates) == 2:
            transitions.append(Transition(rhs, lhs, rates[1]))
    return Network(names, tuple(transitions)), tuple(diagnostics)


def parse_network(text: str) -> Network:
    """Parse ``text`` into a :class:`Network`, raising :class:`ParseError` on errors.

    Warning-level diagnostics (empty file, self-loops) are not reported
    here; :func:`parse_network_report` returns them.
    """
    net, diagnostics = parse_network_report(text)
    if net is None:
        raise ParseError(diagnostics)
    return net


def _format_rate(rate: float) -> str:
    text = repr(float(rate))
    return text[:-2] if text.endswith(".0") else text


def format_complex(complex_: CountVector, species) -> str:
    """Canonical text of one complex: terms in species order, '0' if empty."""
    terms = []
    for count, name in zip(complex_, species):
        if count == 1:
            terms.append(name)
        elif count > 1:
            terms.append(f"{count} {name}")
    return " + ".join(terms) if terms else "0"


def format_network(net: Network) -> str:
    """Canonical ``.crn`` text; ``parse_network(format_network(n))`` equals ``n``."""
    for name in net.species:
        if not _NAME_RE.fullmatch(name):
            raise InvalidValue(f"species name {name!r} is not representable in the .crn format")
    lines = []
    if net.species:
        lines.append("species: " + " ".join(net.species))
    for tr in net.transitions:
        lines.append(
            f"{format_complex(tr.input, net.species)} -> "
            f"{format_complex(tr.output, net.species)} @ {_format_rate(tr.rate)}"
        )
    return "\n".join(lines)
