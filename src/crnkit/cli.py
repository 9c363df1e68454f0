"""Command-line pipeline: parse, analyze, rate, equilibrium, master, ack, ssa, noether.

Every subcommand reads a ``.crn`` file and writes CSV or JSON to stdout or
``--out``.  JSON reports carry ``schema_version`` and a ``generated_at``
timestamp; everything else is a pure function of the inputs and the seed.
Exit codes: 0 success, 1 domain errors (and a failed balance check),
2 usage errors.  Each subcommand imports the float modules it needs when it
runs, so ``crn parse`` and ``crn analyze`` load no numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

from .errors import CrnError, InvalidValue
from .parser import ParseError, format_network, parse_network_report
from .structure import complex_balance_report, structure_report

__all__ = ["run", "main"]


def _fields(text: str) -> list[str]:
    """The fields of a comma-separated list: none for an empty text, and a
    usage error for an empty field among others."""
    fields = text.split(",")
    if len(fields) == 1 and not text.strip():
        return []
    if not all(field.strip() for field in fields):
        raise argparse.ArgumentTypeError(f"empty field in {text!r}")
    return fields


def _floats(text: str) -> list[float]:
    return [float(v) for v in _fields(text)]


def _ints(text: str) -> list[int]:
    return [int(v) for v in _fields(text)]


def _read_network(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        net, diagnostics = parse_network_report(handle.read())
    if net is None:
        raise ParseError(diagnostics)
    for diag in diagnostics:  # warnings only, once the text parsed
        print(f"warning[{diag.code}]: {diag.line}:{diag.column}: {diag.message}", file=sys.stderr)
    return net


def _write(text: str, out: str | None):
    _write_with(lambda handle: handle.write(text), out)


def _write_with(writer, out: str | None):
    """Call ``writer`` with stdout, or with the file ``out`` opened for text."""
    if out is None:
        writer(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            writer(handle)


def _emit_json(doc: dict, out: str | None):
    full = {
        "schema_version": 1,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    full.update(doc)
    _write(json.dumps(full, indent=2, allow_nan=False) + "\n", out)


def _box_from_args(args, net, c=None):
    from .fock import TruncationBox, default_box, network_margin
    if args.caps is not None:
        return TruncationBox(tuple(args.caps))
    if c is None:
        raise InvalidValue("--caps is required when no coherent means are given")
    return default_box(c, network_margin(net))


def _cmd_parse(args) -> int:
    net = _read_network(args.input)
    _write(net.petri_bipartite().to_dot() if args.dot else format_network(net) + "\n", args.out)
    return 0


def _cmd_analyze(args) -> int:
    net = _read_network(args.input)
    report = structure_report(net)
    doc = {"species": list(net.species), "num_transitions": net.num_transitions}
    doc.update(report.to_json_dict())
    _emit_json(doc, args.out)
    return 0


def _cmd_rate(args) -> int:
    from .dynamics import integrate_rate
    net = _read_network(args.input)
    tol = {} if args.tol is None else {"rtol": args.tol}
    traj = integrate_rate(net, args.x0, args.t_end, **tol)
    _write(traj.to_csv(net.species), args.out)
    return 0


def _cmd_equilibrium(args) -> int:
    from .dynamics import find_equilibrium, rate_vector_field
    net = _read_network(args.input)
    state = find_equilibrium(net, args.x0, tol=args.tol)
    residual = float(abs(rate_vector_field(net, state)).max(initial=0.0))
    _emit_json(
        {
            "x0": list(args.x0),
            "tol": args.tol,
            "equilibrium": [float(v) for v in state],
            "residual_inf": residual,
        },
        args.out,
    )
    return 0


def _cmd_master(args) -> int:
    from .fock import coherent_state, evolve_master, hamiltonian, pure_state
    net = _read_network(args.input)
    if (args.n0 is None) == (args.c is None):
        raise InvalidValue("exactly one of --n0 (pure start) or --c (coherent start) is required")
    box = _box_from_args(args, net, c=args.c)
    if args.n0 is not None:
        psi0 = pure_state(box, args.n0)
    else:
        psi0, _ = coherent_state(args.c, box)
    psi = evolve_master(hamiltonian(net, box), psi0, args.t_end)
    _write(psi.to_csv(net.species), args.out)
    return 0


def _cmd_ack(args) -> int:
    from .fock import ack_residual
    net = _read_network(args.input)
    box = _box_from_args(args, net, c=args.c)
    balance = complex_balance_report(net, args.c, tol=args.tol)
    report = ack_residual(net, args.c, box)
    doc = {"c": list(args.c), "caps": list(box.caps), "margin": report.margin}
    doc.update(balance.to_json_dict())
    doc.update(
        {
            "interior_residual_l1": report.interior_l1,
            "full_residual_l1": report.full_l1,
            "tail_mass": report.tail_mass,
        }
    )
    _emit_json(doc, args.out)
    return 0 if balance.balanced else 1


def _cmd_ssa(args) -> int:
    from .ssa import simulate, stationary_histogram
    net = _read_network(args.input)
    if args.histogram:
        hist = stationary_histogram(
            net, args.n0, args.burn_in, args.samples, args.interval, seed=args.seed
        )
        _write(hist.to_csv(net.species), args.out)
    else:
        traj = simulate(net, args.n0, args.t_end, seed=args.seed)
        _write_with(lambda handle: traj.to_csv(net.species, handle), args.out)
    return 0


def _cmd_noether(args) -> int:
    from .fock import noether_report
    net = _read_network(args.input)
    box = _box_from_args(args, net, c=args.c)
    doc = {"c": list(args.c), "caps": list(box.caps)}
    doc.update(noether_report(net, args.c, box, args.s, args.lam))
    _emit_json(doc, args.out)
    return 0


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crn",
        description="Reaction-network toolkit: structure, dynamics, master equation, SSA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="path to a .crn network file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(func=func)
        return p

    p = add("parse", _cmd_parse, "validate and reprint the canonical form")
    p.add_argument("--dot", action="store_true",
                   help="write the species/transition Petri net as a Graphviz digraph instead")

    add("analyze", _cmd_analyze, "structural report as JSON")

    p = add("rate", _cmd_rate, "integrate the rate equation to CSV")
    p.add_argument("--x0", type=_floats, required=True, help="initial concentrations, comma separated")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=None,
                   help="keep each step's error below 1e-12 + tol*max|x| (default 3e-8)")

    p = add("equilibrium", _cmd_equilibrium, "pseudo-transient continuation to an equilibrium; JSON")
    p.add_argument("--x0", type=_floats, required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="accept |f| <= tol*(1+max|x|) once |f| stops falling")

    p = add("master", _cmd_master, "evolve the master equation; distribution CSV")
    p.add_argument("--n0", type=_ints, default=None, help="pure initial state, comma separated")
    p.add_argument("--c", type=_floats, default=None, help="coherent initial means")
    p.add_argument("--caps", type=_ints, default=None)
    p.add_argument("--t-end", type=float, default=1.0)

    p = add("ack", _cmd_ack, "complex-balance check plus coherent-state residual certificate")
    p.add_argument("--c", type=_floats, required=True)
    p.add_argument("--caps", type=_ints, default=None)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("ssa", _cmd_ssa, "stochastic simulation: trajectory or histogram CSV")
    p.add_argument("--n0", type=_ints, required=True)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--burn-in", type=float, default=50.0)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--interval", type=float, default=1.0)

    p = add("noether", _cmd_noether, "commutator check with symmetry and projection demos")
    p.add_argument("--c", type=_floats, required=True)
    p.add_argument("--caps", type=_ints, default=None)
    p.add_argument("--s", type=float, default=math.log(2.0))
    p.add_argument("--lam", type=int, default=None)

    return parser


def run(args) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        namespace = parser.parse_args(list(args))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return namespace.func(namespace)
    except CrnError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
