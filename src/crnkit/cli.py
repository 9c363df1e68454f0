"""Command-line pipeline: parse, analyze, rate, equilibrium, master, ack, ssa, noether.

Every subcommand reads a ``.crn`` file and writes CSV or JSON to stdout or
``--out``.  JSON reports carry ``schema_version`` and a ``generated_at``
timestamp; everything else is a pure function of the inputs and the seed.
Exit codes: 0 success, 1 domain errors (and a failed balance check),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .dynamics import find_equilibrium, integrate_rate, rate_vector_field
from .errors import CrnError
from .fock import (
    TruncationBox,
    ack_residual,
    apply_symmetry,
    coherent_state,
    commutator,
    default_box,
    evolve_master,
    hamiltonian,
    interior_mask,
    linear_observable,
    master_residual,
    network_margin,
    project_onto,
    pure_state,
)
from .parser import format_network, parse_network
from .ssa import compare_to_poisson, simulate, stationary_histogram
from .structure import complex_balance_report, conserved_quantities, structure_report

__all__ = ["run", "main"]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _read_network(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_network(handle.read())


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(doc: dict, out: str | None):
    full = {
        "schema_version": 1,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    full.update(doc)
    _write(json.dumps(full, indent=2, allow_nan=False) + "\n", out)


def _box_from_args(args, net, c=None) -> TruncationBox:
    if args.caps is not None:
        return TruncationBox(tuple(args.caps))
    if c is None:
        raise ValueError("--caps is required when no coherent means are given")
    return default_box(c, network_margin(net))


def _cmd_parse(args) -> int:
    net = _read_network(args.input)
    _write(format_network(net) + "\n", args.out)
    return 0


def _cmd_analyze(args) -> int:
    net = _read_network(args.input)
    report = structure_report(net)
    doc = {"species": list(net.species), "num_transitions": net.num_transitions}
    doc.update(report.to_json_dict())
    _emit_json(doc, args.out)
    return 0


def _cmd_rate(args) -> int:
    net = _read_network(args.input)
    traj = integrate_rate(
        net, args.x0, args.t_end, method=args.method, step=args.dt, rtol=args.tol
    )
    _write(traj.to_csv(net.species), args.out)
    return 0


def _cmd_equilibrium(args) -> int:
    net = _read_network(args.input)
    state = find_equilibrium(net, args.x0, tol=args.tol)
    residual = float(np.abs(rate_vector_field(net, state)).max(initial=0.0))
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
    net = _read_network(args.input)
    if (args.n0 is None) == (args.c is None):
        raise ValueError("exactly one of --n0 (pure start) or --c (coherent start) is required")
    box = _box_from_args(args, net, c=args.c)
    if args.n0 is not None:
        psi0 = pure_state(box, args.n0)
    else:
        psi0, _ = coherent_state(args.c, box)
    psi = evolve_master(hamiltonian(net, box), psi0, args.t_end)
    _write(psi.to_csv(net.species), args.out)
    return 0


def _cmd_ack(args) -> int:
    net = _read_network(args.input)
    box = _box_from_args(args, net, c=args.c)
    balance = complex_balance_report(net, args.c, tol=args.tol)
    report = ack_residual(net, args.c, box)
    doc = {"c": list(args.c), "caps": list(box.caps), "margin": report.margin}
    doc.update(balance.to_json_dict(net.species))
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
    net = _read_network(args.input)
    if args.histogram:
        hist = stationary_histogram(
            net, args.n0, args.burn_in, args.samples, args.interval, seed=args.seed
        )
        _write(hist.to_csv(net.species), args.out)
    else:
        traj = simulate(net, args.n0, args.t_end, seed=args.seed)
        _write(traj.to_csv(net.species), args.out)
    return 0


def _cmd_noether(args) -> int:
    net = _read_network(args.input)
    basis = conserved_quantities(net)
    box = _box_from_args(args, net, c=args.c)
    h_op = hamiltonian(net, box)
    doc = {
        "c": list(args.c),
        "caps": list(box.caps),
        "conserved_basis": [list(w) for w in basis],
        "commutator_max_abs": [
            commutator(h_op, linear_observable(w, box)).max_abs() for w in basis
        ],
    }
    if basis:
        w = basis[0]
        psi_sym, predicted = apply_symmetry(args.c, w, args.s, box)
        reference, _ = coherent_state(predicted, box)
        inside = interior_mask(box, network_margin(net))
        ref = reference.weights[inside]
        got = psi_sym.weights[inside]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(np.where(ref > 0, got / ref - 1.0, 0.0))
        lam = args.lam if args.lam is not None else int(round(float(np.dot(w, args.c))))
        psi_c, _ = coherent_state(args.c, box)
        projected = project_onto(psi_c, w, lam)
        proj_report = master_residual(net, projected)
        doc["symmetry"] = {
            "w": list(w),
            "s": args.s,
            "predicted_c": [float(v) for v in predicted],
            "max_rel_err_interior": float(rel.max(initial=0.0)),
        }
        doc["projection"] = {
            "w": list(w),
            "lam": lam,
            "interior_residual_l1": proj_report.interior_l1,
        }
    _emit_json(doc, args.out)
    return 0


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

    add("parse", _cmd_parse, "validate and reprint the canonical form")

    add("analyze", _cmd_analyze, "structural report as JSON")

    p = add("rate", _cmd_rate, "integrate the rate equation to CSV")
    p.add_argument("--x0", type=_floats, required=True, help="initial concentrations, comma separated")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=None, help="fixed RK4 step (default auto)")
    p.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance for rk45")

    p = add("equilibrium", _cmd_equilibrium, "relax and polish an equilibrium to JSON")
    p.add_argument("--x0", type=_floats, required=True)
    p.add_argument("--tol", type=float, default=1e-9)

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
