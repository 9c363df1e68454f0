"""Per-layer spans for the traced run, recorded from outside crnkit.

:meth:`Tracer.install` replaces crnkit's public functions, in every crnkit
module namespace that holds them, with wrappers that record a span (name,
start, end, parent, job) and the layer's counts; :meth:`Tracer.uninstall`
puts the originals back.  crnkit itself is not modified, so the untraced
passes of a run execute exactly the shipped code.

Span names are ``<module>.<stage>``; the layers are crnkit's modules.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a dotted attribute is a method.
TARGETS = (
    ("parser", "parse_network", "parser.parse"),
    ("structure", "structure_report", "structure.report"),
    ("structure", "complex_balance_report", "structure.balance"),
    ("dynamics", "find_equilibrium", "dynamics.equilibrium"),
    ("dynamics", "integrate_rate", "dynamics.rate"),
    ("fock", "TruncationBox.states", "fock.states"),
    ("fock", "hamiltonian", "fock.hamiltonian"),
    ("fock", "coherent_state", "fock.coherent"),
    ("fock", "master_residual", "fock.residual"),
    ("fock", "evolve_master", "fock.evolve"),
    ("fock", "MixedState.to_csv", "fock.csv"),
    ("ssa", "simulate", "ssa.simulate"),
    ("ssa", "stationary_histogram", "ssa.histogram"),
    ("ssa", "JumpTrajectory.to_csv", "ssa.csv"),
    ("ssa", "compare_to_poisson", "ssa.compare"),
)

# name -> unit, in the order they are printed
LAYER_METRICS = {
    "parser.parse_s": "s", "parser.lines": "count",
    "structure.report_s": "s", "structure.complexes": "count", "structure.balance_s": "s",
    "dynamics.equilibrium_s": "s", "dynamics.rate_s": "s", "dynamics.steps": "count",
    "dynamics.steps_per_s": "1/s", "dynamics.noconv": "count",
    "fock.states_s": "s", "fock.states": "count", "fock.hamiltonian_s": "s", "fock.nnz": "count",
    "fock.hamiltonian_peak_mb": "MB", "fock.coherent_s": "s", "fock.residual_s": "s",
    "fock.interior_frac": "ratio", "fock.matvec_s": "s", "fock.matvec_gbps_computed": "GB/s",
    "fock.evolve_s": "s", "fock.evolve_s_per_t": "s", "fock.csv_s": "s",
    "ssa.simulate_s": "s", "ssa.jumps": "count", "ssa.jumps_per_s": "1/s", "ssa.csv_s": "s",
    "ssa.histogram_s": "s", "ssa.compare_s": "s",
    "cli.overhead_s": "s", "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span and count recorder; one per traced run, spans kept in memory."""

    def __init__(self, crnkit_modules: dict):
        self.modules = crnkit_modules
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self.last_histogram = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter() - self.origin, "end": None,
                           "parent": self._stack[-1] if self._stack else None, "job": self.job})
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if getattr(exc, "code", None) == "E_NOCONV":
                self.counts["dynamics.noconv"] += 1
            raise
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter() - self.origin

    def _wrapper(self, name, fn):
        tracer = self
        if name == "fock.states":
            def states(box):
                if "_states" in box.__dict__:      # cached: no enumeration happens
                    return fn(box)
                tracer.counts["fock.states"] += box.size
                return tracer._call(name, fn, (box,), {})
            return states

        def wrapper(*args, **kwargs):
            if name == "fock.hamiltonian" and not tracemalloc.is_tracing():
                tracemalloc.start()
                try:
                    result = tracer._call(name, fn, args, kwargs)
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
                tracer.counts["fock.hamiltonian_peak_mb"] = max(
                    tracer.counts["fock.hamiltonian_peak_mb"], peak)
            else:
                result = tracer._call(name, fn, args, kwargs)
            tracer._observe(name, result, args, kwargs)
            return result
        return wrapper

    def _observe(self, name, result, args, kwargs):
        c = self.counts
        if name == "parser.parse":
            c["parser.lines"] += len(args[0].splitlines())
        elif name == "structure.report":
            c["structure.complexes"] += result.num_complexes
        elif name == "dynamics.rate":
            c["dynamics.steps"] += len(result.times)
        elif name == "fock.hamiltonian":
            c["fock.nnz"] += result.nnz
        elif name == "fock.residual":
            caps = result.box.caps
            c["fock.interior_states"] += int(np.prod([max(k - result.margin + 1, 0) for k in caps]))
            c["fock.residual_states"] += result.box.size
        elif name == "fock.evolve":
            op, psi0 = args[0], args[1]
            c["fock.model_time"] += float(args[2] if len(args) > 2 else kwargs["t"])
            self._matvec(op, psi0.weights)
        elif name == "ssa.simulate":
            c["ssa.jumps"] += result.num_jumps
        elif name == "ssa.histogram":
            self.last_histogram = result

    def _matvec(self, op, vec):
        """Time one generator mat-vec; the pass keeps the largest generator's figure."""
        if op.nnz < self.counts["fock.matvec_nnz"]:
            return
        times = []
        for _ in range(7):
            start = time.perf_counter()
            op.apply(vec)
            times.append(time.perf_counter() - start)
        mat = op.matrix
        moved = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes + 2 * vec.nbytes
        self.counts["fock.matvec_nnz"] = op.nnz
        self.counts["fock.matvec_s"] = statistics.median(times)
        self.counts["fock.matvec_bytes"] = moved

    def compare_histogram(self, means):
        """Run ``compare_to_poisson`` on the last histogram (the CLI does not call it)."""
        if self.last_histogram is not None:
            self.modules["ssa"].compare_to_poisson(self.last_histogram, means)
            self.last_histogram = None

    # -- installing --------------------------------------------------------

    def install(self):
        for module, attr, name in TARGETS:
            mod = self.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._saved.append((owner, meth, original))
                setattr(owner, meth, self._wrapper(name, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrapper(name, original)
            for holder in self.modules.values():
                if holder.__dict__.get(attr) is original:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- per-pass figures --------------------------------------------------

    def begin_pass(self) -> int:
        self.counts = defaultdict(float)
        return len(self.spans)

    def pass_metrics(self, first_span: int, jobs: list[tuple[float, float]]) -> dict:
        """Per-layer figures for the pass whose spans start at ``first_span``.

        ``jobs`` holds each job's (start, end) on the tracer's clock; the CLI's
        own time is the job's wall time minus its top-level library spans.
        """
        spans = self.spans[first_span:]
        busy = defaultdict(float)
        for span in spans:
            busy[span["name"]] += span["end"] - span["start"]
        top = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] is None and any(a <= s["start"] < b for a, b in jobs))
        c = self.counts
        m = {f"{name}_s": busy[name] for _, _, name in TARGETS}
        m.update({key: c[key] for key in ("parser.lines", "structure.complexes", "dynamics.steps",
                                          "dynamics.noconv", "fock.states", "fock.nnz",
                                          "fock.hamiltonian_peak_mb", "fock.matvec_s", "ssa.jumps")})
        m["dynamics.steps_per_s"] = _ratio(c["dynamics.steps"], busy["dynamics.rate"])
        m["fock.interior_frac"] = _ratio(c["fock.interior_states"], c["fock.residual_states"])
        m["fock.matvec_gbps_computed"] = _ratio(c["fock.matvec_bytes"], c["fock.matvec_s"]) / 1e9
        m["fock.evolve_s_per_t"] = _ratio(busy["fock.evolve"], c["fock.model_time"])
        m["ssa.jumps_per_s"] = _ratio(c["ssa.jumps"], busy["ssa.simulate"])
        m["cli.overhead_s"] = sum(b - a for a, b in jobs) - top
        return {key: m[key] for key in LAYER_METRICS if key in m}
