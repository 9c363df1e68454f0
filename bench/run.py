"""Run one crnkit benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a crnkit checkout; the benchmark uses the sources
in ``src/`` next to this directory and writes only under ``.bench_work/``.

One process, one caller, closed loop: the workload's job list (``crn``
subcommands called in-process through ``crnkit.cli.run``) runs pass after
pass until ``--seconds`` have gone by, and every job's output goes through
the correctness gate in ``checks.py`` (outside the timed region).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones, plus the tracing overhead.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One thread per BLAS/OpenMP pool: the numbers should measure crnkit, not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
REFERENCE_S = 0.002
LAYERS = ("parser", "structure", "dynamics", "fock", "ssa", "cli")


def measure_setup(workdir: str) -> list[float]:
    """Cold set-up times from fresh interpreters, one per repeat."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, SRC, workdir], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def import_crnkit() -> dict:
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"crnkit.{name}") for name in LAYERS}
    if not modules["cli"].__file__.startswith(SRC + os.sep):
        raise SystemExit(f"crnkit was imported from {modules['cli'].__file__}, not from {SRC}")
    return modules


def reference_work() -> float:
    """Seconds for a fixed mix of interpreter loops and numpy calls (about 2 ms)."""
    start = time.perf_counter()
    total = 0.0
    for i in range(6000):
        total += (i * 0.5) % 3.0
    vec = np.arange(1.0, 2001.0)
    for _ in range(60):
        vec = np.sqrt(vec * 1.0001)
    np.arange(300_000.0).sum()
    return time.perf_counter() - start


def machine_speed() -> float:
    """Reference seconds over measured seconds: below 1 when the shared machine runs slow."""
    return REFERENCE_S / statistics.median(reference_work() for _ in range(3))


def run_job(cli_run, argv) -> tuple[float, object, str, str | None]:
    """One in-process CLI call: (seconds, exit code, stderr, crash summary or None)."""
    err = io.StringIO()
    crash = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli_run(argv)
    except Exception as exc:  # a traceback is a job outcome, not a benchmark error
        crash = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, err.getvalue(), crash


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    import numpy
    import scipy
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu_model": cpu,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def src_lines() -> int:
    package = os.path.join(SRC, "crnkit")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def median_of_medians(samples: dict, keys) -> float:
    """Median over jobs of each job's median time across passes."""
    return statistics.median(statistics.median(samples[key]) for key in keys)


class Passes:
    """Closed-loop passes over the job list, with every output gated."""

    def __init__(self, jobs, net_path, out_path, cli_run, tracer, judge):
        self.jobs, self.net_path, self.out_path = jobs, net_path, out_path
        self.cli_run, self.tracer, self.judge = cli_run, tracer, judge
        # timing ("raw" seconds, or "scaled" to the reference speed) -> traced -> job key -> samples
        self.samples = {kind: {False: defaultdict(list), True: defaultdict(list)}
                        for kind in ("raw", "scaled")}
        self.walls = {kind: {False: [], True: []} for kind in ("raw", "scaled")}
        self.layer_passes = []
        self.failures = defaultdict(list)
        self.attempted = self.failed = self.wrong = 0

    def run(self, seconds: float):
        """Pass after pass until ``seconds`` have gone by; a traced run alternates."""
        deadline = time.perf_counter() + seconds
        traced = False
        while True:
            self.one_pass(traced)
            both = not self.tracer or all(self.walls["raw"].values())
            if time.perf_counter() >= deadline and both:
                return
            traced = bool(self.tracer) and not traced

    def one_pass(self, traced: bool):
        tracer = self.tracer if traced else None
        if tracer:
            tracer.install()
            first_span = tracer.begin_pass()
        windows, times, speeds = [], [], []
        for job in self.jobs:
            if os.path.exists(self.out_path):
                os.remove(self.out_path)
            speeds.append(machine_speed())
            if tracer:
                tracer.job = job.key
                start = time.perf_counter() - tracer.origin
            seconds, rc, stderr, crash = run_job(
                self.cli_run, job.argv(self.net_path[job.key], self.out_path))
            times.append(seconds)
            if tracer:
                windows.append((start, start + seconds))
                if job.cmd == "ssa_hist":
                    tracer.compare_histogram(job.expect["law"][1])
            outcome, reason = self.judge(job, rc, stderr, self.out_path, crash)
            self.attempted += 1
            if outcome != "ok":
                self.failed += 1
                self.wrong += outcome == "wrong"
                self.failures[job.key].append(f"{outcome}: {reason}")
        speeds.append(machine_speed())
        if tracer:
            tracer.uninstall()
            self.layer_passes.append(tracer.pass_metrics(first_span, windows))
        # Each job's time is scaled by the mean machine speed just before and after it.
        for kind in ("raw", "scaled"):
            wall = 0.0
            for i, (job, seconds) in enumerate(zip(self.jobs, times)):
                if kind == "scaled":
                    seconds *= (speeds[i] + speeds[i + 1]) / 2.0
                self.samples[kind][traced][job.key].append(seconds)
                wall += seconds
            self.walls[kind][traced].append(wall)

    def end_to_end(self, kind: str, commands) -> dict:
        by_cmd = defaultdict(list)
        for job in self.jobs:
            if job.key not in by_cmd[job.cmd]:
                by_cmd[job.cmd].append(job.key)
        metrics = {"wall_s": statistics.median(self.walls[kind][False])}
        metrics.update({f"{cmd}_s": median_of_medians(self.samples[kind][False], by_cmd[cmd])
                        for cmd in commands})
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's smoke sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crnkit", "cli.py")):
        print(f"bench: no crnkit sources at {SRC}", file=sys.stderr)
        return 2

    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    jobs = workloads.build(args.workload, args.seed, args.scale)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    net_path = {}
    for job in jobs:
        if job.key not in net_path:
            net_path[job.key] = os.path.join(workdir, f"{len(net_path):03d}.crn")
            with open(net_path[job.key], "w", encoding="utf-8") as handle:
                handle.write(job.net.crn())

    setup_times = measure_setup(workdir)
    modules = import_crnkit()
    tracer = spans.Tracer(modules) if args.trace else None
    passes = Passes(jobs, net_path, os.path.join(workdir, "out"), modules["cli"].run, tracer,
                    checks.judge)
    passes.run(args.seconds)

    e2e = {"setup_s": statistics.median(setup_times),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    e2e.update(passes.end_to_end("scaled", workloads.COMMANDS))
    e2e_units = {name: "MB" if name == "peak_rss_mb" else "s" for name in e2e}
    if tracer:
        metrics = {key: statistics.median(p[key] for p in passes.layer_passes)
                   for key in passes.layer_passes[0]}
        traced_wall = statistics.median(passes.walls["scaled"][True])
        metrics["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        units = spans.LAYER_METRICS
    else:
        metrics, units = e2e, e2e_units

    failed_frac = passes.failed / passes.attempted
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "src_lines": src_lines(), "machine": machine(),
        "passes": {"untraced": len(passes.walls["raw"][False]),
                   "traced": len(passes.walls["raw"][True])},
        "attempted": passes.attempted, "failed": passes.failed, "wrong": passes.wrong,
        "failed_frac": failed_frac,
        "failures": {key: sorted(set(reasons)) for key, reasons in passes.failures.items()},
        "setup_times_s": setup_times,
        "end_to_end": e2e,
        "end_to_end_unscaled": passes.end_to_end("raw", workloads.COMMANDS),
        "per_layer": metrics if tracer else None,
    }
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if tracer:
        with open(os.path.join(WORK, f"trace-{tag}.json"), "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "passes": passes.layer_passes}, handle)

    print(f"# {tag}: {result['passes']['untraced']} untraced + {result['passes']['traced']} "
          f"traced passes, {passes.attempted} jobs, {passes.failed} failed "
          f"(failed_frac {failed_frac:.4f})")
    for key, reasons in sorted(result["failures"].items()):
        print(f"#   {key}: {len(passes.failures[key])}x {reasons[0]}")
    print("# meta " + json.dumps({k: result[k] for k in ("seed", "src_lines", "machine")}))
    if tracer:
        print(f"# tracing overhead {metrics['trace.overhead_s']:.4f} s per pass "
              f"(traced {traced_wall:.4f} s, untraced {e2e['wall_s']:.4f} s)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": passes.wrong == 0, "attempted": passes.attempted, "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
