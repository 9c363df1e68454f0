"""Self-test of the benchmark: smoke run of every workload, and the gate catching corruption.

    python3 bench/selftest.py

1. Runs every workload at the tiny scale, untraced and traced, and checks
   that the last line of output carries exactly the metrics BENCHMARK.json
   names, each a finite number with its declared unit.
2. Runs one tiny job per subcommand, checks that the gate passes its real
   output, then corrupts the output and checks that the gate catches it.

Exits 1 if any check fails.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "selftest")


def smoke(spec) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
                problems.append(f"{where}: malformed result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{where}: non-finite values for {bad}")
            print(f"{'ok  ' if len(problems) == before else 'FAIL'} smoke {where}: "
                  f"{len(got)} metrics, {result['attempted']} jobs, {result['failed']} failed")
    return problems


def _replace_line(text, index, edit):
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def _shift_first_count(row):
    cells = row.split(",")
    cells[0] = str(int(cells[0]) + 1)
    return ",".join(cells)


def _bump_last_state(row):
    cells = row.split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    return ",".join(cells)


def _scale_last(row, factor):
    cells = row.split(",")
    cells[-1] = repr(float(cells[-1]) * factor)
    return ",".join(cells)


def _json_edit(edit):
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


# (job, corruption, outcome the gate must report for the corrupted output)
def _cases(rng):
    sizes = workloads.SIZES["tiny"]
    dia = workloads.diatomic(2.0, 1.0)
    bd = workloads.birth_death(3.0, 1.0)
    chain = workloads._scan_chain("chain", rng, 3)
    return [
        (workloads._ack("ack", dia, (2.0, 2.0)),
         _json_edit(lambda d: d.update(complex_balanced=False)), "wrong"),
        (workloads._ack("ack-residual", dia, (2.0, 2.0)),
         _json_edit(lambda d: d.update(interior_residual_l1=1e-3)), "wrong"),
        (workloads._noether("noether", dia, (2.0, 2.0), 0.05),
         _json_edit(lambda d: d.update(commutator_max_abs=[0.5])), "wrong"),
        (workloads._master_pure("master", bd, (20,), (2,), 0.5, oracle=True),
         lambda t: t.replace(",0.", ",0.9", 1), "wrong"),
        (workloads._master_coherent("master-coherent", dia, (8, 8), (1.0, 1.0), 0.5),
         lambda t: "\n".join([t.split("\n")[0]] + [_scale_last(r, 0.99) for r in t.split("\n")[1:] if r]) + "\n",
         "wrong"),
        (workloads._hist("hist", bd, (0,), sizes["hist_samples"], 1.0, 5, ("poisson", (3.0,))),
         lambda t: "\n".join([t.split("\n")[0]] + [_shift_first_count(r) for r in t.split("\n")[1:] if r]) + "\n",
         "wrong"),
        (workloads._hist("hist-sector", dia, (3, 0), sizes["hist_samples"], 0.5, 5,
                         ("sector", (0.5, 1.0), (2, 1), 6)),
         lambda t: _replace_line(t, 1, _shift_first_count), "wrong"),
        (workloads._path("path", dia, (10, 0), 20.0, 5),
         lambda t: _replace_line(t, 5, _bump_last_state), "wrong"),
        (chain[0], _json_edit(lambda d: d.update(deficiency=d["deficiency"] + 1)), "wrong"),
        (chain[1], lambda t: t.replace('"equilibrium": [', '"equilibrium": [Infinity, ', 1), "failed"),
        (chain[1], _json_edit(lambda d: d.update(equilibrium=[v * 1.01 for v in d["equilibrium"]])), "wrong"),
        (chain[2], lambda t: _replace_line(t, 3, lambda r: r.replace(",", ",-", 1)), "wrong"),
    ]


def gate() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from crnkit.cli import run

    os.makedirs(WORK, exist_ok=True)
    net_path, out_path = os.path.join(WORK, "net.crn"), os.path.join(WORK, "out")
    problems = []
    for job, corrupt, expected in _cases(random.Random(11)):
        with open(net_path, "w", encoding="utf-8") as handle:
            handle.write(job.net.crn())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(job.argv(net_path, out_path))
        clean = checks.judge(job, rc, err.getvalue(), out_path, None)
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(corrupt(text))
        caught = checks.judge(job, rc, err.getvalue(), out_path, None)
        ok = clean[0] == "ok" and caught[0] == expected
        print(f"{'ok  ' if ok else 'FAIL'} gate {job.key}: clean -> {clean[0]}, "
              f"corrupted -> {caught[0]} ({caught[1][:80]})")
        if not ok:
            problems.append(f"gate {job.key}: clean {clean}, corrupted {caught}, expected {expected}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = gate() + smoke(spec)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
