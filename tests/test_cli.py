import contextlib
import hashlib
import io
import json
import os
import platform
import random
import string
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnkit
from crnkit import cli, dynamics, fock, format_network, ssa
from crnkit.cli import run

from support import POISSON_COMPARISONS, random_network, sparse_network, with_extreme_rates

DIATOMIC = "X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1\n"
BD = "species: A\n0 -> A @ 3\nA -> 0 @ 1\n"
AUTOCATALYSIS = "2 A -> 3 A @ 1\n"
CATALYST = "species: A B C AC\n0 -> A @ 1\nB -> 0 @ 2\nA + C -> AC @ 0.5\nAC -> 2 B + C @ 1.25\n"
ASSOCIATION = "A + B <-> C @ 2, 1\n"
OVERFLOW_SSA = (
    "species: A B C\nA + B -> 2 A + 2 B + 3 C @ 1.7e308\n"
    "A + 2 B + 2 C -> A + B + 3 C @ 1141011.44\n3 A + 3 B -> A + B + 3 C @ 1e300\n"
)
OVERFLOW_GENERATOR = "species: A\nA <-> 0 @ 1e306, 1e306\n3 A -> 2 A @ 1e306\n"


@pytest.fixture
def dia_file(tmp_path):
    path = tmp_path / "dia.crn"
    path.write_text(DIATOMIC)
    return str(path)


@pytest.fixture
def bd_file(tmp_path):
    path = tmp_path / "bd.crn"
    path.write_text(BD)
    return str(path)


def run_json(args, capsys):
    code = run(args)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


# SHA-256 of strip_timestamp(stdout), recorded with the
# generator assembled as COO triplets from the full state array and the
# coherent weights from scipy.stats.poisson over it; the box's product
# structure must not move a byte.  The pure-start master row, the shape of
# the benchmark's evolve jobs, was recorded with uniformization stepping
# on CSR; the banded step must not move a byte either.  The association
# row, two conservation laws, was recorded stepping on the whole box; the
# step on the occupied sectors must not move a byte.  The balanced ack
# rows were re-recorded when the residual came from the coherent-state
# identity instead of a generator mat-vec: their interior and full
# residuals, roundoff of 4.3e-16 and 1.7e-15 before, are now exactly 0.0.
# The ack (1,1), noether and coherent-start master rows were re-recorded
# when the weights became products of 1-D tables, each entry math.exp of
# its log-pmf, in place of numpy's exp of their outer sum: a few last
# digits moved, and the other rows kept their bytes.
_FOCK_GOLDEN = (
    (DIATOMIC, ["ack", "--c", "0.5,1"],
     "5f63633c699455abdafd8f1e5b1b42b48427db5f6d880abf93581e8f28e4435a"),
    (DIATOMIC, ["ack", "--c", "1,1"],
     "d41365527a1fd2a5693029fc60486210c257e56c0cd91e67d0fc317a03e0263a"),
    (BD, ["ack", "--c", "3"],
     "7a68c1a053937849fbb1844f517052f5a922f2c26cd68bcbf08872c4ec3ca1e1"),
    (DIATOMIC, ["noether", "--c", "0.5,1"],
     "3110b2b8c16a4794a66577d0fdcfa488bfb5056859bd081b0f4dcda411e7578a"),
    (DIATOMIC, ["master", "--c", "0.5,1", "--caps", "8,8", "--t-end", "1"],
     "8017c4b25288a21ffb492947c5b0ba58447d231bf8f4f4598a292708fa192c02"),
    (DIATOMIC, ["master", "--n0", "15,5", "--caps", "40,40", "--t-end", "2"],
     "fa4c1e7bd4c3f644db72a472af33e29c3f30fb5156da897d942f91890839f3cf"),
    (ASSOCIATION, ["master", "--n0", "3,2,1", "--caps", "8,8,8"],
     "88007af4d9bcdeb57e03e0e776efbb319c755e4d5f6fc08ebd86345f14406497"),
)


@pytest.mark.parametrize("text, args, digest", _FOCK_GOLDEN)
def test_golden_fock_output_bytes(tmp_path, capsys, text, args, digest):
    path = tmp_path / "net.crn"
    path.write_text(text)
    run([args[0], str(path), *args[1:]])
    out = strip_timestamp(capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _sparse_text(seed, k, m):
    return format_network(sparse_network(random.Random(seed), k, m)) + "\n"


# SHA-256 of strip_timestamp(stdout), recorded with the rank and the
# conservation laws taken from two Fraction RREFs; the integer elimination
# must not move a byte.  The 14x10 and 18x14 networks have four laws each.
@pytest.mark.parametrize(
    "text, digest",
    [
        (DIATOMIC, "eab6069a422e0ef1d95ac576b8173a75e4e8d5660ff033c4adaf98beaaef1e7b"),
        (BD, "71d8bf6462a19f749996c9bfc55bc49e89be9ef53087b3c5efa56d590f52e4df"),
        (AUTOCATALYSIS, "3230322437f11837166cbcbd899dc08e6ce1c87f713b8ac06419ae5bc127e92e"),
        (CATALYST, "4d866c73fe6cca2fcc55d9eabdcd7f3811801a3b47c293dc76b9ac7c119a4cbe"),
        (_sparse_text(1, 14, 10), "50caaca40f0aea2082a61b0f0323eb84b7f431194cf768a507b50b57d7339ff4"),
        (_sparse_text(2, 18, 14), "e8ae2659994613fca169aa6d6da0c38e67becfcc1a25fe3e0c7cba00c734eca3"),
        (_sparse_text(3, 22, 50), "64b9e6067b00e60b975eac555478d69dd165df486f4c759c7afd361fd7cecf8b"),
    ],
)
def test_golden_analyze_output_bytes(tmp_path, capsys, text, digest):
    path = tmp_path / "net.crn"
    path.write_text(text)
    assert run(["analyze", str(path)]) == 0
    out = strip_timestamp(capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of strip_timestamp(stdout).  `crn rate` and the field and Jacobian
# of `crn equilibrium` read MassAction.table on Python floats in a fixed order,
# so the rate digests hold on every CPU; equilibrium-sparse still goes through
# LAPACK's svd, eigvals and solve.  The 6x6 network takes 189 accepted steps
# to t = 1.
_SPARSE_6X6 = _sparse_text(11, 6, 6)
_RATE_EQUILIBRIUM_GOLDEN = {
    "rate-bd": (BD, ["rate", "--x0", "0", "--t-end", "5"],
                "4f2b1c49c7d4a84516c1d310b110efcd3f7c24da61b57a9325d20d17c7177d0e"),
    "rate-dia": (DIATOMIC, ["rate", "--x0", "1,0", "--t-end", "5"],
                 "ddbbacf3b2e1c7a5d81f00ef384b2617fa828e3f2f8ff52141971ce4ff326457"),
    "rate-sparse": (_SPARSE_6X6, ["rate", "--x0", "1,1,1,1,1,1", "--t-end", "1"],
                    "68d1708b5fcc4f4f12bff6a378921bc4b129e4e1dd574ffd813541a811127af0"),
    "equilibrium-bd": (BD, ["equilibrium", "--x0", "0"],
                       "716275c57c61093cb730b882a9543877b7061664eacac36187f2edab54178d85"),
    "equilibrium-dia": (DIATOMIC, ["equilibrium", "--x0", "1,0"],
                        "1056d18a59db349add4631f9ba8fafed733f51bb155766aea16925f37c04e88d"),
    "equilibrium-sparse": (_SPARSE_6X6, ["equilibrium", "--x0", "1,1,1,1,1,1"],
                           "faf7677cf7b13f41c716f20b21d7ddc81f47d1ac6262f3d224c93bf6ba65b10d"),
}


@pytest.mark.parametrize(
    "text, args, digest",
    list(_RATE_EQUILIBRIUM_GOLDEN.values()),
    ids=list(_RATE_EQUILIBRIUM_GOLDEN),
)
def test_golden_rate_equilibrium_output_bytes(tmp_path, capsys, text, args, digest):
    path = tmp_path / "net.crn"
    path.write_text(text)
    assert run([args[0], str(path), *args[1:]]) == 0
    out = capsys.readouterr().out
    if args[0] == "equilibrium":
        out = strip_timestamp(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="an x86-64 OpenBLAS core")
def test_golden_rate_bytes_on_the_oldest_openblas_core(tmp_path):
    # OpenBLAS's Prescott kernels (SSE3, no AVX) stand in for a CPU unlike
    # this one; the variable acts on the child process only
    cases = [case for key, case in _RATE_EQUILIBRIUM_GOLDEN.items() if key.startswith("rate-")]
    calls = []
    for i, (text, args, _) in enumerate(cases):
        path = tmp_path / f"{i}.crn"
        path.write_text(text)
        calls.append((str(path), args))
    code = (
        "import contextlib, hashlib, io, json\n"
        "from crnkit.cli import run\n"
        "digests = []\n"
        f"for path, args in {calls!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        run([args[0], path, *args[1:]])\n"
        "    digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        "print(json.dumps(digests))\n"
    )
    digests = json.loads(_fresh_python(code, OPENBLAS_CORETYPE="Prescott"))
    assert digests == [digest for _, _, digest in cases]


def _numpy_cpu_features() -> dict:
    """numpy's map of CPU feature name to whether its dispatch may use it."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="numpy's x86-64 AVX512 kernels")
def test_golden_fock_bytes_with_numpy_avx512_dispatch_off(tmp_path):
    # the Poisson weights take math.exp, not numpy's dispatched exp, so the
    # fock digests and the Poisson comparisons hold with numpy's AVX512
    # kernels off; the variable acts on the child process only, which names
    # only features this numpy knows and uses here, and checks they are off
    features = _numpy_cpu_features()
    names = [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if features.get(name)]
    if not names:
        pytest.skip("numpy dispatches no AVX512 kernel on this CPU")
    calls = []
    for i, (text, args, _) in enumerate(_FOCK_GOLDEN):
        path = tmp_path / f"{i}.crn"
        path.write_text(text)
        calls.append((str(path), args))
    comparisons = [(text, n0, hist_args, c) for text, n0, hist_args, c, *_ in POISSON_COMPARISONS]
    code = f"""
import contextlib, hashlib, io, json
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from crnkit import compare_to_poisson, parse_network, stationary_histogram
from crnkit.cli import run
seen = {{"on": [name for name in {names!r} if __cpu_features__[name]], "fock": [], "compare": []}}
for path, args in {calls!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run([args[0], path, *args[1:]])
    kept = [line for line in out.getvalue().splitlines() if '"generated_at"' not in line]
    seen["fock"].append(hashlib.sha256("\\n".join(kept).encode()).hexdigest())
for text, n0, hist_args, c in {comparisons!r}:
    result = compare_to_poisson(stationary_histogram(parse_network(text), n0, *hist_args), c)
    seen["compare"].append([repr(result.tv_distance), result.per_species_means.tobytes().hex()])
print(json.dumps(seen))
"""
    seen = json.loads(_fresh_python(code, NPY_DISABLE_CPU_FEATURES=" ".join(names)))
    assert seen == {
        "on": [],
        "fock": [digest for _, _, digest in _FOCK_GOLDEN],
        "compare": [[tv, means] for *_, tv, means in POISSON_COMPARISONS],
    }


def _fresh_python(code: str, **env: str) -> str:
    """Last stdout line of ``code`` run in a new interpreter that imports this
    crnkit, with ``env`` added to its environment."""
    src = os.path.dirname(os.path.dirname(crnkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, **env, "PYTHONPATH": path},
    )
    return done.stdout.splitlines()[-1]


def test_import_leaves_slow_scipy_modules_unloaded(bd_file, dia_file):
    # scipy serves only the Fock-space side: `import crnkit` and the subcommands
    # without a Fock-space result load none of it; a fock name read from crnkit
    # loads scipy.sparse, still without scipy.stats or scipy.integrate; a
    # pure-start master on a closed network finds its sectors without
    # scipy.sparse.csgraph (a cold import of 0.1 s) or scipy.stats
    commands = [
        ["parse", bd_file],
        ["analyze", bd_file],
        ["rate", bd_file, "--x0", "0", "--t-end", "1"],
        ["equilibrium", bd_file, "--x0", "0"],
        ["ssa", bd_file, "--n0", "0", "--t-end", "1"],
        ["ssa", bd_file, "--n0", "0", "--histogram", "--burn-in", "1", "--samples", "10"],
    ]
    code = f"""
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import crnkit, crnkit.cli
seen = {{"import": scipy_modules()}}
try:
    crnkit.no_such_name
    seen["no_such_name"] = "no AttributeError"
except AttributeError:
    seen["no_such_name"] = scipy_modules()
for args in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        seen[" ".join(args)] = [crnkit.cli.run(args)] + scipy_modules()
hamiltonian = crnkit.hamiltonian
seen["fock"] = [
    "scipy.sparse" in sys.modules,
    hamiltonian is crnkit.fock.hamiltonian,
    "hamiltonian" in dir(crnkit),
    sorted(m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules),
]
with contextlib.redirect_stdout(io.StringIO()):
    seen["master"] = [crnkit.cli.run(["master", {dia_file!r}, "--n0", "15,5", "--caps", "40,40"])]
seen["master"] += sorted(m for m in ("scipy.sparse.csgraph", "scipy.stats") if m in sys.modules)
print(json.dumps(seen))
"""
    seen = json.loads(_fresh_python(code))
    assert seen.pop("fock") == [True, True, True, []]
    assert seen.pop("master") == [0]
    assert seen == {
        "import": [],
        "no_such_name": [],
        **{" ".join(args): [0] for args in commands},
    }


def test_discrete_layer_leaves_numpy_unloaded(bd_file):
    # parsing and the structure report are exact on Python ints: they load no
    # numpy, and the first float result (a rate, the stoichiometric matrix,
    # a balance report) loads it
    code = f"""
import contextlib, io, json, sys
def numpy_loaded():
    return any(m == "numpy" or m.startswith("numpy.") for m in sys.modules)
import crnkit, crnkit.cli
seen = {{"import": numpy_loaded()}}
for command in ("parse", "parse --dot", "analyze"):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[command] = [crnkit.cli.run([*command.split(), {bd_file!r}]), numpy_loaded()]
net = crnkit.parse_network("A + B <-> C @ 1, 2\\n0 -> A @ 3")
seen["library"] = [crnkit.structure_report(net).deficiency, crnkit.conserved_quantities(net),
                   numpy_loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    seen["rate"] = [crnkit.cli.run(["rate", {bd_file!r}, "--x0", "0", "--t-end", "1"]),
                    numpy_loaded()]
print(json.dumps(seen))
"""
    assert json.loads(_fresh_python(code)) == {
        "import": False,
        "parse": [0, False],
        "parse --dot": [0, False],
        "analyze": [0, False],
        "library": [0, [[0, 1, 1]], False],
        "rate": [0, True],
    }
    for call in ("net.stoichiometric_matrix()", "crnkit.complex_balance_report(net, [1.0])"):
        code = (
            "import sys, crnkit; net = crnkit.parse_network('0 <-> A @ 3, 1'); "
            f"before = 'numpy' in sys.modules; {call}; print(before, 'numpy' in sys.modules)"
        )
        assert _fresh_python(code) == "False True", call


def test_fock_module_loads_on_first_read_from_the_package():
    code = (
        "import sys, crnkit; fock = crnkit.fock; "
        "print(fock.__name__, 'scipy.sparse' in sys.modules, crnkit.hamiltonian is fock.hamiltonian)"
    )
    assert _fresh_python(code) == "crnkit.fock True True"


def test_short_ssa_path_leaves_numpy_random_unloaded(bd_file):
    # a path shorter than the first block of draws takes them from random()
    # itself, and only a longer one loads numpy's MT19937 (crnkit._mtstate);
    # under numpy 1.x `import numpy` loads numpy.random by itself, so there
    # the check is that the short path adds nothing
    code = f"""
import contextlib, io, json, sys
import crnkit.cli, crnkit.ssa
seen = ["numpy.random" in sys.modules]
for t_end in ("5", "2000"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        crnkit.cli.run(["ssa", {bd_file!r}, "--n0", "0", "--t-end", t_end])
    jumps = len(out.getvalue().splitlines()) - 2
    seen.append([jumps > crnkit.ssa._FIRST_BLOCK, "numpy.random" in sys.modules,
                 "crnkit._mtstate" in sys.modules])
print(json.dumps(seen))
"""
    before, short, long = json.loads(_fresh_python(code))
    assert short == [False, before, False]
    assert long == [True, True, True]


class TestParseCommand:
    def test_canonical_reprint(self, dia_file, capsys):
        assert run(["parse", dia_file]) == 0
        out = capsys.readouterr().out
        assert out == "species: X1 X2\nX1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1\n"

    def test_dot_golden_bytes(self, tmp_path, capsys):
        # the Petri net of the catalyst network: species circles, transition
        # boxes and one edge per unit of multiplicity (t3 -> B twice)
        path = tmp_path / "catalyst.crn"
        path.write_text(CATALYST)
        assert run(["parse", str(path), "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("shape=box") == 4 and out.count("  t3 -> s1;\n") == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b5b0facfa2761b8194dda5d7737930ee5f74b0a390b321cbeee8a44b1478fb32"
        )

    def test_bad_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.crn"
        path.write_text("A -> B @ -1\n")
        assert run(["parse", str(path)]) == 1
        assert "E_RATE" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert run(["parse", "/nonexistent/net.crn"]) == 1


class TestAnalyzeCommand:
    def test_diatomic_report(self, dia_file, capsys):
        code, doc = run_json(["analyze", dia_file], capsys)
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["deficiency"] == 0
        assert doc["weakly_reversible"] is True
        assert doc["conserved_basis"] == [[2, 1]]

    def test_deterministic_apart_from_timestamp(self, dia_file, capsys):
        run(["analyze", dia_file])
        first = capsys.readouterr().out
        run(["analyze", dia_file])
        second = capsys.readouterr().out
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_out_flag_writes_file(self, dia_file, tmp_path):
        target = tmp_path / "report.json"
        assert run(["analyze", dia_file, "--out", str(target)]) == 0
        assert json.loads(target.read_text())["deficiency"] == 0


class TestAckCommand:
    def test_balanced_state_exits_0(self, dia_file, capsys):
        code, doc = run_json(["ack", dia_file, "--c", "0.5,1"], capsys)
        assert code == 0
        assert doc["complex_balanced"] is True
        assert doc["interior_residual_l1"] <= 1e-8

    def test_unbalanced_state_exits_1(self, dia_file, capsys):
        code, doc = run_json(["ack", dia_file, "--c", "1,1"], capsys)
        assert code == 1
        assert doc["complex_balanced"] is False
        assert doc["interior_residual_l1"] > 0.1

    def test_explicit_caps(self, bd_file, capsys):
        code, doc = run_json(["ack", bd_file, "--c", "3", "--caps", "40"], capsys)
        assert code == 0 and doc["caps"] == [40]

    @pytest.mark.parametrize("c", ["inf,1", "nan,1"])
    @pytest.mark.parametrize("caps", [[], ["--caps", "10,10"]])
    def test_non_finite_means_are_typed_errors(self, dia_file, capsys, c, caps):
        assert run(["ack", dia_file, "--c", c, *caps]) == 1
        assert "error[E_VALUE]" in capsys.readouterr().err


class TestRateAndEquilibrium:
    def test_rate_csv(self, bd_file, tmp_path):
        # --out gets the bytes of the golden stdout digest
        target = tmp_path / "rate.csv"
        assert run(["rate", bd_file, "--x0", "0", "--t-end", "5", "--out", str(target)]) == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "t,A"
        final = float(lines[-1].split(",")[1])
        assert abs(final - 3.0 * (1 - 2.718281828459045 ** -5.0)) < 1e-5
        digest = "4f2b1c49c7d4a84516c1d310b110efcd3f7c24da61b57a9325d20d17c7177d0e"
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_rate_bytes_do_not_depend_on_species_names(self, tmp_path, capsys):
        # names of the generated code's identifiers and of builtins: the
        # code holds none of the input text, so only the header differs
        names = ["f", "h", "half", "x0", "o1", "field", "power", "abs", "__import__"]
        form = (
            "{0} + {1} <-> {2} @ 1.5, 0.5\n2 {3} <-> {4} @ 2, 1\n{5} + {6} <-> {7} @ 0.25, 3\n"
            "{8} <-> {0} @ 1, 1.25\n{2} + {7} -> {3} + {5} @ 0.75\n"
        )
        outs = []
        for species in (names, [f"S{i}" for i in range(9)]):
            path = tmp_path / "net.crn"
            path.write_text(f"species: {' '.join(species)}\n" + form.format(*species))
            assert run(["rate", str(path), "--x0", ",".join(["1"] * 9), "--t-end", "2"]) == 0
            header, rows = capsys.readouterr().out.split("\n", 1)
            assert header == "t," + ",".join(species)
            outs.append(rows)
        assert outs[0] == outs[1] and outs[0].count("\n") > 10

    def test_rate_on_no_species(self, tmp_path, capsys):
        # no stage has an entry, so every try is kept and the step grows fivefold
        path = tmp_path / "zero.crn"
        path.write_text("0 -> 0 @ 1\n")
        assert run(["rate", str(path), "--x0", "", "--t-end", "1"]) == 0
        assert capsys.readouterr().out == "t,\n0.0\n0.01\n0.060000000000000005\n0.31\n1.0\n"

    def test_rate_default_route(self, bd_file, capsys):
        assert run(["rate", bd_file, "--x0", "0", "--t-end", "5"]) == 0
        rows = [[float(v) for v in line.split(",")] for line in capsys.readouterr().out.split("\n")[1:-1]]
        assert rows[0] == [0.0, 0.0] and rows[-1][0] == 5.0
        assert abs(rows[-1][1] - 3.0 * (1 - 2.718281828459045 ** -5.0)) < 1e-6
        assert run(["rate", bd_file, "--x0", "0", "--method", "rk45"]) == 2
        assert run(["rate", bd_file, "--x0", "0", "--dt", "0.05"]) == 2

    def test_equilibrium_json(self, dia_file, capsys):
        code, doc = run_json(["equilibrium", dia_file, "--x0", "1,0"], capsys)
        assert code == 0
        c = doc["equilibrium"]
        assert abs(2 * c[0] + c[1] - 2.0) < 1e-6
        assert doc["residual_inf"] < 1e-9


class TestMasterCommand:
    def test_pure_start_distribution(self, bd_file, capsys):
        code = run(["master", bd_file, "--n0", "0", "--caps", "15", "--t-end", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "A,probability"
        mass = sum(float(line.split(",")[1]) for line in lines[1:])
        assert abs(mass - 1.0) < 1e-9

    def test_coherent_start_below_float_range(self, dia_file, capsys):
        # log weights of about -3.4e308 are -inf: no state of the box carries mass
        assert run(["master", dia_file, "--c", "1.7e308,1.7e308", "--caps", "2,2"]) == 0
        assert capsys.readouterr() == ("X1,X2,probability\n", "")

    def test_requires_exactly_one_start(self, bd_file, capsys):
        assert run(["master", bd_file, "--caps", "10"]) == 1
        assert run(["master", bd_file, "--n0", "0", "--c", "1"]) == 1

    @pytest.mark.parametrize(
        "extra, code",
        [
            (["--n0", "0", "--caps", "15", "--t-end", "inf"], "E_VALUE"),
            (["--n0", "0", "--caps", "15", "--t-end", "nan"], "E_VALUE"),
            (["--n0", "0", "--caps", "15", "--t-end", "-1"], "E_VALUE"),
            (["--n0", "0", "--caps", "15", "--t-end", "1e12"], "E_BUDGET"),
            (["--n0", "0", "--caps", "15", "--t-end", "1e308"], "E_BUDGET"),  # Lambda*t = inf
            (["--c", "inf"], "E_VALUE"),
        ],
    )
    def test_bad_numbers_are_typed_errors(self, bd_file, capsys, extra, code):
        assert run(["master", bd_file, *extra]) == 1
        assert f"error[{code}]" in capsys.readouterr().err


class TestSsaCommand:
    def test_trajectory_csv(self, dia_file, capsys):
        assert run(["ssa", dia_file, "--n0", "1,0", "--t-end", "5", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,X1,X2"
        for line in lines[1:]:
            _, n1, n2 = line.split(",")
            assert 2 * int(n1) + int(n2) == 2

    def test_no_species_path(self, tmp_path, capsys):
        # the header "t," and one time per row, as crn rate prints for no species
        path = tmp_path / "zero.crn"
        path.write_text("0 -> 0 @ 1\n")
        assert run(["ssa", str(path), "--n0=", "--t-end", "3", "--seed", "5"]) == 0
        captured = capsys.readouterr()
        times = ssa.simulate(crnkit.parse_network("0 -> 0 @ 1"), (), 3.0, seed=5).times
        assert times.size > 1
        assert captured.out.splitlines() == ["t,", *map(repr, times.tolist())]
        assert captured.err == (
            "warning[E_SELF_LOOP]: 1:1: self-loop reaction contributes nothing to the dynamics\n"
        )

    def test_histogram_csv(self, bd_file, capsys):
        code = run(
            ["ssa", bd_file, "--n0", "0", "--histogram", "--burn-in", "5",
             "--samples", "500", "--interval", "0.5", "--seed", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "A,count,frequency"
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 500

    def test_seeded_runs_identical(self, bd_file, capsys):
        run(["ssa", bd_file, "--n0", "0", "--t-end", "3", "--seed", "11"])
        first = capsys.readouterr().out
        run(["ssa", bd_file, "--n0", "0", "--t-end", "3", "--seed", "11"])
        assert capsys.readouterr().out == first

    # SHA-256 of stdout recorded with the direct-method SSA (a linear scan
    # over propensities recomputed at every jump); for a seed, the draws
    # and hence the output bytes must never change.
    @pytest.mark.parametrize(
        "text, args, digest",
        [
            (DIATOMIC, ["--n0", "10,0", "--t-end", "20", "--seed", "7"],
             "3e05a7d177f49546596c213261eaf1868cac96e2b5ca102e7a0a344a15021341"),
            # 126,361 rows, four blocks of the path CSV writer; recorded with
            # the row-at-a-time repr writer it replaced
            (DIATOMIC, ["--n0", "50,0", "--t-end", "700", "--seed", "7"],
             "a0874844a97dfa5f85a690eb8d495fb9badd56938774dd45266f4c0bb5ffa92d"),
            (BD, ["--n0", "0", "--histogram", "--burn-in", "5", "--samples", "2000",
                  "--interval", "0.5", "--seed", "3"],
             "de4ad03a431e79f7450c7e5bd24e881a3bce1c6c812b9db51c475e47fe32a0d8"),
            (DIATOMIC, ["--n0", "3,0", "--histogram", "--burn-in", "5", "--samples", "2000",
                        "--interval", "0.5", "--seed", "21"],
             "463c99ce383bcda1384c061b68b9ffea973ceb2dcee4761b8545c19e6b83d3b2"),
        ],
    )
    def test_golden_output_bytes(self, tmp_path, capsys, text, args, digest):
        path = tmp_path / "net.crn"
        path.write_text(text)
        assert run(["ssa", str(path), *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_out_file_gets_the_golden_bytes(self, tmp_path):
        # the path CSV goes to the file block by block
        path, target = tmp_path / "net.crn", tmp_path / "path.csv"
        path.write_text(DIATOMIC)
        args = ["--n0", "50,0", "--t-end", "700", "--seed", "7", "--out", str(target)]
        assert run(["ssa", str(path), *args]) == 0
        digest = "a0874844a97dfa5f85a690eb8d495fb9badd56938774dd45266f4c0bb5ffa92d"
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


class TestNoetherCommand:
    def test_diatomic_report(self, dia_file, capsys):
        code, doc = run_json(["noether", dia_file, "--c", "0.5,1"], capsys)
        assert code == 0
        assert doc["conserved_basis"] == [[2, 1]]
        assert doc["commutator_max_abs"] == [0.0]
        assert doc["symmetry"]["predicted_c"] == [2.0, 2.0]
        assert doc["projection"]["interior_residual_l1"] <= 1e-8

    def test_certificates_assemble_no_generator(self, dia_file, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certificate assembled the generator")

        monkeypatch.setattr(fock, "_generator", refuse)
        assert run(["ack", dia_file, "--c", "0.5,1"]) == 0
        assert run(["ack", dia_file, "--c", "1,1", "--caps", "2,2"]) == 1
        assert run(["noether", dia_file, "--c", "0.5,1"]) == 0
        assert run(["noether", dia_file, "--c", "0.5,1", "--caps", "2,2"]) == 0

    def test_certificates_build_no_csr(self, dia_file, capsys, monkeypatch):
        import scipy.sparse as sp

        def refuse(self, copy=False):
            raise AssertionError("the generator was converted to CSR")

        monkeypatch.setattr(sp.dia_matrix, "tocsr", refuse)
        assert run(["ack", dia_file, "--c", "0.5,1"]) == 0
        assert run(["noether", dia_file, "--c", "0.5,1"]) == 0

    def test_no_conserved_basis(self, bd_file, capsys):
        code, doc = run_json(["noether", bd_file, "--c", "3"], capsys)
        assert code == 0
        assert doc["conserved_basis"] == []
        assert "symmetry" not in doc


class TestTypedErrors:
    @pytest.mark.parametrize(
        "text, args, code",
        [
            (BD, ["rate", "--x0", "nan"], "E_VALUE"),
            (BD, ["rate", "--x0", "inf"], "E_VALUE"),
            (BD, ["equilibrium", "--x0", "nan"], "E_VALUE"),
            (BD, ["equilibrium", "--x0", "inf"], "E_VALUE"),
            (AUTOCATALYSIS, ["rate", "--x0", "1"], "E_EXPLODE"),
            (AUTOCATALYSIS, ["equilibrium", "--x0", "1"], "E_EXPLODE"),
            (DIATOMIC, ["noether", "--c", "0.5,1", "--s", "nan"], "E_VALUE"),
            # no conserved quantity, so nothing used the means before
            (BD, ["noether", "--c", "nan", "--caps", "10"], "E_VALUE"),
            # non-finite SSA horizons used to loop forever on a closed network
            (DIATOMIC, ["ssa", "--n0", "1,0", "--t-end", "inf"], "E_VALUE"),
            (DIATOMIC, ["ssa", "--n0", "1,0", "--t-end", "nan"], "E_VALUE"),
            (DIATOMIC, ["ssa", "--n0", "1,0", "--histogram", "--burn-in", "inf"], "E_VALUE"),
            (DIATOMIC, ["ssa", "--n0", "1,0", "--histogram", "--burn-in", "nan"], "E_VALUE"),
            (DIATOMIC, ["ssa", "--n0", "1,0", "--histogram", "--interval", "inf"], "E_VALUE"),
            # finite out-of-domain SSA inputs
            (DIATOMIC, ["ssa", "--n0=-1,0"], "E_VALUE"),
            (DIATOMIC, ["ssa", "--n0", "1,0", "--histogram", "--samples", "0"], "E_VALUE"),
            # start counts beyond the float range of the propensities
            (BD, ["ssa", "--n0", str(2**1024)], "E_VALUE"),
            (BD, ["ssa", "--n0", str(2**1024), "--histogram"], "E_VALUE"),
            # and beyond the int64 range the path stores states in
            (BD, ["ssa", "--n0", str(2**63), "--t-end", "1e-30"], "E_VALUE"),
            # a coefficient beyond the int64 range of the mass-action kernel
            ("99999999999999999999 A -> 0 @ 1\n", ["analyze"], "E_SYNTAX"),
            # pure starts outside the box, or of the wrong length
            (DIATOMIC, ["master", "--n0", "100000000000000000000,0", "--caps", "3,3"], "E_VALUE"),
            (DIATOMIC, ["master", "--n0", "5,0", "--caps", "3,3"], "E_VALUE"),
            (DIATOMIC, ["master", "--n0", "1", "--caps", "3,3"], "E_DIM"),
            # histograms that never finish: the sample count is refused up front,
            # the other two stop at the jump budget
            (BD, ["ssa", "--n0", "0", "--histogram", "--samples", "1000000000000"], "E_BUDGET"),
            (BD, ["ssa", "--n0", "0", "--histogram", "--burn-in", "1e12"], "E_BUDGET"),
            # intervals below the float spacing of the sample times would stamp
            # every sample at one instant; at t = 1e300 that spacing exceeds 1
            (BD, ["ssa", "--n0", "0", "--histogram", "--burn-in", "1e300"], "E_VALUE"),
            (BD, ["ssa", "--n0", "3", "--histogram", "--interval", "1e-300", "--samples", "1000"],
             "E_VALUE"),
            (BD, ["ssa", "--n0", "3", "--histogram", "--interval", "5e-324", "--samples", "1000"],
             "E_VALUE"),
            (BD, ["ssa", "--n0", "0", "--histogram", "--interval", "1e12", "--samples", "10"],
             "E_BUDGET"),
            # default boxes of about 1e14 and 1e9 states, refused before allocation
            (DIATOMIC, ["ack", "--c", "1e7,1e7"], "E_BUDGET"),
            (DIATOMIC, ["ack", "--c", "3e4,3e4"], "E_BUDGET"),
            # out-of-domain tolerances, caps and horizons
            (DIATOMIC, ["equilibrium", "--x0", "1,0", "--tol", "0"], "E_VALUE"),
            (DIATOMIC, ["equilibrium", "--x0", "1,0", "--tol", "inf"], "E_VALUE"),
            (DIATOMIC, ["ack", "--c", "0.5,1", "--tol", "0"], "E_VALUE"),
            (BD, ["master", "--n0", "0", "--caps", "0"], "E_VALUE"),
            # a box of no species, and a master start given twice or without a box
            (BD, ["master", "--n0", "0", "--caps", ""], "E_VALUE"),
            (BD, ["master", "--n0", "0"], "E_VALUE"),
            (BD, ["master", "--n0", "0", "--c", "1", "--caps", "5"], "E_VALUE"),
            (BD, ["rate", "--x0", "0", "--t-end", "inf"], "E_VALUE"),
            (BD, ["rate", "--x0", "0", "--tol", "-1"], "E_VALUE"),
            # mass action beyond the float range: a total propensity of inf gave
            # a zero wait and picked the last transition, here one that cannot fire
            (OVERFLOW_SSA, ["ssa", "--n0", "4,1,3", "--t-end", "1"], "E_EXPLODE"),
            (OVERFLOW_SSA, ["ssa", "--n0", "4,1,3", "--histogram", "--samples", "20",
                            "--burn-in", "1"], "E_EXPLODE"),
            # a balance flux of inf, one of 0 * inf, and finite fluxes summing to inf
            ("2 X1 <-> X2 @ 1, 2\n", ["ack", "--c", "1e300,1", "--caps", "3,3"], "E_EXPLODE"),
            ("X1 + 2 X2 -> X3 @ 1\n", ["ack", "--c", "0,1e300,3", "--caps", "3,3,3"], "E_EXPLODE"),
            ("3 A -> 0 @ 1.7e308\n0 -> A @ 1e306\n3 A -> A @ 1.7e308\n", ["ack", "--c", "1"],
             "E_EXPLODE"),
            # generator fluxes beyond the float range, and finite fluxes whose
            # residual's L1 norm is beyond it
            (OVERFLOW_GENERATOR, ["master", "--n0", "0", "--caps", "20"], "E_EXPLODE"),
            ("species: A\n0 -> A @ 1.7e308\n", ["ack", "--c", "0.1"], "E_EXPLODE"),
            # predicted symmetry means of inf, and coherent log weights below the float range
            (DIATOMIC, ["noether", "--c", "1e300,0.3", "--caps", "3,2", "--s", "20"], "E_VALUE"),
            (DIATOMIC, ["noether", "--c", "1.7e308,1.7e308", "--caps", "2,2"], "E_VALUE"),
            # a Jacobian of inf in the continuation
            ("species: A B\n2 A -> 2 B @ 1.67e-06\n2 B -> 2 A + 3 B @ 1e306\n"
             "3 A + 3 B -> A + 3 B @ 1.7e308\n", ["equilibrium", "--x0", "1e-300,3"], "E_EXPLODE"),
        ],
    )
    def test_bad_inputs_end_in_typed_errors(self, tmp_path, capsys, monkeypatch, text, args, code):
        # at the real 2**26 jumps a budget-bound histogram runs for tens of seconds
        monkeypatch.setattr(ssa, "_MAX_HIST_JUMPS", 10**5)
        path = tmp_path / "net.crn"
        path.write_text(text)
        assert run([args[0], str(path), *args[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[{code}]") and captured.err.count("\n") == 1

    def test_certificate_forms_no_generator_flux(self, tmp_path, capsys):
        # the generator's falling factorials overflow at the caps (master above
        # ends in E_EXPLODE), but the coherent-state identity never forms them:
        # the residual is finite, and 1e306 times the one of the same network at
        # unit rates on master_residual's route, since H is linear in the rates
        path = tmp_path / "net.crn"
        path.write_text(OVERFLOW_GENERATOR)
        code, doc = run_json(["ack", str(path), "--c", "1"], capsys)
        assert code == 1 and doc["complex_balanced"] is False
        unit = crnkit.parse_network("species: A\nA <-> 0 @ 1, 1\n3 A -> 2 A @ 1\n")
        box = fock.TruncationBox(tuple(doc["caps"]))
        reference = fock.master_residual(unit, fock.coherent_state([1.0], box)[0])
        assert doc["interior_residual_l1"] == pytest.approx(1e306 * reference.interior_l1, rel=1e-13)
        assert doc["full_residual_l1"] == pytest.approx(1e306 * reference.full_l1, rel=1e-13)

    def test_parse_warnings_are_coded_lines(self, tmp_path, capsys):
        path = tmp_path / "loop.crn"
        path.write_text("A -> A @ 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["analyze", str(path)]) == 0
        err = capsys.readouterr().err
        assert err == "warning[E_SELF_LOOP]: 1:1: self-loop reaction contributes nothing to the dynamics\n"


_COUNTS = st.integers(0, 60) | st.sampled_from([-1, 10**6, 10**6 + 1, 2**63, 2**1024, 10**400])
_REALS = st.floats(0.0, 50.0).map(repr) | st.floats().map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "-0.0", "5e-324", "1e-300", "1e300"]
)
_SSA_OPTIONS = {
    "--t-end": _REALS,
    "--burn-in": _REALS,
    "--interval": _REALS,
    # "nan" and "1.5" are not integers, so argparse ends those with exit 2
    "--samples": st.integers(-3, 3000) | st.sampled_from([10**12, 10**400, "nan", "1.5"]),
    "--seed": st.integers(-(2**70), 2**70),
}


@pytest.fixture(scope="module")
def net_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("nets")
    (folder / "bd.crn").write_text(BD)
    (folder / "dia.crn").write_text(DIATOMIC)
    return {1: str(folder / "bd.crn"), 2: str(folder / "dia.crn")}


class TestSsaFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        species=st.sampled_from([1, 2]),
        n0=st.lists(_COUNTS, min_size=3, max_size=3),
        length=st.sampled_from([None, None, None, 1, 2, 3]),
        histogram=st.booleans(),
        options=st.fixed_dictionaries({}, optional=_SSA_OPTIONS),
    )
    def test_exit_codes_and_typed_errors(self, net_files, species, n0, length, histogram, options):
        # mostly a start state of the right length, sometimes a wrong one
        n0 = n0[: length or species]
        args = ["ssa", net_files[species], "--n0=" + ",".join(map(str, n0))]
        args += ["--histogram"] * histogram + [f"{flag}={value}" for flag, value in options.items()]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            # small budgets keep every example to milliseconds
            patch.setattr(ssa, "_MAX_JUMPS", 2000)
            patch.setattr(ssa, "_MAX_HIST_JUMPS", 4000)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(args)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error[E_"), err.getvalue()


def _replace_word(line, at, word):
    words = line.split()
    words[at % len(words)] = word
    return " ".join(words)


# mostly well-formed reactions, with coefficients up to 2**70 and around 2**63;
# some near misses (one word replaced), headers and lines of printable noise
_COEFFS = st.one_of(st.just(""), st.integers(1, 2**70).map(str), st.integers(2**62, 2**64).map(str))
_TERMS = st.builds("{} {}".format, _COEFFS, st.sampled_from(["A", "B", "X1", "_s"]))
_COMPLEXES = st.lists(_TERMS, min_size=1, max_size=3).map(" + ".join) | st.just("0")
_RATES = st.floats(1e-6, 1e6).map(repr)
_REACTIONS = st.builds("{} -> {} @ {}".format, _COMPLEXES, _COMPLEXES, _RATES) | st.builds(
    "{} <-> {} @ {}, {}".format, _COMPLEXES, _COMPLEXES, _RATES, _RATES
)
_NEAR_MISSES = st.builds(
    _replace_word,
    _REACTIONS,
    st.integers(0, 20),
    st.sampled_from(["0", "00", "2.5", "<-", "-1", "1e999", "nan", "species", "+", "@", ",", ":", "$"]),
)
_HEADERS = st.lists(st.sampled_from(["A", "B", "X1", "_s", "2"]), max_size=5).map(
    lambda names: "species: " + " ".join(names)
)
_LINES = st.one_of(
    _REACTIONS, _REACTIONS, _REACTIONS, _REACTIONS,
    _NEAR_MISSES, _HEADERS, st.text(string.printable, max_size=20),
)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class TestCrnTextFuzz:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(_LINES, max_size=4))
    def test_parse_and_analyze_end_cleanly(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.crn"
        path.write_text("\n".join(lines))
        for command in ("parse", "analyze"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([command, str(path)])
            assert code in (0, 1, 2)
            if code == 1:
                assert err.getvalue().startswith("error[E_"), err.getvalue()
            elif command == "analyze":
                assert code == 0
                assert all(line.startswith("warning[E_") for line in err.getvalue().splitlines())
                _strict_json(out.getvalue())


_RATE_OPTIONS = {"--t-end": _REALS, "--tol": _REALS}


class TestRateAndEquilibriumFuzz:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        command=st.sampled_from(["rate", "equilibrium"]),
        x0=st.lists(_REALS, min_size=4, max_size=4),
        length=st.sampled_from([None, None, None, 1, 2]),
        options=st.fixed_dictionaries({}, optional=_RATE_OPTIONS),
    )
    def test_exit_codes_and_typed_errors(self, tmp_path_factory, seed, command, x0, length, options):
        rng = random.Random(seed)
        net = with_extreme_rates(rng, random_network(rng))
        path = tmp_path_factory.getbasetemp() / "rate.crn"
        path.write_text(format_network(net))
        args = [command, str(path), "--x0=" + ",".join(x0[: length or net.num_species])]
        args += [f"{flag}={value}" for flag, value in options.items()
                 if command == "rate" or flag == "--tol"]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_MAX_RATE_STEPS", 200)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(args)
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if code == 1:
            assert lines[-1].startswith("error[E_"), err.getvalue()
            lines.pop()
        if code != 2:
            assert all(line.startswith("warning[E_") for line in lines), err.getvalue()
        if code == 0 and command == "equilibrium":
            _strict_json(out.getvalue())


_BIG_INTS = st.integers(10**19, 10**20 - 1)  # 20 digits
_FOCK_OPTIONS = {
    "--n0": st.lists(_COUNTS | _BIG_INTS, min_size=3, max_size=3),
    "--c": st.lists(_REALS, min_size=3, max_size=3),
    "--caps": st.lists(st.integers(-1, 12) | _BIG_INTS, min_size=3, max_size=3),
    "--t-end": _REALS,
    "--tol": _REALS,
    "--s": _REALS,
    "--lam": st.integers(-5, 30) | _BIG_INTS | _BIG_INTS.map(lambda v: -v),
}
_FOCK_FLAGS = {
    "master": {"--n0", "--c", "--caps", "--t-end"},
    "ack": {"--c", "--caps", "--tol"},
    "noether": {"--c", "--caps", "--s", "--lam"},
}


class TestFockCommandFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        species=st.sampled_from([1, 2]),
        command=st.sampled_from(sorted(_FOCK_FLAGS)),
        length=st.sampled_from([None, None, None, 0, 1, 2, 3]),
        options=st.fixed_dictionaries({}, optional=_FOCK_OPTIONS),
    )
    def test_exit_codes_and_typed_errors(self, net_files, species, command, length, options):
        # lists mostly of the network's length, sometimes empty or of a wrong one
        size = species if length is None else length
        args = [command, net_files[species]]
        for flag, value in options.items():
            if flag in _FOCK_FLAGS[command]:
                value = ",".join(map(str, value[:size])) if isinstance(value, list) else value
                args.append(f"{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            # small budgets keep every example to milliseconds
            patch.setattr(fock, "_MAX_STATES", 400)
            patch.setattr(fock, "_MAX_SLOTS", 1600)
            patch.setattr(fock, "_MAX_MATVECS", 500)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(args)
        assert code in (0, 1, 2)
        if code == 1 and command == "ack" and not err.getvalue():
            # a failed balance check prints its report and no error line
            assert _strict_json(out.getvalue())["complex_balanced"] is False
        elif code == 1:
            assert err.getvalue().startswith("error[E_"), err.getvalue()
        elif code == 0 and command != "master":
            _strict_json(out.getvalue())


_MEANS = st.sampled_from(["0", "0.5", "3", "1e300"]) | _REALS


class TestRandomNetworkFuzz:
    """master, ack, noether and ssa on random networks, some of whose rates
    overflow mass action near the float range."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        command=st.sampled_from(["master", "ack", "noether", "ssa", "histogram"]),
        means=st.lists(_MEANS, min_size=4, max_size=4),
        starts=st.none() | st.lists(st.integers(0, 4) | _COUNTS, min_size=4, max_size=4),
        caps=st.none() | st.lists(st.integers(1, 4), min_size=4, max_size=4),
        real=_REALS,
    )
    def test_exit_codes_and_typed_errors(self, tmp_path_factory, seed, command, means, starts,
                                         caps, real):
        rng = random.Random(seed)
        net = with_extreme_rates(rng, random_network(rng))
        path = tmp_path_factory.getbasetemp() / "random.crn"
        path.write_text(format_network(net))
        k = net.num_species
        c = ["--c=" + ",".join(means[:k])]
        n0 = ["--n0=" + ",".join(map(str, (starts or [1] * 4)[:k]))]
        box = [] if caps is None else ["--caps=" + ",".join(map(str, caps[:k]))]
        args = {
            "master": (c if starts is None else n0) + box + [f"--t-end={real}"],
            "ack": c + box,
            "noether": c + box + [f"--s={real}"],
            "ssa": n0 + [f"--t-end={real}"],
            "histogram": n0 + ["--histogram", f"--burn-in={real}", "--samples=20"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            # small budgets keep every example to milliseconds
            patch.setattr(fock, "_MAX_STATES", 400)
            patch.setattr(fock, "_MAX_SLOTS", 1600)
            patch.setattr(fock, "_MAX_MATVECS", 500)
            patch.setattr(ssa, "_MAX_JUMPS", 2000)
            patch.setattr(ssa, "_MAX_HIST_JUMPS", 4000)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["ssa" if command == "histogram" else command, str(path), *args])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        failed = bool(lines) and lines[-1].startswith("error[E_")
        if code == 1 and not failed:
            # a failed balance check prints its report and no error line
            assert command == "ack", err.getvalue()
            assert _strict_json(out.getvalue())["complex_balanced"] is False
        if code != 2:
            assert all(line.startswith("warning[E_") for line in lines[:-1 if failed else None])
        if code == 0 and command in ("ack", "noether"):
            _strict_json(out.getvalue())


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate", "x.crn"]) == 2

    def test_missing_required_flag(self, dia_file, capsys):
        assert run(["ack", dia_file]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_one_parser_serves_alternating_calls(self, dia_file, bd_file, capsys):
        # the parser is built once per process; no call may leak into the next
        path = ["ssa", bd_file, "--n0", "0", "--t-end", "3", "--seed", "11"]
        hist = ["ssa", bd_file, "--n0", "0", "--histogram", "--burn-in", "5", "--samples", "50"]
        calls = [
            (["analyze", dia_file], 0),
            (["ack", dia_file], 2),
            (hist, 0),
            (path, 0),
            (["frobnicate", dia_file], 2),
            (["analyze", dia_file], 0),
            (path, 0),
        ]
        seen = []
        for args, code in calls:
            assert run(args) == code
            seen.append(capsys.readouterr())
        analyze, ack, histogram, trajectory, unknown, analyze_again, trajectory_again = seen
        assert json.loads(analyze.out)["species"] == ["X1", "X2"]
        assert strip_timestamp(analyze_again.out) == strip_timestamp(analyze.out)
        assert ack.out == "" and "usage: crn ack" in ack.err and "--c" in ack.err
        assert histogram.out.startswith("A,count,frequency\n")
        assert trajectory.out.startswith("t,A\n")  # --histogram did not stick
        assert trajectory_again.out == trajectory.out
        assert unknown.out == "" and "invalid choice: 'frobnicate'" in unknown.err
        assert all(call.err == "" for call in (analyze, histogram, trajectory, analyze_again))
        assert cli._build_parser() is cli._build_parser()
