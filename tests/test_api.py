"""The public surface: lazy names, module exports, the names the benchmark
wraps, and the README's example."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import crnkit
from crnkit import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(crnkit.__path__))


def test_lazy_names_are_the_float_modules_exports():
    assert crnkit._LAZY == {
        name: module
        for module in ("dynamics", "ssa", "fock")
        for name in importlib.import_module(f"crnkit.{module}").__all__
    }


def test_every_package_name_resolves():
    for name in dir(crnkit):
        getattr(crnkit, name)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"crnkit.{module}")
    for name in getattr(mod, "__all__", ()):
        getattr(mod, name)


def test_benchmark_span_targets_resolve(monkeypatch):
    # bench/spans.py wraps these by name; a dropped one would only fail the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"crnkit.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer swaps a method in its class's own namespace
        assert callable(vars(owner)[name] if classes else getattr(owner, name)), (module, attr)


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("\n## Example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", example, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def removed_names():
    """The code spans in the first column of the README's removed-names table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| removed | use instead |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows += re.findall(r"`([^`]+)`", line.split(" | ")[0])
    return rows


def crnkit_owners():
    """``crnkit`` and every module in it."""
    return [crnkit, *(importlib.import_module(f"crnkit.{name}") for name in MODULES)]


def test_removed_names_table_is_not_empty():
    names = removed_names()
    assert "TruncationBox.state_at(i)" in names and "SparseOperator.max_abs()" in names
    assert "simulate(..., max_count=)" in names and "crn rate --dt" in names


@pytest.mark.parametrize("entry", removed_names())
def test_removed_name_does_not_resolve(entry):
    # a parameter row reads `func(..., name=)`; an option row reads
    # `crn command --flag`, which the subcommand's usage no longer names; a
    # dotted row from `crnkit.` is a full path; `Class.attr` names an
    # attribute of a class that still exists; a bare name resolves nowhere
    # in the package
    parameter = re.fullmatch(r"(\w+)\(\.\.\., (\w+)=\)", entry)
    if parameter:
        func, name = parameter.groups()
        assert name not in inspect.signature(getattr(crnkit, func)).parameters
        return
    option = re.fullmatch(r"crn (\w+) (--[\w-]+)", entry)
    if option:
        command, flag = option.groups()
        usage = io.StringIO()
        with contextlib.redirect_stdout(usage):
            assert cli.run([command, "--help"]) == 0
        assert "--out" in usage.getvalue()  # every subcommand takes --out
        assert not re.search(rf"{flag}\b", usage.getvalue())
        return
    path = re.sub(r"\(.*\)$", "", entry)
    if path.startswith("crnkit."):
        module, _, name = path.rpartition(".")
        assert not hasattr(importlib.import_module(module), name)
    elif "." in path:
        cls_name, attr = path.split(".")
        classes = [vars(mod)[cls_name] for mod in crnkit_owners() if cls_name in vars(mod)]
        assert classes, f"no class {cls_name} in crnkit"
        for cls in classes:  # a dataclass field without a default is no class attribute
            assert not hasattr(cls, attr) and attr not in getattr(cls, "__dataclass_fields__", {})
    else:
        assert not any(hasattr(owner, path) for owner in crnkit_owners())
