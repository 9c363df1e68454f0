"""The public surface: lazy names, module exports, the names the benchmark
wraps, and the README's example."""

import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import crnkit

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(crnkit.__path__))


def test_lazy_names_are_the_fock_exports():
    assert crnkit._FOCK_NAMES == set(crnkit.fock.__all__)


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
