import importlib
import subprocess
import sys

import pytest

import domatch

SUBMODULES = ("characterization", "errors", "generators", "graph", "oracles", "recognizer")


def test_all_is_sorted_unique_public_and_resolvable():
    names = domatch.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert not name.startswith("_"), name
        assert hasattr(domatch, name), name


def test_public_names_are_the_defining_modules_objects():
    modules = [importlib.import_module(f"domatch.{short}") for short in SUBMODULES]
    for name in domatch.__all__:
        value = getattr(domatch, name)
        holders = [module for module in modules if name in vars(module)]
        assert holders, name
        for module in holders:
            assert vars(module)[name] is value, (name, module.__name__)
        defining = getattr(value, "__module__", None)
        if isinstance(defining, str) and defining.startswith("domatch."):
            assert getattr(sys.modules[defining], name) is value, name
    assert domatch.recognize is domatch.recognizer.recognize


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from domatch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == domatch.__all__


def test_dir_covers_all():
    assert set(domatch.__all__) <= set(dir(domatch))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'domatch'"):
        domatch.no_such_name


def test_submodules_resolve_from_a_bare_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import domatch; print(domatch.oracles.DEFAULT_MAX_VERTICES)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == f"{domatch.oracles.DEFAULT_MAX_VERTICES}\n"


def test_runtime_needs_nothing_beyond_the_standard_library():
    # The test dependencies are made unimportable before the package loads;
    # every submodule must still import and the CLI must still run.
    script = """
import importlib, pkgutil, sys
for name in ("networkx", "hypothesis", "pytest", "_pytest"):
    sys.modules[name] = None
import domatch
for module in pkgutil.iter_modules(domatch.__path__):
    importlib.import_module(f"domatch.{module.name}")
from domatch import cli
raise SystemExit(cli.main(["generate", "spider", "2"]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == domatch.serialize_edge_list(domatch.spider(2))
