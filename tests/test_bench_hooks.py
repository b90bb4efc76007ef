"""The benchmark under perfbench/ reaches into the package by name; these
checks fail fast when a change removes something it relies on."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    for targets in _load("spans").PATCHES.values():
        for target in targets:
            mod_name, _, attr = target.rpartition(".")
            assert hasattr(importlib.import_module(mod_name), attr), target


def test_output_checks_import():
    _load("checks")
