"""Public API surface: everything exported is importable and documented."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.topology",
    "repro.steiner",
    "repro.core",
    "repro.state",
    "repro.sim",
    "repro.collectives",
    "repro.workloads",
    "repro.metrics",
    "repro.api",
    "repro.replay",
    "repro.serve",
    "repro.experiments",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_surface(self):
        """The README's imports must keep working."""
        from repro import (  # noqa: F401
            CollectiveEnv,
            FatTree,
            Gpu,
            Group,
            Peel,
            ScenarioSpec,
            resolve_scheme,
            run,
        )


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable_with_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES[:-1])
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES[:-1])
    def test_public_callables_documented(self, module_name):
        """Every public class/function named in __all__ carries a docstring."""
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
