"""Tests on the public API surface and documentation contract."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro
import repro.cache
import repro.core
import repro.fs
import repro.iscsi
import repro.net
import repro.nfs
import repro.obs
import repro.sim
import repro.storage
import repro.traces
import repro.workloads


ALL_PACKAGES = [
    repro, repro.sim, repro.net, repro.storage, repro.cache, repro.fs,
    repro.nfs, repro.iscsi, repro.core, repro.workloads, repro.traces,
    repro.obs,
]


def test_version_is_exposed():
    assert repro.__version__


@pytest.mark.parametrize("package", ALL_PACKAGES,
                         ids=lambda p: p.__name__)
def test_package_has_docstring(package):
    assert package.__doc__ and package.__doc__.strip()


@pytest.mark.parametrize("package", ALL_PACKAGES,
                         ids=lambda p: p.__name__)
def test_all_exports_resolve(package):
    for name in getattr(package, "__all__", []):
        assert getattr(package, name) is not None, name


def test_public_classes_are_documented():
    """Every class and public function reachable from __all__ carries a
    docstring — the deliverable's doc-comment requirement, enforced."""
    undocumented = []
    for package in ALL_PACKAGES:
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append("%s.%s" % (package.__name__, name))
                if inspect.isclass(obj):
                    for method_name, method in vars(obj).items():
                        if method_name.startswith("_"):
                            continue
                        if inspect.isfunction(method) and not (
                            method.__doc__ and method.__doc__.strip()
                        ):
                            undocumented.append(
                                "%s.%s.%s" % (package.__name__, name,
                                              method_name))
    assert not undocumented, undocumented


def _defined_callables(module):
    """Classes and functions defined in ``module``, with class methods."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for member_name, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield "%s.%s" % (name, member_name), member


def test_every_annotation_resolves():
    """``typing.get_type_hints`` works on everything the package defines:
    an annotation naming something the module never imports is a bug
    that ``from __future__ import annotations`` hides until then."""
    unresolved = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in _defined_callables(module):
            try:
                typing.get_type_hints(obj)
            except Exception as error:
                unresolved.append("%s.%s: %r" % (module.__name__, name, error))
    assert not unresolved, unresolved


def test_cli_enumerates_every_subcommand():
    """``repro list`` must advertise the full CLI surface: every
    registered subcommand, introspected from the parser itself so the
    list can never drift from reality."""
    from repro import cli

    commands = cli.iter_subcommands()
    # The parser is the source of truth; spot-check the fixed core...
    assert {"quick", "table2", "trace", "bench", "list"} <= set(commands)
    # ...and the printed output must contain every registered command.
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(["list"]) == 0
    output = buffer.getvalue()
    for command in commands:
        assert command in output, "repro list omits %r" % command


def test_cli_subcommand_introspection_matches_parser():
    from repro import cli

    parser = cli.build_parser()
    import argparse

    registered = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            registered.update(action.choices)
    assert set(cli.iter_subcommands()) == registered


def test_top_level_reexports():
    from repro import (
        STACK_KINDS, Simulator, StorageStack, TestbedParams, make_stack,
    )

    assert "iscsi" in STACK_KINDS
    assert callable(make_stack)
    assert Simulator and StorageStack and TestbedParams


def test_stack_kinds_match_factory():
    from repro import STACK_KINDS, make_stack

    for kind in STACK_KINDS:
        assert make_stack(kind, mounted=False).kind == kind
