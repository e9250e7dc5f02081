"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` replaces each ``WRAPPED`` target, looked up with
``vars()`` on its owner, for a traced run; a refactor that renames or
moves one would otherwise surface only under ``perfbench/run.py --trace 1``.
The tracer module is imported read-only: no bytecode is written.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def wrapped():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    had_workloads = "workloads" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", PERFBENCH / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return tracer.WRAPPED


def test_every_wrapped_target_resolves(wrapped):
    missing = []
    for module, path, name, _ in wrapped:
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(f"cobcalc.{module}")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            target = vars(owner)[attr]
        except (AttributeError, KeyError):
            missing.append(f"cobcalc.{module}.{path} ({name})")
            continue
        if not callable(target):
            missing.append(f"cobcalc.{module}.{path} ({name}) is not callable")
    assert not missing, missing



def _held(value, depth=0):
    """Objects held by value in a (possibly nested) container or in the
    default arguments of a function."""
    if depth > 4:
        return
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    elif isinstance(value, types.FunctionType):
        items = [*(value.__defaults__ or ()), *(value.__kwdefaults__ or {}).values()]
    else:
        return
    for item in items:
        yield item
        yield from _held(item, depth + 1)


def test_no_wrapped_target_is_held_in_a_container(wrapped):
    # the tracer rebinds names; a registry or a default argument that stored
    # a target at import time would keep calling the unwrapped function, and
    # its span would silently read 0
    import pkgutil

    import cobcalc

    targets = {}
    for module, path, name, _ in wrapped:
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(f"cobcalc.{module}")
        for part in owner_path:
            owner = getattr(owner, part)
        targets[id(vars(owner)[attr])] = name
    held = []
    for info in pkgutil.iter_modules(cobcalc.__path__):
        mod = importlib.import_module(f"cobcalc.{info.name}")
        for key, value in vars(mod).items():
            if key.startswith("__"):
                continue
            for item in _held(value):
                if id(item) in targets:
                    held.append(f"cobcalc.{info.name}.{key} holds {targets[id(item)]}")
    assert not held, held
