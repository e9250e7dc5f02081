"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` replaces each ``WRAPPED`` target, looked up with
``vars()`` on its owner, for a traced run; a refactor that renames or
moves one would otherwise surface only under ``perfbench/run.py --trace 1``.
The tracer module is imported read-only: no bytecode is written.
"""

import importlib
import importlib.util
import sys
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

