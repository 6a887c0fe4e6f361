"""The benchmark's layer tracer must find every name it wraps.

``perfbench/tracer.py`` replaces module functions and objective methods by
name. A refactor that renames or moves one of them would otherwise only
show up as a crash of a traced benchmark run.
"""
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the hooks; install() is not called
    return module


def test_every_target_resolves(tracer):
    for name, owners, attr, _ in tracer.TARGETS:
        for owner in owners:
            if isinstance(owner, type):
                assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"
            else:
                assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_objectives_define_their_own_methods(tracer):
    for cls in tracer.OBJECTIVES:
        for attr in ("grad_hess", "value"):
            assert callable(cls.__dict__.get(attr)), f"{cls.__name__}.{attr}"
