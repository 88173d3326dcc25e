"""The benchmark tracer's targets exist in the package, and installing and
uninstalling the tracer leaves the package as it was.

``bench/tracing.py`` is read and executed here, never imported, so the test
writes nothing under ``bench/``."""

import importlib
import sys
import types
from pathlib import Path

from tanglenabla import cli, diagram, gradings, laurent, nabla, states, transform, verify  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    mod = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def _namespaces():
    """Every namespace the tracer may patch: the package's modules and the
    classes that hold traced methods."""
    mods = {n: m for n, m in sys.modules.items()
            if n == "tanglenabla" or n.startswith("tanglenabla.")}
    classes = {f"{n}.{k}": v for n, m in mods.items() for k, v in vars(m).items()
               if isinstance(v, type) and v.__module__ == n}
    return {**mods, **classes}


def test_every_tracer_target_resolves_in_the_package():
    for name, targets in _tracing().TARGETS.items():
        for mod, attr in targets:
            owner = importlib.import_module(f"tanglenabla.{mod}")
            for part in attr.split("."):
                assert hasattr(owner, part), f"{name}: tanglenabla.{mod}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"{name}: tanglenabla.{mod}.{attr}"


def test_tracer_uninstall_restores_every_original():
    before = {n: dict(vars(ns)) for n, ns in _namespaces().items()}
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert transform.glue_diagrams is not before["tanglenabla.transform"]["glue_diagrams"]
    finally:
        tracer.uninstall()
    after = {n: dict(vars(ns)) for n, ns in _namespaces().items()}
    assert after.keys() == before.keys()
    for n, attrs in before.items():
        assert after[n].keys() == attrs.keys(), n
        changed = [k for k, v in attrs.items() if after[n][k] is not v]
        assert not changed, (n, changed)
