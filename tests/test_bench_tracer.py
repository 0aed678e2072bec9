"""The benchmark's span tracer (perfbench/tracer.py) wraps dlamf names
through owner.__dict__[attr], so a refactor that drops or renames one of
them breaks every traced benchmark run. Installing and uninstalling it
here catches that in the test suite."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls():
    mod = _tracer_module()
    targets = [(owner, attr) for owner, attr, *_ in mod._targets()]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = mod.Tracer()
    try:
        tracer.install()
        for (owner, attr), raw in zip(targets, before):
            assert owner.__dict__[attr] is not raw, attr
    finally:
        tracer.uninstall()
    for (owner, attr), raw in zip(targets, before):
        assert owner.__dict__[attr] is raw, attr
