"""Every name the per-layer benchmark wraps must exist in the program.

``bench/tracer.py`` resolves each (module, attribute) in its ``TARGETS`` when
a ``Tracer`` is built. Building one here, without installing it, makes a
deleted or renamed wrapped name fail the test suite, not only a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    tracer = bench.Tracer()
    assert tracer.layers == list(dict.fromkeys(layer for layer, *_ in bench.TARGETS))
    wrapped = {(original.__module__, original.__qualname__) for _owner, _attr, original, _w in tracer._patches}
    for _layer, module, attr, _count in bench.TARGETS:
        assert (module, attr) in wrapped
    # built, not installed: the program still runs its own functions
    for owner, attr, original, _wrapper in tracer._patches:
        assert owner.__dict__[attr] is original
