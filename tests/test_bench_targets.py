"""Every name the per-layer benchmark wraps must exist in the program and be
reached through the name it is wrapped under.

``bench/tracer.py`` resolves each (module, attribute) in its ``TARGETS`` when
a ``Tracer`` is built. Building one here, without installing it, makes a
deleted or renamed wrapped name fail the test suite, not only a traced
benchmark run. Installing one around a decode shows that the program calls
each verifier through the module global the tracer rebinds.
"""

import importlib.util
from pathlib import Path

import pytest

from speclab.harness import decode
from speclab.models import generate_pair
from speclab.probability import RandomSource

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_every_wrapped_name_resolves():
    bench = load_tracer()
    tracer = bench.Tracer()
    assert tracer.layers == list(dict.fromkeys(layer for layer, *_ in bench.TARGETS))
    wrapped = {(original.__module__, original.__qualname__) for _owner, _attr, original, _w in tracer._patches}
    for _layer, module, attr, _count in bench.TARGETS:
        assert (module, attr) in wrapped
    # built, not installed: the program still runs its own functions
    for owner, attr, original, _wrapper in tracer._patches:
        assert owner.__dict__[attr] is original


@pytest.mark.parametrize("algo, layers", [
    ("sd", {"verifiers.verify_sd", "verifiers.verify_kseq"}),
    ("spectr", {"verifiers.verify_kseq"}),
    ("gbv", {"verifiers.verify_gbv", "verifiers.verify_spectr_gbv"}),
    ("spectr-gbv", {"verifiers.verify_spectr_gbv"}),
])
def test_each_verifier_layer_records_spans(algo, layers):
    pair = generate_pair(4, 1, 3, 1.0, 0.6)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        decode(pair, algo, 2, 3, (0, 1), 12, RandomSource(5))
    finally:
        tracer.uninstall()
    recorded = {tracer.layers[lid] for lid in tracer.spans()["layer"]}
    verifiers = {layer for layer in recorded if layer.startswith("verifiers.verify_")}
    assert verifiers == layers
    # only the block verifiers score every row prefix; sd and spectr ask the
    # target chain one context at a time, where they reach
    assert ("verifiers.score_rows" in recorded) == (algo in ("gbv", "spectr-gbv"))
    for owner, attr, original, _wrapper in tracer._patches:
        assert owner.__dict__[attr] is original


def test_batched_layers_still_record_spans():
    # each ModifiedTarget.conditional call asks the layer beneath in one
    # batched call, so a span nested in another of the same layer shows a
    # stack of two or more layers; the per-layer split must still see both
    # the override work and the batched acceptance evaluations
    pair = generate_pair(16, 1, 5, 1.0, 0.6)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        decode(pair, "spectr-gbv", 3, 8, (3, 1, 4, 1), 64, RandomSource(2))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    layer, parent = spans["layer"], spans["parent"]
    override = tracer.layer_id["verifiers.ModifiedTarget.conditional"]
    nested = (layer == override) & (parent >= 0)
    nested[nested] = layer[parent[nested]] == override
    assert nested.any()
    assert (layer == tracer.layer_id["verifiers.accept_eval"]).any()
