import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import speclab
from speclab import harness, models, oracle, probability, verifiers

# ROADMAP item 11: the package shrinks, and evidence makes room by deleting first
LINE_BUDGET = 2400


def test_every_public_attribute_is_a_submodule():
    # each name has one import path, its module; ``__main__`` runs the CLI on import
    for info in pkgutil.iter_modules(speclab.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"speclab.{info.name}")
    public = [name for name in vars(speclab) if not name.startswith("_")]
    assert public
    assert [name for name in public if not isinstance(getattr(speclab, name), types.ModuleType)] == []


def test_package_fits_its_line_budget():
    files = Path(speclab.__file__).parent.glob("*.py")
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in files)
    assert lines <= LINE_BUDGET, f"src/speclab has {lines} lines, over the budget of {LINE_BUDGET}"


def test_no_lookup_takes_a_temperature():
    # a model reads its rows at its own temperature, which ModelPair sets; no
    # chain, lookup or wrapper passes one down
    for fn, params in [
        (models.MarkovModel.conditional, ["self", "context"]),
        (harness.RawChain, ["model", "context"]),
        (oracle._model_joint, ["model", "context", "blk"]),
    ]:
        assert list(inspect.signature(fn).parameters) == params, fn
    assert not hasattr(models.ModelPair, "draft_conditional")
    assert not hasattr(models.ModelPair, "target_conditional")


def test_every_verifier_reads_the_target_through_the_chain():
    # the block verifiers take the chain's list-in, list-out lookup and make
    # their one read themselves; no pre-scored table is handed in
    assert not hasattr(verifiers, "TargetScores")
    assert not hasattr(harness, "score_rows")
    for fn in (verifiers.verify_spectr_gbv, verifiers.verify_gbv):
        assert list(inspect.signature(fn).parameters) == ["drafts", "q_conds", "rng", "trace"], fn


def test_a_prefix_joint_has_one_spelling():
    # a joint is two log floats, read through joint_ratio and math.exp by
    # every rule; no method or loose pair of floats spells it a second way
    PrefixJoint = probability.PrefixJoint
    assert PrefixJoint._fields == ("log_p", "log_q")
    assert PrefixJoint() == (0.0, 0.0)
    for name in ("empty", "p", "q", "ratio_p_over_q", "ratio_q_over_p"):
        assert not hasattr(PrefixJoint, name), name
    names = {f.name for f in dataclasses.fields(verifiers.ModifiedTarget)}
    assert "joint" in names and not names & {"log_p_prefix", "log_q_prefix"}


def test_counters_hold_only_verifier_work():
    # serial call counts are decode's to derive, one target call per
    # iteration and K * L draft calls; a verifier counts only its own passes
    names = [f.name for f in dataclasses.fields(verifiers.Counters)]
    assert names == ["vocab_scans", "h_partial_evals", "residual_evals", "warnings"]
