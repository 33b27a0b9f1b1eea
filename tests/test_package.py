import ast
import dataclasses
import functools
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


def test_a_token_has_one_inverse_cdf_draw():
    # every token, drafted, accepted or residual, is drawn by probability.sample,
    # the one bisect over a CDF; drafting hands it a reserved source, not a wrapper
    files = sorted(Path(speclab.__file__).parent.glob("*.py"))
    found = [path.name for path in files for _ in range(path.read_text(encoding="utf-8").count("bisect_right"))]
    assert found == ["probability.py"]
    assert "bisect_right" in inspect.getsource(probability.sample)
    assert list(inspect.signature(probability.sample).parameters) == ["d", "rng"]


def test_rho_has_one_solve_path():
    # every K-SEQ solve goes through _kseq_scale, so its memo and a wrapper
    # rebound over verifiers.kseq_rho see each one
    callers = []
    for path in sorted(Path(speclab.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                callers += [
                    (path.name, fn.name) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "kseq_rho"
                ]
    assert callers == [("verifiers.py", "_kseq_scale")]


def test_subblock_scalars_have_one_source():
    # the sub-block rule's (r, a, b) and its r = inf case are formed by
    # subblock_terms alone: the band and the rule read no joint ratio and
    # test no r against inf, and only the block verifier and the oracle form
    # triples
    functions = [
        (path.name, fn.name, fn)
        for path in sorted(Path(speclab.__file__).parent.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
    ]

    def called(fn):
        return {getattr(node.func, "id", getattr(node.func, "attr", None))
                for node in ast.walk(fn) if isinstance(node, ast.Call)}

    readers = [(name, fn) for path, name, fn in functions
               if path == "verifiers.py" and name in ("subblock_band", "subblock_accept_prob")]
    assert sorted(name for name, _ in readers) == ["subblock_accept_prob", "subblock_band"]
    for name, fn in readers:
        assert not called(fn) & {"joint_ratio", "subblock_terms", "isinf"}, name
        operands = [x for node in ast.walk(fn) if isinstance(node, ast.Compare) for x in (node.left, *node.comparators)]
        assert not [x for x in operands if isinstance(x, ast.Attribute) and x.attr == "inf"], name
    callers = sorted((path, name) for path, name, fn in functions if "subblock_terms" in called(fn))
    assert callers == [("oracle.py", "_acceptances"), ("verifiers.py", "verify_spectr_gbv")]


def test_the_uniform_stream_is_one_iterator():
    # every double, drawn or reserved, comes off one chained iterator over the
    # generator's blocks: one refill in the module, and no generator or block
    # kept beside the stream
    rng = probability.RandomSource(0)
    for source in (rng, rng.reserve(3)):
        assert type(source) is probability.RandomSource
        assert sorted(vars(source)) == ["_stream"]
        assert not hasattr(source, "_gen") and not hasattr(source, "_block")
    assert inspect.getsource(probability).count(".random(UNIFORM_BLOCK)") == 1


def test_derived_state_lives_on_its_owner():
    # a cache is a cached property or a dict on the object it derives from:
    # no weak-key table beside the rows and no hand-written descriptor
    for path in sorted(Path(speclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "weakref" not in [a.name for a in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "weakref", path.name
            elif isinstance(node, ast.ClassDef):
                methods = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                assert "__get__" not in methods, (path.name, node.name)
    for name in ("_RHO", "_AllRows", "_draw"):
        assert not hasattr(verifiers, name) and not hasattr(verifiers.DraftSet, name), name
    for owner, name in [(verifiers.DraftSet, "tokens"), (verifiers.DraftSet, "cond"),
                        (probability.Distribution, "memo")]:
        assert isinstance(vars(owner)[name], functools.cached_property), name
