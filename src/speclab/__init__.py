"""Desk-scale verification laboratory for multi-draft block speculative decoding."""

from .models import MarkovModel, ModelPair, generate_pair, load_model, random_model, save_model
from .probability import (
    AllZeroMass,
    Distribution,
    PrefixJoint,
    RandomSource,
    extend_joint,
    normalize,
    sample,
)
from .verifiers import (
    Counters,
    DraftSet,
    KseqScale,
    ModifiedTarget,
    NoRoot,
    TargetScores,
    VerifyOutcome,
    block_residual,
    draft_rows,
    full_block_accept_prob,
    gbv_accept_prob,
    kseq_rho,
    score_rows,
    subblock_accept_prob,
    verify_gbv,
    verify_kseq,
    verify_sd,
    verify_spectr_gbv,
)

__all__ = [
    "AllZeroMass", "Counters", "Distribution", "DraftSet", "KseqScale",
    "MarkovModel", "ModelPair", "ModifiedTarget", "NoRoot", "PrefixJoint",
    "RandomSource", "TargetScores", "VerifyOutcome", "block_residual",
    "draft_rows", "extend_joint", "full_block_accept_prob", "gbv_accept_prob",
    "generate_pair", "kseq_rho", "load_model", "normalize", "random_model",
    "sample", "save_model", "score_rows", "subblock_accept_prob",
    "verify_gbv", "verify_kseq", "verify_sd", "verify_spectr_gbv",
]
