"""Span tracer that wraps speclab's public functions from outside the package.

Nothing inside ``src/speclab`` is edited. ``install`` swaps each target for a
timing wrapper: functions are rebound in every speclab module that imported
them by name (``from .probability import sample`` leaves a second reference
in ``verifiers`` and ``harness``), methods are replaced on their class.
``uninstall`` puts the originals back, so untraced passes run the program
exactly as shipped.

Each call becomes one span (layer id, parent span, start, end) appended to
flat arrays, kept in memory and written out by ``save`` when the run ends.
Self time is a span's duration minus the time its child spans cover; calls
are single-threaded and properly nested, so that coverage is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (layer, module, attribute, extra count taken from the return value)
TARGETS = (
    ("probability.sample", "speclab.probability", "sample", None),
    ("probability.validate", "speclab.probability", "Distribution.__post_init__", None),
    ("probability.normalize", "speclab.probability", "normalize", None),
    ("probability.extend_joint", "speclab.probability", "extend_joint", None),
    ("models.conditional", "speclab.models", "MarkovModel.conditional", None),
    ("models.generate_pair", "speclab.models", "generate_pair", None),
    ("verifiers.draft_rows", "speclab.verifiers", "draft_rows", None),
    ("verifiers.score_rows", "speclab.verifiers", "score_rows", None),
    ("verifiers.verify_sd", "speclab.verifiers", "verify_sd", None),
    ("verifiers.verify_kseq", "speclab.verifiers", "verify_kseq", None),
    ("verifiers.verify_gbv", "speclab.verifiers", "verify_gbv", None),
    ("verifiers.verify_spectr_gbv", "speclab.verifiers", "verify_spectr_gbv", None),
    ("verifiers.kseq_rho", "speclab.verifiers", "kseq_rho",
     ("verifiers.rho_iters", lambda scale: scale.iterations)),
    ("verifiers.accept_eval", "speclab.verifiers", "subblock_accept_prob", None),
    ("verifiers.accept_eval", "speclab.verifiers", "full_block_accept_prob", None),
    ("verifiers.accept_eval", "speclab.verifiers", "gbv_accept_prob", None),
    ("verifiers.block_residual", "speclab.verifiers", "block_residual", None),
    ("verifiers.ModifiedTarget.conditional", "speclab.verifiers", "ModifiedTarget.conditional", None),
    ("harness.RawChain.conditional", "speclab.harness", "RawChain.conditional", None),
    ("harness.ModifiedChain.conditional", "speclab.harness", "ModifiedChain.conditional", None),
    ("harness.decode", "speclab.harness", "decode", None),
    ("oracle.exact_output_distribution", "speclab.oracle", "exact_output_distribution", None),
    ("oracle.gbv_exact_report", "speclab.oracle", "gbv_exact_report", None),
)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer_id: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for layer, module_name, attr, count in TARGETS:
            lid = self.layer_id.setdefault(layer, len(self.layers))
            if lid == len(self.layers):
                self.layers.append(layer)
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original, self._wrap(original, lid, count)))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, lid, count)
                for name, mod in list(sys.modules.items()):
                    if (name == "speclab" or name.startswith("speclab.")) and getattr(mod, attr, None) is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, fn, lid: int, count):
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def spans(self) -> dict[str, np.ndarray]:
        """Flat span columns plus each span's self time, all in ns."""
        # copies, so the arrays stay free to grow after this call
        layer = np.frombuffer(self.layer, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"layer": layer, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - covered}

    def save(self, path) -> None:
        cols = self.spans()
        np.savez_compressed(
            path, layers=np.array(self.layers), layer=cols["layer"], parent=cols["parent"],
            start_ns=cols["start"], end_ns=cols["end"],
        )
