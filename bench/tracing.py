"""Span tracing by wrapping library functions where their callers bind them.

`Tracer.install` replaces module attributes with wrappers that record a
span per call: name, start, end and parent span.  Spans stay in memory
in one flat integer array and are written as JSON when the run ends.
A span's self time is its duration minus the time its child spans
cover; a layer's figure is the sum over the span names that belong to
it.  The wrappers' own cost lands in the calling span's self time.
"""

import functools
import importlib
import json
import math
import time
from array import array
from collections import Counter

import numpy as np


def _rows(x) -> int:
    return math.prod(x.shape[:-1])


def _linear_flop(args, result) -> int:
    x, w = args[0], args[1]
    return 2 * _rows(x) * w.shape[0] * w.shape[1]


def _linear_bwd_flop(args, result) -> int:
    d_out, x = args[0], args[1]
    return 4 * _rows(x) * x.shape[-1] * d_out.shape[-1]


def _attention_flop(args, result) -> int:
    q, k, v = args[0], args[1], args[2]
    batch = math.prod(q.shape[:-2])
    return 2 * batch * q.shape[-2] * k.shape[-2] * (q.shape[-1] + v.shape[-1])


def _attention_bwd_flop(args, result) -> int:
    q, k, v = args[1], args[2], args[3]
    batch = math.prod(q.shape[:-2])
    return 4 * batch * q.shape[-2] * k.shape[-2] * (q.shape[-1] + v.shape[-1])


def _count(key, measure):
    def add(counts, args, result):
        counts[key] += measure(args, result)
    return add


_TOKENS = _count("oracle.tokens", lambda args, result: len(result))
_REPAIRS = _count("decode.repairs", lambda args, result: len(result.repairs))

_FORWARD = ("linear", "masked_attention", "layer_norm", "relu", "embed",
            "sinusoidal_positions", "causal_mask", "dropout")
_BACKWARD = ("linear_bwd", "masked_attention_bwd", "layer_norm_bwd",
             "relu_bwd", "embed_bwd", "dropout_bwd")
_FLOPS = {"linear": _linear_flop, "linear_bwd": _linear_bwd_flop,
          "masked_attention": _attention_flop,
          "masked_attention_bwd": _attention_bwd_flop}

# (module, attribute, span name, count hook).  The module is the one
# whose binding the caller looks up: `cli` imports its library calls by
# name, `oracle` and `decode` call `transitions.apply` through the
# module, `model` binds the layer functions, `beam` binds the
# transition and mask functions, and the benchmark calls the functions
# it times through their modules.
WRAPS = [
    ("discoseq.cli", "main", "cli.main", None),
    ("discoseq.cli", "parse_discbracket", "treebank.parse_discbracket", None),
    ("discoseq.cli", "parse_treebank", "treebank.parse_treebank", None),
    ("discoseq.cli", "emit_discbracket", "treebank.emit_discbracket", None),
    ("discoseq.cli", "encode", "oracle.encode", _TOKENS),
    ("discoseq.cli", "parse_transitions", "transitions.parse_transitions", None),
    ("discoseq.cli", "decode", "decode.decode", _REPAIRS),
    ("discoseq.cli", "pair_counts", "metrics.pair_counts", None),
    ("discoseq.cli", "summarize", "metrics.summarize", None),
    ("discoseq.treebank", "parse_treebank", "treebank.parse_treebank", None),
    ("discoseq.treebank", "validate", "tree.validate", None),
    ("discoseq.oracle", "validate", "tree.validate", None),
    ("discoseq.transitions", "apply", "transitions.apply", None),
    ("discoseq.decode", "decode", "decode.decode", _REPAIRS),
    ("discoseq.metrics", "evaluate", "metrics.evaluate", None),
    ("discoseq.metrics", "pair_counts", "metrics.pair_counts", None),
    ("discoseq.neural.training", "train", "training.train", None),
    ("discoseq.neural.training", "build_vocabularies", "training.build_vocabularies", None),
    ("discoseq.neural.training", "build_examples", "training.build_examples", None),
    ("discoseq.neural.training", "encode", "oracle.encode", _TOKENS),
    ("discoseq.neural.training", "trace", "masks.trace", None),
    ("discoseq.neural.training", "mask_rows", "model.mask_rows", None),
    ("discoseq.neural.training", "init_parameters", "model.init_parameters", None),
    ("discoseq.neural.training", "loss_and_grad", "model.loss_and_grad", None),
    ("discoseq.neural.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("discoseq.neural.beam", "predict", "beam.predict", None),
    ("discoseq.neural.beam", "legal", "transitions.legal", None),
    ("discoseq.neural.beam", "apply", "transitions.apply", None),
    ("discoseq.neural.beam", "initial_state", "masks.initial_state", None),
    ("discoseq.neural.beam", "step", "masks.step", None),
    ("discoseq.neural.beam", "mask_rows", "model.mask_rows", None),
    ("discoseq.neural.beam", "_encode", "model.encode", None),
    ("discoseq.neural.beam", "_decode", "model.decode", None),
] + [("discoseq.neural.model", name, f"layers.{name}",
      _count("layers.flop", _FLOPS[name]) if name in _FLOPS else None)
     for name in _FORWARD + _BACKWARD]


def _self(*names):
    return ("self", names)


# Per-layer metric -> how it is read from one iteration's spans and
# counts: summed self or total time, number of calls, or a count.
LAYER_METRICS = {
    "cli.self_s": _self("cli.main"),
    "treebank.parse_s": _self("treebank.parse_discbracket", "treebank.parse_treebank"),
    "treebank.emit_s": _self("treebank.emit_discbracket"),
    "tree.validate_s": _self("tree.validate"),
    "oracle.encode_s": _self("oracle.encode"),
    "oracle.tokens": ("count", "oracle.tokens", "oracle.encode"),
    "transitions.parse_s": _self("transitions.parse_transitions"),
    "transitions.legal_s": _self("transitions.legal"),
    "transitions.legal_calls": ("calls", "transitions.legal"),
    "transitions.apply_s": _self("transitions.apply"),
    "decode.decode_s": _self("decode.decode"),
    "decode.repairs": ("count", "decode.repairs", "decode.decode"),
    "metrics.pair_counts_s": _self("metrics.pair_counts"),
    "masks.trace_s": _self("masks.trace"),
    "masks.step_s": _self("masks.step"),
    "masks.step_calls": ("calls", "masks.step"),
    "training.build_examples_s": _self("training.build_examples",
                                       "training.build_vocabularies"),
    "training.update_s": _self("training.train"),
    "model.loss_and_grad_s": _self("model.loss_and_grad"),
    "model.mask_rows_s": _self("model.mask_rows"),
    "layers.forward_s": _self(*(f"layers.{n}" for n in _FORWARD)),
    "layers.backward_s": _self(*(f"layers.{n}" for n in _BACKWARD)),
    "layers.attention_s": _self("layers.masked_attention"),
    "layers.gflop": ("count", "layers.flop", "layers.linear"),
    "checkpoint.load_s": _self("checkpoint.load_checkpoint"),
    "beam.predict_s": ("total", "beam.predict"),
    "beam.self_s": _self("beam.predict"),
}

UNITS = {name: ("count" if name.endswith(("_calls", ".tokens", ".repairs"))
                else "GFLOP" if name.endswith("gflop") else "s")
         for name in LAYER_METRICS}


class Tracer:
    """Records spans for every call through the installed wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name id, start ns, end ns, parent index
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, wraps=WRAPS) -> None:
        for module_name, attr, name, count in wraps:
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            setattr(module, attr, self._wrap(func, self._name_id(name), count))
            self._patched.append((module, attr, func))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def _wrap(self, func, name_id: int, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans) >> 2
            spans.extend((name_id, clock(), 0, stack[-1]))
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * index + 2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def reset(self) -> None:
        del self.spans[:]
        self.counts.clear()

    def by_name(self) -> dict[str, dict]:
        """Calls, total seconds and self seconds per span name."""
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        duration = table[:, 2] - table[:, 1]
        parent = table[:, 3]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=len(table))
        own = duration - covered
        size = len(self.names)
        calls = np.bincount(table[:, 0], minlength=size)
        total = np.bincount(table[:, 0], weights=duration, minlength=size)
        self_ns = np.bincount(table[:, 0], weights=own, minlength=size)
        return {name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                       "self_s": self_ns[i] / 1e9}
                for i, name in enumerate(self.names) if calls[i]}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that this iteration's spans touched."""
        table = self.by_name()
        out = {}
        for metric, (kind, *keys) in LAYER_METRICS.items():
            if kind == "count":  # reported where the counting span ran
                key, span = keys
                if span in table:
                    value = self.counts[key]
                    out[metric] = value / 1e9 if metric.endswith("gflop") else value
                continue
            names = keys[0] if kind == "self" else keys
            present = [table[n] for n in names if n in table]
            if not present:
                continue
            if kind == "calls":
                out[metric] = sum(row["calls"] for row in present)
            elif kind == "total":
                out[metric] = sum(row["total_s"] for row in present)
            else:
                out[metric] = sum(row["self_s"] for row in present)
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as JSON columns (times in ns from the first span)."""
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        origin = int(table[:, 1].min()) if len(table) else 0
        columns = {"name": table[:, 0], "start_ns": table[:, 1] - origin,
                   "end_ns": table[:, 2] - origin, "parent": table[:, 3]}
        with open(path, "w", encoding="utf-8") as out:
            out.write("{" + json.dumps("names") + ": " + json.dumps(self.names))
            for key, value in extra.items():
                out.write(", " + json.dumps(key) + ": " + json.dumps(value))
            out.write(', "spans": {')
            for i, (key, column) in enumerate(columns.items()):
                out.write((", " if i else "") + json.dumps(key) + ": [")
                out.write(",".join(map(str, column.tolist())))
                out.write("]")
            out.write("}}\n")
